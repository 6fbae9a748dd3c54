"""Tests for the ``repro.lint`` determinism/concurrency static-analysis pass.

Three layers:

* fixture snippets — every rule fires on a minimal bad example and stays
  silent on the corrected version (the rule catalog's contract);
* framework behaviour — pragma suppression (with mandatory justification),
  unused-pragma detection, JSON output, CLI exit codes (the shape the CI
  lint gate relies on: introducing a seeded bad-example file must flip the
  exit code to 1);
* the repo itself — ``repro lint src tests benchmarks`` must be clean, so
  the invariants hold on every commit, not just in fixtures.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules, main, run_lint
from repro.lint.core import FRAMEWORK_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Path that puts a fixture inside every rule's scope (sim core).
CORE_PATH = "src/repro/core/fake_module.py"


def lint_source(tmp_path, source, module_path=CORE_PATH):
    path = tmp_path / module_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([path], root=tmp_path)


def fired(report):
    return {finding.rule_id for finding in report.findings}


# ---------------------------------------------------------------------------
# Rule fixtures: (rule id, bad snippet, corrected snippet)
# ---------------------------------------------------------------------------

RULE_FIXTURES = [
    (
        "REPRO-D101",
        """
        import numpy as np

        def make():
            return np.random.default_rng()
        """,
        """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
        """,
    ),
    (
        "REPRO-D101",
        """
        from numpy.random import default_rng

        def make():
            return default_rng()
        """,
        """
        from numpy.random import default_rng

        def make(seed):
            return default_rng(seed)
        """,
    ),
    (
        "REPRO-D102",
        """
        import numpy as np

        def draw(seed):
            np.random.seed(seed)
            return np.random.rand(3)
        """,
        """
        import numpy as np

        def draw(seed):
            rng = np.random.default_rng(seed)
            return rng.random(3)
        """,
    ),
    (
        "REPRO-D103",
        """
        import random

        def shuffle(items, seed):
            random.shuffle(items)
        """,
        """
        def shuffle(items, rng):
            return [items[i] for i in rng.permutation(len(items))]
        """,
    ),
    (
        "REPRO-D103",
        """
        from random import choice

        def pick(items):
            return choice(items)
        """,
        """
        def pick(items, rng):
            return items[int(rng.integers(len(items)))]
        """,
    ),
    (
        "REPRO-D104",
        """
        import time

        def stamp():
            return time.time()
        """,
        """
        def stamp(platform):
            return platform.now
        """,
    ),
    (
        "REPRO-D104",
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """,
        """
        def stamp(clock):
            return clock
        """,
    ),
    (
        "REPRO-D201",
        """
        import numpy as np

        class Picker:
            def pick(self, items):
                rng = np.random.default_rng(0)
                return items[int(rng.integers(len(items)))]
        """,
        """
        import numpy as np

        class Picker:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def pick(self, items):
                return items[int(self._rng.integers(len(items)))]
        """,
    ),
    (
        "REPRO-C301",
        """
        import threading

        class Counter:
            _GUARDED_BY = {"_lock": ("_count",)}

            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                self._count += 1
        """,
        """
        import threading

        class Counter:
            _GUARDED_BY = {"_lock": ("_count",)}

            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1
        """,
    ),
    (
        "REPRO-C302",
        """
        import threading

        class Box:
            _GUARDED_BY = {"_cond": ("_ready",)}

            def __init__(self):
                self._cond = threading.Condition()
                self._ready = False

            def poke(self):
                with self._cond:
                    self._ready = True
                self._cond.notify_all()
        """,
        """
        import threading

        class Box:
            _GUARDED_BY = {"_cond": ("_ready",)}

            def __init__(self):
                self._cond = threading.Condition()
                self._ready = False

            def poke(self):
                with self._cond:
                    self._ready = True
                    self._cond.notify_all()
        """,
    ),
    (
        "REPRO-C303",
        """
        import threading

        class Plain:
            def __init__(self):
                self._lock = threading.Lock()
        """,
        """
        import threading

        class Plain:
            _GUARDED_BY = {"_lock": ()}

            def __init__(self):
                self._lock = threading.Lock()
        """,
    ),
    (
        "REPRO-O401",
        """
        def merge(own, other):
            for record_id in set(own) & set(other):
                yield record_id
        """,
        """
        def merge(own, other):
            for record_id in own:
                if record_id in other:
                    yield record_id
        """,
    ),
    (
        "REPRO-O401",
        """
        def first_keys(votes):
            return [k for k in votes.keys()]
        """,
        """
        def first_keys(votes):
            return [k for k in votes]
        """,
    ),
    (
        "REPRO-O401",
        """
        def drain(items):
            pending = set(items)
            for item in pending:
                yield item
        """,
        """
        def drain(items):
            pending = set(items)
            for item in sorted(pending):
                yield item
        """,
    ),
    (
        "REPRO-P501",
        """
        class Indexed:
            _SCAN_TWINS = {"fast": "fast_scan"}

            def fast(self):
                return self._index.count()
        """,
        """
        class Indexed:
            _SCAN_TWINS = {"fast": "fast_scan"}

            def fast(self):
                return self._index.count()

            def fast_scan(self):
                return 0
        """,
    ),
    (
        "REPRO-P501",
        """
        class Indexed:
            _SCAN_TWINS = {"fast": "fast_scan"}

            def fast(self):
                return self._index.count()

            def fast_scan(self):
                return 0

            def sneaky(self):
                return self._index.other()
        """,
        """
        class Indexed:
            _SCAN_TWINS = {"fast": "fast_scan", "sneaky": "fast_scan"}

            def fast(self):
                return self._index.count()

            def fast_scan(self):
                return 0

            def sneaky(self):
                return self._index.other()
        """,
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule_id,bad,good",
        RULE_FIXTURES,
        ids=[f"{rule_id}-{i}" for i, (rule_id, _, _) in enumerate(RULE_FIXTURES)],
    )
    def test_fires_on_bad_and_not_on_good(self, tmp_path, rule_id, bad, good):
        bad_report = lint_source(tmp_path / "bad", bad)
        assert rule_id in fired(bad_report), (
            f"{rule_id} should fire on the bad example; "
            f"got {sorted(fired(bad_report))}"
        )
        good_report = lint_source(tmp_path / "good", good)
        assert rule_id not in fired(good_report), (
            f"{rule_id} must stay silent on the corrected example; "
            f"findings: {[f.render() for f in good_report.findings]}"
        )

    def test_catalog_covers_all_five_families(self):
        rule_ids = {rule.rule_id for rule in all_rules()}
        # Family = letter + leading digit of the number: D1, D2, C3, O4, P5.
        families = {rule_id.split("-")[1][:2] for rule_id in rule_ids}
        assert {
            "REPRO-D101",
            "REPRO-D102",
            "REPRO-D103",
            "REPRO-D104",
            "REPRO-D201",
            "REPRO-C301",
            "REPRO-C302",
            "REPRO-C303",
            "REPRO-O401",
            "REPRO-P501",
        } <= rule_ids
        assert len(families) >= 5

    def test_rules_declare_metadata(self):
        for rule in all_rules():
            assert rule.rule_id.startswith("REPRO-")
            assert rule.name
            assert rule.description


class TestScoping:
    def test_wall_clock_rule_ignores_tests(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.time()
        """
        report = lint_source(tmp_path, source, module_path="tests/test_fake.py")
        assert "REPRO-D104" not in fired(report)

    def test_ordering_rule_limited_to_sim_core(self, tmp_path):
        source = """
        def merge(a, b):
            for x in set(a) & set(b):
                yield x
        """
        report = lint_source(
            tmp_path, source, module_path="src/repro/experiments/fake.py"
        )
        assert "REPRO-O401" not in fired(report)

    def test_guarded_by_required_in_src_only(self, tmp_path):
        source = """
        import threading

        class Plain:
            def __init__(self):
                self._lock = threading.Lock()
        """
        report = lint_source(tmp_path, source, module_path="tests/helper.py")
        assert "REPRO-C303" not in fired(report)


class TestOracleParityCrossFile:
    def test_missing_registry_in_required_module(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            class StragglerMitigator:
                def pick_task(self):
                    return None
            """,
            module_path="src/repro/core/mitigator.py",
        )
        assert "REPRO-P501" in fired(report)

    def test_platform_module_needs_no_registry(self, tmp_path):
        """The crowd platform keeps one in-flight assignment table and no
        fast path, so a platform module without ``_SCAN_TWINS`` is clean."""
        report = lint_source(
            tmp_path,
            """
            class SimulatedCrowdPlatform:
                def start_assignment(self, task, worker_id):
                    return None
            """,
            module_path="src/repro/crowd/platform.py",
        )
        assert "REPRO-P501" not in fired(report)

    def test_crowd_package_in_scope_for_twin_checks(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            class _FastPath:
                _SCAN_TWINS = {"record": "missing_twin"}

                def record(self):
                    return None
            """,
            module_path="src/repro/crowd/fake.py",
        )
        assert "REPRO-P501" in fired(report)

    def test_cross_class_twin_resolves(self, tmp_path):
        (tmp_path / "src/repro/core").mkdir(parents=True)
        (tmp_path / "src/repro/core/index.py").write_text(
            textwrap.dedent(
                """
                class FakeIndex:
                    _SCAN_TWINS = {"peek": "Scanner.peek_scan"}

                    def peek(self):
                        return 1
                """
            )
        )
        (tmp_path / "src/repro/core/scan.py").write_text(
            textwrap.dedent(
                """
                class Scanner:
                    def peek_scan(self):
                        return 1
                """
            )
        )
        report = run_lint([tmp_path / "src"], root=tmp_path)
        assert "REPRO-P501" not in fired(report)

    def test_cross_class_twin_missing_method(self, tmp_path):
        (tmp_path / "src/repro/core").mkdir(parents=True)
        (tmp_path / "src/repro/core/index.py").write_text(
            textwrap.dedent(
                """
                class FakeIndex:
                    _SCAN_TWINS = {"peek": "Scanner.peek_scan"}

                    def peek(self):
                        return 1
                """
            )
        )
        (tmp_path / "src/repro/core/scan.py").write_text(
            textwrap.dedent(
                """
                class Scanner:
                    def unrelated(self):
                        return 1
                """
            )
        )
        report = run_lint([tmp_path / "src"], root=tmp_path)
        assert "REPRO-P501" in fired(report)


class TestPragmas:
    BAD = """
    import time

    def stamp():
        return time.time()  # repro: allow[REPRO-D104] -- fixture wall-timing site
    """

    def test_justified_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, self.BAD)
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule_id == "REPRO-D104"

    def test_above_line_pragma_suppresses(self, tmp_path):
        source = """
        import time

        def stamp():
            # repro: allow[REPRO-D104] -- fixture wall-timing site
            return time.time()
        """
        report = lint_source(tmp_path, source)
        assert report.ok
        assert len(report.suppressed) == 1

    def test_pragma_without_justification_is_a_finding(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.time()  # repro: allow[REPRO-D104]
        """
        report = lint_source(tmp_path, source)
        assert "REPRO-X001" in fired(report)
        # The original finding is still suppressed; only the bare pragma fails.
        assert "REPRO-D104" not in fired(report)

    def test_unused_pragma_is_a_finding(self, tmp_path):
        source = """
        def harmless():
            return 1  # repro: allow[REPRO-D104] -- nothing here needs this
        """
        report = lint_source(tmp_path, source)
        assert fired(report) == {"REPRO-X002"}

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.time()  # repro: allow[REPRO-O401] -- wrong rule id
        """
        report = lint_source(tmp_path, source)
        assert "REPRO-D104" in fired(report)
        assert "REPRO-X002" in fired(report)

    def test_multi_rule_pragma(self, tmp_path):
        source = """
        import numpy as np

        class Picker:
            def pick(self, items):
                rng = np.random.default_rng()  # repro: allow[REPRO-D101,REPRO-D201] -- fixture
                return rng
        """
        report = lint_source(tmp_path, source)
        assert report.ok
        assert {f.rule_id for f in report.suppressed} == {
            "REPRO-D101",
            "REPRO-D201",
        }


class TestCliAndOutput:
    def _write_bad_file(self, tmp_path):
        path = tmp_path / CORE_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        # `seed` is accepted but ignored, so exactly one rule (D101) fires.
        path.write_text(
            "import numpy as np\n\n\ndef make(seed):\n"
            "    return np.random.default_rng()\n"
        )
        return path

    def test_exit_one_when_bad_example_introduced(self, tmp_path, monkeypatch):
        """The CI gate: a seeded bad-example file must fail the build."""
        self._write_bad_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1

    def test_exit_zero_on_clean_tree(self, tmp_path, monkeypatch):
        path = tmp_path / CORE_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0

    def test_json_output(self, tmp_path, monkeypatch, capsys):
        self._write_bad_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        exit_code = main(["src", "--format", "json"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["ok"] is False
        assert document["files_checked"] == 1
        [finding] = document["findings"]
        assert finding["rule"] == "REPRO-D101"
        assert finding["path"].endswith("fake_module.py")
        assert finding["line"] == 5
        assert "message" in finding and "col" in finding

    def test_json_output_clean(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / CORE_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["findings"] == []

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in output
        for rule_id in FRAMEWORK_RULES:
            assert rule_id in output

    def test_syntax_error_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        report = run_lint([path], root=tmp_path)
        assert fired(report) == {"REPRO-X000"}

    def test_report_is_deterministic(self, tmp_path):
        self._write_bad_file(tmp_path)
        first = run_lint([tmp_path], root=tmp_path).to_json()
        second = run_lint([tmp_path], root=tmp_path).to_json()
        assert first == second


class TestRepoIsClean:
    def test_repo_tree_has_zero_unsuppressed_findings(self):
        """`repro lint src tests benchmarks` exits 0 on the committed tree."""
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )

    def test_repo_suppressions_all_carry_justifications(self):
        # run_lint would emit REPRO-X001 findings otherwise; this asserts the
        # suppressions exist at all (the engine/bench wall-timing sites).
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"], root=REPO_ROOT
        )
        assert report.ok
        assert len(report.suppressed) >= 8
        assert all(
            finding.rule_id == "REPRO-D104" for finding in report.suppressed
        )
