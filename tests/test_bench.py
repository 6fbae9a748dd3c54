"""Tests for the machine-readable benchmark subsystem (repro.bench)."""

import copy
import itertools
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    available_workloads,
    compare_documents,
    compare_files,
    get_workload,
    load_result,
    register_workload,
    run_benchmark,
    validate_document,
    write_result,
)
from repro.bench.registry import WorkloadOutcome, _REGISTRY
from repro.cli import main

#: A scale sweep small enough for unit tests (one 5-worker pool, 30 records).
TINY_SWEEP = {"sweep": [[5, 30]]}


def run_tiny(seed=0, repeat=1, warmup=0):
    return run_benchmark(
        "scale", seed=seed, repeat=repeat, warmup=warmup, params=TINY_SWEEP
    )


class TestRegistry:
    def test_builtin_workloads_registered(self):
        assert set(available_workloads()) == {
            "headline",
            "scale",
            "scale_capped",
            "concurrency",
            "service",
        }

    def test_unknown_workload_raises_with_known_names(self):
        with pytest.raises(KeyError, match="scale"):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("scale")(lambda seed=0: None)

    def test_defaults_recorded_on_spec(self):
        spec = get_workload("scale")
        assert "sweep" in spec.defaults


class TestRunner:
    def test_result_carries_throughput_metrics(self):
        result = run_tiny()
        assert result.outcome.events_processed > 0
        assert result.outcome.labels == 30
        assert result.events_per_second > 0
        assert result.labels_per_second > 0
        assert result.sim_real_ratio > 0
        assert result.best_wall_seconds <= result.mean_wall_seconds + 1e-12

    def test_repeat_and_warmup_validation(self):
        with pytest.raises(ValueError):
            run_benchmark("scale", repeat=0)
        with pytest.raises(ValueError):
            run_benchmark("scale", warmup=-1)

    def test_same_seed_runs_are_identical(self):
        first = run_tiny(seed=7)
        second = run_tiny(seed=7)
        assert first.outcome.fingerprint() == second.outcome.fingerprint()

    def test_different_seeds_differ(self):
        first = run_tiny(seed=0)
        second = run_tiny(seed=1)
        assert first.outcome.fingerprint() != second.outcome.fingerprint()

    def test_repeat_determinism_check_passes_for_real_workloads(self):
        result = run_tiny(repeat=2)
        assert len(result.wall_seconds) == 2

    def test_nondeterministic_workload_detected(self):
        counter = itertools.count()

        @register_workload("_test_nondet", description="intentionally broken")
        def nondet(seed=0):
            return WorkloadOutcome(
                sim_seconds=1.0,
                events_processed=next(counter),
                labels=0,
                cost=0.0,
            )

        try:
            with pytest.raises(RuntimeError, match="nondeterministic"):
                run_benchmark("_test_nondet", repeat=2, warmup=0)
        finally:
            _REGISTRY.pop("_test_nondet", None)


class TestJsonSchema:
    def test_round_trip(self, tmp_path):
        result = run_tiny()
        path = write_result(result, tmp_path / "BENCH_scale.json")
        loaded = load_result(path)
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["workload"] == "scale"
        assert loaded["seed"] == 0
        assert loaded["events_processed"] == result.outcome.events_processed
        assert loaded["labels"] == result.outcome.labels
        assert loaded["events_per_second"] == pytest.approx(
            result.events_per_second, rel=1e-3
        )
        assert loaded["cost"]["total_dollars"] == pytest.approx(
            result.outcome.cost, abs=1e-5
        )
        assert loaded["wall_seconds"]["best"] <= loaded["wall_seconds"]["mean"] + 1e-9
        assert loaded["params"]["sweep"] == [[5, 30]]

    def test_dispatch_probe_counters_split_out_of_cost(self, tmp_path):
        """Probe diagnostics live in their own ``dispatch`` section so the
        strict comparator's cost check keeps meaning "same behaviour"."""
        result = run_tiny()
        path = write_result(result, tmp_path / "BENCH_scale.json")
        loaded = load_result(path)
        assert set(loaded["dispatch"]) == {"probes_attempted", "probes_futile"}
        assert loaded["dispatch"]["probes_attempted"] > 0
        assert not any(key.startswith("probes_") for key in loaded["cost"])
        # The probe invariant survives serialisation.
        assert loaded["dispatch"]["probes_attempted"] == (
            loaded["cost"]["assignments_started"]
            + loaded["dispatch"]["probes_futile"]
        )

    def test_write_creates_parent_directories(self, tmp_path):
        result = run_tiny()
        path = write_result(result, tmp_path / "deep" / "dir" / "BENCH_scale.json")
        assert path.exists()

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_document({"workload": "scale"})

    def test_validate_rejects_wrong_version(self, tmp_path):
        result = run_tiny()
        document = result.to_dict()
        document["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_document(document)

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError):
            load_result(path)


class TestComparator:
    def base_document(self):
        return run_tiny().to_dict()

    def test_identical_documents_pass(self):
        document = self.base_document()
        report = compare_documents(document, dict(document))
        assert report.passed
        assert report.events_ratio == pytest.approx(1.0)

    def test_small_regression_within_threshold_passes(self):
        baseline = self.base_document()
        current = dict(baseline)
        current["events_per_second"] = baseline["events_per_second"] * 0.8
        current["labels_per_second"] = baseline["labels_per_second"] * 0.8
        report = compare_documents(baseline, current, max_regression=0.30)
        assert report.passed

    def test_large_regression_fails(self):
        baseline = self.base_document()
        current = dict(baseline)
        current["events_per_second"] = baseline["events_per_second"] * 0.5
        current["labels_per_second"] = baseline["labels_per_second"] * 0.5
        report = compare_documents(baseline, current, max_regression=0.30)
        assert not report.passed
        assert any("REGRESSION" in message for message in report.messages)

    def test_speedup_always_passes(self):
        baseline = self.base_document()
        current = dict(baseline)
        current["events_per_second"] = baseline["events_per_second"] * 4.0
        current["labels_per_second"] = baseline["labels_per_second"] * 4.0
        assert compare_documents(baseline, current).passed

    def test_workload_mismatch_is_an_error(self):
        baseline = self.base_document()
        current = dict(baseline)
        current["workload"] = "headline"
        with pytest.raises(ValueError, match="different workloads"):
            compare_documents(baseline, current)

    def test_strict_flags_outcome_mismatch_for_same_seed(self):
        baseline = self.base_document()
        current = dict(baseline)
        current["labels"] = baseline["labels"] + 1
        report = compare_documents(baseline, current, strict=True)
        assert not report.passed
        assert any("MISMATCH" in message for message in report.messages)

    def test_strict_passes_for_identical_outcomes(self):
        document = self.base_document()
        assert compare_documents(document, dict(document), strict=True).passed

    def test_strict_notes_but_does_not_gate_dispatch_differences(self):
        """Fast vs reference-mode documents differ only in probe volume; strict
        must mention it without failing."""
        baseline = self.base_document()
        current = dict(baseline)
        current["dispatch"] = {
            key: value * 10 for key, value in baseline["dispatch"].items()
        }
        report = compare_documents(baseline, current, strict=True)
        assert report.passed
        assert any("dispatch probe counters" in message for message in report.messages)

    def test_strict_tolerates_baselines_predating_dispatch_section(self):
        # One run, two copies: a second live run would make the comparison
        # hinge on wall-clock throughput noise (flaky under suite load).
        current = self.base_document()
        baseline = copy.deepcopy(current)
        del baseline["dispatch"]
        report = compare_documents(baseline, current, strict=True)
        assert report.passed

    def test_seed_difference_noted_not_failed(self):
        baseline = self.base_document()
        current = dict(baseline)
        current["seed"] = 99
        report = compare_documents(baseline, current)
        assert report.passed
        assert any("seeds differ" in message for message in report.messages)

    def test_invalid_threshold_rejected(self):
        document = self.base_document()
        with pytest.raises(ValueError, match="max_regression"):
            compare_documents(document, dict(document), max_regression=1.5)

    def test_compare_files(self, tmp_path):
        result = run_tiny()
        baseline = write_result(result, tmp_path / "baseline.json")
        current = write_result(result, tmp_path / "current.json")
        assert compare_files(baseline, current, strict=True).passed


class TestBenchCli:
    def test_bench_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"])
        assert excinfo.value.code == 0
        assert "compare" in capsys.readouterr().out

    def test_bench_list_names_workloads(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("headline", "scale"):
            assert name in out

    def test_unknown_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "warp-speed"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_workload_run_writes_json(self, tmp_path, capsys):
        target = tmp_path / "out" / "BENCH_scale.json"
        code = main(
            [
                "bench",
                "scale",
                "--repeat",
                "1",
                "--warmup",
                "0",
                "--param",
                "sweep=[[5, 30]]",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        assert target.exists()
        loaded = load_result(target)
        assert loaded["workload"] == "scale"
        assert "events processed" in capsys.readouterr().out

    def test_bad_param_syntax_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "scale", "--param", "novalue"])
        assert excinfo.value.code == 2

    def test_compare_cli_pass_and_fail_exit_codes(self, tmp_path, capsys):
        result = run_tiny()
        baseline_path = write_result(result, tmp_path / "baseline.json")
        current_path = write_result(result, tmp_path / "current.json")
        assert (
            main(["bench", "compare", str(baseline_path), str(current_path)]) == 0
        )
        degraded = result.to_dict()
        degraded["events_per_second"] *= 0.1
        degraded["labels_per_second"] *= 0.1
        degraded_path = tmp_path / "degraded.json"
        degraded_path.write_text(json.dumps(degraded))
        assert (
            main(["bench", "compare", str(baseline_path), str(degraded_path)]) == 1
        )
        assert "FAIL" in capsys.readouterr().out


BASELINES_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


class TestCommittedBaselines:
    """The baselines the CI gate reads must stay schema-valid and coherent."""

    #: Every committed baseline: what CI compares against, plus the
    #: reference-mode twins the tests below compare the fast ones to.
    COMMITTED = {
        "BENCH_headline.json",
        "BENCH_scale.json",
        "BENCH_scale.reference.json",
        "BENCH_scale_capped.json",
        "BENCH_scale_capped.reference.json",
        "BENCH_service.json",
        "BENCH_concurrency.json",
    }

    def test_committed_baselines_are_schema_valid(self):
        assert {path.name for path in BASELINES_DIR.iterdir()} == self.COMMITTED
        for name in self.COMMITTED:
            document = load_result(BASELINES_DIR / name)
            assert document["events_per_second"] > 0

    @staticmethod
    def _assert_reference_twin(workload):
        """``BENCH_<workload>.reference.json`` (``--param reference=true``)
        must be bit-identical in labels, cost counters, events, and
        simulated time to the committed fast baseline.  The reference
        document is the baseline of the compare: the fast run is the faster
        one, so only that order clears the throughput floor."""
        reference = load_result(BASELINES_DIR / f"BENCH_{workload}.reference.json")
        fast = load_result(BASELINES_DIR / f"BENCH_{workload}.json")
        assert reference["params"]["reference"] is True
        report = compare_documents(reference, fast, strict=True, max_regression=0.99)
        assert report.passed, report.summary_lines()

    def test_scale_reference_dispatch_matches_the_fast_baseline(self):
        """Reference dispatch (scan plus probing every worker) replays the
        fast ``scale`` baseline."""
        self._assert_reference_twin("scale")

    def test_headline_dispatch_matches_the_committed_baseline(self):
        """A fresh ``headline`` run probes exactly as the committed baseline
        did.  ``compare --strict`` only notes a probe-count difference, so
        this pins the fast dispatch path's probe volume."""
        committed = load_result(BASELINES_DIR / "BENCH_headline.json")
        fresh = run_benchmark(
            "headline",
            seed=committed["seed"],
            repeat=1,
            warmup=0,
            params=committed["params"],
        ).to_dict()
        assert fresh["dispatch"] == committed["dispatch"]
        assert fresh["cost"] == committed["cost"]

    def test_capped_baseline_is_schema_valid_and_capped(self):
        document = load_result(BASELINES_DIR / "BENCH_scale_capped.json")
        assert document["workload"] == "scale_capped"
        assert document["params"]["max_extra_assignments"] == 2
        assert document["events_per_second"] > 0

    def test_capped_baseline_cuts_the_assignment_tail(self):
        """The committed capped baseline shows >= 2x fewer assignment starts
        than the uncapped scale baseline at the 1000-worker tier (and >= 2x
        overall), for the same labels."""
        uncapped = load_result(BASELINES_DIR / "BENCH_scale.json")
        capped = load_result(BASELINES_DIR / "BENCH_scale_capped.json")
        assert capped["labels"] == uncapped["labels"]
        assert (
            uncapped["cost"]["assignments_started"]
            >= 2.0 * capped["cost"]["assignments_started"]
        )

        def tier_1000(document):
            # Per-point details only exist in documents written after the
            # cap landed; the committed capped file always has them.
            [point] = [
                p
                for p in document["details"]["sweep"]
                if p["pool_size"] == 1000
            ]
            return point

        capped_point = tier_1000(capped)
        assert capped_point["labels"] == 8000
        # The uncapped tail starts ~8 assignments per record at this tier
        # (64k starts for 8k records); the committed capped point must show
        # at least the 2x cut the bounded tail promises.
        uncapped_starts = tier_1000(uncapped).get("assignments_started", 64149.0)
        assert uncapped_starts >= 2.0 * capped_point["assignments_started"]

    def test_capped_baseline_matches_the_scan_oracle(self):
        """Reference mode serves capped dispatch from ``pick_task_scan``."""
        self._assert_reference_twin("scale_capped")


class TestScaleCappedWorkload:
    TINY = {"sweep": [[6, 40]]}

    def test_registered_with_cap_default(self):
        assert "scale_capped" in available_workloads()
        assert get_workload("scale_capped").defaults["max_extra_assignments"] == 2

    def test_cap_reduces_assignment_starts_for_same_labels(self):
        uncapped = get_workload("scale").execute(seed=0, **self.TINY)
        capped = get_workload("scale_capped").execute(seed=0, **self.TINY)
        assert capped.labels == uncapped.labels == 40
        assert (
            capped.counters["assignments_started"]
            < uncapped.counters["assignments_started"]
        )

    @staticmethod
    def _behavioural(outcome):
        fingerprint = outcome.fingerprint()
        fingerprint["counters"] = {
            key: value
            for key, value in fingerprint["counters"].items()
            if not key.startswith("probes_")
        }
        return fingerprint

    def test_indexed_and_oracle_dispatch_agree(self):
        """``reference=True`` (scan dispatch, probing every available
        worker) must fingerprint identically to the fast capped run, probe
        counters aside."""
        spec = get_workload("scale_capped")
        fast = spec.execute(seed=3, **self.TINY)
        reference = spec.execute(seed=3, reference=True, **self.TINY)
        assert self._behavioural(fast) == self._behavioural(reference)

    def test_gate_off_changes_probe_volume_only(self):
        """Reference mode probes exhaustively; the fast run probes less."""
        spec = get_workload("scale_capped")
        fast = spec.execute(seed=3, **self.TINY)
        reference = spec.execute(seed=3, reference=True, **self.TINY)
        assert (
            fast.counters["probes_attempted"]
            < reference.counters["probes_attempted"]
        )
        assert fast.counters["probes_futile"] < reference.counters["probes_futile"]

    def test_cli_accepts_capped_workload(self, tmp_path, capsys):
        json_path = tmp_path / "BENCH_scale_capped.json"
        code = main(
            [
                "bench",
                "scale_capped",
                "--repeat",
                "1",
                "--warmup",
                "0",
                "--param",
                "sweep=[[6, 40]]",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        document = json.loads(json_path.read_text())
        assert document["workload"] == "scale_capped"
        assert document["params"]["max_extra_assignments"] == 2
        assert document["details"]["sweep"][0]["assignments_started"] > 0


class TestConcurrencyWorkload:
    #: Small enough for unit tests: 2 jobs x 20 records on 3-worker pools.
    TINY = {"num_jobs": 2, "max_workers": 2, "num_records": 20, "pool_size": 3}

    def test_registered_with_defaults(self):
        assert "concurrency" in available_workloads()
        spec = get_workload("concurrency")
        assert spec.defaults["num_jobs"] > 0
        assert spec.defaults["max_workers"] > 0

    def test_outcome_aggregates_all_jobs(self):
        outcome = get_workload("concurrency").execute(seed=0, **self.TINY)
        assert outcome.labels == 2 * 20
        assert outcome.details["per_job_labels"] == [20, 20]
        assert outcome.events_processed > 0
        assert outcome.cost > 0

    def test_deterministic_across_repeats(self):
        """Thread interleaving must not leak into the fingerprint."""
        result = run_benchmark(
            "concurrency", seed=0, repeat=3, warmup=0, params=self.TINY
        )
        assert result.outcome.labels == 2 * 20

    def test_jobs_with_distinct_seeds_differ(self):
        first = get_workload("concurrency").execute(seed=0, **self.TINY)
        second = get_workload("concurrency").execute(seed=1, **self.TINY)
        assert first.fingerprint() != second.fingerprint()

    def test_emits_schema_valid_json(self, tmp_path):
        result = run_benchmark(
            "concurrency", seed=0, repeat=1, warmup=0, params=self.TINY
        )
        path = write_result(result, tmp_path / "BENCH_concurrency.json")
        document = load_result(path)
        assert document["workload"] == "concurrency"
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["labels"] == 2 * 20

    def test_cli_run_writes_json(self, tmp_path, capsys):
        target = tmp_path / "BENCH_concurrency.json"
        code = main(
            [
                "bench", "concurrency", "--repeat", "1", "--warmup", "0",
                "--json", str(target),
                "--param", "num_jobs=2", "--param", "max_workers=2",
                "--param", "num_records=20", "--param", "pool_size=3",
            ]
        )
        assert code == 0
        assert load_result(target)["workload"] == "concurrency"
