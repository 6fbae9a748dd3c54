"""Tests for the extension experiments and the command-line interface."""

import dataclasses
import functools

import pytest

from repro.cli import build_parser, main
from repro.experiments.extensions import (
    accuracy_population,
    run_quality_maintenance_experiment,
    run_reweighting_ablation,
)
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.experiments.artifacts import ARTIFACTS


class TestAccuracyPopulation:
    def test_accuracies_span_a_wide_range(self):
        population = accuracy_population(seed=0)
        accuracies = [w.accuracy for w in population.profiles]
        assert min(accuracies) < 0.7
        assert max(accuracies) > 0.9

    def test_latencies_are_tight(self):
        population = accuracy_population(seed=0)
        latencies = [w.mean_latency for w in population.profiles]
        assert max(latencies) <= 8.0
        assert min(latencies) >= 4.0


class TestQualityMaintenanceExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_quality_maintenance_experiment(num_tasks=60, pool_size=10, seed=0)

    def test_all_three_pools_ran(self, result):
        assert set(result.label_accuracy) == {
            "unmaintained",
            "latency-maintained",
            "quality-maintained",
        }

    def test_quality_maintenance_evicts_workers(self, result):
        assert result.replacements["quality-maintained"] >= 1

    def test_quality_maintenance_does_not_hurt_accuracy(self, result):
        assert (
            result.label_accuracy["quality-maintained"]
            >= result.label_accuracy["unmaintained"] - 0.05
        )

    def test_every_arm_starts_from_the_same_pool(self, monkeypatch):
        """The arms differ only in maintenance: each seats its pool before
        recruiting a reserve from the same recruiter."""
        seated = []
        initialize_pool = SimulatedCrowdPlatform.initialize_pool

        def recording(platform, size):
            latency = initialize_pool(platform, size)
            seated.append(platform.pool.worker_ids)
            return latency

        monkeypatch.setattr(SimulatedCrowdPlatform, "initialize_pool", recording)
        run_quality_maintenance_experiment(num_tasks=20, pool_size=6, seed=0)
        assert len(seated) == 3
        assert seated[0] == seated[1] == seated[2]

    def test_rows_render(self, result):
        rows = result.rows()
        assert len(rows) == 3
        assert all(len(row) == 4 for row in rows)


class TestReweightingAblation:
    def test_sweep_covers_all_boosts(self):
        result = run_reweighting_ablation(boosts=(0.5, 1.0, 2.0), num_records=60, seed=0)
        assert set(result.accuracies) == {0.5, 1.0, 2.0}
        assert all(0.4 <= acc <= 1.0 for acc in result.accuracies.values())
        assert result.best_boost() in {0.5, 1.0, 2.0}


def _capture_driver(monkeypatch, artifact_id):
    """Swap the artifact's driver for one with the same signature that
    records its keyword arguments and skips the simulation."""
    artifact = ARTIFACTS[artifact_id]
    captured = {"called": False}

    @functools.wraps(artifact.driver)
    def fake_driver(**kwargs):
        captured["called"] = True
        captured.update(kwargs)
        raise SystemExit(0)

    monkeypatch.setitem(
        ARTIFACTS, artifact_id, dataclasses.replace(artifact, driver=fake_driver)
    )
    return captured


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for artifact_id in ARTIFACTS:
            assert artifact_id in output

    @pytest.mark.parametrize("name", ["not-an-artifact", "straggler", "e2e"])
    def test_parser_rejects_unknown_experiment(self, name):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", name])

    def test_parser_has_no_num_records_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9-11", "--num-records", "150"])

    def test_run_straggler_experiment(self, capsys):
        assert main(["run", "fig9-11", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "(seed=1)" in output
        assert "straggler" in output.lower()
        assert "speedup" in output

    def test_run_termest_experiment(self, capsys):
        assert main(["run", "fig14", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "TermEst" in output


class TestMaxExtraAssignmentsFlag:
    """Round-trip of --max-extra-assignments (and --stream) from argv to
    the drivers whose signature takes them."""

    def test_parser_accepts_cap(self):
        args = build_parser().parse_args(
            ["run", "fig9-11", "--max-extra-assignments", "2"]
        )
        assert args.max_extra_assignments == 2

    def test_parser_defaults_to_no_override(self):
        args = build_parser().parse_args(["run", "fig9-11"])
        assert args.max_extra_assignments is None

    def test_parser_rejects_negatives_other_than_minus_one(self):
        # -2 must not silently mean "unlimited" — only -1 does.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig9-11", "--max-extra-assignments", "-2"]
            )

    def test_cap_reaches_the_straggler_driver(self, monkeypatch):
        captured = _capture_driver(monkeypatch, "fig9-11")
        with pytest.raises(SystemExit):
            main(["run", "fig9-11", "--max-extra-assignments", "2"])
        assert captured["max_extra_assignments"] == 2

    def test_negative_one_means_unlimited(self, monkeypatch):
        captured = _capture_driver(monkeypatch, "fig9-11")
        with pytest.raises(SystemExit):
            main(["run", "fig9-11", "--max-extra-assignments", "-1"])
        assert captured["max_extra_assignments"] is None

    def test_cap_not_forwarded_when_flag_absent(self, monkeypatch):
        captured = _capture_driver(monkeypatch, "fig9-11")
        with pytest.raises(SystemExit):
            main(["run", "fig9-11"])
        assert captured["called"]
        assert "max_extra_assignments" not in captured

    def test_cap_ignored_with_note_for_unaware_experiment(self, monkeypatch, capsys):
        captured = _capture_driver(monkeypatch, "table1")
        with pytest.raises(SystemExit):
            main(["run", "table1", "--max-extra-assignments", "2"])
        assert captured["called"]
        assert "max_extra_assignments" not in captured
        assert "ignoring" in capsys.readouterr().out

    def test_e2e_cap_round_trip(self, monkeypatch):
        captured = _capture_driver(monkeypatch, "fig17-18")
        with pytest.raises(SystemExit):
            main(["run", "fig17-18", "--max-extra-assignments", "3"])
        assert captured["max_extra_assignments"] == 3

    def test_stream_reaches_the_end_to_end_driver(self, monkeypatch):
        captured = _capture_driver(monkeypatch, "fig17-18")
        with pytest.raises(SystemExit):
            main(["run", "fig17-18", "--stream"])
        assert callable(captured["on_event"])

    def test_stream_ignored_with_note_for_unaware_artifact(self, monkeypatch, capsys):
        captured = _capture_driver(monkeypatch, "fig9-11")
        with pytest.raises(SystemExit):
            main(["run", "fig9-11", "--stream"])
        assert "on_event" not in captured
        assert "--stream only applies to fig17-18; ignoring" in capsys.readouterr().out
