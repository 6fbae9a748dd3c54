"""The paper artifacts: every one runs from ``repro run`` at claim scale, and
the claims in ``benchmarks/`` take their experiments from the same
declarations."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.artifacts import ARTIFACTS

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("artifact_id", list(ARTIFACTS))
def test_run_prints_every_table_at_claim_scale(artifact_id, monkeypatch, capsys):
    artifact = ARTIFACTS[artifact_id]
    printed = []

    def recording_printer(result):
        tables = artifact.printer(result)
        printed.extend(tables)
        return tables

    monkeypatch.setitem(
        ARTIFACTS, artifact_id, dataclasses.replace(artifact, printer=recording_printer)
    )
    assert main(["run", artifact_id, "--seed", "0"]) == 0
    output = capsys.readouterr().out
    assert printed
    for table in printed:
        assert table.rows
        assert f"=== {table.title} ===" in output


def test_bench_files_take_experiments_from_artifacts():
    drivers = {}
    for path in sorted(BENCHMARKS.glob("bench_*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        drivers[path.name] = sorted(
            name
            for name in imported
            if name.startswith("run_") or name == "build_technique_matrix"
        )
    assert drivers, "no benchmarks/bench_*.py found"
    assert not any(drivers.values()), drivers
