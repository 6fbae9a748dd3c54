"""Prints the verdict rows of the claims harness (:mod:`claims`) at the end
of the run."""

from __future__ import annotations

from typing import Any

import claims


def pytest_terminal_summary(terminalreporter: Any) -> None:
    if claims.VERDICTS:
        seeds = f"{claims.CLAIM_SEEDS[0]}-{claims.CLAIM_SEEDS[-1]}"
        terminalreporter.section(f"claim verdicts over seeds {seeds}")
        for verdict in claims.VERDICTS:
            terminalreporter.write_line(verdict.row())
