"""The claim rule on synthetic per-seed values: the median must meet the
threshold and at least two thirds of the seeds must agree, or every seed
for an invariant."""

import claims
import pytest
from claims import check, judge

NAN = float("nan")


def test_median_passes_but_13_of_20_seeds_agree_fails():
    verdict = judge("synthetic", [2.0] * 13 + [1.0] * 7, ">", 1.5)
    assert verdict.median == 2.0 and verdict.agreeing == 13
    assert not verdict.passed


def test_14_of_20_seeds_agree_but_median_misses_fails():
    # Once 14 seeds agree, only undetermined (nan) seeds can sink the median.
    verdict = judge("synthetic", [2.0] * 14 + [NAN] * 6, ">", 1.5)
    assert verdict.agreeing == 14
    assert not verdict.passed


def test_median_and_14_of_20_seeds_pass():
    assert judge("synthetic", [2.0] * 14 + [1.0] * 6, ">", 1.5).passed
    assert judge("synthetic", [True] * 14 + [False] * 6).passed
    assert not judge("synthetic", [True] * 13 + [False] * 7).passed


def test_invariant_needs_every_seed():
    assert judge("synthetic", [0] * 20, "==", 0, every_seed=True).passed
    verdict = judge("synthetic", [0] * 19 + [1], "==", 0, every_seed=True)
    assert verdict.median == 0 and verdict.agreeing == 19
    assert not verdict.passed
    assert "== 0 on every seed" in verdict.row()


def test_failure_message_names_claim_median_and_agreeing_count(monkeypatch):
    # A synthetic verdict stays out of the session's verdict rows.
    monkeypatch.setattr(claims, "VERDICTS", [])
    verdict = judge("Fig 0: synthetic speedup", [1.25] * 13 + [2.0] * 7, ">", 1.5)
    with pytest.raises(AssertionError) as failure:
        check(verdict)
    message = str(failure.value)
    assert "Fig 0: synthetic speedup" in message
    assert "median 1.25" in message
    assert "7/20 seeds agree" in message
