"""Call budget of the simulator's per-assignment path.

Every straggler duplicate is an assignment start that a completion later
terminates, so the Python calls made per start, completion and termination
set how fast a mitigation run simulates.  This counts the Python-level
``call`` events (``sys.setprofile``; calls into C are not counted) made
inside each platform transition, observer callbacks included, over one fixed
job: pool 60, 3,000 records, learning and maintenance off.  A count does not
depend on the host, so the budget holds the per-transition work down without
timing noise.

Each budget is the measured count plus a little slack: 11.5 calls per
start, 9.3 per completion and 8.0 per termination.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro import JobSpec, LearningStrategy, full_clamshell
from repro.api.engine import build_run
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.experiments.common import make_labeling_workload, mixed_speed_population

#: Python calls per transition, the transition's own call included.
BUDGETS = {"start": 12.0, "complete": 10.0, "terminate": 8.5}


@pytest.fixture(scope="module")
def calls_per_transition() -> dict[str, float]:
    spec = JobSpec(
        dataset=make_labeling_workload(num_records=3000, seed=0),
        config=full_clamshell(
            pool_size=60,
            seed=0,
            maintenance_threshold=None,
            learning_strategy=LearningStrategy.NONE,
        ),
        population=mixed_speed_population(seed=0),
        num_records=3000,
    )
    platform, batcher = build_run(spec)
    transitions = {
        SimulatedCrowdPlatform.start_assignment.__code__: "start",
        SimulatedCrowdPlatform.complete_assignment.__code__: "complete",
        SimulatedCrowdPlatform.terminate_assignment.__code__: "terminate",
    }
    calls: Counter[str] = Counter()
    # Frames of the transitions in progress, innermost last: a termination
    # can run inside another transition's callback.
    open_frames: list[tuple[str, object]] = []

    def profile(frame, event, arg):
        if event == "call":
            name = transitions.get(frame.f_code)
            if name is not None:
                open_frames.append((name, frame))
            for name, _ in open_frames:
                calls[name] += 1
        elif event == "return" and open_frames and open_frames[-1][1] is frame:
            open_frames.pop()

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = batcher.run(num_records=spec.num_records)
    finally:
        sys.setprofile(previous)
    assert result.records_labeled == 3000
    counters = platform.counters
    # The job exercises every transition many times over.
    assert counters.assignments_started > 2 * counters.assignments_completed
    return {
        "start": calls["start"] / counters.assignments_started,
        "complete": calls["complete"] / counters.assignments_completed,
        "terminate": calls["terminate"] / counters.assignments_terminated,
    }


@pytest.mark.parametrize("transition", sorted(BUDGETS))
def test_calls_per_transition_within_budget(calls_per_transition, transition):
    assert calls_per_transition[transition] <= BUDGETS[transition], (
        f"{calls_per_transition[transition]:.2f} Python calls per {transition}, "
        f"budget {BUDGETS[transition]}"
    )
