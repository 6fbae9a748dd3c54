"""Figure 13: the per-assignment timeline for each SM x PM configuration."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.combined import run_combined_experiment


def _terminated(records):
    return sum(1 for r in records if not r.completed)


def test_fig13_assignment_timeline():
    results = over_seeds(functools.partial(run_combined_experiment, num_tasks=60))
    timelines = [result.assignment_timelines() for result in results]
    # Straggler mitigation terminates assignments; the baseline does not.
    check(
        judge(
            "Fig 13: SM/PM8 terminated minus NoSM/PMinf terminated assignments",
            [_terminated(t["SM/PM8"]) - _terminated(t["NoSM/PMinf"]) for t in timelines],
            ">",
            0,
        )
    )
