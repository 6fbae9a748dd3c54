"""Figure 13: the per-assignment timeline for each SM x PM configuration."""

from claims import check, judge, over_seeds

from repro.crowd import AssignmentStatus


def _terminated(assignments):
    return sum(1 for a in assignments if a.status is AssignmentStatus.TERMINATED)


def test_fig13_assignment_timeline():
    results = over_seeds("fig13")
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
