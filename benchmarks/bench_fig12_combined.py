"""Figure 12: combining straggler mitigation and pool maintenance (2x2 factorial)."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.combined import run_combined_experiment


def test_fig12_combined_techniques():
    results = over_seeds(functools.partial(run_combined_experiment, num_tasks=100))
    check(
        *(
            judge(
                f"Fig 12: {label} speedup over NoSM/PMinf",
                [result.speedup_over_baseline(label) for result in results],
                ">",
                1.5,
            )
            for label in ("SM/PM8", "SM/PMinf")
        )
    )
