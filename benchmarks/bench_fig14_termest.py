"""Figure 14: worker replacement rate with and without TermEst (alpha = 1)."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.combined import run_termest_experiment


def test_fig14_termest_replacement_rate():
    results = over_seeds(functools.partial(run_termest_experiment, num_tasks=100))
    check(
        judge(
            "Fig 14: replacements with TermEst minus without",
            [r.replacements_with - r.replacements_without for r in results],
            ">",
            0,
        )
    )
