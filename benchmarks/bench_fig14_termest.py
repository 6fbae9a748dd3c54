"""Figure 14: worker replacement rate with and without TermEst (alpha = 1)."""

from claims import check, judge, over_seeds


def test_fig14_termest_replacement_rate():
    results = over_seeds("fig14")
    check(
        judge(
            "Fig 14: replacements with TermEst minus without",
            [r.replacements_with - r.replacements_without for r in results],
            ">",
            0,
        )
    )
