"""Unit tests for the analysis package (latency profiling and statistics)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.latency_profile import empirical_cdf, profile_trace, worker_latency_cdfs
from repro.analysis.stats import (
    bootstrap_mean_ci,
    coefficient_of_variation,
    empirical_std,
    one_sided_mean_test,
    one_sided_t_test,
    percentile_summary,
)
from repro.crowd.traces import CrowdTrace, MedicalDeploymentParameters, generate_medical_trace


@pytest.fixture(scope="module")
def trace():
    params = MedicalDeploymentParameters(num_workers=60, num_tasks=3000)
    return generate_medical_trace(params, seed=1)


class TestEmpiricalCDF:
    def test_probabilities_reach_one(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert cdf.probabilities[-1] == pytest.approx(1.0)
        assert list(cdf.values) == [1.0, 2.0, 3.0]

    def test_quantile_and_probability_at(self):
        cdf = empirical_cdf(list(range(1, 101)))
        assert cdf.quantile(0.5) == pytest.approx(50.5)
        assert cdf.probability_at(50) == pytest.approx(0.5)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([1.0]).quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestProfileTrace:
    def test_taxonomy_has_all_granularities(self, trace):
        taxonomy = profile_trace(trace)
        granularities = {g for g, _, _ in taxonomy.rows()}
        assert granularities == {"task", "batch", "full-run"}

    def test_task_sources_match_table1(self, trace):
        taxonomy = profile_trace(trace)
        sources = {s for _, s, _ in taxonomy.rows()}
        for expected in (
            "recruitment",
            "work",
            "stragglers",
            "mean pool latency",
            "decision time",
            "task count",
            "batch size",
            "pool size",
        ):
            assert expected in sources

    def test_measured_sources_have_statistics(self, trace):
        taxonomy = profile_trace(trace)
        work = [s for s in taxonomy.sources if s.source == "work"][0]
        assert work.median is not None and work.median > 0
        assert work.p90 > work.median

    def test_by_granularity_filter(self, trace):
        taxonomy = profile_trace(trace)
        assert len(taxonomy.by_granularity("full-run")) == 4

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            profile_trace(CrowdTrace())


class TestWorkerLatencyCDFs:
    def test_cdfs_have_worker_count_entries(self, trace):
        mean_cdf, std_cdf = worker_latency_cdfs(trace)
        assert len(mean_cdf.values) == len(trace.worker_ids())
        assert len(std_cdf.values) > 0

    def test_mean_spread_is_wide(self, trace):
        """Figure 2's point: per-worker means span a wide range."""
        mean_cdf, _ = worker_latency_cdfs(trace)
        assert mean_cdf.values.max() > 5 * mean_cdf.values.min()


class TestOneSidedMeanTest:
    def test_clearly_above_threshold_significant(self):
        result = one_sided_mean_test([20.0, 22.0, 19.0, 21.0], threshold=8.0)
        assert result.significant
        assert result.p_value < 0.01

    def test_below_threshold_not_significant(self):
        result = one_sided_mean_test([3.0, 4.0, 5.0], threshold=8.0)
        assert not result.significant

    def test_single_observation_falls_back_to_comparison(self):
        assert one_sided_mean_test([10.0], threshold=8.0).significant
        assert not one_sided_mean_test([5.0], threshold=8.0).significant

    def test_zero_variance_falls_back(self):
        assert one_sided_mean_test([9.0, 9.0, 9.0], threshold=8.0).significant

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            one_sided_mean_test([], threshold=1.0)

    def test_invalid_significance_rejected(self):
        with pytest.raises(ValueError):
            one_sided_mean_test([1.0], threshold=1.0, significance=0.0)


class TestOneSidedTTest:
    """``one_sided_t_test`` against SciPy's ``ttest_1samp``, the reference.

    The kernel computes Student's t tail by another method than SciPy, so its
    p-value agrees to a tolerance, not bit for bit; decisions at the usual
    levels must agree even for samples built to sit next to them.
    """

    @given(
        df=st.integers(min_value=1, max_value=600),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        boundary=st.sampled_from([None, 0.05, 0.01]),
        offset=st.floats(min_value=1e-9, max_value=1e-6),
        above=st.booleans(),
    )
    @example(df=1, seed=0, scale=1.0, boundary=0.05, offset=1e-9, above=True)
    @example(df=2, seed=0, scale=1.0, boundary=0.01, offset=1e-9, above=False)
    @example(df=599, seed=1, scale=1.0, boundary=0.05, offset=1e-9, above=False)
    @example(df=600, seed=1, scale=1.0, boundary=0.01, offset=1e-9, above=True)
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, df, seed, scale, boundary, offset, above):
        rng = np.random.default_rng(seed)
        values = rng.normal(loc=10.0, scale=scale, size=df + 1)
        standard_error = values.std(ddof=1) / np.sqrt(values.size)
        if boundary is None:
            threshold = values.mean() + rng.normal(scale=3.0) * standard_error
        else:
            # A threshold whose p-value sits within ``offset`` (relative) of
            # the decision level, on the side ``above`` picks.
            target = boundary * (1.0 + offset if above else 1.0 - offset)
            threshold = values.mean() - stats.t.isf(target, df) * standard_error
        statistic, p_value = one_sided_t_test(values, threshold)
        reference = stats.ttest_1samp(values, threshold, alternative="greater")
        assert abs(p_value - reference.pvalue) <= 1e-12
        assert statistic == pytest.approx(reference.statistic, rel=1e-12, abs=1e-12)
        for level in (0.05, 0.01):
            assert (p_value <= level) == (reference.pvalue <= level)

    @pytest.mark.parametrize("values", [[], [5.0], [9.0, 9.0, 9.0], [1.0, np.nan]])
    def test_needs_two_values_and_a_positive_variance(self, values):
        with pytest.raises(ValueError):
            one_sided_t_test(np.array(values), threshold=8.0)


class TestEmpiricalStd:
    """Regression: the <2-observations sentinel is ``None``, everywhere.

    ``WorkerObservations.empirical_std_latency`` and the fallback inside
    ``one_sided_mean_test`` used to hand-roll the small-sample case with
    different conventions; both now route through ``empirical_std`` and
    these pins hold the shared sentinel for n=0, n=1, and zero-variance
    inputs.
    """

    def test_no_observations_is_none(self):
        assert empirical_std([]) is None

    def test_single_observation_is_none(self):
        assert empirical_std([42.0]) is None

    def test_zero_variance_is_zero_not_none(self):
        """A degenerate sample has an estimate — exactly zero — which the
        mean test treats like the missing-estimate fallback, but the two
        cases stay distinguishable at the helper level."""
        assert empirical_std([9.0, 9.0, 9.0]) == 0.0

    def test_matches_numpy_sample_std(self):
        values = [4.0, 7.0, 13.0, 16.0]
        assert empirical_std(values) == pytest.approx(
            np.std(values, ddof=1)
        )

    def test_worker_observations_share_the_sentinel(self):
        from repro.crowd.worker import WorkerObservations

        observations = WorkerObservations(worker_id=0)
        assert observations.empirical_std_latency() is None
        observations.record_completion(5.0)
        assert observations.empirical_std_latency() is None
        observations.record_completion(5.0)
        assert observations.empirical_std_latency() == 0.0

    @pytest.mark.parametrize("values", [[10.0], [9.0, 9.0]])
    def test_mean_test_fallback_agrees_with_sentinel(self, values):
        """Whenever the helper reports no usable variance (None or 0.0),
        the mean test must take the direct-comparison fallback: NaN
        statistic, p in {0, 1}."""
        std = empirical_std(values)
        assert std is None or std == 0.0
        result = one_sided_mean_test(values, threshold=8.0)
        assert np.isnan(result.statistic)
        assert result.p_value in (0.0, 1.0)


class TestSummaries:
    def test_percentile_summary(self):
        values = list(range(1, 101))
        summary = percentile_summary(values, (50, 99))
        assert summary[50.0] == pytest.approx(50.5)
        assert summary[99.0] > 99

    def test_percentile_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_summary([])

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([10.0, 10.0, 10.0, 20.0]) > 0

    def test_coefficient_of_variation_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1.0, 1.0])

    def test_bootstrap_ci_contains_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 2.0, size=200)
        low, high = bootstrap_mean_ci(values, seed=0)
        assert low < values.mean() < high

    def test_bootstrap_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0, 2.0], confidence=1.5)
