"""Unit tests for CLAMShell configuration."""

import pytest

from repro.core.config import (
    CLAMShellConfig,
    LearningStrategy,
    MaintenanceObjective,
    PayRates,
    StragglerRoutingPolicy,
    baseline_no_retainer,
    baseline_retainer,
    full_clamshell,
)


class TestValidation:
    def test_defaults_are_valid(self):
        config = CLAMShellConfig()
        assert config.pool_size == 15

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pool_size", 0),
            ("abandonment_rate", 1.0),
            ("records_per_task", 0),
            ("votes_required", 0),
            ("pool_batch_ratio", 0.0),
            ("maintenance_threshold", -1.0),
            ("maintenance_significance", 0.0),
            ("maintenance_min_observations", 0),
            ("maintenance_reserve_size", -1),
            # Maintenance is on by default, and evicted seats need a reserve.
            ("maintenance_reserve_size", 0),
            ("termest_alpha", -0.5),
            ("active_fraction", 0.0),
            ("candidate_sample_size", 0),
            ("uncertainty_measure", "variance"),
            ("max_extra_assignments", -1),
            ("max_extra_assignments", -10),
            ("seed", -1),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            CLAMShellConfig(**{field: value})

    def test_reserve_only_required_when_seats_can_empty(self):
        """With maintenance off and no abandonment no seat ever empties, so
        an empty reserve is fine; abandonment alone still needs one."""
        CLAMShellConfig(maintenance_threshold=None, maintenance_reserve_size=0)
        with pytest.raises(ValueError, match="maintenance_reserve_size"):
            CLAMShellConfig(
                maintenance_threshold=None,
                abandonment_rate=0.1,
                maintenance_reserve_size=0,
            )

    def test_votes_beyond_the_pool_rejected(self):
        """More votes than workers can never be collected: refused up front
        instead of stalling the first batch."""
        with pytest.raises(ValueError, match="votes_required"):
            CLAMShellConfig(pool_size=3, votes_required=4)
        assert CLAMShellConfig(pool_size=3, votes_required=3).votes_required == 3

    @pytest.mark.parametrize(
        "overrides,named",
        [
            ({"votes_required": 1, "maintenance_threshold": 0.25}, "votes_required"),
            ({"votes_required": 3, "maintenance_threshold": 1.0}, "disagreement rate"),
            ({"votes_required": 3, "maintenance_threshold": 8.0}, "disagreement rate"),
        ],
        ids=["one-vote", "rate-of-one", "seconds-threshold"],
    )
    def test_agreement_maintenance_needs_votes_and_a_rate(self, overrides, named):
        """Agreement is measured against redundant answers' consensus, and
        its threshold is a disagreement rate in (0, 1)."""
        with pytest.raises(ValueError, match=named):
            CLAMShellConfig(
                maintenance_objective=MaintenanceObjective.AGREEMENT, **overrides
            )

    def test_agreement_objective_without_maintenance_is_inert(self):
        """With maintenance off the objective is never read, so any votes
        and the default threshold's absence are fine."""
        config = CLAMShellConfig(
            maintenance_objective=MaintenanceObjective.AGREEMENT,
            maintenance_threshold=None,
        )
        assert not config.maintenance_enabled
        assert "PMinf" in config.describe()

    def test_agreement_maintenance_is_described_as_such(self):
        config = CLAMShellConfig(
            votes_required=3,
            maintenance_objective=MaintenanceObjective.AGREEMENT,
            maintenance_threshold=0.25,
        )
        assert "PM(agreement)0.25" in config.describe()

    @pytest.mark.parametrize("cap", [None, 0, 1, 5])
    def test_max_extra_assignments_accepts_none_and_non_negative(self, cap):
        assert CLAMShellConfig(max_extra_assignments=cap).max_extra_assignments == cap

    def test_negative_pay_rates_rejected(self):
        with pytest.raises(ValueError):
            PayRates(waiting_per_minute=-0.01)


class TestDerivedQuantities:
    def test_batch_size_from_ratio(self):
        config = CLAMShellConfig(pool_size=15, pool_batch_ratio=3.0)
        assert config.batch_size == 5

    def test_batch_size_at_least_one(self):
        config = CLAMShellConfig(pool_size=2, pool_batch_ratio=10.0)
        assert config.batch_size == 1

    def test_active_batch_size(self):
        config = CLAMShellConfig(pool_size=20, active_fraction=0.5)
        assert config.active_batch_size == 10

    def test_maintenance_enabled_flag(self):
        assert CLAMShellConfig(maintenance_threshold=8.0).maintenance_enabled
        assert not CLAMShellConfig(maintenance_threshold=None).maintenance_enabled

    def test_with_overrides_returns_new_config(self):
        base = CLAMShellConfig(pool_size=10)
        changed = base.with_overrides(pool_size=20)
        assert changed.pool_size == 20
        assert base.pool_size == 10

    def test_describe_mentions_key_parameters(self):
        text = CLAMShellConfig(pool_size=7, records_per_task=5).describe()
        assert "Np=7" in text
        assert "Ng=5" in text
        assert "PM8" in text

    def test_describe_pm_infinity(self):
        assert "PMinf" in CLAMShellConfig(maintenance_threshold=None).describe()

    def test_describe_mentions_duplicate_cap(self):
        assert "SM(cap=3)" in CLAMShellConfig(max_extra_assignments=3).describe()
        assert "cap" not in CLAMShellConfig(max_extra_assignments=None).describe()
        # No mitigation, no cap to mention.
        assert "cap" not in CLAMShellConfig(
            straggler_mitigation=False, max_extra_assignments=3
        ).describe()


class TestFactories:
    def test_base_nr_disables_everything(self):
        config = baseline_no_retainer()
        assert not config.straggler_mitigation
        assert not config.maintenance_enabled
        assert not config.use_retainer_pool
        assert config.learning_strategy == LearningStrategy.PASSIVE

    def test_base_r_uses_retainer_and_active_learning(self):
        config = baseline_retainer()
        assert config.use_retainer_pool
        assert not config.straggler_mitigation
        assert config.learning_strategy == LearningStrategy.ACTIVE

    def test_full_clamshell_enables_everything(self):
        config = full_clamshell()
        assert config.straggler_mitigation
        assert config.maintenance_enabled
        assert config.learning_strategy == LearningStrategy.HYBRID
        assert config.asynchronous_retraining

    def test_full_clamshell_bounds_duplication(self):
        assert full_clamshell().max_extra_assignments == 2
        assert full_clamshell(max_extra_assignments=None).max_extra_assignments is None

    def test_baselines_leave_duplication_uncapped(self):
        # No mitigation in either baseline, so there are no duplicates to cap.
        assert baseline_no_retainer().max_extra_assignments is None
        assert baseline_retainer().max_extra_assignments is None

    def test_factories_accept_overrides(self):
        config = full_clamshell(pool_size=99, seed=7)
        assert config.pool_size == 99
        assert config.seed == 7

    def test_routing_policy_enum_values(self):
        assert StragglerRoutingPolicy("random") == StragglerRoutingPolicy.RANDOM
        assert len(StragglerRoutingPolicy) == 4
