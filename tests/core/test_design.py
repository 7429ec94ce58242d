"""Unit tests for the design goals (Table 2 pipeline)."""

import pytest

from repro.core import (
    DesignError,
    FixedPeriodGoal,
    MaxSlackGoal,
    MinOverheadBandwidthGoal,
    Overheads,
    design_platform,
    quanta_feasible,
)
from repro.model import Mode


class TestMinOverheadDesign:
    def test_period_matches_table2b(self, paper_config_b):
        assert paper_config_b.period == pytest.approx(2.966, abs=1.5e-3)

    def test_quanta_match_table2b(self, paper_config_b):
        s = paper_config_b.schedule
        assert s.usable(Mode.FT) == pytest.approx(0.820, abs=1.5e-3)
        assert s.usable(Mode.FS) == pytest.approx(1.281, abs=1.5e-3)
        assert s.usable(Mode.NF) == pytest.approx(0.815, abs=1.5e-3)

    def test_allocated_utilizations_match_table2b(self, paper_config_b):
        assert paper_config_b.allocated_utilization(Mode.FT) == pytest.approx(
            0.276, abs=2e-3
        )
        assert paper_config_b.allocated_utilization(Mode.FS) == pytest.approx(
            0.432, abs=2e-3
        )
        assert paper_config_b.allocated_utilization(Mode.NF) == pytest.approx(
            0.275, abs=2e-3
        )

    def test_zero_slack_on_boundary(self, paper_config_b):
        assert paper_config_b.slack == pytest.approx(0.0, abs=1e-5)

    def test_overhead_bandwidth_row(self, paper_config_b):
        s = paper_config_b.schedule
        assert s.overheads.total / s.period == pytest.approx(0.017, abs=1e-3)

    def test_allocated_bandwidth_covers_required_utilization(
        self, paper_part, paper_config_b
    ):
        # The paper's sanity check: alpha_k >= max_i U(T_k^i).
        for mode in Mode:
            assert (
                paper_config_b.allocated_utilization(mode)
                >= paper_part.max_bin_utilization(mode) - 1e-9
            )


class TestMaxSlackDesign:
    def test_period_matches_table2c(self, paper_config_c):
        assert paper_config_c.period == pytest.approx(0.855, abs=2e-3)

    def test_quanta_match_table2c(self, paper_config_c):
        s = paper_config_c.schedule
        assert s.usable(Mode.FT) == pytest.approx(0.230, abs=2e-3)
        assert s.usable(Mode.FS) == pytest.approx(0.252, abs=2e-3)
        assert s.usable(Mode.NF) == pytest.approx(0.220, abs=2e-3)

    def test_slack_matches_table2c(self, paper_config_c):
        assert paper_config_c.slack == pytest.approx(0.103, abs=2e-3)
        assert paper_config_c.slack_ratio == pytest.approx(0.121, abs=2e-3)

    def test_quanta_at_minimum(self, paper_config_c):
        for mode in Mode:
            assert paper_config_c.schedule.usable(mode) == pytest.approx(
                paper_config_c.min_quanta[mode], abs=1e-9
            )


class TestDesignMechanics:
    def test_goal_by_name(self, paper_part):
        cfg = design_platform(
            paper_part, "EDF", Overheads.uniform(0.05), "max-slack"
        )
        assert cfg.goal == "max-slack"

    def test_unknown_goal_name_rejected(self, paper_part):
        with pytest.raises(ValueError, match="unknown goal"):
            design_platform(paper_part, "EDF", Overheads.zero(), "fastest")

    def test_fixed_period_goal(self, paper_part, paper_region_edf):
        cfg = design_platform(
            paper_part, "EDF", Overheads.uniform(0.05),
            FixedPeriodGoal(2.0), region=paper_region_edf,
        )
        assert cfg.period == 2.0
        assert all(
            quanta_feasible(paper_part, "EDF", cfg.schedule).values()
        )

    def test_fixed_period_infeasible_rejected(self, paper_part, paper_region_edf):
        with pytest.raises(DesignError):
            design_platform(
                paper_part, "EDF", Overheads.uniform(0.05),
                FixedPeriodGoal(3.4), region=paper_region_edf,
            )

    def test_impossible_overhead_rejected(self, paper_part, paper_region_edf):
        with pytest.raises(DesignError):
            design_platform(
                paper_part, "EDF", Overheads.uniform(0.5),
                MinOverheadBandwidthGoal(), region=paper_region_edf,
            )

    def test_proportional_slack_distribution(self, paper_part, paper_region_edf):
        cfg = design_platform(
            paper_part, "EDF", Overheads.uniform(0.05), MaxSlackGoal(),
            region=paper_region_edf, distribute_slack="proportional",
        )
        assert cfg.slack == pytest.approx(0.0)
        assert cfg.schedule.idle_reserve == pytest.approx(0.0, abs=1e-9)
        # still feasible with the enlarged quanta
        assert all(quanta_feasible(paper_part, "EDF", cfg.schedule).values())

    def test_bad_slack_policy_rejected(self, paper_part):
        with pytest.raises(ValueError):
            design_platform(
                paper_part, "EDF", Overheads.zero(),
                distribute_slack="random",
            )

    def test_rm_design_also_valid(self, paper_part, paper_region_rm):
        cfg = design_platform(
            paper_part, "RM", Overheads.uniform(0.05),
            MinOverheadBandwidthGoal(), region=paper_region_rm,
        )
        assert cfg.period < 2.966  # RM region is strictly smaller
        assert all(quanta_feasible(paper_part, "RM", cfg.schedule).values())

    @pytest.mark.parametrize("goal", ["min-overhead-bandwidth", "max-slack"])
    @pytest.mark.parametrize("alg", ["EDF", "RM"])
    def test_binding_quanta_computed_once(self, monkeypatch, paper_part, goal, alg):
        # The Eqs. 12-14 check reads the quanta the design computed at its
        # period instead of evaluating minQ there a second time.
        from repro.core.integration import SystemCurve

        periods = []
        min_quanta = SystemCurve.min_quanta

        def counted(self, period):
            periods.append(period)
            return min_quanta(self, period)

        monkeypatch.setattr(SystemCurve, "min_quanta", counted)
        cfg = design_platform(paper_part, alg, Overheads.uniform(0.05), goal)
        assert periods == [cfg.period]
        assert quanta_feasible(paper_part, alg, cfg.schedule) == {m: True for m in Mode}

    def test_check_reads_the_computed_quanta(self, monkeypatch, paper_part):
        from repro.core import design as design_module

        checked = []
        verdicts = design_module._quanta_verdicts

        def check(schedule, bounds, *args):
            checked.append((schedule.period, dict(bounds)))
            return verdicts(schedule, bounds, *args)

        monkeypatch.setattr(design_module, "_quanta_verdicts", check)
        cfg = design_platform(paper_part, "EDF", Overheads.uniform(0.05))
        assert checked == [(cfg.period, dict(cfg.min_quanta))]
        # A failed check still stops the design.
        monkeypatch.setattr(
            design_module, "_quanta_verdicts", lambda s, b: {m: m is not Mode.FS for m in Mode}
        )
        with pytest.raises(DesignError, match="validation failed for modes"):
            design_platform(paper_part, "EDF", Overheads.uniform(0.05))
