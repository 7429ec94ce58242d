"""End-to-end integration tests: the full pipeline on fresh workloads.

generate → partition → design → validate-by-simulation → inject faults.
"""

import numpy as np
import pytest

from repro.core import DesignError, Overheads, design_platform
from repro.faults import FaultCampaign, FaultOutcome
from repro.generators import generate_mixed_taskset
from repro.model import Mode
from repro.partition import PartitionError, partition_by_modes
from repro.sim import MulticoreSim, validate_design


def _pipeline(seed: int, n: int = 10, u: float = 1.2):
    rng = np.random.default_rng(seed)
    ts = generate_mixed_taskset(
        n, u, rng, period_low=10, period_high=60, period_granularity=5.0
    )
    part = partition_by_modes(ts, admission="utilization")
    config = design_platform(part, "EDF", Overheads.uniform(0.02))
    return ts, part, config


class TestGeneratedPipelines:
    @pytest.mark.parametrize("seed", [0, 2, 3, 4, 5])
    def test_design_then_simulate_clean(self, seed):
        try:
            ts, part, config = _pipeline(seed)
        except (DesignError, PartitionError):
            pytest.skip("random workload infeasible — not the property under test")
        sim = MulticoreSim(part, config)
        horizon = min(sim.default_horizon(), config.period * 120)
        result = sim.run(horizon)
        assert result.miss_count == 0, result.misses_by_task()

    @pytest.mark.parametrize("seed", [0, 2])
    def test_full_validation_report(self, seed):
        try:
            ts, part, config = _pipeline(seed)
        except (DesignError, PartitionError):
            pytest.skip("random workload infeasible")
        report = validate_design(
            part, config, horizon=config.period * 80
        )
        assert report.ok, report.notes

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fault_campaign_on_generated_design(self, seed):
        try:
            ts, part, config = _pipeline(seed)
        except (DesignError, PartitionError):
            pytest.skip("random workload infeasible")
        camp = FaultCampaign(part, config, rate=0.05)
        res = camp.run(horizon=config.period * 60, seed=seed)
        # FT tasks keep their guarantee under faults.
        assert res.ft_misses == 0
        # FS slots never produce corrupted outputs.
        fs = res.outcomes_by_mode.get(Mode.FS)
        if fs:
            assert fs[FaultOutcome.CORRUPTED] == 0

    def test_max_slack_design_admits_extra_load(self):
        ts, part, config = _pipeline(0)
        from repro.core import AdmissionController, MaxSlackGoal

        slack_cfg = design_platform(
            part, "EDF", Overheads.uniform(0.02), MaxSlackGoal()
        )
        ctl = AdmissionController(slack_cfg, part)
        from repro.model import Task

        d = ctl.try_admit(Task("late_arrival", 0.05, 20.0, mode=Mode.NF))
        assert d.admitted

    def test_infeasible_overload_rejected_cleanly(self):
        rng = np.random.default_rng(99)
        ts = generate_mixed_taskset(
            8, 3.9, rng, period_low=10, period_high=40,
            mode_shares={Mode.NF: 1.0},
        )
        # NF alone nearly saturates 4 processors; adding mandatory FT load
        # cannot fit — the pipeline must fail loudly, not mis-design.
        from repro.model import Task, TaskSet

        ft = TaskSet([Task("critical", 5, 10, mode=Mode.FT)])
        full = TaskSet([*ts, *ft])
        with pytest.raises((DesignError, PartitionError)):
            part = partition_by_modes(full, admission="utilization")
            design_platform(part, "EDF", Overheads.uniform(0.02))


class TestPaperEndToEnd:
    def test_both_table2_designs_survive_long_simulation(
        self, paper_part, paper_config_b, paper_config_c
    ):
        for config in (paper_config_b, paper_config_c):
            sim = MulticoreSim(paper_part, config)
            res = sim.run(horizon=config.period * 100)
            assert res.miss_count == 0

    def test_rm_design_survives_simulation(self, paper_part, paper_region_rm):
        config = design_platform(
            paper_part, "RM", Overheads.uniform(0.05), region=paper_region_rm
        )
        sim = MulticoreSim(paper_part, config)
        res = sim.run(horizon=config.period * 60)
        assert res.miss_count == 0
