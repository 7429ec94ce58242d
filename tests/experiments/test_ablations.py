"""Ablation study tests."""

import numpy as np
import pytest

from repro.analysis import edf_schedulable_supply
from repro.core import FeasibleRegion
from repro.experiments.ablations import (
    edf_vs_rm_regions,
    exact_vs_linear_gap,
    overhead_sensitivity,
    partitioning_comparison,
    slot_splitting_gain,
)
from repro.generators import generate_mixed_taskset
from repro.model import Task, TaskSet
from repro.partition import PartitionError, partition_by_modes
from repro.supply.slots import evenly_split_slots


class TestExactVsLinear:
    def test_linear_always_upper_bounds_exact(self):
        rows = exact_vs_linear_gap(periods=(0.5, 1.0, 2.0, 2.966))
        assert rows
        for r in rows:
            assert r.minq_linear >= r.minq_exact - 1e-6
            assert r.gap >= -1e-6
        # The bound is not tight: it gives quantum away somewhere.
        assert any(r.gap > 1e-4 for r in rows)

    def test_gap_ratio_nonnegative(self):
        for r in exact_vs_linear_gap(periods=(1.0,)):
            assert r.gap_ratio >= -1e-9


class TestEdfVsRm:
    def test_edf_dominates(self):
        edf, rm = edf_vs_rm_regions()
        assert edf.algorithm == "EDF" and rm.algorithm == "RM"
        assert edf.max_period_zero_overhead > rm.max_period_zero_overhead
        assert edf.max_admissible_overhead > rm.max_admissible_overhead
        # Figure 4 points 1 and 2.
        ratio = edf.max_period_zero_overhead / rm.max_period_zero_overhead
        assert ratio == pytest.approx(3.176 / 2.381, abs=0.01)

    def test_edf_never_loses_on_random_workloads(self):
        ratios = []
        for seed in range(12):
            ts = generate_mixed_taskset(
                9, 1.1, np.random.default_rng(seed), period_low=10,
                period_high=60, period_granularity=5.0,
            )
            try:
                part = partition_by_modes(ts, admission="utilization")
                edf = FeasibleRegion(part, "EDF").max_feasible_period(0.0)
                rm = FeasibleRegion(part, "RM").max_feasible_period(0.0)
            except (PartitionError, ValueError):
                continue  # no feasible period under RM (or at all)
            ratios.append(edf / rm)
        assert ratios
        assert min(ratios) >= 1.0 - 1e-9


class TestPartitioning:
    def test_manual_and_heuristics_all_feasible(self):
        rows = partitioning_comparison(heuristics=("worst-fit",))
        assert len(rows) == 2
        for r in rows:
            assert r.max_period_zero_overhead > 0

    def test_worst_fit_close_to_manual(self):
        rows = partitioning_comparison(heuristics=("worst-fit",))
        manual, wf = rows
        # WFD balances utilization at least as well as the paper's manual
        # split for NF (max bin util <= 0.25 is impossible to beat: tau5).
        assert wf.max_bin_utilization["NF"] <= manual.max_bin_utilization["NF"] + 1e-9


class TestOverheadSensitivity:
    def test_monotone_decreasing_until_infeasible(self):
        pts = overhead_sensitivity(otots=(0.0, 0.05, 0.1, 0.3))
        feasible = [p for p in pts if p.max_period is not None]
        periods = [p.max_period for p in feasible]
        assert periods == sorted(periods, reverse=True)
        assert pts[-1].max_period is None  # 0.3 > max admissible 0.201
        assert pts[0].max_period == pytest.approx(3.176, abs=2e-3)  # Figure 4 point 1


class TestSlotSplitting:
    def test_delay_shrinks_with_pieces(self):
        rows = slot_splitting_gain(period=3.0, budget=1.0)
        delays = [r.delay for r in rows]
        assert delays == sorted(delays, reverse=True)
        assert delays[0] == pytest.approx(2.0)
        assert delays[-1] == pytest.approx(0.5)

    def test_supply_never_degrades(self):
        rows = slot_splitting_gain(period=3.0, budget=1.0, pieces_list=(1, 3))
        assert rows[1].supply_at_half_period >= rows[0].supply_at_half_period

    def test_only_split_slots_host_a_short_deadline_task(self):
        tight = TaskSet([Task("tight", wcet=0.2, period=3.0, deadline=1.2)])

        def schedulable(pieces):
            supply = evenly_split_slots(3.0, 1.0, pieces)
            return edf_schedulable_supply(tight, supply).schedulable

        assert not schedulable(1)  # one slot: delay 2.0 > D - C
        assert schedulable(4)  # four slots: delay 0.5


class TestAblationSummary:
    def test_streams_all_studies_into_one_aggregate(self, tmp_path):
        from repro.experiments.ablations import ablation_summary

        agg = ablation_summary(
            workers=1, state_path=tmp_path / "agg.json"
        )
        assert agg["minq_gap_ratio"].count > 0
        assert agg["minq_gap_ratio"].mean >= 0
        regions = agg["regions"]
        assert (
            regions["EDF"]["max_period_zero_overhead"]
            > regions["RM"]["max_period_zero_overhead"]
        )
        curve = dict(agg["overhead_curve"].items())
        assert curve[0.0].mean == pytest.approx(
            regions["EDF"]["max_period_zero_overhead"]
        )
        # the snapshot makes a re-run skip every point
        assert (tmp_path / "agg.json").exists()
