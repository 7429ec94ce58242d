"""Unit tests for EDF analysis: dbf, dlSet, Theorem 2."""

import numpy as np
import pytest

from repro.analysis import (
    deadline_set,
    demand_bound_function,
    edf_schedulable_dedicated,
    edf_schedulable_supply,
)
from repro.analysis import kernels
from repro.analysis.edf import demand_bound_array
from repro.model import Task, TaskSet
from repro.supply import DedicatedSupply, LinearSupply, PeriodicSlotSupply


@pytest.fixture
def pair_full():
    """U = 1.0, EDF-schedulable (implicit deadlines)."""
    return TaskSet([Task("x", 2, 4), Task("y", 4, 8)])


class TestDemandBoundFunction:
    def test_zero_before_first_deadline(self):
        ts = TaskSet([Task("a", 1, 4)])
        assert demand_bound_function(ts, 3.9) == 0.0

    def test_steps_at_deadlines(self):
        ts = TaskSet([Task("a", 1, 4)])
        assert demand_bound_function(ts, 4.0) == 1.0
        assert demand_bound_function(ts, 7.9) == 1.0
        assert demand_bound_function(ts, 8.0) == 2.0

    def test_constrained_deadline_shifts_steps(self):
        ts = TaskSet([Task("a", 1, 4, deadline=2)])
        assert demand_bound_function(ts, 1.9) == 0.0
        assert demand_bound_function(ts, 2.0) == 1.0
        assert demand_bound_function(ts, 6.0) == 2.0

    def test_negative_t_rejected(self):
        for t in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^t must be"):
                demand_bound_function(TaskSet([Task("a", 1, 4)]), t)

    @pytest.mark.parametrize("fast", [True, False], ids=["kernels", "float"])
    def test_any_real_scalar_t(self, fast):
        ts = TaskSet([Task("a", 1.0, 5.0), Task("b", 2.0, 10.0)])
        with kernels.kernels_forced(fast):
            got = [
                demand_bound_function(ts, t)
                for t in (10, 10.0, np.int64(10), np.float64(10))
            ]
        assert got == [4.0] * 4

    def test_array_matches_scalar(self, pair_full):
        ts_points = [0.0, 3.9, 4.0, 8.0, 12.0, 16.0]
        arr = demand_bound_array(pair_full, ts_points)
        expected = [demand_bound_function(pair_full, t) for t in ts_points]
        assert np.allclose(arr, expected)

    def test_dbf_at_hyperperiod_equals_total_work(self, pair_full):
        h = pair_full.hyperperiod()
        expected = sum(t.wcet * h / t.period for t in pair_full)
        assert demand_bound_function(pair_full, h) == pytest.approx(expected)


class TestDeadlineSet:
    def test_default_horizon_is_hyperperiod(self, pair_full):
        pts = deadline_set(pair_full)
        assert max(pts) == pytest.approx(8.0)

    def test_contents(self):
        ts = TaskSet([Task("a", 1, 4), Task("b", 1, 6)])
        assert deadline_set(ts, 12.0) == (4.0, 6.0, 8.0, 12.0)

    def test_constrained_deadlines(self):
        ts = TaskSet([Task("a", 1, 4, deadline=3)])
        assert deadline_set(ts, 8.0) == (3.0, 7.0)

    def test_empty_taskset(self):
        assert deadline_set(TaskSet()) == ()

    def test_sorted_unique(self):
        ts = TaskSet([Task("a", 1, 4), Task("b", 1, 8)])
        pts = deadline_set(ts, 16.0)
        assert list(pts) == sorted(set(pts))


class TestDedicatedEDF:
    def test_full_utilization_accepted(self, pair_full):
        assert edf_schedulable_dedicated(pair_full).schedulable

    def test_overload_rejected(self):
        ts = TaskSet([Task("a", 3, 4), Task("b", 3, 8)])  # U = 1.125
        res = edf_schedulable_dedicated(ts)
        assert not res.schedulable
        assert res.violation == float("inf")  # rejected on utilization

    def test_constrained_deadline_failure_detected(self):
        # U < 1 but deadline demand fails: two tasks due at t=2 need 3 units.
        ts = TaskSet(
            [Task("a", 1, 10, deadline=2), Task("b", 2, 10, deadline=2)]
        )
        res = edf_schedulable_dedicated(ts)
        assert not res.schedulable
        assert res.violation == pytest.approx(2.0)
        assert res.demand_at_violation == pytest.approx(3.0)

    def test_empty_taskset(self):
        assert edf_schedulable_dedicated(TaskSet()).schedulable


class TestSupplyAwareEDF:
    def test_paper_ft_subset_at_design_point(self):
        # Table 2(b): Q̃_FT = 0.820 at P = 2.966 must be exactly sufficient.
        ft = TaskSet(
            [
                Task("tau10", 1, 12),
                Task("tau11", 1, 15),
                Task("tau12", 1, 20),
                Task("tau13", 2, 30),
            ]
        )
        P = 2.9664
        q_min = 0.8203825886536009  # min_quantum(ft, "EDF", P)
        ok = edf_schedulable_supply(
            ft, LinearSupply((q_min + 1e-6) / P, P - (q_min + 1e-6))
        )
        bad = edf_schedulable_supply(
            ft, LinearSupply((q_min - 1e-3) / P, P - (q_min - 1e-3))
        )
        assert ok.schedulable
        assert not bad.schedulable

    def test_rate_below_utilization_rejected_fast(self, pair_full):
        res = edf_schedulable_supply(pair_full, LinearSupply(0.9, 0.0))
        assert not res.schedulable
        assert res.points_checked == 0  # rejected by the necessary condition

    def test_dedicated_supply_matches_dedicated_test(self, pair_full):
        assert (
            edf_schedulable_supply(pair_full, DedicatedSupply()).schedulable
            == edf_schedulable_dedicated(pair_full).schedulable
        )

    def test_exact_supply_accepts_more_than_linear(self):
        ts = TaskSet([Task("a", 1, 4, deadline=3)])
        assert edf_schedulable_supply(ts, PeriodicSlotSupply(4.0, 2.0)).schedulable
        assert not edf_schedulable_supply(
            ts, LinearSupply.from_slot(4.0, 2.0)
        ).schedulable

    def test_horizon_override(self, pair_full):
        res = edf_schedulable_supply(
            pair_full, DedicatedSupply(), horizon=100.0
        )
        assert res.schedulable
        assert res.points_checked > 10
