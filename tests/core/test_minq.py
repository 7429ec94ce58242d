"""Unit tests for minQ (Eqs. 6 and 11) and the exact-supply variant."""

import numpy as np
import pytest

from repro.analysis import edf_schedulable_supply, fp_schedulable_supply, kernels
from repro.core import (
    QuantumCurve,
    min_quantum,
    min_quantum_edf,
    min_quantum_exact,
    min_quantum_fp,
)
from repro.generators import generate_mixed_taskset
from repro.generators.periods import hyperperiod_limited_periods
from repro.model import Mode, Task, TaskSet
from repro.supply import LinearSupply, PeriodicSlotSupply


@pytest.fixture
def ft_tasks():
    """The FT subset of Table 1."""
    return TaskSet(
        [
            Task("tau10", 1, 12, mode=Mode.FT),
            Task("tau11", 1, 15, mode=Mode.FT),
            Task("tau12", 1, 20, mode=Mode.FT),
            Task("tau13", 2, 30, mode=Mode.FT),
        ]
    )


class TestMinQuantumBasics:
    def test_empty_taskset_needs_nothing(self):
        assert min_quantum(TaskSet(), "EDF", 2.0) == 0.0
        assert min_quantum(TaskSet(), "RM", 2.0) == 0.0

    def test_positive_for_nonempty(self, ft_tasks):
        assert min_quantum(ft_tasks, "EDF", 2.0) > 0.0

    def test_unknown_algorithm_rejected(self, ft_tasks):
        with pytest.raises(ValueError):
            min_quantum(ft_tasks, "LLF", 2.0)

    def test_nonpositive_period_rejected(self, ft_tasks):
        with pytest.raises(ValueError):
            min_quantum(ft_tasks, "EDF", 0.0)

    def test_edf_never_needs_more_than_rm(self, ft_tasks):
        # Every RM-feasible configuration is EDF-feasible (cf. Fig. 4).
        for p in (0.5, 1.0, 2.0, 3.0):
            assert min_quantum_edf(ft_tasks, p) <= min_quantum_fp(
                ft_tasks, p, "RM"
            ) + 1e-9

    def test_paper_design_point_value(self, ft_tasks):
        # Table 2(b): Q̃_FT = 0.820 at P = 2.966 (paper prints 3 decimals).
        assert min_quantum_edf(ft_tasks, 2.9664) == pytest.approx(0.820, abs=1.5e-3)

    def test_monotone_in_period(self, ft_tasks):
        # A longer major cycle starves tasks longer: minQ grows with P.
        ps = np.linspace(0.2, 3.0, 40)
        q = QuantumCurve(ft_tasks, "EDF").evaluate(ps)
        assert np.all(np.diff(q) > -1e-9)

    def test_small_period_limit_is_bandwidth(self, ft_tasks):
        # As P -> 0 the slot converges to a fractional processor: minQ/P -> U'
        # where U' >= U(T) (the EDF demand ratio at the binding deadline).
        p = 1e-4
        ratio = min_quantum_edf(ft_tasks, p) / p
        assert ratio >= ft_tasks.utilization - 1e-6
        assert ratio < 1.0


class TestMinQuantumIsInverseOfFeasibility:
    """minQ must be the exact boundary of the Theorem 1/2 feasibility tests."""

    def test_edf_boundary(self, ft_tasks):
        p = 2.0
        q = min_quantum_edf(ft_tasks, p)
        ok = LinearSupply.from_slot(p, min(q * 1.001, p))
        bad = LinearSupply.from_slot(p, q * 0.999)
        assert edf_schedulable_supply(ft_tasks, ok).schedulable
        assert not edf_schedulable_supply(ft_tasks, bad).schedulable

    def test_fp_boundary(self, ft_tasks):
        p = 2.0
        q = min_quantum_fp(ft_tasks, p, "RM")
        ok = LinearSupply.from_slot(p, min(q * 1.001, p))
        bad = LinearSupply.from_slot(p, q * 0.999)
        assert fp_schedulable_supply(ft_tasks, ok, "RM").schedulable
        assert not fp_schedulable_supply(ft_tasks, bad, "RM").schedulable

    def test_boundary_on_random_sets(self, rng):
        from repro.generators import generate_taskset

        for _ in range(10):
            ts = generate_taskset(
                int(rng.integers(2, 5)), float(rng.uniform(0.2, 0.5)), rng,
                period_low=8, period_high=40, period_granularity=1.0,
            )
            p = float(rng.uniform(0.5, 4.0))
            q = min_quantum_edf(ts, p)
            if q >= p:  # infeasible at this period; nothing to check
                continue
            assert edf_schedulable_supply(
                ts, LinearSupply.from_slot(p, min(q + 1e-6, p))
            ).schedulable
            assert not edf_schedulable_supply(
                ts, LinearSupply.from_slot(p, max(q - 1e-4, 0.0))
            ).schedulable


class TestQuantumCurve:
    def test_scalar_and_array_agree(self, ft_tasks):
        curve = QuantumCurve(ft_tasks, "EDF")
        ps = np.array([0.5, 1.0, 2.0])
        arr = curve.evaluate(ps)
        for p, v in zip(ps, arr):
            assert curve.evaluate(float(p)) == pytest.approx(v)

    def test_explicit_priority_order(self, ft_tasks):
        order = sorted(ft_tasks, key=lambda t: t.period)
        curve = QuantumCurve(ft_tasks, order)
        assert curve.evaluate(2.0) == pytest.approx(
            min_quantum_fp(ft_tasks, 2.0, "RM")
        )

    def test_wrong_order_rejected(self, ft_tasks):
        with pytest.raises(ValueError):
            QuantumCurve(ft_tasks, [Task("zz", 1, 5)])


def _campaign_shaped_bins():
    """Per-mode bins shaped like the weighted and online presets' sets."""
    rng = np.random.default_rng(12)
    for i in range(16):
        # weighted: n up to 8, u_total up to 1.8, H = 720 or 3600
        ts = generate_mixed_taskset(
            int(rng.integers(2, 9)), float(rng.uniform(0.3, 1.8)), rng,
            period_method="hyperperiod-limited",
            period_hyperperiod=[720.0, 3600.0][i % 2],
        )
        # online: n = 6 plus light arrivals on the H = 3600 lattice
        online = generate_mixed_taskset(
            6, [0.5, 1.0][i % 2], rng,
            period_method="hyperperiod-limited", period_hyperperiod=3600.0,
        )
        for j, p in enumerate(hyperperiod_limited_periods(3, rng)):
            wcet = float(p) * float(rng.uniform(0.02, 0.08))
            online = online.add(Task(f"dyn{j}", wcet, float(p)))
        for taskset in (ts, online):
            for mode in Mode:
                if len(taskset.by_mode(mode)):
                    yield taskset.by_mode(mode)


class TestScalarMatchesCurve:
    """``min_quantum`` skips the hull; it must equal the curve bit for bit."""

    PERIODS = [0.05, 0.37, 1.0, 2.5, 7.25, 19.0, 64.0, 250.0]

    @pytest.mark.parametrize("fast", [True, False], ids=["kernels", "float"])
    @pytest.mark.parametrize("algorithm", ["EDF", "RM", "DM"])
    def test_bit_identical_on_campaign_shaped_bins(self, fast, algorithm):
        with kernels.kernels_forced(fast):
            for ts in _campaign_shaped_bins():
                curve = QuantumCurve(ts, algorithm)
                swept = curve.evaluate(np.asarray(self.PERIODS))
                for p, value in zip(self.PERIODS, swept):
                    q = min_quantum(ts, algorithm, p)
                    assert q == curve.evaluate(p) == value

    def test_explicit_order_matches_curve(self, ft_tasks):
        order = sorted(ft_tasks, key=lambda t: -t.period)
        for p in self.PERIODS:
            assert min_quantum_fp(ft_tasks, p, order) == QuantumCurve(
                ft_tasks, order
            ).evaluate(p)


class TestExactMinQuantum:
    def test_exact_never_exceeds_linear(self, ft_tasks):
        for p in (0.5, 1.0, 2.0):
            exact = min_quantum_exact(ft_tasks, "EDF", p)
            linear = min_quantum_edf(ft_tasks, p)
            assert exact <= linear + 1e-6

    def test_exact_is_feasibility_boundary(self, ft_tasks):
        p = 1.5
        q = min_quantum_exact(ft_tasks, "EDF", p)
        assert edf_schedulable_supply(
            ft_tasks, PeriodicSlotSupply(p, min(q + 1e-4, p))
        ).schedulable
        assert not edf_schedulable_supply(
            ft_tasks, PeriodicSlotSupply(p, q - 1e-4)
        ).schedulable

    def test_exact_fp_variant(self, ft_tasks):
        p = 1.5
        q = min_quantum_exact(ft_tasks, "RM", p)
        assert fp_schedulable_supply(
            ft_tasks, PeriodicSlotSupply(p, min(q + 1e-4, p)), "RM"
        ).schedulable

    def test_exact_empty(self):
        assert min_quantum_exact(TaskSet(), "EDF", 2.0) == 0.0

    def test_exact_infeasible_returns_inf(self):
        # U > 1: not even a dedicated processor suffices.
        ts = TaskSet([Task("a", 3, 4), Task("b", 3, 8)])
        assert min_quantum_exact(ts, "EDF", 2.0) == float("inf")
