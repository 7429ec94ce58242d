"""Unit tests for the integer fast kernels: rescale, selection, exactness.

The contract under test (see :mod:`repro.analysis.kernels`): whenever a task
set rescales onto an exact integer time base the fast path must return
*bit-identical* results to the float path, and whenever it does not the
entry points must silently fall back — with the selection recorded in the
module counters the campaign engine aggregates.
"""

import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis import (
    deadline_set,
    demand_bound_function,
    edf_schedulable_dedicated,
    fp_workload,
    fp_workload_array,
    kernels,
    scheduling_points,
)
from repro.analysis.edf import demand_bound_array, edf_demand, edf_demand_points
from repro.core.minq import QuantumCurve, min_quantum_edf_scaled
from repro.experiments.online import online_aggregator, online_specs
from repro.generators import generate_mixed_taskset, generate_taskset
from repro.model import Task, TaskSet
from repro.runner import stream_campaign
from repro.util import EPS


@pytest.fixture
def integer_pair():
    return TaskSet([Task("x", 2, 4), Task("y", 4, 8)])


#: Two coprime ~1e9 integer periods: scale 1, but the hyperperiod is their
#: product (~1e18 > 2**53), so the rescale pass must refuse the set.
OVERFLOW_TASKS = TaskSet(
    [
        Task("p", 1000.0, 999999937.0, 5000.0),
        Task("q", 1000.0, 999999893.0, 5000.0),
    ]
)


class TestRescale:
    def test_integer_periods_scale_one(self, integer_pair):
        sts = kernels.rescale(integer_pair.tasks)
        assert sts is not None
        assert sts.scale == 1
        assert sts.periods.tolist() == [4, 8]
        assert sts.deadlines.tolist() == [4, 8]
        assert sts.hyperperiod == 8

    def test_dyadic_periods_power_of_two_scale(self):
        ts = TaskSet([Task("a", 0.25, 0.5), Task("b", 0.5, 1.75)])
        sts = kernels.rescale(ts.tasks)
        assert sts is not None
        assert sts.scale == 4
        assert sts.periods.tolist() == [2, 7]
        assert sts.hyperperiod == 14
        assert sts.time_unit == 0.25

    def test_non_dyadic_denominator_refused(self):
        # float 0.1 is the dyadic 3602879701896397/2**55; its denominator
        # blows the 1e9 faithfulness bound, so the set must fall back.
        ts = TaskSet([Task("a", 0.01, 0.1)])
        assert kernels.rescale(ts.tasks) is None

    def test_hyperperiod_overflow_refused(self):
        assert kernels.rescale(OVERFLOW_TASKS.tasks) is None

    def test_empty_refused(self):
        assert kernels.rescale(()) is None

    def test_rescale_is_cached(self, integer_pair):
        assert kernels.rescale(integer_pair.tasks) is kernels.rescale(
            integer_pair.tasks
        )


def _fraction_rescale(tasks):
    """The rescale pass written with :class:`Fraction` (the reference).

    Returns the :class:`ScaledTaskSet` fields as plain Python values, or
    ``None`` where the pass must refuse the set.
    """
    scale = 1
    for task in tasks:
        for value in (task.period, task.deadline):
            den = Fraction(value).denominator
            if den > kernels.MAX_DENOMINATOR:
                return None
            scale = scale * den // math.gcd(scale, den)
    periods = [int(Fraction(t.period) * scale) for t in tasks]
    deadlines = [int(Fraction(t.deadline) * scale) for t in tasks]
    hyper = 1
    for p in periods:
        hyper = hyper * p // math.gcd(hyper, p)
        if hyper > kernels.MAX_SCALED:
            return None
    if hyper + max(periods) > kernels.MAX_SCALED:
        return None
    return scale, periods, deadlines, [t.wcet for t in tasks], hyper


def _fields(sts):
    if sts is None:
        return None
    assert sts.periods.dtype == np.int64 and sts.deadlines.dtype == np.int64
    return (
        sts.scale, sts.periods.tolist(), sts.deadlines.tolist(),
        sts.wcets.tolist(), sts.hyperperiod,
    )


def _reference_sets():
    rng = np.random.default_rng(2007)
    for i in range(40):
        # weighted/online shape: hyperperiod-limited periods, mixed modes
        yield generate_mixed_taskset(
            int(rng.integers(2, 9)), float(rng.uniform(0.3, 2.0)), rng,
            period_method="hyperperiod-limited",
            period_hyperperiod=[720.0, 3600.0][i % 2],
        )
        # integer log-uniform periods, constrained deadlines (0.7 T is
        # rarely dyadic, so many of these are MAX_DENOMINATOR refusals)
        yield generate_taskset(
            int(rng.integers(1, 7)), float(rng.uniform(0.2, 0.9)), rng,
            deadline_factor=[1.0, 0.7][i % 2],
        )
        # dyadic non-integer periods: scale > 1
        periods = rng.integers(1, 64, size=3) / 8.0
        yield TaskSet(
            Task(f"d{j}", float(p) * 0.3, float(p), float(p) * 0.75)
            for j, p in enumerate(periods)
        )


class TestRescaleMatchesFractionReference:
    def test_every_field_on_generated_sets(self):
        outcomes = set()
        for ts in _reference_sets():
            expected = _fraction_rescale(ts.tasks)
            assert _fields(kernels.rescale(ts.tasks)) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}  # both refusals and scalings seen

    def test_max_denominator_refusal(self):
        ts = TaskSet([Task("a", 0.01, 0.1)])
        assert _fraction_rescale(ts.tasks) is None
        assert kernels.rescale(ts.tasks) is None

    def test_max_scaled_refusals(self):
        # hyperperiod past 2**53 while folding the periods in
        assert _fraction_rescale(OVERFLOW_TASKS.tasks) is None
        assert kernels.rescale(OVERFLOW_TASKS.tasks) is None
        # hyperperiod itself fits, but hyperperiod + max period does not
        edge = TaskSet([Task("e", 1.0, float(2**53 - 1))])
        assert _fraction_rescale(edge.tasks) is None
        assert kernels.rescale(edge.tasks) is None
        below = TaskSet([Task("e", 1.0, float(2**52))])
        assert _fields(kernels.rescale(below.tasks)) == _fraction_rescale(
            below.tasks
        )
        assert kernels.rescale(below.tasks) is not None


class TestToggleAndCounters:
    def test_set_fast_kernels_returns_previous_and_mirrors_env(self):
        previous = kernels.set_fast_kernels(False)
        try:
            assert not kernels.fast_kernels_enabled()
            assert os.environ["REPRO_FAST_KERNELS"] == "0"
            assert kernels.set_fast_kernels(True) is False
            assert os.environ["REPRO_FAST_KERNELS"] == "1"
        finally:
            kernels.set_fast_kernels(previous)

    def test_kernels_forced_restores(self):
        before = kernels.fast_kernels_enabled()
        with kernels.kernels_forced(not before):
            assert kernels.fast_kernels_enabled() is not before
        assert kernels.fast_kernels_enabled() is before

    def test_counters_track_selection(self, integer_pair):
        before = kernels.kernel_counters()
        with kernels.kernels_forced(True):
            deadline_set(integer_pair)  # rescalable -> fast
            deadline_set(OVERFLOW_TASKS, 50_000.0)  # overflow -> fallback
        delta = kernels.counters_delta(before)
        assert delta["fast"] >= 1
        assert delta["fallback"] >= 1


def random_taskset(rng: random.Random, dyadic: bool) -> TaskSet:
    """Random constrained-deadline set, integer or dyadic-grid parameters."""
    den = rng.choice([2, 4, 8]) if dyadic else 1
    tasks = []
    for i in range(rng.randint(1, 4)):
        period = rng.randint(3 * den, 24 * den) / den
        wcet = rng.uniform(0.05, period / 2)
        deadline = rng.randint(max(1, int(wcet * den) + 1), int(period * den)) / den
        tasks.append(Task(f"t{i}", wcet, period, min(deadline, period)))
    return TaskSet(tasks)


class TestFastMatchesFallback:
    """The exactness gate: fast and float paths agree on rescalable sets."""

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_edf_kernels_bit_identical(self, dyadic):
        rng = random.Random(7 if dyadic else 11)
        for _ in range(40):
            ts = random_taskset(rng, dyadic)
            if kernels.rescale(ts.tasks) is None:
                continue
            with kernels.kernels_forced(True):
                fast_dl = deadline_set(ts)
                fast_w = demand_bound_array(ts, fast_dl)
                fast_edf = edf_schedulable_dedicated(ts)
            with kernels.kernels_forced(False):
                slow_dl = deadline_set(ts)
                slow_w = demand_bound_array(ts, slow_dl)
                slow_edf = edf_schedulable_dedicated(ts)
            assert fast_dl == slow_dl
            assert np.array_equal(fast_w, slow_w)
            assert fast_edf.schedulable == slow_edf.schedulable
            assert fast_edf.points_checked == slow_edf.points_checked

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_fp_kernels_bit_identical(self, dyadic):
        rng = random.Random(13 if dyadic else 17)
        for _ in range(40):
            ts = random_taskset(rng, dyadic)
            tasks = sorted(ts, key=lambda t: t.deadline)
            task, hp = tasks[-1], tasks[:-1]
            if kernels.rescale((task, *hp)) is None:
                continue
            with kernels.kernels_forced(True):
                fast_pts = scheduling_points(task, hp)
                fast_w = fp_workload_array(task, hp, fast_pts) if fast_pts else None
                fast_s = fp_workload(task, hp, task.deadline)
            with kernels.kernels_forced(False):
                slow_pts = scheduling_points(task, hp)
                slow_w = fp_workload_array(task, hp, slow_pts) if slow_pts else None
                slow_s = fp_workload(task, hp, task.deadline)
            assert fast_pts == slow_pts
            assert fast_s == slow_s
            if fast_w is not None:
                assert np.array_equal(fast_w, slow_w)


class TestToleranceUnification:
    """Satellite regressions: one tolerance rule scalar and vector."""

    def test_scalar_vector_demand_agree_in_snap_band(self):
        # Historically the scalar path snapped (t + T - D)/T to the nearest
        # integer within max(EPS, REL_TOL*|x|) while the vector path used
        # floor(x + EPS): at t = 1e6 - 1e-5 the job counts diverged by one.
        ts = TaskSet([Task("a", 0.5, 1.0)])
        t = 1e6 - 1e-5
        with kernels.kernels_forced(False):
            scalar = demand_bound_function(ts, t)
            vector = demand_bound_array(ts, [t])
        assert scalar == vector[0] == 1e6 * 0.5

    def test_scalar_vector_demand_agree_at_exact_deadlines(self):
        ts = TaskSet([Task("a", 1, 4, 3), Task("b", 2, 6, 5)])
        points = [k * p + d for p, d in ((4.0, 3.0), (6.0, 5.0)) for k in range(12)]
        for enabled in (True, False):
            with kernels.kernels_forced(enabled):
                vector = demand_bound_array(ts, points)
                for t, w in zip(points, vector):
                    assert demand_bound_function(ts, t) == w

    def test_deadline_on_horizon_included_both_paths(self, integer_pair):
        for enabled in (True, False):
            with kernels.kernels_forced(enabled):
                pts = deadline_set(integer_pair, 12.0)
            assert pts == (4.0, 8.0, 12.0)

    def test_deadline_just_past_horizon_excluded_fallback(self):
        # the float band rule: > EPS past the horizon is out, within is in
        ts = TaskSet([Task("a", 1, 4)])
        with kernels.kernels_forced(False):
            assert 12.0 in deadline_set(ts, 12.0 + 2 * EPS)
            assert deadline_set(ts, 12.0 - 2 * EPS) == (4.0, 8.0)


class TestOverflowFallback:
    """Sets beyond the rescale bound must route to the float path."""

    def test_overflow_set_falls_back_with_identical_verdicts(self):
        before = kernels.kernel_counters()
        with kernels.kernels_forced(True):
            fast_edf = edf_schedulable_dedicated(OVERFLOW_TASKS)
            fast_dl = deadline_set(OVERFLOW_TASKS, 50_000.0)
        assert kernels.counters_delta(before)["fast"] == 0
        assert kernels.counters_delta(before)["fallback"] >= 2
        with kernels.kernels_forced(False):
            assert edf_schedulable_dedicated(OVERFLOW_TASKS) == fast_edf
            assert deadline_set(OVERFLOW_TASKS, 50_000.0) == fast_dl

    def test_off_grid_point_falls_back(self, integer_pair):
        # a query strictly between grid points cannot use the integer path
        with kernels.kernels_forced(True):
            before = kernels.kernel_counters()
            demand_bound_function(integer_pair, 4.0 + 1e-4)
            assert kernels.counters_delta(before)["fallback"] == 1

    def test_scale_scalar_takes_any_real_scalar(self):
        sts = kernels.rescale((Task("a", 0.25, 0.5),))  # scale 2
        for t in (3, 3.0, np.int64(3), np.float64(3)):
            assert kernels.scale_scalar(sts, t) == 6
        for t in (0.2, -1, np.float64("nan"), float("inf")):
            assert kernels.scale_scalar(sts, t) is None


class TestIntegerGridBuild:
    """``edf_demand`` is ``edf_demand_points`` then ``demand_bound_array``:
    equal arrays and equal kernel selection counts, on every path."""

    @staticmethod
    def assert_same_build(ts, horizon=None):
        before = kernels.kernel_counters()
        want_pts = edf_demand_points(ts, horizon)
        want_w = demand_bound_array(ts, want_pts)
        want_delta = kernels.counters_delta(before)
        before = kernels.kernel_counters()
        got_pts, got_w = edf_demand(ts, horizon)
        assert kernels.counters_delta(before) == want_delta
        for got, want in ((got_pts, want_pts), (got_w, want_w)):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)
        return want_delta

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_random_rescalable_sets(self, dyadic):
        rng = random.Random(29 if dyadic else 31)
        built = 0
        for _ in range(60):
            ts = random_taskset(rng, dyadic)
            sts = kernels.rescale(ts.tasks)
            if sts is None:
                continue
            horizon = rng.choice([None, ts.hyperperiod() * rng.uniform(0.3, 2.5)])
            with kernels.kernels_forced(True):
                delta = self.assert_same_build(ts, horizon)
            assert delta == {"fast": 2, "fallback": 0}
            built += 1
        assert built >= 40

    def test_online_shaped_sets(self):
        rng = np.random.default_rng(2007)
        for i in range(30):
            ts = generate_mixed_taskset(
                int(rng.integers(2, 9)), float(rng.uniform(0.3, 2.0)), rng,
                period_method="hyperperiod-limited",
                period_hyperperiod=[720.0, 3600.0][i % 2],
            )
            with kernels.kernels_forced(True):
                assert self.assert_same_build(ts)["fast"] == 2
                self.assert_same_build(ts, float(rng.uniform(1.0, 7200.0)))

    def test_refused_sets_take_the_two_calls(self):
        big_denominator = TaskSet([Task("a", 0.01, 0.1), Task("b", 0.02, 0.3)])
        assert kernels.rescale(big_denominator.tasks) is None
        with kernels.kernels_forced(True):
            delta = self.assert_same_build(big_denominator)
            assert delta == {"fast": 0, "fallback": 2}
            delta = self.assert_same_build(OVERFLOW_TASKS, 50_000.0)
            assert delta["fast"] == 0

    def test_unscalable_horizon_takes_the_two_calls(self):
        ts = TaskSet([Task("x", 1.0, 2.0**50), Task("y", 1.0, 2.0**51)])
        horizon = float(2**54)  # past MAX_SCALED: 16 points, off the kernels
        assert kernels.scale_horizon(kernels.rescale(ts.tasks), horizon) is None
        with kernels.kernels_forced(True):
            delta = self.assert_same_build(ts, horizon)
        assert delta == {"fast": 0, "fallback": 2}

    def test_horizon_below_every_deadline(self, integer_pair):
        with kernels.kernels_forced(True):
            self.assert_same_build(integer_pair, 3.0)
        assert edf_demand(integer_pair, 3.0)[0].size == 0

    def test_kernels_off(self):
        ts = TaskSet([Task("a", 1, 4, 3), Task("b", 2, 6, 5), Task("c", 0.5, 12)])
        with kernels.kernels_forced(False):
            assert self.assert_same_build(ts) == {"fast": 0, "fallback": 0}
            assert self.assert_same_build(ts, 30.0) == {"fast": 0, "fallback": 0}

    def test_empty_set(self):
        for enabled in (True, False):
            with kernels.kernels_forced(enabled):
                assert self.assert_same_build(TaskSet()) == {"fast": 0, "fallback": 0}


class TestDeadlinePoints:
    @staticmethod
    def reference(sts, horizon_scaled):
        arrays = [
            np.arange((horizon_scaled - d) // p + 1, dtype=np.int64) * p + d
            for p, d in zip(sts.periods.tolist(), sts.deadlines.tolist())
            if d <= horizon_scaled
        ]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays))

    def assert_matches_unique(self, ts, horizon_scaled):
        sts = kernels.rescale(ts.tasks)
        got = kernels.deadline_points(sts, horizon_scaled)
        want = self.reference(sts, horizon_scaled)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        # job_deadlines: the same points, one per job of every task
        jobs = kernels.job_deadlines(sts, horizon_scaled)
        assert jobs.dtype == np.int64
        assert np.array_equal(np.unique(jobs), want)
        assert jobs.size == sum(
            max((horizon_scaled - d) // p + 1, 0)
            for p, d in zip(sts.periods.tolist(), sts.deadlines.tolist())
        )
        return got

    def test_duplicates_across_tasks(self):
        ts = TaskSet([Task("a", 1, 4), Task("b", 1, 6), Task("c", 1, 12, 8)])
        pts = self.assert_matches_unique(ts, 24)
        assert pts.tolist() == [4, 6, 8, 12, 16, 18, 20, 24]

    def test_single_task(self):
        pts = self.assert_matches_unique(TaskSet([Task("a", 1, 5, 3)]), 20)
        assert pts.tolist() == [3, 8, 13, 18]

    def test_horizon_below_every_deadline(self, integer_pair):
        assert self.assert_matches_unique(integer_pair, 3).size == 0

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_random_sets(self, dyadic):
        rng = random.Random(37 if dyadic else 41)
        for _ in range(40):
            ts = random_taskset(rng, dyadic)
            sts = kernels.rescale(ts.tasks)
            if sts is None:
                continue
            self.assert_matches_unique(ts, min(sts.hyperperiod, 20_000))
            self.assert_matches_unique(ts, rng.randint(1, 20_000))


def assert_same_scaled(got, want):
    """Field-by-field equality of two :class:`ScaledTaskSet` (or ``None``s)."""
    if want is None:
        assert got is None
        return
    assert got is not None
    for name in ("periods", "deadlines", "wcets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("tasks", "scale", "hyperperiod"):
        assert getattr(got, name) == getattr(want, name), name


def online_trials(monkeypatch) -> list:
    """``(bin grid, arriving task)`` of every derived admission trial of a
    16-point ``online`` campaign (the ``bench_online.py --smoke`` grid)."""
    trials = []
    real = kernels.extend

    def capture(sts, task):
        trials.append((sts, task))
        return real(sts, task)

    monkeypatch.setattr(kernels, "extend", capture)
    axes = {
        "arrival_rate": [1.0, 2.0],
        "u_total": [0.5, 1.0],
        "scenario": ["poisson", "permanent"],
        "rep": [0, 1],
        "n": [6],
        "cycles": [15],
    }
    with kernels.kernels_forced(True):
        stream_campaign(
            online_specs(axes), online_aggregator(), workers=1, master_seed=5,
            on_error="store",
        )
    monkeypatch.setattr(kernels, "extend", real)
    return trials


class TestExtend:
    """``extend(rescale(ts), task)`` is ``rescale(ts.tasks + (task,))``."""

    @staticmethod
    def assert_extends(tasks, task):
        base = kernels.rescale(tuple(tasks))
        assert base is not None
        want = kernels.rescale(tuple(tasks) + (task,))
        assert_same_scaled(kernels.extend(base, task), want)
        return want

    def test_trial_sets_of_an_online_pass(self, monkeypatch):
        trials = online_trials(monkeypatch)
        assert len(trials) > 500
        for sts, task in trials:
            # the bin's grid (rescaled, or a committed trial's) is exact ...
            assert_same_scaled(sts, kernels.rescale(sts.tasks))
            # ... and so is the trial derived from it
            assert self.assert_extends(sts.tasks, task) is not None

    def test_random_sets(self):
        rng = random.Random(43)
        extended = 0
        for _ in range(80):
            ts = random_taskset(rng, rng.random() < 0.5)
            t = random_taskset(rng, rng.random() < 0.5)[0]
            if kernels.rescale(ts.tasks) is not None:
                self.assert_extends(ts.tasks, Task("new", t.wcet, t.period, t.deadline))
                extended += 1
        assert extended >= 60

    def test_dyadic_task_grows_the_scale(self):
        base = (Task("a", 1.0, 4.0), Task("b", 2.0, 6.0, 5.0))
        grown = self.assert_extends(base, Task("c", 0.5, 2.5, 1.25))
        assert kernels.rescale(base).scale == 1 and grown.scale == 4
        assert grown.periods.tolist() == [16, 24, 10]
        assert grown.deadlines.tolist() == [16, 20, 5]
        assert grown.hyperperiod == 240

    def test_refusals_match_rescale(self):
        base = (Task("a", 1.0, 4.0), Task("b", 2.0, 6.0, 5.0))
        # a period or a deadline denominator over 10**9
        for task in (Task("x", 0.01, 0.1), Task("x", 0.01, 1.0, 0.1)):
            assert self.assert_extends(base, task) is None
        # coprime ~1e9 periods: the hyperperiod passes MAX_SCALED
        p, q = OVERFLOW_TASKS.tasks
        assert self.assert_extends((p,), q) is None
        # the hyperperiod fits, hyperperiod + max period does not
        wide = (Task("e", 1.0, 2.0**51),)
        tail = Task("f", 1.0, 3.0 * 2**50)
        assert math.lcm(2**51, 3 * 2**50) <= kernels.MAX_SCALED
        assert self.assert_extends(wide, tail) is None


class TestFixedPeriodEvaluation:
    """``min_quantum_edf_scaled`` is the curve's Eq. 11 at one period."""

    PERIODS = [0.05, 0.37, 1.0, 2.5, 7.25, 19.0, 64.0, 250.0]

    @staticmethod
    def assert_matches_curve(ts, periods):
        sts = kernels.rescale(ts.tasks)
        with kernels.kernels_forced(True):
            curve = QuantumCurve(ts, "EDF")
            for period in periods:
                before = kernels.kernel_counters()
                got = min_quantum_edf_scaled(sts, period)
                assert kernels.counters_delta(before) == {"fast": 2, "fallback": 0}
                assert got == curve.evaluate(period)

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_random_sets(self, dyadic):
        rng = random.Random(47 if dyadic else 53)
        checked = 0
        for _ in range(40):
            ts = random_taskset(rng, dyadic)
            sts = kernels.rescale(ts.tasks)
            # coprime dyadic periods can make dlSets of millions of points
            if sts is not None and sts.hyperperiod <= 60_000 * sts.scale:
                self.assert_matches_curve(ts, self.PERIODS)
                checked += 1
        assert checked >= 30

    def test_trial_sets_of_an_online_pass(self, monkeypatch):
        trials = online_trials(monkeypatch)
        for sts, task in trials[::7]:
            ts = TaskSet(sts.tasks + (task,))
            self.assert_matches_curve(ts, self.PERIODS[::3])


def _f_quantum(t: np.ndarray, w: np.ndarray, period: float) -> np.ndarray:
    tp = t - period
    return 0.5 * (np.sqrt(tp * tp + 4.0 * period * w) - tp)


class TestBindingHull:
    def test_hull_preserves_extrema_bit_identically(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pts = np.unique(rng.uniform(0.1, 100.0, size=n))
            w = rng.uniform(0.0, 50.0, size=pts.size)
            period = float(rng.uniform(0.1, 50.0))
            vals = _f_quantum(pts, w, period)
            upper = kernels.binding_hull(pts, w, upper=True)
            lower = kernels.binding_hull(pts, w, upper=False)
            assert vals[upper].max() == vals.max()
            assert vals[lower].min() == vals.min()

    def test_small_inputs_untouched(self):
        pts = np.asarray([1.0, 2.0])
        w = np.asarray([3.0, 1.0])
        assert kernels.binding_hull(pts, w, upper=True).tolist() == [0, 1]
