"""The stacked SystemCurve equals the per-bin evaluation it replaced.

:class:`SystemCurve` stacks every bin's hull groups into one ``(t, W)``
array per mode and evaluates ``f_P`` in one broadcast.
:class:`ReferenceSystemCurve` below is the curve as it was before: one
:class:`QuantumCurve` per non-empty bin, each evaluated on its own, maxed
per mode and subtracted from ``P`` in ``Mode`` order. Max and min are exact
and every elementwise operation of ``f_P`` is unchanged, so every
comparison here is exact (``np.array_equal`` or ``==``), on the curve, on
every region query and on whole designs.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.analysis import kernels
from repro.core import (
    FeasibleRegion,
    Overheads,
    SlotSchedule,
    SystemCurve,
    design_platform,
)
from repro.core import region as region_module
from repro.core.minq import QuantumCurve
from repro.generators import generate_mixed_taskset
from repro.model import MODE_ORDER, Mode, PartitionedTaskSet, Task, TaskSet
from repro.partition import PartitionError, partition_by_modes
from repro.util import EPS


class ReferenceSystemCurve:
    """The per-bin ``G(P)``: every bin's curve evaluated separately."""

    def __init__(self, partition: PartitionedTaskSet, algorithm: str):
        self._partition = partition
        self._alg = algorithm.upper()
        self._curves = {
            mode: [
                QuantumCurve(ts, self._alg)
                for ts in partition.bins(mode)
                if len(ts) > 0
            ]
            for mode in Mode
        }

    @property
    def partition(self) -> PartitionedTaskSet:
        return self._partition

    @property
    def algorithm(self) -> str:
        return self._alg

    def mode_minq(self, mode, periods):
        scalar = np.isscalar(periods)
        ps = np.atleast_1d(np.asarray(periods, dtype=float))
        out = np.zeros_like(ps)
        for curve in self._curves[mode]:
            out = np.maximum(out, curve.evaluate(ps))
        return float(out[0]) if scalar else out

    def lhs(self, periods):
        scalar = np.isscalar(periods)
        ps = np.atleast_1d(np.asarray(periods, dtype=float))
        total = ps.copy()
        for mode in Mode:
            total -= self.mode_minq(mode, ps)
        return float(total[0]) if scalar else total

    def min_quanta(self, period):
        return {mode: float(self.mode_minq(mode, period)) for mode in Mode}

    def quanta_feasible(self, schedule, *, tol=1e-9):
        bounds = self.min_quanta(schedule.period)
        return {
            mode: schedule.usable(mode) + max(tol, EPS * max(1.0, bounds[mode]))
            >= bounds[mode]
            for mode in MODE_ORDER
        }


@contextmanager
def reference_regions():
    """Regions (and so designs) built while active evaluate per bin."""
    with mock.patch.object(region_module, "SystemCurve", ReferenceSystemCurve):
        yield


def outcome(fn, *args, **kwargs):
    """A call's value, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# Generated partitions shaped like the campaign presets' points:
# (n, u_total, period_hyperperiod, otot, design goal).
SHAPES = {
    "weighted": [
        (8, 1.2, 720.0, 0.0, "min-overhead-bandwidth"),
        (16, 0.8, 3600.0, 0.0, "min-overhead-bandwidth"),
        (8, 2.0, 3600.0, 0.0, "min-overhead-bandwidth"),
    ],
    "faultspace": [
        (8, 0.8, 3600.0, 0.05, "min-overhead-bandwidth"),
        (8, 1.6, 3600.0, 0.05, "min-overhead-bandwidth"),
    ],
    "online": [
        (6, 0.5, 3600.0, 0.05, "max-slack"),
        (6, 1.0, 3600.0, 0.05, "max-slack"),
    ],
}

SEEDS = range(3)


def generated_partitions(shape):
    """Partitionable generated task sets of one preset shape."""
    out = []
    for n, u_total, hyperperiod, otot, goal in SHAPES[shape]:
        for seed in SEEDS:
            rng = np.random.default_rng([seed, n, round(u_total * 10)])
            ts = generate_mixed_taskset(
                n,
                u_total,
                rng,
                period_method="hyperperiod-limited",
                period_hyperperiod=hyperperiod,
            )
            try:
                part = partition_by_modes(
                    ts, heuristic="worst-fit", admission="utilization"
                )
            except PartitionError:
                continue
            out.append((part, otot, goal))
    return out


def task(name, wcet, period, mode, deadline=None):
    return Task(name, wcet, period, deadline, mode=mode)


def hand_partitions():
    """Empty modes, empty bins between full ones, and single-task bins."""
    nf_only = PartitionedTaskSet(
        {Mode.NF: [TaskSet([task("a", 1.0, 10.0, Mode.NF)])]}
    )
    gaps = PartitionedTaskSet(
        {
            Mode.FS: [
                TaskSet(),
                TaskSet([task("b", 2.0, 12.0, Mode.FS)]),
            ],
            Mode.NF: [
                TaskSet(
                    [
                        task("c", 1.0, 8.0, Mode.NF),
                        task("d", 3.0, 24.0, Mode.NF, deadline=6.0),
                    ]
                ),
                TaskSet(),
                TaskSet([task("e", 0.5, 6.0, Mode.NF)]),
            ],
        }
    )
    singles = PartitionedTaskSet(
        {
            Mode.FT: [TaskSet([task("f", 1.0, 20.0, Mode.FT)])],
            Mode.FS: [
                TaskSet([task("g", 1.5, 15.0, Mode.FS)]),
                TaskSet([task("h", 2.0, 30.0, Mode.FS)]),
            ],
            Mode.NF: [
                TaskSet([task(f"n{i}", 1.0, 10.0 * (i + 1), Mode.NF)])
                for i in range(4)
            ],
        }
    )
    return [nf_only, gaps, singles]


ALGORITHMS = ["EDF", "RM", "DM"]
KERNELS = pytest.mark.parametrize("fast", [True, False], ids=["kernels", "float"])


def assert_curves_equal(part, algorithm):
    curve = SystemCurve(part, algorithm)
    ref = ReferenceSystemCurve(part, algorithm)
    ps = np.concatenate([np.linspace(0.05, 80.0, 257), [1e-3, 0.5, 1.0, 7.0, 1e3]])
    assert np.array_equal(curve.lhs(ps), ref.lhs(ps))
    for mode in Mode:
        assert np.array_equal(curve.mode_minq(mode, ps), ref.mode_minq(mode, ps))
    for p in (0.3, 2.0, 9.5, 40.0):
        assert curve.lhs(p) == ref.lhs(p)
        assert curve.min_quanta(p) == ref.min_quanta(p)
        for mode in Mode:
            assert curve.mode_minq(mode, p) == ref.mode_minq(mode, p)


def assert_regions_equal(part, algorithm, otot):
    region = outcome(FeasibleRegion, part, algorithm)
    with reference_regions():
        ref = outcome(FeasibleRegion, part, algorithm)
    if not isinstance(region, FeasibleRegion):
        assert region == ref  # both failed to bracket the region
        return
    assert region.p_max == ref.p_max
    ps, g = region.sweep()
    ref_ps, ref_g = ref.sweep()
    assert np.array_equal(ps, ref_ps) and np.array_equal(g, ref_g)
    for query, args in [
        ("max_feasible_period", (0.0,)),
        ("max_feasible_period", (otot,)),
        ("max_admissible_overhead", ()),
        ("max_slack_ratio", (otot,)),
    ]:
        assert outcome(getattr(region, query), *args) == outcome(
            getattr(ref, query), *args
        ), query


def assert_designs_equal(part, algorithm, otot, goal):
    overheads = Overheads.uniform(otot)
    got = outcome(design_platform, part, algorithm, overheads, goal)
    with reference_regions():
        want = outcome(design_platform, part, algorithm, overheads, goal)
    assert got == want


class TestStackedCurveExact:
    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @KERNELS
    def test_generated_partitions(self, shape, algorithm, fast):
        with kernels.kernels_forced(fast):
            cases = generated_partitions(shape)
            assert cases
            for part, otot, goal in cases:
                assert_curves_equal(part, algorithm)
                assert_regions_equal(part, algorithm, otot)
                assert_designs_equal(part, algorithm, otot, goal)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @KERNELS
    def test_empty_modes_and_single_task_bins(self, algorithm, fast):
        with kernels.kernels_forced(fast):
            for part in hand_partitions():
                assert_curves_equal(part, algorithm)
                assert_regions_equal(part, algorithm, 0.05)

    def test_empty_partition_is_the_identity(self):
        curve = SystemCurve(PartitionedTaskSet({}), "EDF")
        ps = np.array([0.5, 1.0, 4.0])
        assert np.array_equal(curve.lhs(ps), ps)
        assert curve.min_quanta(1.0) == dict.fromkeys(Mode, 0.0)

    def test_paper_partition(self, paper_part):
        for algorithm in ALGORITHMS:
            assert_curves_equal(paper_part, algorithm)
            assert_designs_equal(paper_part, algorithm, 0.05, "max-slack")


class TestPeriodValidation:
    """Every mode rejects a non-positive period, empty or not."""

    @pytest.fixture
    def nf_only(self):
        return hand_partitions()[0]

    def test_empty_mode_rejects_negative_period(self, nf_only):
        with pytest.raises(ValueError, match="periods must be > 0"):
            SystemCurve(nf_only, "EDF").mode_minq(Mode.FT, -1.0)

    def test_non_empty_mode_rejects_negative_period(self, nf_only):
        with pytest.raises(ValueError, match="periods must be > 0"):
            SystemCurve(nf_only, "EDF").mode_minq(Mode.NF, -1.0)

    def test_empty_partition_rejects_zero_period(self):
        with pytest.raises(ValueError, match="periods must be > 0"):
            SystemCurve(PartitionedTaskSet({}), "EDF").lhs(0.0)

    def test_array_with_one_bad_period_rejected(self, nf_only):
        with pytest.raises(ValueError, match="periods must be > 0"):
            SystemCurve(nf_only, "RM").lhs(np.array([1.0, 0.0, 2.0]))

    def test_small_grid_rejected_before_the_curve_is_built(
        self, paper_part, monkeypatch
    ):
        def build(*args, **kwargs):
            raise AssertionError("a curve was built for a rejected grid")

        monkeypatch.setattr(region_module, "SystemCurve", build)
        with pytest.raises(ValueError, match="grid must be >= 100"):
            FeasibleRegion(paper_part, "EDF", grid=99)


class TestOneCurvePerDesign:
    """A design builds each bin's QuantumCurve once and never evaluates one."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"build": 0, "evaluate": 0}
        build, evaluate = QuantumCurve.__init__, QuantumCurve.evaluate

        def counted_build(self, *args, **kwargs):
            counts["build"] += 1
            build(self, *args, **kwargs)

        def counted_evaluate(self, *args, **kwargs):
            counts["evaluate"] += 1
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(QuantumCurve, "__init__", counted_build)
        monkeypatch.setattr(QuantumCurve, "evaluate", counted_evaluate)
        return counts

    @pytest.mark.parametrize("goal", ["min-overhead-bandwidth", "max-slack"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_design_builds_each_bin_once(self, paper_part, counts, algorithm, goal):
        design_platform(paper_part, algorithm, Overheads.uniform(0.05), goal)
        bins = sum(len(ts) > 0 for mode in Mode for ts in paper_part.bins(mode))
        assert counts == {"build": bins, "evaluate": 0}

    def test_design_checks_the_regions_curve(self, paper_part, counts):
        region = FeasibleRegion(paper_part, "EDF")
        built = counts["build"]
        design_platform(paper_part, "EDF", Overheads.uniform(0.05), region=region)
        assert counts["build"] == built

    def test_widening_reuses_the_curve(self, paper_part, counts):
        # An explicit p_max below the largest feasible period makes the
        # query double the range until G falls below O_tot.
        region = FeasibleRegion(paper_part, "EDF", p_max=1.0)
        built = counts["build"]
        p = region.max_feasible_period(0.0)
        assert counts["build"] == built
        assert p == pytest.approx(3.176658718325561, abs=1e-8)


class TestDefaultSweep:
    def test_computed_once_and_read_only(self, paper_part):
        region = FeasibleRegion(paper_part, "EDF")
        ps, g = region.sweep()
        assert region.sweep()[0] is ps and region.sweep()[1] is g
        assert len(ps) == 4001 and ps[-1] == region.p_max
        for arr in (ps, g):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_queries_share_it(self, paper_part, monkeypatch):
        region = FeasibleRegion(paper_part, "EDF")
        sizes = []
        lhs = SystemCurve.lhs

        def recorded(self, periods):
            sizes.append(np.size(periods))
            return lhs(self, periods)

        monkeypatch.setattr(SystemCurve, "lhs", recorded)
        region.max_feasible_period(0.0)
        # O_tot above every grid value: the fallback refines around the
        # global maximum, which reads the same sweep again.
        peak = region.max_admissible_overhead()
        with pytest.raises(ValueError, match="max admissible"):
            region.max_feasible_period(peak.lhs + 1.0)
        region.max_slack_ratio(0.05)
        assert sizes.count(4001) == 1

    def test_explicit_sweeps_are_fresh(self, paper_part):
        region = FeasibleRegion(paper_part, "EDF")
        ps, g = region.sweep(n=region.sweep()[0].size)
        assert ps.flags.writeable and g.flags.writeable
        assert np.array_equal(g, region.sweep()[1])


def test_schedule_check_matches_module_function(paper_part, paper_config_b):
    from repro.core import quanta_feasible

    schedule = paper_config_b.schedule
    curve = SystemCurve(paper_part, "EDF")
    assert curve.quanta_feasible(schedule) == quanta_feasible(
        paper_part, "EDF", schedule
    )
    tight = SlotSchedule(
        schedule.period,
        {m: schedule.quantum(m) * 0.9 for m in Mode},
        schedule.overheads,
    )
    assert curve.quanta_feasible(tight) == ReferenceSystemCurve(
        paper_part, "EDF"
    ).quanta_feasible(tight)
