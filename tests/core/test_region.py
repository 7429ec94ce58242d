"""Unit tests for the feasible-period region (Figure 4 engine).

:func:`reference_bracket`, :func:`reference_max_feasible_period` and the
two refinement references below are the region searches in their one-step
form: one octave per ``G`` call, one bisection midpoint per call, and a
four-round refinement loop per query. ``FeasibleRegion``
evaluates several octaves and a chord-predicted path of midpoints per call
but applies only the midpoints the one-step loop would take, so those
comparisons are exact (``==``, raised messages included).
"""

import numpy as np
import pytest

from repro.core import FeasibleRegion, SystemCurve
from repro.core import region as region_module
from repro.experiments import paper_partition
from repro.generators import generate_mixed_taskset
from repro.model import Mode, PartitionedTaskSet, Task, TaskSet
from repro.partition import PartitionError, partition_by_modes
from repro.util import check_nonneg

BRACKET_ERROR = "could not bracket the feasible region; is the partition feasible at all?"


def reference_bracket(curve: SystemCurve) -> float:
    """The bracket as one call per octave ``[hi/2, hi]``."""
    hi = 8.0
    for _ in range(57):
        ps = np.linspace(hi / 2, hi, 64)
        if np.all(curve.lhs(ps) < 0.0):
            return hi
        hi *= 2.0
    raise RuntimeError(BRACKET_ERROR)


def reference_max_admissible_overhead(region: FeasibleRegion) -> tuple[float, float]:
    ps, g = region.sweep()
    i = int(np.argmax(g))
    lo = float(ps[max(i - 1, 0)])
    hi = float(ps[min(i + 1, len(ps) - 1)])
    for _ in range(4):
        fine = np.linspace(lo, hi, 2001)
        gv = np.asarray(region.system_curve.lhs(fine))
        j = int(np.argmax(gv))
        lo = float(fine[max(j - 1, 0)])
        hi = float(fine[min(j + 1, len(fine) - 1)])
    p_star = 0.5 * (lo + hi)
    return p_star, float(region.system_curve.lhs(p_star))


def reference_max_slack_ratio(region: FeasibleRegion, otot: float) -> tuple:
    check_nonneg("otot", otot)
    ps, g = region.sweep()
    ratios = (g - otot) / ps
    i = int(np.argmax(ratios))
    if ratios[i] < 0:
        raise ValueError(
            f"no feasible period for O_tot={otot}: best ratio {ratios[i]:.6f} < 0"
        )
    lo = float(ps[max(i - 1, 0)])
    hi = float(ps[min(i + 1, len(ps) - 1)])
    for _ in range(4):
        fine = np.linspace(lo, hi, 2001)
        gv = np.asarray(region.system_curve.lhs(fine))
        rv = (gv - otot) / fine
        j = int(np.argmax(rv))
        lo = float(fine[max(j - 1, 0)])
        hi = float(fine[min(j + 1, len(fine) - 1)])
    p_star = 0.5 * (lo + hi)
    g_star = float(region.system_curve.lhs(p_star))
    return (g_star - otot) / p_star, p_star, g_star


def reference_max_feasible_period(
    region: FeasibleRegion, otot: float = 0.0, *, tol: float = 1e-9
) -> float:
    """The bisection as one scalar ``G`` call per step."""
    check_nonneg("otot", otot)
    ps, g = region.sweep()
    ok = g >= otot
    if not np.any(ok):
        p_star, g_star = reference_max_admissible_overhead(region)
        if g_star < otot:
            raise ValueError(
                f"no feasible period: max admissible overhead is "
                f"{g_star:.6f} < O_tot={otot:.6f}"
            )
        lo, hi = p_star, region.p_max
    else:
        i = int(np.nonzero(ok)[0][-1])
        if i == len(ps) - 1:
            wider = FeasibleRegion(
                region.system_curve.partition, region.algorithm, p_max=region.p_max * 2
            )
            return reference_max_feasible_period(wider, otot, tol=tol)
        lo, hi = float(ps[i]), float(ps[i + 1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(region.system_curve.lhs(mid)) >= otot:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return lo


def outcome(fn, *args, **kwargs):
    """A call's value, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


#: Generated task sets shaped like the campaigns' points: (n, u_total, hyperperiod).
SHAPES = [(6, 0.8, 720.0), (8, 1.6, 3600.0)]


def generated_partition(seed: int, shape: tuple) -> PartitionedTaskSet:
    n, u_total, hyperperiod = shape
    ts = generate_mixed_taskset(
        n,
        u_total,
        np.random.default_rng([seed, n, 2007]),
        period_method="hyperperiod-limited",
        period_hyperperiod=hyperperiod,
    )
    return partition_by_modes(ts, heuristic="worst-fit", admission="utilization")


def scaled(partition: PartitionedTaskSet, factor: float) -> PartitionedTaskSet:
    """Every task's WCET, period and deadline times ``factor``."""
    return PartitionedTaskSet(
        {
            mode: [
                TaskSet(
                    Task(t.name, t.wcet * factor, t.period * factor,
                         t.deadline * factor, mode=t.mode)
                    for t in ts
                )
                for ts in partition.bins(mode)
            ]
            for mode in Mode
        }
    )


def ft_only() -> PartitionedTaskSet:
    """One non-empty mode: ``G`` rises towards a positive limit, never to 0."""
    return PartitionedTaskSet({Mode.FT: [TaskSet([Task("a", 1.0, 10.0, mode=Mode.FT)])]})


OTOTS = [0.0, 0.01, 0.05, 0.2]
TOLS = [1e-9, 1e-12, 0.0]


@pytest.fixture
def lhs_sizes(monkeypatch):
    """The number of periods of every ``SystemCurve.lhs`` call."""
    sizes = []
    original = SystemCurve.lhs

    def counting(self, periods):
        sizes.append(np.size(periods))
        return original(self, periods)

    monkeypatch.setattr(SystemCurve, "lhs", counting)
    return sizes


def assert_searches_equal(region: FeasibleRegion, otots=OTOTS, tols=TOLS):
    for otot in otots:
        for tol in tols:
            got = outcome(region.max_feasible_period, otot, tol=tol)
            assert got == outcome(reference_max_feasible_period, region, otot, tol=tol)
        ratio = outcome(region.max_slack_ratio, otot)
        ref = outcome(reference_max_slack_ratio, region, otot)
        if isinstance(ref, tuple) and ref[0] is ValueError:
            assert ratio == ref
        else:
            assert (ratio[0], ratio[1].period, ratio[1].lhs) == ref
    peak = region.max_admissible_overhead()
    assert (peak.period, peak.lhs) == reference_max_admissible_overhead(region)


@pytest.mark.parametrize("algorithm", ["EDF", "RM", "DM"])
def test_paper_partition_equals_the_scalar_loops(algorithm):
    region = FeasibleRegion(paper_partition(), algorithm)
    assert region.p_max == reference_bracket(region.system_curve)
    assert_searches_equal(region, otots=OTOTS + [0.15, 0.5])


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("shape", SHAPES, ids=["n6-u0.8", "n8-u1.6"])
def test_generated_partitions_equal_the_scalar_loops(shape, seed):
    try:
        part = generated_partition(seed, shape)
    except PartitionError:
        return  # 3 of the 48 draws do not partition
    algorithm = "EDF" if seed % 2 == 0 else "RM"
    region = outcome(FeasibleRegion, part, algorithm)
    ref = outcome(reference_bracket, SystemCurve(part, algorithm))
    if not isinstance(region, FeasibleRegion):
        assert region == ref
        return
    assert region.p_max == ref
    assert_searches_equal(region)


@pytest.mark.parametrize("algorithm", ["EDF", "RM"])
def test_peak_started_bisection_equals_the_scalar_loop(algorithm):
    region = FeasibleRegion(paper_partition(), algorithm)
    _, g = region.sweep()
    peak = region.max_admissible_overhead()
    otot = (float(g.max()) + peak.lhs) / 2
    assert not np.any(g >= otot) and peak.lhs >= otot  # no grid period is feasible
    for tol in TOLS:
        got = region.max_feasible_period(otot, tol=tol)
        assert got == reference_max_feasible_period(region, otot, tol=tol)


@pytest.mark.parametrize("algorithm", ["EDF", "RM"])
def test_explicit_p_max_expansion_equals_the_scalar_loop(algorithm):
    p_star = FeasibleRegion(paper_partition(), algorithm).max_feasible_period(0.0)
    region = FeasibleRegion(paper_partition(), algorithm, p_max=p_star / 3)
    ps, g = region.sweep()
    assert g[-1] >= 0.05  # two doublings before the sweep end falls below
    for otot in (0.0, 0.05):
        for tol in TOLS:
            got = region.max_feasible_period(otot, tol=tol)
            assert got == reference_max_feasible_period(region, otot, tol=tol)
    # The search widened copies: the region and its sweep are untouched.
    assert region.p_max == p_star / 3
    assert region.sweep()[0] is ps


def test_expansion_of_an_unbounded_region_raises_the_bracket_error():
    region = FeasibleRegion(ft_only(), "EDF", p_max=10.0)
    with pytest.raises(RuntimeError) as excinfo:
        region.max_feasible_period(0.0)
    assert str(excinfo.value) == BRACKET_ERROR
    assert region.p_max == 10.0
    with pytest.raises(RuntimeError) as excinfo:
        FeasibleRegion(ft_only(), "EDF")
    assert str(excinfo.value) == BRACKET_ERROR == outcome(
        reference_bracket, SystemCurve(ft_only(), "EDF")
    )[1]


@pytest.mark.parametrize("factor", [16.0, 64.0, 1024.0])
def test_multi_call_bracket_equals_one_octave_per_call(factor, lhs_sizes):
    part = scaled(paper_partition(), factor)
    region = FeasibleRegion(part, "EDF")
    assert region.p_max == reference_bracket(SystemCurve(part, "EDF"))
    assert region.p_max >= 128.0  # past the first call's four octaves
    lhs_sizes.clear()
    FeasibleRegion(part, "EDF")
    assert 2 <= len(lhs_sizes) <= 3 and set(lhs_sizes) == {256}


def test_octaves_are_exact_power_of_two_scalings():
    hi = 8.0
    assert len(region_module._OCTAVE_ENDS) == 57
    for end in region_module._OCTAVE_ENDS:
        assert end == hi
        assert np.array_equal(end * region_module._OCTAVE, np.linspace(hi / 2, hi, 64))
        hi *= 2.0


def test_paper_bisection_makes_a_few_lhs_calls(lhs_sizes):
    region = FeasibleRegion(paper_partition(), "EDF")
    assert lhs_sizes == [256]  # one bracket call
    lhs_sizes.clear()
    region.max_feasible_period(0.0)  # the sweep, then the bisection
    assert lhs_sizes[0] == 4001
    assert len(lhs_sizes) <= 4  # one G call per step would make 21
    lhs_sizes.clear()
    region.max_feasible_period(0.0, tol=0.0)  # the 200-step cap
    assert len(lhs_sizes) <= 15  # one G call per step would make 200
    assert max(lhs_sizes) <= 24


def test_nan_chord_does_not_raise():
    region = FeasibleRegion(paper_partition(), "EDF")
    expected = region.max_feasible_period(0.0)
    # NaN and infinite bracket values only change which midpoints are guessed.
    for g_lo, g_hi in [(np.nan, -1.0), (np.inf, -np.inf), (0.0, np.nan), (1.0, 1.0)]:
        ps, g = region.sweep()
        i = int(np.nonzero(g >= 0.0)[0][-1])
        got = region._bisect(ps[i], ps[i + 1], g_lo, g_hi, 0.0, 1e-9)
        assert got == expected


class TestInputValidation:
    @pytest.mark.parametrize("p_max", [-1.0, 0.0, float("nan"), float("inf")])
    def test_p_max_checked_in_the_constructor(self, p_max):
        with pytest.raises(ValueError, match="^p_max must be"):
            FeasibleRegion(paper_partition(), "EDF", p_max=p_max)

    @pytest.mark.parametrize("n", [0, 1, -5])
    def test_sweep_rejects_fewer_than_two_points(self, paper_region_edf, n):
        with pytest.raises(ValueError, match="^n must be >= 2"):
            paper_region_edf.sweep(n=n)

    def test_two_point_sweep_spans_the_range(self, paper_region_edf):
        ps, g = paper_region_edf.sweep(p_min=1.0, p_max=3.0, n=2)
        assert ps.tolist() == [1.0, 3.0] and len(g) == 2


class TestRegionQueries:
    def test_max_period_zero_overhead_matches_paper(self, paper_region_edf):
        assert paper_region_edf.max_feasible_period(0.0) == pytest.approx(
            3.176, abs=1.5e-3
        )

    def test_rm_max_period_matches_paper(self, paper_region_rm):
        assert paper_region_rm.max_feasible_period(0.0) == pytest.approx(
            2.381, abs=1.5e-3
        )

    def test_max_overhead_matches_paper(self, paper_region_edf, paper_region_rm):
        assert paper_region_edf.max_admissible_overhead().lhs == pytest.approx(
            0.201, abs=1.5e-3
        )
        assert paper_region_rm.max_admissible_overhead().lhs == pytest.approx(
            0.129, abs=1.5e-3
        )

    def test_point5_overhead_0_05(self, paper_region_edf):
        assert paper_region_edf.max_feasible_period(0.05) == pytest.approx(
            2.966, abs=1.5e-3
        )

    def test_boundary_period_sits_on_the_level_set(self, paper_region_edf):
        p = paper_region_edf.max_feasible_period(0.05)
        assert float(paper_region_edf.lhs(p)) == pytest.approx(0.05, abs=1e-6)

    def test_max_slack_ratio_matches_table2c(self, paper_region_edf):
        ratio, point = paper_region_edf.max_slack_ratio(0.05)
        assert ratio == pytest.approx(0.121, abs=2e-3)
        assert point.period == pytest.approx(0.855, abs=2e-3)

    def test_infeasible_overhead_raises(self, paper_region_edf):
        with pytest.raises(ValueError, match="max admissible"):
            paper_region_edf.max_feasible_period(0.5)

    def test_infeasible_slack_raises(self, paper_region_edf):
        with pytest.raises(ValueError):
            paper_region_edf.max_slack_ratio(0.5)

    def test_is_feasible(self, paper_region_edf):
        assert paper_region_edf.is_feasible(2.0, 0.05)
        assert not paper_region_edf.is_feasible(3.3, 0.05)


class TestRegionMechanics:
    def test_sweep_shapes(self, paper_region_edf):
        ps, g = paper_region_edf.sweep(n=501)
        assert len(ps) == len(g) == 501
        assert np.all(np.diff(ps) > 0)

    def test_sweep_range_validation(self, paper_region_edf):
        with pytest.raises(ValueError):
            paper_region_edf.sweep(p_min=2.0, p_max=1.0)

    def test_curve_negative_beyond_max_period(self, paper_region_edf):
        p_max = paper_region_edf.max_feasible_period(0.0)
        assert float(paper_region_edf.lhs(p_max + 0.2)) < 0.0

    def test_edf_dominates_rm_everywhere(self, paper_region_edf, paper_region_rm):
        ps = np.linspace(0.1, 3.4, 200)
        g_edf = np.asarray(paper_region_edf.lhs(ps))
        g_rm = np.asarray(paper_region_rm.lhs(ps))
        assert np.all(g_edf >= g_rm - 1e-9)

    def test_auto_pmax_brackets_region(self, paper_part):
        region = FeasibleRegion(paper_part, "EDF")  # no explicit p_max
        assert region.p_max > region.max_feasible_period(0.0)

    def test_min_quanta_at_design_period(self, paper_region_edf):
        q = paper_region_edf.min_quanta(2.9664)
        from repro.model import Mode

        assert q[Mode.FT] == pytest.approx(0.820, abs=1.5e-3)
        assert q[Mode.FS] == pytest.approx(1.281, abs=1.5e-3)
        assert q[Mode.NF] == pytest.approx(0.815, abs=1.5e-3)

    def test_grid_too_small_rejected(self, paper_part):
        with pytest.raises(ValueError):
            FeasibleRegion(paper_part, "EDF", grid=10)
