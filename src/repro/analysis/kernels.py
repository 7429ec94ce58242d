"""Integer-exact fast kernels for the schedulability hot path.

The float analyses in :mod:`repro.analysis.edf`, :mod:`~repro.analysis.workload`
and :mod:`repro.core.minq` carry an ``EPS`` tolerance through every floor,
ceil and comparison — a correctness liability exactly at the deadline
boundaries Theorem 2 quantifies over, and a throughput bottleneck once the
campaign engine amortized everything else away. This module removes both at
once:

**Rescale pass** — :func:`rescale` maps a task set onto a common integer
time base. Every float is an exact dyadic rational (``m / 2**k``), so
periods and deadlines rationalize *losslessly* via ``float.as_integer_ratio``;
the common denominator (a power of two, because all denominators are) becomes
the scale ``Dt``. The pass succeeds only when

* every period/deadline denominator is ``<= 10**9`` — the bound
  :func:`repro.util.to_fraction` uses, so the scaled hyperperiod agrees
  exactly with :meth:`TaskSet.hyperperiod` and the fast and float paths
  quantify over the same horizon; and
* ``hyperperiod_scaled + max(period_scaled) <= 2**53`` — every scaled time
  value then fits ``int64`` with headroom *and* converts to float exactly,
  so deadline points produced by the integer kernels are bit-identical to
  the floats ``k*T + D`` the fallback path computes.

Otherwise :func:`rescale` returns ``None`` and callers keep the existing
float path — kernel selection is per task set, per call, with per-thread
fast/fallback counters whose per-batch deltas the campaign engine carries
into its run record and stats line.

:func:`extend` derives the time base of a set plus one task from the
set's own, without a rescale: the scale and the hyperperiod are lcms, the
arrays gain one entry, and the bounds above are checked on the final
values. Run-time admission tries each arriving task against every
candidate bin, so it derives each trial's time base from the bin's.

**Vector kernels** — job deadlines (one ``np.arange`` per task;
:func:`deadline_points` sorts them in place and drops adjacent
duplicates), Eq. 9 demand job counts and Eq. 5 interference counts in
pure ``int64`` (no ``EPS`` anywhere). Demand totals accumulate in float,
per task in the same order as the float path, so whenever job counts agree
(always, on rescalable sets) the totals are bit-identical.
:func:`repro.analysis.edf.edf_demand` feeds the integer deadline points
straight into :func:`demand_array`, so an EDF build stays on the integer
grid until one final conversion to float; the fixed-period ``minQ`` of
:mod:`repro.core.minq` takes the unsorted :func:`job_deadlines`, since a
max needs neither order nor uniqueness.

**Hull pruning** — the ``minQ`` curves evaluate ``f_P(t, W)`` over every
(point, demand) pair for thousands of candidate periods. For fixed ``q``
and ``P`` the superlevel set ``{f_P >= q}`` is the half-plane above a line
of slope ``q/P > 0``, so the Eq. 11 max is attained on the *upper* convex
hull of the ``(t, W)`` pairs and the Eq. 6 min on the *lower* hull.
:func:`binding_hull` shrinks hundreds of pairs to a handful with a
conservatively-rounded monotone chain (near-degenerate turns are kept, so
the true binding point is never dropped and the pruned max/min is
bit-identical to the full evaluation). Building the hull costs more than
one evaluation over the full pairs, so only
:class:`~repro.core.minq.QuantumCurve` builds it and supplies the pruned
groups; :class:`~repro.core.integration.SystemCurve` stacks every bin's
groups per mode and evaluates them in one pass for the period sweeps of
:class:`~repro.core.region.FeasibleRegion`, and
:meth:`~repro.core.minq.QuantumCurve.evaluate` serves a standalone curve.
The single-period :func:`~repro.core.minq.min_quantum` and the admission
trials behind run-time admission skip the hull.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.model import Task

#: Scaled times beyond this cannot be represented exactly as floats (and
#: would eventually threaten ``int64`` intermediates): the rescale pass
#: rejects task sets whose scaled hyperperiod plus one period exceeds it.
MAX_SCALED: int = 2**53

#: Rescale refuses period/deadline denominators beyond the
#: :func:`repro.util.to_fraction` bound so the integer hyperperiod always
#: equals the float path's ``TaskSet.hyperperiod()`` exactly.
MAX_DENOMINATOR: int = 10**9


def _env_enabled() -> bool:
    return os.environ.get("REPRO_FAST_KERNELS", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


_enabled: bool = _env_enabled()


class _Counters(threading.local):
    """Kernel selection counters (fast path taken vs fallback), per thread:
    ``repro serve`` runs each campaign on its own thread. Pool workers count
    locally; the engine ships per-batch deltas back and the campaign stats
    line reports the aggregate share.
    """

    def __init__(self) -> None:
        self.counts = {"fast": 0, "fallback": 0}


_counters = _Counters()


def fast_kernels_enabled() -> bool:
    """Whether the integer fast path may be selected at all."""
    return _enabled


def set_fast_kernels(enabled: bool) -> bool:
    """Enable/disable the fast path; returns the previous setting.

    Also mirrors the choice into ``REPRO_FAST_KERNELS`` so freshly spawned
    pool workers (which read the environment at import) agree with the
    parent process.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    os.environ["REPRO_FAST_KERNELS"] = "1" if _enabled else "0"
    return previous


class kernels_forced:
    """Context manager pinning the fast-kernel toggle (tests, benchmarks)."""

    def __init__(self, enabled: bool):
        self._enabled = enabled
        self._previous: bool | None = None

    def __enter__(self) -> "kernels_forced":
        self._previous = set_fast_kernels(self._enabled)
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._previous is not None
        set_fast_kernels(self._previous)


def note_selection(fast: bool) -> None:
    """Record one kernel selection (entry points call this once per call)."""
    _counters.counts["fast" if fast else "fallback"] += 1


def kernel_counters() -> dict[str, int]:
    """Snapshot of this thread's selection counters."""
    return dict(_counters.counts)


def counters_delta(before: dict[str, int]) -> dict[str, int]:
    """Counters accumulated since a :func:`kernel_counters` snapshot."""
    counts = _counters.counts
    return {key: counts[key] - before.get(key, 0) for key in counts}


def reset_kernel_counters() -> None:
    """Zero this thread's selection counters (tests)."""
    _counters.counts = {"fast": 0, "fallback": 0}


@dataclass(frozen=True)
class ScaledTaskSet:
    """A task set on an exact integer time base (see :func:`rescale`).

    ``periods``/``deadlines`` are ``int64`` arrays in task-set order;
    ``wcets`` keeps the original float WCETs (for order-preserving float
    demand accumulation). All time values are ``value * scale``.
    """

    tasks: tuple[Task, ...]
    scale: int
    periods: np.ndarray
    deadlines: np.ndarray
    wcets: np.ndarray
    hyperperiod: int

    @property
    def time_unit(self) -> float:
        """``1 / scale`` — exact (the scale is a power of two)."""
        return 1.0 / self.scale


@lru_cache(maxsize=512)
def _rescale_cached(tasks: tuple[Task, ...]) -> ScaledTaskSet | None:
    # Task fields are floats, and as_integer_ratio() is exact for floats:
    # lowest terms with a power-of-two denominator, as Fraction(x) gives.
    period_ratios = [task.period.as_integer_ratio() for task in tasks]
    deadline_ratios = [task.deadline.as_integer_ratio() for task in tasks]
    scale = 1
    for _, den in period_ratios + deadline_ratios:
        if den > MAX_DENOMINATOR:
            return None
        # All denominators are powers of two, so lcm == max — but the
        # general gcd form costs nothing and assumes nothing.
        scale = scale * den // math.gcd(scale, den)
    periods: list[int] = []
    deadlines: list[int] = []
    hyper = 1
    for (p_num, p_den), (d_num, d_den) in zip(period_ratios, deadline_ratios):
        p = p_num * (scale // p_den)
        periods.append(p)
        deadlines.append(d_num * (scale // d_den))
        hyper = hyper * p // math.gcd(hyper, p)
        if hyper > MAX_SCALED:
            return None
    if hyper + max(periods) > MAX_SCALED:
        return None
    return ScaledTaskSet(
        tasks=tasks,
        scale=scale,
        periods=np.asarray(periods, dtype=np.int64),
        deadlines=np.asarray(deadlines, dtype=np.int64),
        wcets=np.asarray([task.wcet for task in tasks], dtype=np.float64),
        hyperperiod=hyper,
    )


def rescale(tasks: Sequence[Task]) -> ScaledTaskSet | None:
    """Integer time base for ``tasks``, or ``None`` when out of bounds.

    Pure (no counters, no toggle check): entry points decide on fallback
    and call :func:`note_selection` themselves. Empty sequences return
    ``None`` — the analyses all short-circuit empty sets before demand math.
    """
    if not tasks:
        return None
    return _rescale_cached(tuple(tasks))


def extend(sts: ScaledTaskSet, task: Task) -> ScaledTaskSet | None:
    """``rescale(sts.tasks + (task,))``, derived from ``sts`` in O(n).

    Equal to the rescale field by field, and ``None`` exactly when it is:
    the scale and the hyperperiod are lcms, and the partial lcms only grow,
    so checking the final values applies :func:`rescale`'s bounds. When
    the scale grows by ``r``, every scaled time of ``sts`` grows by ``r``.
    """
    p_num, p_den = task.period.as_integer_ratio()
    d_num, d_den = task.deadline.as_integer_ratio()
    if p_den > MAX_DENOMINATOR or d_den > MAX_DENOMINATOR:
        return None
    scale = math.lcm(sts.scale, p_den, d_den)
    r = scale // sts.scale
    period = p_num * (scale // p_den)
    hyper = math.lcm(sts.hyperperiod * r, period)
    # Periods are >= 1, so this also refuses a hyperperiod over MAX_SCALED.
    if hyper + max(max(sts.periods.tolist()) * r, period) > MAX_SCALED:
        return None
    n = len(sts.tasks)
    periods = np.empty(n + 1, dtype=np.int64)
    deadlines = np.empty(n + 1, dtype=np.int64)
    wcets = np.empty(n + 1, dtype=np.float64)
    periods[:n] = sts.periods
    deadlines[:n] = sts.deadlines
    wcets[:n] = sts.wcets
    if r != 1:
        periods[:n] *= r
        deadlines[:n] *= r
    periods[n] = period
    deadlines[n] = d_num * (scale // d_den)
    wcets[n] = task.wcet
    return ScaledTaskSet(
        tasks=sts.tasks + (task,),
        scale=scale,
        periods=periods,
        deadlines=deadlines,
        wcets=wcets,
        hyperperiod=hyper,
    )


# -- time conversion -----------------------------------------------------------


def to_time(sts: ScaledTaskSet, scaled: np.ndarray) -> np.ndarray:
    """Scaled ``int64`` times back to floats — exact (power-of-two scale)."""
    return scaled.astype(np.float64) / sts.scale


def scale_horizon(sts: ScaledTaskSet, horizon: float) -> int | None:
    """Largest scaled integer time ``<= horizon``, or ``None`` if unsafe.

    ``horizon * scale`` is exact (power-of-two multiply) unless it leaves
    the exact-integer float range, in which case the caller must fall back.
    """
    h = horizon * sts.scale
    if not math.isfinite(h) or h > MAX_SCALED:
        return None
    return math.floor(h)


def scale_points(sts: ScaledTaskSet, ts: np.ndarray) -> np.ndarray | None:
    """Points as scaled ``int64``, or ``None`` if any is not exactly on grid.

    The fast demand kernels only run when every query point is an exact
    multiple of the time unit (always true for points the integer deadline
    kernel produced) — anything else silently falls back, keeping EPS
    semantics for off-grid callers.
    """
    scaled = ts * float(sts.scale)
    rounded = np.rint(scaled)
    if not np.array_equal(scaled, rounded):
        return None
    if scaled.size and (scaled.min() < 0 or scaled.max() > MAX_SCALED):
        return None
    return rounded.astype(np.int64)


def scale_scalar(sts: ScaledTaskSet, t: float) -> int | None:
    """Scalar version of :func:`scale_points`.

    ``t`` may be any real scalar (``int``, ``float`` or a NumPy scalar); it
    is taken as a float, as the float path takes it, so the power-of-two
    multiply is exact and cannot wrap.
    """
    scaled = float(t) * sts.scale
    if not (scaled.is_integer() and 0 <= scaled <= MAX_SCALED):
        return None
    return int(scaled)


# -- vector kernels ------------------------------------------------------------


def job_deadlines(sts: ScaledTaskSet, horizon_scaled: int) -> np.ndarray:
    """Every job's absolute deadline ``k*T_i + D_i`` in ``(0, horizon]``.

    ``int64``, task by task in task-set order: unsorted, and a deadline
    that several tasks share appears once per task. A max over the points
    needs neither order nor uniqueness; :func:`deadline_points` is the
    sorted unique ``dlSet``.
    """
    return np.concatenate(
        [
            np.arange(d, horizon_scaled + 1, p, dtype=np.int64)
            for p, d in zip(sts.periods.tolist(), sts.deadlines.tolist())
        ]
    )


def deadline_points(sts: ScaledTaskSet, horizon_scaled: int) -> np.ndarray:
    """``dlSet`` on the integer grid: every ``k*T_i + D_i`` in ``(0, horizon]``.

    Sorted unique ``int64``; no tolerance anywhere — a deadline exactly at
    the horizon is included, one past it is not.
    """
    # np.unique costs more than this at dlSet sizes: sort in place, then
    # keep each element that differs from its predecessor.
    pts = job_deadlines(sts, horizon_scaled)
    if not pts.size:
        return pts
    pts.sort()
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    return pts[keep]


def demand_array(sts: ScaledTaskSet, t_scaled: np.ndarray) -> np.ndarray:
    """Eq. 9 demand ``W(t)`` with exact integer job counts.

    Job counts are exact ``int64`` floors; the WCET-weighted total
    accumulates in float in the same per-task order as the float path, so
    the result is bit-identical whenever the float path counts jobs
    correctly. (An ``int64`` array times a Python float is the same IEEE
    product as the counts cast to ``float64`` times the WCET.)
    """
    total = np.zeros(t_scaled.shape, dtype=np.float64)
    for p, d, wcet in zip(
        sts.periods.tolist(), sts.deadlines.tolist(), sts.wcets.tolist()
    ):
        total += ((t_scaled + (p - d)) // p) * wcet
    return total


def workload_array(sts: ScaledTaskSet, t_scaled: np.ndarray) -> np.ndarray:
    """Eq. 5 FP workload ``W_i(t)``, task 0 under interference from the rest.

    ``sts`` must be built from ``(task, *higher_priority)`` in priority
    order; all points must be ``> 0`` (scaled integers ``>= 1``).
    """
    total = np.full(t_scaled.shape, sts.wcets[0], dtype=np.float64)
    for j in range(1, len(sts.tasks)):
        p = sts.periods[j]
        jobs = (t_scaled + (p - 1)) // p  # ceil(t / T_j) for t >= 1
        total += jobs.astype(np.float64) * sts.wcets[j]
    return total


def scheduling_points_scaled(sts: ScaledTaskSet) -> list[int]:
    """Bini–Buttazzo ``schedP`` on the integer grid, for ``tasks[0]``.

    Same recursion as :func:`repro.analysis.points.scheduling_points` with
    exact floors; returns sorted positive scaled times.
    """
    periods = sts.periods.tolist()
    points: set[int] = set()

    def recurse(t: int, j: int) -> None:
        if j == 0:
            if t > 0:
                points.add(t)
            return
        p = periods[j]
        floored = (t // p) * p
        recurse(t, j - 1)
        if floored < t:
            recurse(floored, j - 1)

    recurse(int(sts.deadlines[0]), len(periods) - 1)
    return sorted(points)


# -- minQ hull pruning ---------------------------------------------------------

_EPS64 = float(np.finfo(np.float64).eps)


def binding_hull(pts: np.ndarray, w: np.ndarray, *, upper: bool) -> np.ndarray:
    """Indices of the convex hull that can bind ``f_P`` (see module docs).

    ``pts`` must be sorted ascending and unique (dlSet / schedP contract).
    ``upper=True`` keeps the upper hull (EDF max, Eq. 11), ``False`` the
    lower hull (FP min, Eq. 6). The monotone-chain turn test is rounded
    *conservatively*: a middle point is only dropped when its cross product
    clears a float-error bound, so points the exact test would keep are
    never lost and the pruned extremum is bit-identical to the full one.
    """
    n = int(pts.size)
    if n <= 2:
        return np.arange(n)
    x = np.asarray(pts, dtype=np.float64).tolist()
    y = np.asarray(w, dtype=np.float64)
    if not upper:
        y = -y
    y = y.tolist()
    hull: list[int] = []
    for i in range(n):
        xi, yi = x[i], y[i]
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            x1, y1 = x[i1], y[i1]
            a = (x[i2] - x1) * (yi - y1)
            b = (xi - x1) * (y[i2] - y1)
            # cross = a - b > 0 means i2 lies strictly below chord i1->i
            # (for the upper hull) and can never bind. Only pop when the
            # sign is certain: 4 rounded float ops, each within eps of
            # exact, bound the error by 8*eps*max(|a|,|b|).
            if a - b > 8.0 * _EPS64 * max(abs(a), abs(b)):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.intp)


__all__ = [
    "MAX_DENOMINATOR",
    "MAX_SCALED",
    "ScaledTaskSet",
    "binding_hull",
    "counters_delta",
    "deadline_points",
    "demand_array",
    "extend",
    "fast_kernels_enabled",
    "job_deadlines",
    "kernel_counters",
    "kernels_forced",
    "note_selection",
    "rescale",
    "reset_kernel_counters",
    "scale_horizon",
    "scale_points",
    "scale_scalar",
    "scheduling_points_scaled",
    "set_fast_kernels",
    "to_time",
    "workload_array",
]
