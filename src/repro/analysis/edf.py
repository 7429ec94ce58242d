"""EDF schedulability: demand bound function, ``dlSet`` and Theorem 2.

Implements Eq. 9 of the paper — the EDF demand

.. math:: W(t) = \\sum_i \\max\\Big(\\Big\\lfloor \\frac{t + T_i - D_i}{T_i}
          \\Big\\rfloor,\\ 0\\Big)\\, C_i

(the classic processor demand bound function ``dbf``), the deadline set
``dlSet`` over which Theorem 2 quantifies, the supply-aware EDF test and
its dedicated-processor specialisation.

Every entry point routes through the integer fast kernels of
:mod:`repro.analysis.kernels` when the task set rescales onto an exact
integer time base (no ``EPS`` anywhere on that path), and falls back to the
float implementation otherwise. The float paths share one tolerance
discipline: job counts snap via :func:`~repro.util.fuzzy_floor` /
:func:`~repro.util.fuzzy_floor_array` (the same rule scalar and vector),
and the horizon boundary uses the :func:`~repro.util.boundary_le` band
rule.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.analysis import kernels
from repro.analysis.results import EDFAnalysis
from repro.model import TaskSet
from repro.supply import DedicatedSupply, SupplyFunction
from repro.util import (
    EPS,
    boundary_le,
    check_nonneg,
    check_positive,
    fuzzy_floor,
    fuzzy_floor_array,
)


def demand_bound_function(taskset: TaskSet, t: float) -> float:
    """EDF demand ``W(t)`` of Eq. 9 at a single point ``t >= 0``.

    ``t`` may be any finite real scalar (``int``, ``float`` or a NumPy
    scalar); it is taken as a float on both paths.
    """
    t = float(t)
    check_nonneg("t", t)
    if kernels.fast_kernels_enabled() and len(taskset):
        sts = kernels.rescale(taskset.tasks)
        t_scaled = kernels.scale_scalar(sts, t) if sts is not None else None
        kernels.note_selection(t_scaled is not None)
        if sts is not None and t_scaled is not None:
            total = 0.0
            for i, task in enumerate(taskset):
                p = int(sts.periods[i])
                jobs = (t_scaled + (p - int(sts.deadlines[i]))) // p
                if jobs > 0:
                    total += jobs * task.wcet
            return total
    total = 0.0
    for task in taskset:
        jobs = fuzzy_floor((t + task.period - task.deadline) / task.period)
        if jobs > 0:
            total += jobs * task.wcet
    return total


def demand_bound_array(taskset: TaskSet, ts: Iterable[float]) -> np.ndarray:
    """Vectorised ``W(t)`` over an array of points."""
    t = np.asarray(list(ts), dtype=float)
    if kernels.fast_kernels_enabled() and len(taskset):
        sts = kernels.rescale(taskset.tasks)
        t_scaled = kernels.scale_points(sts, t) if sts is not None else None
        kernels.note_selection(t_scaled is not None)
        if sts is not None and t_scaled is not None:
            return kernels.demand_array(sts, t_scaled)
    total = np.zeros_like(t)
    for task in taskset:
        jobs = fuzzy_floor_array(
            (t + task.period - task.deadline) / task.period
        )
        total += np.maximum(jobs, 0.0) * task.wcet
    return total


def _integer_grid(
    taskset: TaskSet, horizon: float | None
) -> tuple[kernels.ScaledTaskSet, int] | None:
    """The set's integer time base and ``horizon`` on it (default: the
    hyperperiod), or ``None`` when either is out of the kernels' bounds."""
    sts = kernels.rescale(taskset.tasks)
    if sts is None:
        return None
    if horizon is None:
        return sts, sts.hyperperiod
    horizon_scaled = kernels.scale_horizon(sts, horizon)
    return None if horizon_scaled is None else (sts, horizon_scaled)


def deadline_set(taskset: TaskSet, horizon: float | None = None) -> tuple[float, ...]:
    """``dlSet(T)``: every absolute deadline in ``(0, horizon]``.

    ``horizon`` defaults to the hyperperiod, matching Theorem 2. Deadlines
    are generated from the synchronous pattern (``k T_i + D_i``), de-duplicated
    and sorted. A deadline on the horizon boundary is *included* — the
    shared :func:`~repro.util.boundary_le` rule (exact on the integer fast
    path, ``±EPS`` band on the float path).
    """
    if len(taskset) == 0:
        return ()
    if horizon is not None:
        check_positive("horizon", horizon)
    if kernels.fast_kernels_enabled():
        grid = _integer_grid(taskset, horizon)
        kernels.note_selection(grid is not None)
        if grid is not None:
            sts, horizon_scaled = grid
            pts = kernels.deadline_points(sts, horizon_scaled)
            return tuple(kernels.to_time(sts, pts).tolist())
    if horizon is None:
        horizon = taskset.hyperperiod()
        check_positive("horizon", horizon)
    points: set[float] = set()
    for task in taskset:
        d = task.deadline
        k = 0
        while True:
            t = k * task.period + d
            if not boundary_le(t, horizon):
                break
            points.add(t)
            k += 1
    return tuple(sorted(points))


def edf_demand_points(taskset: TaskSet, horizon: float | None = None) -> np.ndarray:
    """``dlSet`` as a numpy array (convenience for vectorised sweeps)."""
    return np.asarray(deadline_set(taskset, horizon), dtype=float)


def edf_demand(
    taskset: TaskSet, horizon: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``dlSet`` up to ``horizon`` and the Eq. 9 demand ``W(t)`` at each point.

    Equal to :func:`edf_demand_points` followed by :func:`demand_bound_array`,
    and it counts the same two kernel selections (one for the points, one
    for the demand). On a rescalable set both come from one integer-grid
    build: the integer deadline points feed the demand kernel directly and
    convert to float once. A set that does not rescale, or whose
    ``horizon`` cannot be scaled, takes the two calls unchanged.
    """
    if kernels.fast_kernels_enabled() and len(taskset):
        if horizon is not None:
            check_positive("horizon", horizon)
        grid = _integer_grid(taskset, horizon)
        if grid is not None:
            sts, horizon_scaled = grid
            pts = kernels.deadline_points(sts, horizon_scaled)
            kernels.note_selection(True)  # the points
            kernels.note_selection(True)  # the demand
            return kernels.to_time(sts, pts), kernels.demand_array(sts, pts)
    pts = edf_demand_points(taskset, horizon)
    return pts, demand_bound_array(taskset, pts)


def _check_horizon(taskset: TaskSet, supply: SupplyFunction) -> float:
    """Safe upper limit for demand points in the supply-aware EDF test.

    Demand grows as ``W(t) <= U t + B`` with
    ``B = sum_i C_i (T_i - D_i)/T_i >= 0``, while the linear supply bound
    guarantees ``Z(t) >= α(t − Δ)``. For ``α > U`` every point beyond
    ``t* = (B + αΔ)/(α − U)`` passes automatically, so checking deadlines up
    to ``t*`` is exact. When ``α <= U`` (no analytic cut-off) we fall back to
    the paper's hyperperiod bound.
    """
    alpha, delta = supply.alpha, supply.delta
    u = taskset.utilization
    if alpha > u + 1e-12 and np.isfinite(delta):
        b = sum(t.wcet * (t.period - t.deadline) / t.period for t in taskset)
        t_star = (b + alpha * delta) / (alpha - u)
        return max(t_star, max(t.deadline for t in taskset))
    return taskset.hyperperiod()


def edf_schedulable_supply(
    taskset: TaskSet,
    supply: SupplyFunction,
    *,
    horizon: float | None = None,
) -> EDFAnalysis:
    """Theorem 2: EDF feasibility of ``taskset`` under a supply function.

    Checks ``Z(t) >= W(t)`` at every absolute deadline up to ``horizon``
    (default: the exact analytic cut-off when the supply rate exceeds the
    utilization, else the hyperperiod — see :func:`_check_horizon`), after
    the necessary rate condition ``U(T) <= α``. The deadline points and the
    demand vector come from one integer-grid build whenever the task set
    rescales (:func:`edf_demand`).
    """
    if len(taskset) == 0:
        return EDFAnalysis(True, points_checked=0)
    if taskset.utilization > supply.alpha + 1e-9:
        return EDFAnalysis(
            False,
            violation=float("inf"),
            demand_at_violation=taskset.utilization,
            supply_at_violation=supply.alpha,
            points_checked=0,
        )
    if horizon is None:
        horizon = _check_horizon(taskset, supply)
    pts, demand = edf_demand(taskset, horizon)
    if pts.size == 0:
        return EDFAnalysis(True, points_checked=0)
    z = supply.supply_array(pts)
    bad = np.nonzero(z < demand - EPS)[0]
    if bad.size:
        i = int(bad[0])
        return EDFAnalysis(
            False,
            violation=float(pts[i]),
            demand_at_violation=float(demand[i]),
            supply_at_violation=float(z[i]),
            points_checked=int(pts.size),
        )
    return EDFAnalysis(True, points_checked=int(pts.size))


def edf_schedulable_dedicated(
    taskset: TaskSet, *, horizon: float | None = None
) -> EDFAnalysis:
    """Processor-demand criterion on a dedicated processor (``Z(t) = t``)."""
    if len(taskset) and taskset.utilization > 1.0 + 1e-9:
        return EDFAnalysis(
            False,
            violation=float("inf"),
            demand_at_violation=taskset.utilization,
            supply_at_violation=1.0,
        )
    return edf_schedulable_supply(taskset, DedicatedSupply(), horizon=horizon)
