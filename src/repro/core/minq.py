"""``minQ(T, alg, P)`` — the paper's inverted schedulability conditions.

Substituting ``α = Q̃/P`` and ``Δ = P − Q̃`` (Eq. 2) into the feasibility
conditions of Theorems 1 and 2 and solving the resulting quadratic for ``Q̃``
yields, for a demand ``W`` that must be served by time ``t``:

.. math::

   Q̃ \\ \\ge\\ f_P(t, W) = \\frac{\\sqrt{(t-P)^2 + 4 P W} - (t - P)}{2}

* **FP** (Eq. 6): ``minQ = max_i min_{t in schedP_i} f_P(t, W_i(t))``
* **EDF** (Eq. 11): ``minQ = max_{t in dlSet} f_P(t, W(t))``

The point sets and demands do not depend on ``P`` (:func:`demand_groups`).
:func:`min_quantum` evaluates them at its one period. For EDF on a set
that rescales onto an integer time base that is one call,
:func:`min_quantum_edf_scaled`, which builds no :class:`TaskSet` or
groups: it evaluates ``f_P`` over every job deadline up to the
hyperperiod, unsorted, on the grid. Run-time admission calls it directly
on each trial's derived grid (:func:`repro.analysis.kernels.extend`).
A :class:`QuantumCurve`
also prunes them to their binding convex hull, which pays off only when
whole arrays of candidate periods are evaluated in one vectorised pass, so
run-time admission at the fixed ``P`` does not build one. A curve supplies
its pruned groups (:attr:`QuantumCurve.hull_groups`) to
:class:`~repro.core.integration.SystemCurve`, which stacks every bin's
groups of a mode and evaluates them in one pass for the period sweeps of
:class:`~repro.core.region.FeasibleRegion`;
:meth:`QuantumCurve.evaluate` serves a standalone curve.

:func:`min_quantum_exact` additionally solves the same inverse problem
against the *exact* Lemma-1 supply (the analysis the paper calls "only
tedious to develop"): it bisects on ``Q̃`` using the supply-aware
feasibility tests. Its result is never larger than the linear-bound value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis import kernels, scheduling_points
from repro.analysis.edf import edf_demand, edf_schedulable_supply
from repro.analysis.fp import fp_schedulable_supply
from repro.analysis.priorities import priority_order
from repro.analysis.workload import fp_workload_array
from repro.model import Task, TaskSet
from repro.supply import PeriodicSlotSupply
from repro.util import EPS, check_positive


def _f_quantum(t: np.ndarray, w: np.ndarray, period: float) -> np.ndarray:
    """The quadratic root ``f_P(t, W)`` common to Eqs. 6 and 11."""
    tm = t - period
    return 0.5 * (np.sqrt(tm * tm + 4.0 * period * w) - tm)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def demand_groups(
    taskset: TaskSet, algorithm: str | Sequence[Task] = "EDF"
) -> tuple[str, list[tuple[str, np.ndarray, np.ndarray]]]:
    """The algorithm label and the ``(name, points, demand)`` groups.

    EDF has one group (dlSet with its demand bound, Eq. 11); fixed priority
    one per task, highest priority first (its scheduling points with its
    workload, Eq. 6). An explicit priority order is labelled ``"FP"``.
    """
    if isinstance(algorithm, str):
        alg = algorithm.upper()
        order: tuple[Task, ...] | None = None
        if alg not in ("EDF", "RM", "DM"):
            raise ValueError(f"unknown algorithm {algorithm!r} (EDF, RM or DM)")
        if alg in ("RM", "DM"):
            order = priority_order(taskset, alg)
    else:
        order = tuple(algorithm)
        alg = "FP"
        if set(t.name for t in order) != set(taskset.names):
            raise ValueError("priority order must be a permutation of the task set")
    groups: list[tuple[str, np.ndarray, np.ndarray]] = []
    if len(taskset) == 0:
        return alg, groups
    if alg == "EDF":
        pts, w = edf_demand(taskset)  # dlSet up to the hyperperiod (Eq. 11)
        groups.append(("*", pts, w))
    else:
        assert order is not None
        for i, task in enumerate(order):
            hp = order[:i]
            pts = np.asarray(scheduling_points(task, hp), dtype=float)
            groups.append((task.name, pts, fp_workload_array(task, hp, pts)))
    return alg, groups


@dataclass(frozen=True)
class MinQResult:
    """Detailed ``minQ`` outcome.

    Attributes
    ----------
    value:
        The minimum usable quantum ``Q̃`` (0 for an empty task set).
    period:
        The major period ``P`` the value was computed for.
    algorithm:
        "RM" / "DM" / "EDF".
    binding_task:
        For FP: the task whose constraint is binding (the arg-max of Eq. 6).
        None for EDF or empty sets.
    binding_point:
        The time point realising the binding value (arg-min over the binding
        task's scheduling points for FP; arg-max over dlSet for EDF).
    """

    value: float
    period: float
    algorithm: str
    binding_task: str | None = None
    binding_point: float | None = None


class QuantumCurve:
    """``minQ`` as a reusable function of the period ``P``.

    Precomputes the (point, demand) pairs of a task set once
    (:func:`demand_groups`), prunes them to their binding hull
    (:attr:`hull_groups`), then evaluates Eq. 6 / Eq. 11 for scalar or
    array ``P`` in vectorised form. For one period, :func:`min_quantum` is
    cheaper; for the bins of a whole partition,
    :class:`~repro.core.integration.SystemCurve` stacks the hull groups.

    Parameters
    ----------
    taskset:
        The tasks of one logical processor of one mode.
    algorithm:
        ``"EDF"`` or a fixed-priority policy (``"RM"`` / ``"DM"``); an
        explicit priority order (sequence of tasks, highest first) is also
        accepted.
    """

    def __init__(
        self, taskset: TaskSet, algorithm: str | Sequence[Task] = "EDF"
    ):
        self._taskset = taskset
        self._alg, self._groups = demand_groups(taskset, algorithm)
        # f_P's superlevel (EDF) / sublevel (FP) sets are half-planes, so
        # only the convex hull of the (t, W) pairs can bind Eq. 11 / Eq. 6:
        # evaluate() sweeps a handful of hull points instead of the whole
        # dlSet per candidate period, bit-identically (the conservative
        # hull never drops a potential arg-extremum). detailed() keeps the
        # full sets so binding points are reported from the same candidate
        # list as before.
        if kernels.fast_kernels_enabled():
            self._eval_groups = [
                (name, pts[idx], w[idx])
                for name, pts, w in self._groups
                for idx in (
                    kernels.binding_hull(pts, w, upper=self._alg == "EDF"),
                )
            ]
        else:
            self._eval_groups = self._groups

    @property
    def algorithm(self) -> str:
        """The algorithm label this curve was built for."""
        return self._alg

    @property
    def taskset(self) -> TaskSet:
        """The underlying task set."""
        return self._taskset

    @property
    def hull_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The ``(points, demand)`` arrays :meth:`evaluate` sweeps, per group.

        One pair per group of :func:`demand_groups` (EDF: one; FP: one per
        task, highest priority first), pruned to the binding hull when the
        fast kernels are on and complete otherwise. Every group is
        non-empty: a task's own deadline is always one of its points. The
        arrays are read-only views.
        """
        return tuple(
            (_read_only(pts), _read_only(w)) for _name, pts, w in self._eval_groups
        )

    def evaluate(self, periods: np.ndarray | float) -> np.ndarray | float:
        """``minQ`` for each period in ``periods`` (scalar in, scalar out)."""
        scalar = np.isscalar(periods)
        ps = np.atleast_1d(np.asarray(periods, dtype=float))
        if np.any(ps <= 0):
            raise ValueError("periods must be > 0")
        out = np.zeros_like(ps)
        for _name, pts, w in self._eval_groups:
            # f has shape (n_points, n_periods)
            f = _f_quantum(pts[:, None], w[:, None], ps[None, :])
            if self._alg == "EDF":
                out = np.maximum(out, f.max(axis=0))
            else:
                out = np.maximum(out, f.min(axis=0))
        return float(out[0]) if scalar else out

    def detailed(self, period: float) -> MinQResult:
        """Full :class:`MinQResult` at a single period."""
        check_positive("period", period)
        if not self._groups:
            return MinQResult(0.0, period, self._alg)
        best_val = -np.inf
        best_task: str | None = None
        best_point: float | None = None
        for name, pts, w in self._groups:
            f = _f_quantum(pts, w, period)
            if self._alg == "EDF":
                idx = int(np.argmax(f))
                val = float(f[idx])
                point = float(pts[idx])
                task = None
            else:
                idx = int(np.argmin(f))
                val = float(f[idx])
                point = float(pts[idx])
                task = name
            if val > best_val:
                best_val, best_task, best_point = val, task, point
        return MinQResult(best_val, period, self._alg, best_task, best_point)


# -- functional API -------------------------------------------------------------


def min_quantum_edf_scaled(sts: kernels.ScaledTaskSet, period: float) -> float:
    """Eq. 11 at one period, on the integer grid of ``sts``.

    Equal to :func:`min_quantum_edf` of ``sts``'s tasks, and it counts the
    same two kernel selections as :func:`~repro.analysis.edf.edf_demand`
    (the points and the demand). The max runs over every job deadline up
    to the hyperperiod: the ``dlSet`` unsorted and with repeats, which
    give the same ``f_P`` as the point they repeat. The caller validates
    ``period > 0``.
    """
    pts = kernels.job_deadlines(sts, sts.hyperperiod)
    kernels.note_selection(True)  # the points
    kernels.note_selection(True)  # the demand
    f = _f_quantum(kernels.to_time(sts, pts), kernels.demand_array(sts, pts), period)
    return float(np.maximum(0.0, f.max()))


def _min_quantum_at(
    taskset: TaskSet, algorithm: str | Sequence[Task], period: float
) -> float:
    """Eq. 6 / Eq. 11 at one period, over the full point sets (no hull)."""
    check_positive("period", period)
    if algorithm == "EDF" and kernels.fast_kernels_enabled():
        sts = kernels.rescale(taskset.tasks)
        if sts is not None:
            return min_quantum_edf_scaled(sts, period)
    alg, groups = demand_groups(taskset, algorithm)
    out = 0.0
    for _name, pts, w in groups:
        f = _f_quantum(pts, w, period)
        out = np.maximum(out, f.max() if alg == "EDF" else f.min())
    return float(out)


def min_quantum_fp(
    taskset: TaskSet,
    period: float,
    priorities: Sequence[Task] | str = "RM",
) -> float:
    """Eq. 6: minimum usable quantum for fixed-priority scheduling."""
    return _min_quantum_at(taskset, priorities, period)


def min_quantum_edf(taskset: TaskSet, period: float) -> float:
    """Eq. 11: minimum usable quantum for EDF scheduling."""
    return _min_quantum_at(taskset, "EDF", period)


def min_quantum(
    taskset: TaskSet, algorithm: str, period: float
) -> float:
    """``minQ(T, alg, P)`` — dispatch on the algorithm name."""
    alg = algorithm.upper()
    if alg == "EDF":
        return min_quantum_edf(taskset, period)
    if alg in ("RM", "DM", "FP"):
        return min_quantum_fp(taskset, period, "RM" if alg == "FP" else alg)
    raise ValueError(f"unknown algorithm {algorithm!r} (EDF, RM or DM)")


def min_quantum_detailed(
    taskset: TaskSet, algorithm: str, period: float
) -> MinQResult:
    """Like :func:`min_quantum` but returns the binding task/point."""
    return QuantumCurve(taskset, algorithm).detailed(period)


def min_quantum_exact(
    taskset: TaskSet,
    algorithm: str,
    period: float,
    *,
    tol: float = 1e-6,
    horizon_hyperperiods: float = 2.0,
) -> float:
    """Inverse schedulability against the *exact* Lemma-1 supply.

    Bisects the smallest ``Q̃ ∈ [0, P]`` for which the supply-aware
    feasibility test (Theorem 1 / Theorem 2 evaluated with the exact
    :class:`~repro.supply.PeriodicSlotSupply`) accepts the task set. Returns
    ``inf`` if even a fully dedicated slot (``Q̃ = P``, i.e. a dedicated
    processor) is insufficient.

    The linear-bound :func:`min_quantum` value is always an upper bound,
    which seeds the bisection bracket; the asymptotic rate condition
    ``Q̃ >= U(T) * P`` seeds the lower end (a slot supplying less bandwidth
    than the task set consumes can never be feasible).

    For EDF the deadline check is truncated at ``horizon_hyperperiods``
    task hyperperiods: constraints at later deadlines converge monotonically
    to the rate condition, which is enforced exactly through the bracket
    seed, so the truncation error is below the bisection tolerance for
    practical parameters (near the rate boundary the analytic cut-off
    ``t* = (B + αΔ)/(α − U)`` diverges; checking it literally would cost
    millions of points for a vanishing refinement of the answer).
    """
    check_positive("period", period)
    if len(taskset) == 0:
        return 0.0
    alg = algorithm.upper()
    edf_horizon = max(
        horizon_hyperperiods * taskset.hyperperiod(), 10.0 * period
    )

    def feasible(q: float) -> bool:
        supply = PeriodicSlotSupply(period, q)
        if alg == "EDF":
            return edf_schedulable_supply(
                taskset, supply, horizon=edf_horizon
            ).schedulable
        return fp_schedulable_supply(
            taskset, supply, "RM" if alg == "FP" else alg
        ).schedulable

    hi = min(min_quantum(taskset, alg, period), period)
    if not feasible(hi):
        # The linear bound capped at P may still be infeasible (the set does
        # not even fit a dedicated processor): report infinity.
        if not feasible(period):
            return float("inf")
        hi = period
    lo = min(taskset.utilization * period, hi)
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi

