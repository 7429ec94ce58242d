"""Fixed-priority schedulability tests, dedicated and supply-aware.

The central result is Theorem 1 of the paper: task set ``T`` is FP-schedulable
inside a partition with supply ``Z`` if for every task some scheduling point
``t`` satisfies ``Z(t) >= W_i(t)``. With ``Z(t) = t`` (a dedicated processor)
this is exactly the Bini–Buttazzo point test; with the linear supply of Eq. 3
it is the condition the paper inverts into ``minQ``; with the exact Lemma-1
supply it is the "tedious" exact analysis the paper skips (and which we use
as an ablation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.points import scheduling_points
from repro.analysis.priorities import priority_order
from repro.analysis.results import FPAnalysis, TaskVerdict
from repro.analysis.workload import fp_workload, fp_workload_array
from repro.model import Task, TaskSet
from repro.supply import DedicatedSupply, SupplyFunction
from repro.util import EPS, feq


def _resolve_order(
    taskset: TaskSet, priorities: Sequence[Task] | str | None
) -> tuple[Task, ...]:
    """Normalise a priority specification to an explicit order."""
    if priorities is None:
        priorities = "DM"
    if isinstance(priorities, str):
        return priority_order(taskset, priorities)
    order = tuple(priorities)
    if set(t.name for t in order) != set(taskset.names) or len(order) != len(taskset):
        raise ValueError("priority order must be a permutation of the task set")
    return order


def fp_schedulable_supply(
    taskset: TaskSet,
    supply: SupplyFunction,
    priorities: Sequence[Task] | str | None = None,
) -> FPAnalysis:
    """Theorem 1: FP feasibility of ``taskset`` under a supply function.

    Parameters
    ----------
    taskset:
        Tasks sharing one logical processor of a partition.
    supply:
        The partition's supply function ``Z`` (linear for Theorem 1 proper).
    priorities:
        ``"RM"``, ``"DM"`` (default) or an explicit order, highest first.

    Returns
    -------
    :class:`FPAnalysis` with a per-task verdict and feasibility witness.
    """
    order = _resolve_order(taskset, priorities)
    verdicts: list[TaskVerdict] = []
    ok = True
    for i, task in enumerate(order):
        hp = order[:i]
        pts = scheduling_points(task, hp)
        witness = None
        if pts:
            w = fp_workload_array(task, hp, pts)
            z = supply.supply_array(pts)
            good = np.nonzero(z >= w - EPS)[0]
            if good.size:
                witness = float(pts[int(good[0])])
        verdicts.append(TaskVerdict(task, witness is not None, witness=witness))
        ok = ok and witness is not None
    return FPAnalysis(ok, tuple(verdicts), order)


def fp_schedulable_dedicated(
    taskset: TaskSet, priorities: Sequence[Task] | str | None = None
) -> FPAnalysis:
    """Classic Bini–Buttazzo point test on a dedicated processor."""
    return fp_schedulable_supply(taskset, DedicatedSupply(), priorities)


# -- response-time analysis ----------------------------------------------------


def fp_response_time(
    task: Task,
    higher_priority: Sequence[Task],
    *,
    max_iterations: int = 10_000,
) -> float | None:
    """Worst-case response time of ``task`` on a dedicated processor.

    Standard fixed-point iteration ``R = C_i + sum ceil(R/T_j) C_j``.
    Returns ``None`` when the iteration exceeds the deadline (unschedulable)
    or fails to converge (higher-priority utilization >= 1).
    """
    return fp_response_time_supply(
        task, higher_priority, DedicatedSupply(), max_iterations=max_iterations
    )


def fp_response_time_supply(
    task: Task,
    higher_priority: Sequence[Task],
    supply: SupplyFunction,
    *,
    max_iterations: int = 10_000,
) -> float | None:
    """Supply-aware RTA: fixed point of ``R = Z^{-1}(W_i(R))``.

    The iteration is monotonically non-decreasing, so it either converges to
    the worst-case response time or crosses the deadline, at which point
    ``None`` is returned. (With a linear supply the update is
    ``R = Δ + W_i(R)/α`` — the response-time bound of Almeida & Pedreiras.)
    """
    if not supply.is_feasible_budget():
        return None
    r = supply.inverse(task.wcet)
    for _ in range(max_iterations):
        if r > task.deadline + EPS:
            return None
        w = fp_workload(task, higher_priority, max(r, EPS))
        r_next = supply.inverse(w, hint=r)
        if feq(r_next, r):
            return min(r_next, max(r_next, r))
        if r_next < r - EPS:  # pragma: no cover - monotonicity guard
            raise RuntimeError("supply-aware RTA iteration decreased")
        r = r_next
    raise RuntimeError(
        f"RTA did not converge for {task.name} after {max_iterations} iterations"
    )
