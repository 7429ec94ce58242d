"""Sensitivity analysis of a deployed design.

Design tools need to answer "how much margin does this configuration have?".
This module quantifies three margins for a :class:`PlatformConfig`:

* :func:`critical_scaling_factor` — the largest uniform factor by which all
  WCETs of a partition bin can grow before its mode quantum stops being
  sufficient at the deployed period;
* :func:`quantum_margin` — per mode, the gap between the deployed usable
  quantum and the binding ``minQ`` (how much the slot could shrink);
* :func:`task_wcet_margin` — per task, the largest WCET increase (keeping
  everything else fixed) the design still tolerates.

All margins are computed against the same Theorem 1/2 feasibility used by
the design pipeline, so a margin of zero means "on the boundary", not "near
it".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PlatformConfig
from repro.core.minq import min_quantum
from repro.model import Mode, PartitionedTaskSet, Task, TaskSet
from repro.model.transformations import scale_wcets
from repro.util import EPS, check_positive


def quantum_margin(
    partition: PartitionedTaskSet, config: PlatformConfig
) -> dict[Mode, float]:
    """Per-mode slack between the deployed ``Q̃_k`` and the binding ``minQ_k``.

    Zero margins are expected on boundary designs (Table 2(b)); positive
    margins appear after slack distribution or task removals.
    """
    out: dict[Mode, float] = {}
    for mode in Mode:
        need = max(
            (min_quantum(ts, config.algorithm, config.period)
             for ts in partition.bins(mode)),
            default=0.0,
        )
        out[mode] = config.schedule.usable(mode) - need
    return out


def critical_scaling_factor(
    taskset: TaskSet,
    algorithm: str,
    period: float,
    quantum: float,
    *,
    tol: float = 1e-6,
    upper: float = 16.0,
) -> float:
    """Largest uniform WCET scale the quantum still accommodates.

    Bisects the factor ``s`` such that ``minQ(s·C, alg, P) <= Q̃``; a value
    below 1 means the configuration is already infeasible for this bin.
    Scaling is capped when a task's WCET would exceed its deadline (the
    model's validity limit) — the returned factor never crosses that cap.
    """
    check_positive("period", period)
    check_positive("quantum", quantum)
    if len(taskset) == 0:
        return float("inf")
    cap = min(t.deadline / t.wcet for t in taskset)
    upper = min(upper, cap)

    def feasible(s: float) -> bool:
        scaled = scale_wcets(taskset, s)
        return min_quantum(scaled, algorithm, period) <= quantum + EPS

    lo_probe = tol
    if not feasible(lo_probe):
        return 0.0
    if feasible(upper):
        return upper
    lo, hi = lo_probe, upper
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class TaskMargin:
    """WCET headroom of one task inside a deployed design."""

    task: str
    mode: Mode
    processor: int
    wcet: float
    max_wcet: float

    @property
    def headroom(self) -> float:
        """Absolute WCET increase tolerated."""
        return self.max_wcet - self.wcet

    @property
    def headroom_ratio(self) -> float:
        """Relative headroom (0 = boundary)."""
        return self.headroom / self.wcet


def task_wcet_margin(
    partition: PartitionedTaskSet,
    config: PlatformConfig,
    task_name: str,
    *,
    tol: float = 1e-6,
) -> TaskMargin:
    """Largest WCET the named task could have in the deployed design.

    Bisects the task's WCET (everything else fixed) against its bin's
    quantum at the deployed period; capped at the task's deadline.
    """
    mode, proc = partition.processor_of(task_name)
    ts = partition.bin(mode, proc)
    task = ts[task_name]
    quantum = config.schedule.usable(mode)

    def feasible(c: float) -> bool:
        trial = TaskSet(
            t if t.name != task_name else t.replace(wcet=c) for t in ts
        )
        return min_quantum(trial, config.algorithm, config.period) <= quantum + EPS

    if not feasible(task.wcet):
        return TaskMargin(task_name, mode, proc, task.wcet, task.wcet)
    lo, hi = task.wcet, task.deadline
    if feasible(hi):
        return TaskMargin(task_name, mode, proc, task.wcet, hi)
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return TaskMargin(task_name, mode, proc, task.wcet, lo)


def design_margins(
    partition: PartitionedTaskSet, config: PlatformConfig
) -> dict[str, TaskMargin]:
    """WCET margins for every task of the partition."""
    out = {}
    for task in partition.all_tasks():
        out[task.name] = task_wcet_margin(partition, config, task.name)
    return out
