"""Preemptive uniprocessor scheduling policies for the simulator.

A policy is a stateless job order: :meth:`SchedulingPolicy.key` gives a
job its priority key from its task, release and absolute deadline, and the
job with the least key runs. Every key ends in ``(release, task name)``,
which no two jobs of one task set share, so the order is total and
simulations are reproducible. The uniprocessor simulator keeps its ready
jobs in a heap by this key; :meth:`SchedulingPolicy.select` picks from a
list of :class:`~repro.model.Job` objects by the same key. Preemption is
the simulator's: it re-reads the least key at every event (release,
completion, abort, window edge).
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

from repro.analysis import priority_order
from repro.model import Job, Task, TaskSet


class SchedulingPolicy(abc.ABC):
    """Orders the active jobs of one logical processor."""

    name: str = "abstract"

    @abc.abstractmethod
    def key(self, task: Task, release: float, absolute_deadline: float) -> tuple:
        """Priority key of a job of ``task``: the least key runs first."""

    def select(self, jobs: Sequence[Job]) -> Job | None:
        """The active job with the least key (None when there is none)."""
        key = self.key
        return min(
            (j for j in jobs if j.is_active),
            key=lambda j: key(j.task, j.release, j.absolute_deadline),
            default=None,
        )


class FixedPriorityPolicy(SchedulingPolicy):
    """Static priorities: highest-priority active job wins.

    Parameters
    ----------
    order:
        Tasks from highest to lowest priority (e.g. from
        :func:`repro.analysis.priority_order`).
    """

    def __init__(self, order: Sequence[Task]):
        self._rank: Mapping[str, int] = {t.name: i for i, t in enumerate(order)}
        self.name = "FP"

    def rank_of(self, task_name: str) -> int:
        """Priority rank (0 = highest)."""
        try:
            return self._rank[task_name]
        except KeyError:
            raise KeyError(f"task {task_name!r} has no assigned priority") from None

    def key(self, task: Task, release: float, absolute_deadline: float) -> tuple:
        return (self.rank_of(task.name), release, task.name)


class EDFPolicy(SchedulingPolicy):
    """Earliest absolute deadline first (dynamic priorities)."""

    name = "EDF"

    def key(self, task: Task, release: float, absolute_deadline: float) -> tuple:
        return (absolute_deadline, release, task.name)


def make_policy(taskset: TaskSet, algorithm: str) -> SchedulingPolicy:
    """Build a policy by algorithm name ("RM", "DM" or "EDF")."""
    alg = algorithm.upper()
    if alg == "EDF":
        return EDFPolicy()
    if alg in ("RM", "DM"):
        return FixedPriorityPolicy(priority_order(taskset, alg))
    raise ValueError(f"unknown algorithm {algorithm!r} (EDF, RM or DM)")
