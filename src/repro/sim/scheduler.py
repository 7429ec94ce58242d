"""Preemptive uniprocessor scheduling policies for the simulator.

A policy is a stateless job selector: given the currently active jobs it
returns the one to execute. Preemption is handled by the simulator, which
re-invokes the selector at every event (release, completion, window edge).
Ties are broken deterministically (earlier release, then task name) so
simulations are reproducible.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

from repro.analysis import priority_order
from repro.model import Job, JobState, Task, TaskSet
from repro.util import EPS


class SchedulingPolicy(abc.ABC):
    """Picks which active job runs next on one logical processor."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(self, jobs: Sequence[Job]) -> Job | None:
        """The job to execute among ``jobs`` (None when the set is empty)."""


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

    def select(self, jobs: Sequence[Job]) -> Job | None:
        return min(
            (j for j in jobs if j.is_active),
            key=lambda j: (self.rank_of(j.task.name), j.release, j.task.name),
            default=None,
        )


class EDFPolicy(SchedulingPolicy):
    """Earliest absolute deadline first (dynamic priorities)."""

    name = "EDF"

    def select(self, jobs: Sequence[Job]) -> Job | None:
        # The first active job with the least key, as min() would pick it;
        # keys are only built to break a deadline tie.
        best = None
        for j in jobs:
            if j.state is not JobState.READY or j.remaining <= EPS:
                continue  # not j.is_active
            if best is None:
                best = j
                continue
            d, best_d = j.absolute_deadline, best.absolute_deadline
            if d < best_d or (
                d == best_d and (j.release, j.task.name) < (best.release, best.task.name)
            ):
                best = j
        return best


def make_policy(taskset: TaskSet, algorithm: str) -> SchedulingPolicy:
    """Build a policy by algorithm name ("RM", "DM" or "EDF")."""
    alg = algorithm.upper()
    if alg == "EDF":
        return EDFPolicy()
    if alg in ("RM", "DM"):
        return FixedPriorityPolicy(priority_order(taskset, alg))
    raise ValueError(f"unknown algorithm {algorithm!r} (EDF, RM or DM)")
