"""Priority assignment for fixed-priority scheduling.

Provides the two classic static orders (rate monotonic, deadline monotonic).
A priority order is represented as a tuple of tasks, highest priority first;
ties are broken by task name so orders are deterministic.
"""

from __future__ import annotations

from repro.model import Task, TaskSet


def rate_monotonic(taskset: TaskSet) -> tuple[Task, ...]:
    """Rate-monotonic order: shorter period = higher priority (RM).

    RM is optimal among fixed-priority orders for synchronous implicit-
    deadline task sets on a dedicated processor (Liu & Layland).
    """
    return tuple(sorted(taskset, key=lambda t: (t.period, t.name)))


def deadline_monotonic(taskset: TaskSet) -> tuple[Task, ...]:
    """Deadline-monotonic order: shorter relative deadline = higher priority.

    Optimal for constrained-deadline synchronous task sets on a dedicated
    processor (Leung & Whitehead); coincides with RM when ``D_i = T_i``.
    """
    return tuple(sorted(taskset, key=lambda t: (t.deadline, t.name)))


def priority_order(taskset: TaskSet, policy: str) -> tuple[Task, ...]:
    """Resolve a policy name (``"RM"``, ``"DM"``) to a priority order."""
    policy = policy.upper()
    if policy == "RM":
        return rate_monotonic(taskset)
    if policy == "DM":
        return deadline_monotonic(taskset)
    raise ValueError(f"unknown fixed-priority policy {policy!r} (use 'RM' or 'DM')")
