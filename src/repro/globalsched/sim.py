"""Event-driven global scheduling simulation on ``m`` identical processors.

The standard theoretical model: at every instant the ``m`` highest-priority
active jobs execute, one per processor, with free migration and no
preemption/migration cost. Like the partitioned simulator, execution is
gated by availability windows (the mode's slots) — outside a window no
processor runs.

Implementation: time advances between *events* (releases, window edges,
earliest completion among running jobs). Between consecutive events the
running set is constant, so each running job simply consumes the elapsed
time. Deadline misses are recorded exactly as in
:mod:`repro.sim.uniproc`.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Sequence

from repro.model import Job, JobState, TaskSet
from repro.sim.scheduler import make_policy
from repro.sim.trace import EVENT_ORDER, ExecutionSlice, SimEventKind, SimTrace
from repro.sim.uniproc import merge_windows
from repro.util import EPS, check_positive


@dataclass
class GlobalSimResult:
    """Outcome of a global-scheduling simulation."""

    m: int
    jobs: list[Job]
    trace: SimTrace

    @property
    def misses(self):
        """Deadline-miss events."""
        return self.trace.misses()

    @property
    def completed(self) -> list[Job]:
        """Jobs that ran to completion."""
        return [j for j in self.jobs if j.state is JobState.COMPLETED]

    def migrations(self) -> int:
        """Number of times a job resumed on a different processor."""
        last_proc: dict[str, str] = {}
        count = 0
        for s in sorted(self.trace.slices, key=lambda s: (s.start, s.processor)):
            prev = last_proc.get(s.job)
            if prev is not None and prev != s.processor:
                count += 1
            last_proc[s.job] = s.processor
        return count


def simulate_global(
    taskset: TaskSet,
    algorithm: str,
    m: int,
    windows: Sequence[tuple[float, float]],
    horizon: float,
    *,
    release_offsets: dict[str, float] | None = None,
) -> GlobalSimResult:
    """Simulate global EDF/RM/DM of ``taskset`` on ``m`` processors.

    Parameters mirror :func:`repro.sim.uniproc.simulate_uniproc`; processors
    are labelled ``G[0] .. G[m-1]`` and jobs keep a stable processor while
    they remain in the running set (jobs are re-packed by rank at each
    event, so a preempted job may later resume on a different processor —
    counted by :meth:`GlobalSimResult.migrations`).
    """
    check_positive("horizon", horizon)
    if m < 1:
        raise ValueError(f"m must be >= 1: got {m}")
    rank = make_policy(taskset, algorithm).key

    def key(job: Job) -> tuple:
        return rank(job.task, job.release, job.absolute_deadline)

    offsets = release_offsets or {}
    trace = SimTrace(horizon)
    windows = merge_windows(windows, horizon)

    jobs: list[Job] = []
    releases: list[tuple[float, Job]] = []
    for task in taskset:
        off = float(offsets.get(task.name, 0.0))
        k = 0
        while True:
            r = off + k * task.period
            if r >= horizon - EPS:
                break
            job = Job(task, r, k)
            jobs.append(job)
            releases.append((r, job))
            k += 1
    releases.sort(key=lambda p: (p[0], p[1].task.name))
    release_times = [r for r, _ in releases]

    ready: list[Job] = []
    missed: set[str] = set()
    rel_idx = 0

    def admit(now: float) -> None:
        nonlocal rel_idx
        while rel_idx < len(releases) and release_times[rel_idx] <= now + EPS:
            r, job = releases[rel_idx]
            ready.append(job)
            trace.log(r, SimEventKind.RELEASE, job.name)
            rel_idx += 1

    def check_misses(now: float) -> None:
        for job in ready:
            if (
                job.is_active
                and job.absolute_deadline < now - EPS
                and job.name not in missed
            ):
                missed.add(job.name)
                trace.log(
                    job.absolute_deadline, SimEventKind.DEADLINE_MISS,
                    job.name, detail=f"remaining={job.remaining:g}",
                )

    for win_a, win_b in windows:
        now = win_a
        while now < win_b - EPS:
            admit(now)
            check_misses(now)
            active = sorted((j for j in ready if j.is_active), key=key)
            running = active[:m]
            next_release = (
                release_times[rel_idx] if rel_idx < len(releases) else float("inf")
            )
            boundary = min(win_b, next_release)
            if not running:
                if boundary >= win_b - EPS:
                    break
                now = boundary
                continue
            run_until = min(
                boundary, now + min(j.remaining for j in running)
            )
            if run_until <= now + EPS:
                now = boundary  # degenerate sliver; skip ahead
                continue
            for proc, job in enumerate(running):
                job.execute(run_until - now)
                trace.add_slice(
                    ExecutionSlice(
                        f"G[{proc}]", job.name, job.task.name, now, run_until
                    )
                )
                if not job.is_active and job.state is JobState.READY:
                    job.complete(run_until)
                    trace.log(run_until, SimEventKind.COMPLETION, job.name)
                    if (
                        run_until > job.absolute_deadline + EPS
                        and job.name not in missed
                    ):
                        missed.add(job.name)
                        trace.log(
                            job.absolute_deadline, SimEventKind.DEADLINE_MISS,
                            job.name, detail=f"completed late at {run_until:g}",
                        )
            ready[:] = [j for j in ready if j.is_active]
            now = run_until
    for job in jobs:
        if (
            job.state is JobState.READY
            and job.remaining > EPS
            and job.absolute_deadline <= horizon + EPS
            and job.name not in missed
        ):
            missed.add(job.name)
            trace.log(
                job.absolute_deadline, SimEventKind.DEADLINE_MISS, job.name,
                detail=f"unfinished at horizon (remaining={job.remaining:g})",
            )
    trace.events.sort(key=EVENT_ORDER)
    return GlobalSimResult(m, jobs, trace)
