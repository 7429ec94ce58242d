"""Simulation of one logical processor inside availability windows.

This is the workhorse of the platform simulator: a preemptive, event-driven
execution of a partition's task set on one logical processor that is only
available during the windows its mode's slots provide. The fail-silent fault
path is supported through *abort events* (kill whatever runs at time ``t``)
combined with pre-blacked-out windows.

Job releases follow the synchronous periodic pattern (``k T_i + offset``) —
the worst case the analysis assumes; per-task release offsets allow the
validation layer to align the critical instant with a slot blackout.

The loop advances from event to event: a window edge, a release, an abort
or the running job's completion. One step admits the releases due, logs
the misses of ready jobs past their deadline, asks the policy for a job and
runs it to the next event, so its cost is the ready set plus one policy
call. Completed jobs leave the ready set when they complete and aborted
jobs when the abort fires, so the ready set only ever holds ``READY`` jobs.

The loop records columns, not trace records: each execution slice as its
job, start and end in three parallel lists, and as events only the rare
deadline misses and aborts. The RELEASE events are the releases the loop
admitted and the COMPLETION events the completed jobs' completion times, so
the result's :class:`~repro.sim.trace.SimTrace` is deferred and builds its
slices and events from these records when first read.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.model import Job, JobState, TaskSet
from repro.sim.scheduler import SchedulingPolicy
from repro.sim.trace import ExecutionSlice, SimEvent, SimEventKind, SimTrace
from repro.util import EPS, check_positive


def merge_windows(
    windows: Sequence[tuple[float, float]], horizon: float
) -> list[tuple[float, float]]:
    """Sort, clip to ``[0, horizon)`` and merge touching windows."""
    # max(x, 0.0) and min(x, horizon), spelled out: the builtins return
    # their first argument unless the second compares strictly past it.
    ws = []
    for a, b in windows:
        if (horizon if horizon < b else b) - (0.0 if 0.0 > a else a) > EPS:
            a, b = float(a), float(b)
            ws.append((0.0 if 0.0 > a else a, horizon if horizon < b else b))
    ws.sort()
    merged: list[tuple[float, float]] = []
    for a, b in ws:
        if merged and a <= merged[-1][1] + EPS:
            start, end = merged[-1]
            merged[-1] = (start, max(end, b))
        else:
            merged.append((a, b))
    return merged


def subtract_blackouts(
    windows: Sequence[tuple[float, float]],
    blackouts: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Remove blackout intervals (e.g. silenced-channel time) from windows.

    Each window is cut by every blackout that overlaps it, in the blackouts'
    given order; pieces of ``EPS`` length or less are dropped. A blackout
    that does not overlap a window cannot cut any piece of it, so a sweep
    over the windows by start, with the blackouts opened by start and
    closed once they end before a window, finds each window's cutters
    without testing every pair.
    """
    if not blackouts:
        return [(a, b) for a, b in windows if b - a > EPS]
    by_start = sorted(range(len(blackouts)), key=lambda k: blackouts[k][0])
    opened = 0
    live: list[int] = []
    cutters: list[list[int]] = [[] for _ in windows]
    for w in sorted(range(len(windows)), key=lambda w: windows[w][0]):
        a, b = windows[w]
        while opened < len(by_start) and blackouts[by_start[opened]][0] < b - EPS:
            live.append(by_start[opened])
            opened += 1
        # Windows come by start, so a blackout over before this one starts
        # is over before every later one starts too.
        live = [k for k in live if blackouts[k][1] > a + EPS]
        cutters[w] = sorted(k for k in live if blackouts[k][0] < b - EPS)
    out: list[tuple[float, float]] = []
    for (a, b), cuts in zip(windows, cutters):
        pieces = [(a, b)]
        for k in cuts:
            ba, bb = blackouts[k]
            next_pieces: list[tuple[float, float]] = []
            for pa, pb in pieces:
                if bb <= pa + EPS or ba >= pb - EPS:
                    next_pieces.append((pa, pb))
                    continue
                if ba > pa + EPS:
                    next_pieces.append((pa, ba))
                if bb < pb - EPS:
                    next_pieces.append((bb, pb))
            pieces = next_pieces
        out.extend(pieces)
    return [p for p in out if p[1] - p[0] > EPS]


@dataclass
class UniprocResult:
    """Outcome of a single-processor simulation.

    Attributes
    ----------
    processor:
        Logical processor label (e.g. ``"FS[1]"``).
    jobs:
        Every job instance released before the horizon.
    trace:
        Slices and events of this processor, built from the run's records
        when first read (see :meth:`~repro.sim.trace.SimTrace.deferred`).
    slice_columns:
        The run's execution slices as three parallel columns, in time
        order: the :class:`~repro.model.Job` that ran, and the slice's start
        and end. ``trace.slices`` is built from them.
    """

    processor: str
    jobs: list[Job]
    trace: SimTrace
    slice_columns: tuple[list[Job], list[float], list[float]] = field(
        default_factory=lambda: ([], [], []), repr=False
    )

    @property
    def misses(self) -> list[SimEvent]:
        """Deadline-miss events."""
        return self.trace.misses()

    @property
    def completed(self) -> list[Job]:
        """Jobs that ran to completion."""
        return [j for j in self.jobs if j.state is JobState.COMPLETED]

    @property
    def aborted(self) -> list[Job]:
        """Jobs killed by fail-silent channel shutdown."""
        return [j for j in self.jobs if j.state is JobState.ABORTED]

    def response_times(self) -> dict[str, list[float]]:
        """Observed response times grouped by task."""
        out: dict[str, list[float]] = {}
        for j in self.completed:
            rt = j.response_time
            if rt is not None:
                out.setdefault(j.task.name, []).append(rt)
        return out

    def worst_response_time(self, task: str) -> float | None:
        """Largest observed response time of one task (None if never finished)."""
        rts = self.response_times().get(task)
        return max(rts) if rts else None

    def running_job(self, t: float) -> Job | None:
        """The job executing at instant ``t`` (None when idle).

        The job of the first slice with ``start - EPS <= t < end - EPS``.
        Slices are in time order and do not overlap, so both bounds grow
        along the columns: the slices passing the first test are a prefix,
        those passing the second a suffix, and two bisections find the
        first slice in both.
        """
        ran, starts, ends = self.slice_columns
        first = bisect.bisect_right(ends, t, key=lambda end: end - EPS)
        started = bisect.bisect_right(starts, t, key=lambda start: start - EPS)
        return ran[first] if first < started else None

    def job_running_at(self, t: float) -> str | None:
        """Name of the job executing at instant ``t`` (None when idle)."""
        job = self.running_job(t)
        return job.name if job is not None else None


def simulate_uniproc(
    taskset: TaskSet,
    policy: SchedulingPolicy,
    windows: Sequence[tuple[float, float]],
    horizon: float,
    *,
    processor: str = "P[0]",
    release_offsets: Mapping[str, float] | None = None,
    abort_events: Sequence[float] = (),
) -> UniprocResult:
    """Simulate ``taskset`` under ``policy`` within availability ``windows``.

    Parameters
    ----------
    taskset:
        Tasks sharing this logical processor.
    policy:
        Preemptive scheduling policy (see :mod:`repro.sim.scheduler`).
    windows:
        Availability intervals; execution only happens inside them.
    horizon:
        Simulation end. Jobs whose absolute deadline falls beyond the horizon
        are not judged for misses (edge effect).
    release_offsets:
        Optional per-task first-release offsets (default 0 — synchronous).
    abort_events:
        Times at which the currently running job (if any) is killed — the
        fail-silent channel-shutdown hook. Each time is consumed once.

    Returns
    -------
    :class:`UniprocResult` with all jobs and the run's slice columns. Its
    trace builds the slices and events from the run's records on first read.
    """
    check_positive("horizon", horizon)
    offsets = release_offsets or {}
    windows = merge_windows(windows, horizon)
    aborts = sorted(t for t in abort_events if 0.0 <= t < horizon)

    # Pre-generate all releases before the horizon, time-ordered.
    jobs: list[Job] = []
    releases: list[tuple[float, Job]] = []
    for task in taskset:
        off = float(offsets.get(task.name, 0.0))
        if off < 0:
            raise ValueError(f"release offset of {task.name} must be >= 0")
        if not math.isfinite(off):
            # A NaN offset passes the test above and never reaches the
            # horizon below: the release loop would never end.
            raise ValueError(
                f"release offset of {task.name} must be finite: got {off}"
            )
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
    release_jobs = [job for _, job in releases]
    n_releases, n_aborts = len(releases), len(aborts)

    READY, COMPLETED = JobState.READY, JobState.COMPLETED
    MISS, ABORT = SimEventKind.DEADLINE_MISS, SimEventKind.ABORT
    select = policy.select
    # The slice columns, and the only events logged as they happen.
    ran: list[Job] = []
    starts: list[float] = []
    ends: list[float] = []
    logged: list[SimEvent] = []
    last = None  # the job of the last slice
    ready: list[Job] = []
    missed: set[str] = set()
    rel_idx = 0
    abort_idx = 0

    for win_a, win_b in windows:
        now = win_a
        close = win_b - EPS
        while now < close:
            soon = now + EPS
            # Aborts at or before `now` hit an idle (or already handled)
            # instant — consume them harmlessly so a stale abort can never
            # kill a job that starts later.
            while abort_idx < n_aborts and aborts[abort_idx] <= soon:
                abort_idx += 1
            while rel_idx < n_releases and release_times[rel_idx] <= soon:
                ready.append(release_jobs[rel_idx])
                rel_idx += 1
            # Log (once) every active job whose deadline has passed.
            late = now - EPS
            for job in ready:
                if (
                    job.absolute_deadline < late
                    and job.remaining > EPS
                    and job.name not in missed
                ):
                    missed.add(job.name)
                    logged.append(
                        SimEvent(
                            job.absolute_deadline, MISS, job.name,
                            f"remaining={job.remaining:g}",
                        )
                    )
            # An empty ready set selects nothing (the policy contract).
            job = select(ready) if ready else None
            boundary = win_b
            if rel_idx < n_releases and release_times[rel_idx] < boundary:
                boundary = release_times[rel_idx]
            if abort_idx < n_aborts and aborts[abort_idx] < boundary:
                boundary = aborts[abort_idx]
            if job is None:
                if boundary >= close:
                    break  # idle until the window closes
                now = boundary
                continue
            # min() spelled out: ties return the same value either way.
            remaining = job.remaining
            run_until = now + remaining
            if boundary <= run_until:
                run_until = boundary
            if run_until > soon:
                # Job.execute, inlined.
                used = run_until - now
                remaining -= remaining if remaining < used else used
                job.remaining = remaining = 0.0 if remaining <= EPS else remaining
                # SimTrace.add_slice on the columns: the job that ran last
                # continuing after a gap of at most EPS extends its slice.
                # Job names are unique on a processor, so comparing the jobs
                # is comparing their names.
                if job is last and abs(ends[-1] - now) <= EPS:
                    ends[-1] = run_until
                else:
                    ran.append(job)
                    starts.append(now)
                    ends.append(run_until)
                    last = job
            if remaining <= EPS and job.state is READY:
                job.complete(run_until)
                name = job.name
                if run_until > job.absolute_deadline + EPS and name not in missed:
                    missed.add(name)
                    logged.append(
                        SimEvent(
                            job.absolute_deadline, MISS, name,
                            f"completed late at {run_until:g}",
                        )
                    )
                ready.remove(job)
            now = run_until
            # The abort at `run_until` (if that is why we stopped) kills the
            # job that was just executing, provided it is still active.
            soon = now + EPS
            if abort_idx < n_aborts and aborts[abort_idx] <= soon:
                victim = job if job.is_active else None
                while abort_idx < n_aborts and aborts[abort_idx] <= soon:
                    if victim is not None:
                        victim.abort()
                        logged.append(
                            SimEvent(
                                aborts[abort_idx], ABORT, victim.name,
                                "channel silenced",
                            )
                        )
                        ready.remove(victim)
                        victim = None
                    abort_idx += 1
    # Horizon post-pass: unfinished jobs whose deadline lies inside the horizon.
    for job in jobs:
        if (
            job.state is JobState.READY
            and job.remaining > EPS
            and job.absolute_deadline <= horizon + EPS
            and job.name not in missed
        ):
            missed.add(job.name)
            logged.append(
                SimEvent(
                    job.absolute_deadline, MISS, job.name,
                    f"unfinished at horizon (remaining={job.remaining:g})",
                )
            )
    admitted = rel_idx

    def build() -> tuple[list[ExecutionSlice], list[SimEvent]]:
        # Each job has at most one release, completion, miss and abort, and
        # job names are unique here, so no two events share a sort key: the
        # trace's one sort gives the order whatever order they come in.
        slices = [
            ExecutionSlice(processor, job.name, job.task.name, start, end)
            for job, start, end in zip(ran, starts, ends)
        ]
        released = release_jobs[:admitted]
        events = [
            SimEvent(job.release, SimEventKind.RELEASE, job.name)
            for job in released
        ]
        events += [
            SimEvent(job.completion_time, SimEventKind.COMPLETION, job.name)
            for job in released
            if job.state is COMPLETED
        ]
        events += logged
        return slices, events

    return UniprocResult(
        processor, jobs, SimTrace.deferred(horizon, build, logged),
        (ran, starts, ends),
    )
