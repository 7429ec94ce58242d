"""Simulation of one logical processor inside availability windows.

This is the workhorse of the platform simulator: a preemptive, event-driven
execution of a partition's task set on one logical processor that is only
available during the windows its mode's slots provide. The fail-silent fault
path is supported through *abort events* (kill whatever runs at time ``t``)
combined with pre-blacked-out windows.

Job releases follow the synchronous periodic pattern (``k T_i + offset``) —
the worst case the analysis assumes; per-task release offsets allow the
validation layer to align the critical instant with a slot blackout.

The loop runs on records, not objects. Each job is an id into
:class:`JobColumns` (task, activation, release, remaining work, state,
completion time, corruption), with ids in the order of
:attr:`UniprocResult.jobs`. The loop advances from event to event: a
window edge, a release, an abort or the running job's completion. One step
admits the releases due into a heap ordered by the policy's
:meth:`~repro.sim.scheduler.SchedulingPolicy.key`, logs the unfinished
jobs whose deadline has just passed (a second heap, by absolute deadline,
holds the admitted jobs until then) and runs the top of the ready heap to
the next event. A job leaves the ready heap when it completes or is
aborted, so the heap only ever holds active jobs.

Each execution slice is recorded as its job id, start and end in three
parallel lists, and as events only the rare deadline misses and aborts.
The RELEASE events are the releases the loop admitted and the COMPLETION
events the completed jobs' completion times, so the result's
:class:`~repro.sim.trace.SimTrace` is deferred and builds its slices and
events from these records when first read; the result's
:class:`~repro.model.Job` objects are likewise built from the columns on
first read.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Mapping, Sequence

from repro.model import Job, JobState, Task, TaskSet
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


class JobColumns:
    """Every job of one run as parallel lists, indexed by job id.

    Ids follow the order of :attr:`UniprocResult.jobs`: task by task in
    task-set order, then by activation. Each column holds one field of
    :class:`~repro.model.Job`: the generating ``task``, the activation
    ``index``, the ``release``, the ``remaining`` work, the ``state``, the
    ``completion`` time (None until the job completes) and the
    ``corrupted`` mark. The simulator updates them in place, and
    :meth:`jobs` builds the objects from them.
    """

    __slots__ = (
        "task", "index", "release", "remaining", "state", "completion",
        "corrupted",
    )

    def __init__(self, task, index, release, remaining, state, completion, corrupted):
        self.task: list[Task] = task
        self.index: list[int] = index
        self.release: list[float] = release
        self.remaining: list[float] = remaining
        self.state: list[JobState] = state
        self.completion: list[float | None] = completion
        self.corrupted: list[bool] = corrupted

    @classmethod
    def of(cls, jobs: Sequence[Job]) -> "JobColumns":
        """The columns of a list of jobs."""
        return cls(
            [j.task for j in jobs],
            [j.index for j in jobs],
            [j.release for j in jobs],
            [j.remaining for j in jobs],
            [j.state for j in jobs],
            [j.completion_time for j in jobs],
            [j.corrupted for j in jobs],
        )

    def __len__(self) -> int:
        return len(self.task)

    def name(self, i: int) -> str:
        """Job ``i``'s name, ``task#index`` as :attr:`Job.name` spells it."""
        return f"{self.task[i].name}#{self.index[i]}"

    def names_in(self, state: JobState) -> list[str]:
        """Names of the jobs in ``state``, in id order."""
        return [self.name(i) for i, s in enumerate(self.state) if s is state]

    def jobs(self) -> list[Job]:
        """One :class:`~repro.model.Job` per id, with the columns' values."""
        return [
            Job(task, release, k, remaining, state, completion, corrupted)
            for task, k, release, remaining, state, completion, corrupted in zip(
                self.task, self.index, self.release, self.remaining,
                self.state, self.completion, self.corrupted,
            )
        ]


class UniprocResult:
    """Outcome of a single-processor simulation.

    Attributes
    ----------
    processor:
        Logical processor label (e.g. ``"FS[1]"``).
    jobs:
        Every job instance released before the horizon. A simulated
        result builds the list from :attr:`job_columns` on its first read
        and keeps it.
    trace:
        Slices and events of this processor, built from the run's records
        when first read (see :meth:`~repro.sim.trace.SimTrace.deferred`).
    job_columns:
        The jobs as :class:`JobColumns`, the record the run keeps. Reads
        that need no :class:`~repro.model.Job` object use them.
    slice_columns:
        The run's execution slices as three parallel columns, in time
        order: the id of the job that ran, and the slice's start and end.
        ``trace.slices`` is built from them.

    Built from a list of jobs (``UniprocResult(processor, jobs, trace)``),
    the result keeps that list and derives the columns from it. Two
    results are ``==`` when their processor, jobs, trace and slice columns
    are.
    """

    def __init__(
        self,
        processor: str,
        jobs: list[Job] | JobColumns,
        trace: SimTrace,
        slice_columns: tuple[list[int], list[float], list[float]] | None = None,
    ):
        self.processor = processor
        self.trace = trace
        if isinstance(jobs, JobColumns):
            self.job_columns, self._jobs = jobs, None
        else:
            self.job_columns, self._jobs = JobColumns.of(jobs), jobs
        self.slice_columns = slice_columns or ([], [], [])

    def __repr__(self) -> str:
        return (
            f"UniprocResult({self.processor!r}, {len(self.job_columns)} jobs, "
            f"{len(self.slice_columns[0])} slices)"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.processor, self.jobs, self.trace, self.slice_columns) == (
            other.processor, other.jobs, other.trace, other.slice_columns
        )

    # Compared by value and mutable (``corrupt``), so not hashable.
    __hash__ = None

    @property
    def jobs(self) -> list[Job]:
        """Every job, built from the columns on first read."""
        if self._jobs is None:
            self._jobs = self.job_columns.jobs()
        return self._jobs

    def corrupt(self, job_id: int) -> None:
        """Mark job ``job_id``'s output corrupted (an NF fault hit it).

        The mark goes into the columns, and onto the job object too when
        :attr:`jobs` was already built.
        """
        self.job_columns.corrupted[job_id] = True
        if self._jobs is not None:
            self._jobs[job_id].corrupted = True

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

    def job_id_at(self, t: float) -> int | None:
        """Id of the job executing at instant ``t`` (None when idle).

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

    def running_job(self, t: float) -> Job | None:
        """The job executing at instant ``t`` (None when idle)."""
        i = self.job_id_at(t)
        return self.jobs[i] if i is not None else None

    def job_running_at(self, t: float) -> str | None:
        """Name of the job executing at instant ``t`` (None when idle)."""
        i = self.job_id_at(t)
        return self.job_columns.name(i) if i is not None else None


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
    :class:`UniprocResult` with the run's job and slice columns. Its jobs
    and its trace are built from them on first read.
    """
    check_positive("horizon", horizon)
    offsets = release_offsets or {}
    windows = merge_windows(windows, horizon)
    aborts = sorted(t for t in abort_events if 0.0 <= t < horizon)

    # The job columns: every release before the horizon, task by task.
    cut = horizon - EPS
    task_of: list[Task] = []
    index: list[int] = []
    release: list[float] = []
    deadline: list[float] = []
    remaining: list[float] = []
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
        period, rel_deadline = task.period, task.deadline
        k = 0
        while True:
            r = off + k * period
            if r >= cut:
                break
            release.append(r)
            deadline.append(r + rel_deadline)
            k += 1
        task_of += [task] * k
        index += range(k)
        remaining += [task.wcet] * k
    n = len(release)
    READY, COMPLETED, ABORTED = JobState.READY, JobState.COMPLETED, JobState.ABORTED
    state = [READY] * n
    completion: list[float | None] = [None] * n
    jobs = JobColumns(
        task_of, index, release, remaining, state, completion, [False] * n
    )
    name = jobs.name
    # Release order: by time, then task name. No two jobs share both, so
    # this is the stable (time, name) order.
    release_ids = sorted(range(n), key=lambda i: (release[i], task_of[i].name))
    release_times = [release[i] for i in release_ids]
    n_aborts = len(aborts)

    MISS, ABORT = SimEventKind.DEADLINE_MISS, SimEventKind.ABORT
    key = policy.key
    push, pop = heapq.heappush, heapq.heappop
    # The slice columns, and the only events logged as they happen.
    ran: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    logged: list[SimEvent] = []
    last = -1  # the job of the last slice
    # The active jobs by priority key: the top runs. A job leaves when it
    # completes or is aborted; one with no work left never enters.
    ready: list[tuple[tuple, int]] = []
    # The admitted jobs by absolute deadline, until their deadline passes.
    due: list[tuple[float, int]] = []
    missed: set[int] = set()
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
            while rel_idx < n and release_times[rel_idx] <= soon:
                i = release_ids[rel_idx]
                rel_idx += 1
                if remaining[i] > EPS:
                    push(ready, (key(task_of[i], release[i], deadline[i]), i))
                    push(due, (deadline[i], i))
            # Log every active job whose deadline has passed. A deadline
            # stays passed, so each job is looked at once, at the first step
            # past its deadline.
            late = now - EPS
            while due and due[0][0] < late:
                d, i = pop(due)
                if state[i] is READY:
                    missed.add(i)
                    logged.append(
                        SimEvent(d, MISS, name(i), f"remaining={remaining[i]:g}")
                    )
            boundary = win_b
            if rel_idx < n and release_times[rel_idx] < boundary:
                boundary = release_times[rel_idx]
            if abort_idx < n_aborts and aborts[abort_idx] < boundary:
                boundary = aborts[abort_idx]
            if not ready:
                if boundary >= close:
                    break  # idle until the window closes
                now = boundary
                continue
            i = ready[0][1]
            # min() spelled out: ties return the same value either way.
            rem = remaining[i]
            run_until = now + rem
            if boundary <= run_until:
                run_until = boundary
            if run_until > soon:
                # Job.execute, inlined.
                used = run_until - now
                rem -= rem if rem < used else used
                remaining[i] = rem = 0.0 if rem <= EPS else rem
                # SimTrace.add_slice on the columns: the job that ran last
                # continuing after a gap of at most EPS extends its slice.
                if i == last and abs(ends[-1] - now) <= EPS:
                    ends[-1] = run_until
                else:
                    ran.append(i)
                    starts.append(now)
                    ends.append(run_until)
                    last = i
            if rem <= EPS:
                pop(ready)
                state[i] = COMPLETED
                completion[i] = run_until
                d = deadline[i]
                if run_until > d + EPS and i not in missed:
                    missed.add(i)
                    logged.append(
                        SimEvent(d, MISS, name(i), f"completed late at {run_until:g}")
                    )
            now = run_until
            # The abort at `run_until` (if that is why we stopped) kills the
            # job that was just executing, provided it is still active: it
            # is still the top of the ready heap.
            soon = now + EPS
            if abort_idx < n_aborts and aborts[abort_idx] <= soon:
                victim = state[i] is READY
                while abort_idx < n_aborts and aborts[abort_idx] <= soon:
                    if victim:
                        state[i] = ABORTED
                        logged.append(
                            SimEvent(aborts[abort_idx], ABORT, name(i), "channel silenced")
                        )
                        pop(ready)
                        victim = False
                    abort_idx += 1
    # Horizon post-pass: unfinished jobs whose deadline lies inside the
    # horizon. Those still ready and those never admitted are all the jobs
    # left unfinished, less the ones with no work.
    for i in [i for _, i in ready] + release_ids[rel_idx:]:
        if (
            remaining[i] > EPS
            and deadline[i] <= horizon + EPS
            and i not in missed
        ):
            missed.add(i)
            logged.append(
                SimEvent(
                    deadline[i], MISS, name(i),
                    f"unfinished at horizon (remaining={remaining[i]:g})",
                )
            )
    admitted = release_ids[:rel_idx]

    def build() -> tuple[list[ExecutionSlice], list[SimEvent]]:
        # Each job has at most one release, completion, miss and abort, and
        # job names are unique here, so no two events share a sort key: the
        # trace's one sort gives the order whatever order they come in.
        names = [name(i) for i in range(n)]
        slices = [
            ExecutionSlice(processor, names[i], task_of[i].name, start, end)
            for i, start, end in zip(ran, starts, ends)
        ]
        RELEASE, COMPLETION = SimEventKind.RELEASE, SimEventKind.COMPLETION
        events = [SimEvent(release[i], RELEASE, names[i]) for i in admitted]
        events += [
            SimEvent(completion[i], COMPLETION, names[i])
            for i in admitted
            if state[i] is COMPLETED
        ]
        events += logged
        return slices, events

    return UniprocResult(
        processor, jobs, SimTrace.deferred(horizon, build, logged),
        (ran, starts, ends),
    )
