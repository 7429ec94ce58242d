"""The simulator's hot path equals the implementation it replaced.

:func:`reference_simulate_uniproc`, :func:`reference_subtract_blackouts`
and :func:`reference_merge_windows` below are the uniprocessor loop, the
blackout subtraction and the window merge as they were before the
rewrite: four closures per step, a policy that builds the list of active
jobs on every call, a ready-set filter after every step, and every
blackout tested against every window. The usable windows were the
``(start, end)`` of the mode's usable :meth:`ModeSwitchController.segments`
and every processor's trace was merged into a growing trace that was
re-sorted each time. Everything here is compared with ``==``, with no
tolerance: job state, remaining work and completion time, slices, events.
"""

import numpy as np
import pytest

from repro.core import Overheads, SlotSchedule, SplitSchedule, design_platform
from repro.dependability import scenario_from_params
from repro.faults import FaultOutcome
from repro.generators import generate_mixed_taskset
from repro.model import Job, JobState, Mode, Task, TaskSet
from repro.partition import partition_by_modes
from repro.platform import ModeSwitchController, SegmentKind
from repro.sim import EDFPolicy, MulticoreSim, make_policy, simulate_uniproc
from repro.sim import multicore as multicore_module
from repro.sim.trace import ExecutionSlice, SimEvent, SimEventKind, SimTrace
from repro.sim.uniproc import (
    UniprocResult,
    merge_windows,
    subtract_blackouts,
)
from repro.util import EPS

# -- the replaced implementations --------------------------------------------


def reference_subtract_blackouts(windows, blackouts):
    """Every blackout tested against every piece of every window."""
    out = []
    for a, b in windows:
        pieces = [(a, b)]
        for ba, bb in blackouts:
            next_pieces = []
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


def reference_merge_windows(windows, horizon):
    """Sort, clip and merge through ``max``/``min`` and mutable pairs."""
    ws = sorted(
        (max(float(a), 0.0), min(float(b), horizon))
        for a, b in windows
        if min(b, horizon) - max(a, 0.0) > EPS
    )
    merged = []
    for a, b in ws:
        if merged and a <= merged[-1][1] + EPS:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def reference_select(policy, jobs):
    """The policies' selection: a list of active jobs, then ``min``."""
    active = [j for j in jobs if j.is_active]
    if not active:
        return None
    if isinstance(policy, EDFPolicy):
        return min(active, key=lambda j: (j.absolute_deadline, j.release, j.task.name))
    return min(
        active, key=lambda j: (policy.rank_of(j.task.name), j.release, j.task.name)
    )


def reference_simulate_uniproc(
    taskset, policy, windows, horizon, *, processor="P[0]",
    release_offsets=None, abort_events=(),
):
    """The uniprocessor loop with its per-step closures and ready filter."""
    offsets = release_offsets or {}
    trace = SimTrace(horizon)
    windows = reference_merge_windows(windows, horizon)
    aborts = sorted(t for t in abort_events if 0.0 <= t < horizon)
    jobs, releases = [], []
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
    ready, missed = [], set()
    rel_idx = 0
    abort_idx = 0

    def admit_releases(now):
        nonlocal rel_idx
        while rel_idx < len(releases) and release_times[rel_idx] <= now + EPS:
            r, job = releases[rel_idx]
            ready.append(job)
            trace.log(r, SimEventKind.RELEASE, job.name)
            rel_idx += 1

    def check_misses(now):
        for job in ready:
            if (
                job.is_active
                and job.absolute_deadline < now - EPS
                and job.name not in missed
            ):
                missed.add(job.name)
                trace.log(
                    job.absolute_deadline, SimEventKind.DEADLINE_MISS, job.name,
                    detail=f"remaining={job.remaining:g}",
                )

    def next_release_after(now):
        return release_times[rel_idx] if rel_idx < len(releases) else float("inf")

    def consume_aborts(now, running):
        nonlocal abort_idx
        while abort_idx < len(aborts) and aborts[abort_idx] <= now + EPS:
            t = aborts[abort_idx]
            abort_idx += 1
            if running is not None and running.is_active:
                running.abort()
                trace.log(t, SimEventKind.ABORT, running.name, detail="channel silenced")
                running = None

    for win_a, win_b in windows:
        now = win_a
        while now < win_b - EPS:
            consume_aborts(now, None)
            admit_releases(now)
            check_misses(now)
            job = reference_select(policy, ready)
            nr = next_release_after(now)
            na = aborts[abort_idx] if abort_idx < len(aborts) else float("inf")
            boundary = min(win_b, nr, na)
            if job is None:
                if boundary >= win_b - EPS:
                    break
                now = boundary
                continue
            run_until = min(boundary, now + job.remaining)
            if run_until > now + EPS:
                job.execute(run_until - now)
                trace.add_slice(
                    ExecutionSlice(processor, job.name, job.task.name, now, run_until)
                )
            if not job.is_active and job.state is JobState.READY:
                job.complete(run_until)
                trace.log(run_until, SimEventKind.COMPLETION, job.name)
                if run_until > job.absolute_deadline + EPS and job.name not in missed:
                    missed.add(job.name)
                    trace.log(
                        job.absolute_deadline, SimEventKind.DEADLINE_MISS, job.name,
                        detail=f"completed late at {run_until:g}",
                    )
                ready.remove(job)
            now = run_until
            consume_aborts(now, job if job.state is JobState.READY else None)
            ready[:] = [j for j in ready if j.state is JobState.READY]
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
    trace.events.sort(key=lambda e: (e.time, e.kind.value, e.who))
    return UniprocResult(processor, jobs, trace)


def reference_usable_windows(controller, mode, horizon):
    """The mode's usable windows, filtered out of every timeline segment."""
    return [
        (s.start, s.end)
        for s in controller.segments(horizon)
        if s.kind is SegmentKind.USABLE and s.mode is mode
    ]


def reference_job_running_at(result, t):
    """The first slice covering ``t``, by a scan over all slices."""
    for s in result.trace.slices:
        if s.start - EPS <= t < s.end - EPS:
            return s.job
    return None


# -- comparison helpers --------------------------------------------------------


def uniproc_state(result):
    """Everything a uniprocessor run produces, as comparable values."""
    return (
        [
            (j.name, j.state, j.release, j.remaining, j.completion_time, j.corrupted)
            for j in result.jobs
        ],
        list(result.trace.slices),
        list(result.trace.events),
    )


def run_both(ts, alg, windows, horizon, *, blackouts=(), **kw):
    """The case through the rewrite and through the references."""
    new = simulate_uniproc(
        ts, make_policy(ts, alg), subtract_blackouts(windows, blackouts),
        horizon, **kw,
    )
    old = reference_simulate_uniproc(
        ts, make_policy(ts, alg), reference_subtract_blackouts(windows, blackouts),
        horizon, **kw,
    )
    return new, old


def assert_same_run(ts, alg, windows, horizon, **kw):
    new, old = run_both(ts, alg, windows, horizon, **kw)
    assert uniproc_state(new) == uniproc_state(old)
    return new


def random_case(rng):
    """A task set, windows, blackouts, aborts and offsets on a coarse grid.

    The grid makes window edges touch and coincide with releases, aborts
    and blackout ends exactly; windows are shuffled and may overlap.
    """
    alg = ["EDF", "RM", "DM"][rng.integers(3)]
    tasks = []
    for i in range(int(rng.integers(1, 5))):
        period = float(rng.integers(2, 13))
        wcet = float(rng.integers(1, 7)) / 4.0
        deadline = period if alg != "DM" else float(rng.integers(1, int(period) + 1))
        tasks.append(Task(f"t{i}", min(wcet, deadline), period, deadline=deadline))
    ts = TaskSet(tasks)
    horizon = float(rng.integers(10, 40))
    windows = []
    for _ in range(int(rng.integers(1, 12))):
        a = float(rng.integers(-2, 2 * int(horizon) + 4)) / 2.0
        windows.append((a, a + float(rng.integers(0, 9)) / 2.0))
    rng.shuffle(windows)
    blackouts = []
    for _ in range(int(rng.integers(0, 5))):
        a = float(rng.integers(0, int(horizon) * 2)) / 2.0
        blackouts.append((a, a + float(rng.integers(0, 6)) / 2.0))
    edges = [t for w in windows for t in w] + [b[0] for b in blackouts]
    aborts = [float(rng.integers(0, int(horizon) * 2)) / 2.0 for _ in range(int(rng.integers(0, 6)))]
    aborts += list(rng.choice(edges, size=int(rng.integers(0, 4))))
    if aborts:
        aborts.append(aborts[0])  # a duplicate abort time
    offsets = {
        t.name: float(rng.integers(0, 8)) / 2.0 for t in tasks if rng.random() < 0.5
    }
    return ts, alg, windows, horizon, blackouts, aborts, offsets


# -- the uniprocessor loop ---------------------------------------------------------


class TestUniprocMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            ts, alg, windows, horizon, blackouts, aborts, offsets = random_case(rng)
            assert_same_run(
                ts, alg, windows, horizon, blackouts=blackouts,
                abort_events=aborts, release_offsets=offsets,
            )

    @pytest.mark.parametrize("alg", ["EDF", "RM", "DM"])
    def test_touching_overlapping_unsorted_windows(self, alg):
        ts = TaskSet([
            Task("a", 1.0, 4.0, deadline=3.0),
            Task("b", 2.0, 6.0),
            Task("c", 1.5, 12.0, deadline=10.0),
        ])
        windows = [(8.0, 11.0), (0.0, 2.0), (2.0, 3.5), (3.0, 6.0), (14.0, 14.0), (13.0, 30.0)]
        assert_same_run(ts, alg, windows, 24.0)

    @pytest.mark.parametrize("alg", ["EDF", "RM", "DM"])
    def test_release_offsets(self, alg):
        ts = TaskSet([Task("a", 1.0, 4.0, deadline=3.0), Task("b", 2.5, 5.0)])
        assert_same_run(
            ts, alg, [(0.0, 3.0), (4.0, 9.0), (10.0, 20.0)], 20.0,
            release_offsets={"a": 1.5, "b": 3.0},
        )

    @pytest.mark.parametrize("alg", ["EDF", "RM", "DM"])
    def test_duplicate_and_edge_aborts(self, alg):
        ts = TaskSet([Task("a", 2.0, 5.0), Task("b", 3.0, 10.0, deadline=8.0)])
        windows = [(0.0, 4.0), (5.0, 9.0), (10.0, 20.0)]
        aborts = [1.0, 1.0, 4.0, 5.0, 5.0, 9.0, 12.5, 12.5, 20.0]
        result = assert_same_run(ts, alg, windows, 20.0, abort_events=aborts)
        assert any(j.state is JobState.ABORTED for j in result.jobs)

    def test_aborts_inside_blackouts(self):
        # A second hit on a silenced channel lands inside the blackout the
        # first one opened; it must fall on the next window start harmlessly.
        ts = TaskSet([Task("a", 3.0, 10.0), Task("b", 0.5, 5.0)])
        windows = [(0.0, 4.0), (5.0, 9.0), (10.0, 14.0), (15.0, 19.0)]
        blackouts = [(1.0, 4.0), (2.0, 4.0), (11.0, 14.0), (12.5, 14.0)]
        aborts = [1.0, 2.0, 11.0, 12.5]
        result = assert_same_run(
            ts, "EDF", windows, 20.0, blackouts=blackouts, abort_events=aborts
        )
        assert sum(e.kind is SimEventKind.ABORT for e in result.trace.events) == 2

    def test_abort_then_deadline_passes(self):
        # The aborted job must leave the ready set: a job still there after
        # its deadline would be logged as a miss.
        ts = TaskSet([Task("a", 3.0, 6.0), Task("b", 1.0, 3.0)])
        result = assert_same_run(
            ts, "EDF", [(0.0, 12.0)], 12.0, abort_events=[1.5]
        )
        assert any(e.kind is SimEventKind.ABORT for e in result.trace.events)

    def test_jobs_derive_name_and_deadline_once(self):
        ts = TaskSet([Task("a", 1.0, 4.0, deadline=3.0)])
        result = simulate_uniproc(ts, make_policy(ts, "EDF"), [(0.0, 12.0)], 12.0)
        for j in result.jobs:
            assert j.name == f"a#{j.index}"
            assert j.absolute_deadline == j.release + 3.0

    def test_select_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tasks = [
                Task(f"t{i}", 1.0, float(rng.integers(2, 6)), deadline=float(rng.integers(1, 3)))
                for i in range(4)
            ]
            ts = TaskSet(tasks)
            jobs = []
            for _ in range(int(rng.integers(0, 7))):
                task = tasks[rng.integers(4)]
                job = Job(task, float(rng.integers(0, 4)), int(rng.integers(0, 9)))
                if rng.random() < 0.3:
                    job.execute(1.0)  # exhausted: not active
                if rng.random() < 0.2:
                    job.abort()
                jobs.append(job)
            for alg in ("EDF", "RM", "DM"):
                policy = make_policy(ts, alg)
                assert policy.select(jobs) is reference_select(policy, jobs)


# -- blackouts, windows and victims ---------------------------------------------


class TestSubtractBlackoutsMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(200):
            windows = []
            for _ in range(int(rng.integers(0, 8))):
                a = float(rng.integers(-2, 20)) / 2.0
                windows.append((a, a + float(rng.integers(-1, 8)) / 2.0))
            blackouts = []
            for _ in range(int(rng.integers(0, 8))):
                a = float(rng.integers(-2, 20)) / 2.0
                blackouts.append((a, a + float(rng.integers(-1, 8)) / 2.0))
            assert subtract_blackouts(windows, blackouts) == (
                reference_subtract_blackouts(windows, blackouts)
            )

    @pytest.mark.parametrize(
        "windows, blackouts",
        [
            ([(0.0, 10.0)], [(4.0, 4.0)]),                      # empty blackout
            ([(0.0, 10.0), (12.0, 14.0)], [(2.0, 13.0)]),       # spans windows
            ([(12.0, 14.0), (0.0, 10.0)], [(8.0, 9.0), (1.0, 2.0)]),  # unsorted
            ([(0.0, 10.0), (5.0, 12.0)], [(6.0, 7.0)]),         # overlapping
            ([(0.0, 4.0), (4.0, 8.0)], [(4.0, 8.0)]),           # touching
            ([(0.0, 10.0)], [(3.0, 6.0), (2.0, 4.0), (5.0, 1.0)]),  # inverted
            ([(0, 10)], [(EPS / 2, 10 - EPS / 2)]),
            ([[0.0, 5.0]], []),                                 # lists in
        ],
    )
    def test_edge_cases(self, windows, blackouts):
        assert subtract_blackouts(windows, blackouts) == (
            reference_subtract_blackouts(windows, blackouts)
        )


class TestMergeWindowsMatchesReference:
    def test_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            horizon = float(rng.integers(1, 20)) / 2.0
            windows = []
            for _ in range(int(rng.integers(0, 8))):
                a = int(rng.integers(-4, 24)) / 2.0
                w = (a, a + int(rng.integers(-1, 8)) / 2.0)
                windows.append(tuple(int(x) if x == int(x) else x for x in w))
            assert merge_windows(windows, horizon) == (
                reference_merge_windows(windows, horizon)
            )

    def test_edge_cases(self):
        for windows in (
            [(-0.0, 1.0), (1.0 + EPS / 2, 2.0)],
            [(0.0, 2.0), (2.0 + 10 * EPS, 4.0)],
            [[5, 8], [0, 2], [2, 4]],
            [(3.0, 3.0), (0.0, EPS), (-5.0, -1.0)],
        ):
            assert merge_windows(windows, 10.0) == reference_merge_windows(windows, 10.0)


def _split_schedule():
    return SplitSchedule(
        6.0,
        {Mode.FT: 0.9, Mode.FS: 1.5, Mode.NF: 1.2},
        {Mode.FT: 1, Mode.FS: 3, Mode.NF: 2},
        Overheads(0.1, 0.05, 0.1),
    )


class _UnsortedTemplate:
    """A schedule whose cycle template is not in time order."""

    period = 4.0

    def cycle_template(self):
        return [
            (2.0, 3.0, "usable", Mode.NF),
            (0.0, 1.0, "usable", Mode.FT),
            (1.0, 2.0, "usable", Mode.FS),
            (3.5, 3.9, "usable", Mode.NF),
            (3.0, 3.5, "idle", None),
        ]


class TestUsableWindowsMatchSegments:
    @pytest.mark.parametrize(
        "schedule",
        [
            SlotSchedule(3.0, {Mode.FT: 0.9, Mode.FS: 1.2, Mode.NF: 0.6}, Overheads(0.1, 0.1, 0.1)),
            SlotSchedule(1 / 3, {Mode.FT: 0.1, Mode.NF: 0.2}, Overheads(0.01, 0.0, 0.02)),
            SlotSchedule(0.7, {Mode.FS: 0.7}),
            _split_schedule(),
            _UnsortedTemplate(),
        ],
        ids=["slot", "slot-third", "slot-fs-only", "split", "unsorted"],
    )
    def test_cut_mid_cycle_and_at_cycle_multiples(self, schedule):
        ctrl = ModeSwitchController(schedule)
        period = schedule.period
        horizons = []
        for cycles in (1, 2, 7, 30):
            exact = cycles * period
            horizons += [exact, exact + EPS / 2, exact - EPS / 2, exact + period / 3]
        horizons += [period / 5, period * 0.95, 0.15, 0.9]
        for horizon in horizons:
            for mode in Mode:
                assert ctrl.usable_windows(mode, horizon) == (
                    reference_usable_windows(ctrl, mode, horizon)
                ), (horizon, mode)

    def test_rejects_nonpositive_horizon(self):
        ctrl = ModeSwitchController(_split_schedule())
        with pytest.raises(ValueError):
            ctrl.usable_windows(Mode.FT, 0.0)


class TestJobRunningAtMatchesScan:
    def test_every_edge_and_midpoint(self):
        ts = TaskSet([Task("a", 1.0, 4.0), Task("b", 2.0, 6.0), Task("c", 0.5, 3.0)])
        windows = [(0.0, 2.0), (2.0 + EPS / 2, 5.0), (6.0, 9.0), (10.0, 24.0)]
        result = simulate_uniproc(ts, make_policy(ts, "EDF"), windows, 24.0)
        probes = {-1.0, 25.0}
        for s in result.trace.slices:
            for t in (s.start, s.end, (s.start + s.end) / 2):
                probes.update({t, t - EPS, t + EPS, t - EPS / 2, t + EPS / 2})
        for t in sorted(probes):
            assert result.job_running_at(t) == reference_job_running_at(result, t), t

    def test_no_slices(self):
        result = simulate_uniproc(TaskSet([Task("a", 1.0, 4.0)]), EDFPolicy(), [], 8.0)
        assert result.job_running_at(1.0) is None


# -- the merged multicore trace ------------------------------------------------------


def _faulted_runs():
    """Generated designs simulated under a burst of faults."""
    for seed, scenario, alg in [
        (3, "correlated", "EDF"),
        (5, "intermittent", "RM"),
        (8, "bursty", "DM"),
    ]:
        gen_seed, fault_seed = np.random.SeedSequence(seed).spawn(2)
        ts = generate_mixed_taskset(
            6, 0.8, np.random.default_rng(gen_seed),
            period_method="hyperperiod-limited", period_hyperperiod=360.0,
        )
        part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
        config = design_platform(part, alg, Overheads.uniform(0.05), "min-overhead-bandwidth")
        horizon = config.period * 15
        faults = scenario_from_params({"scenario": scenario, "rate": 0.1}).generate(
            horizon, np.random.default_rng(fault_seed), core_count=config.core_count
        )
        yield MulticoreSim(part, config).run(horizon, faults=faults)


class TestMergedTrace:
    def test_one_sort_equals_merging_one_by_one(self):
        for result in _faulted_runs():
            ref = SimTrace(result.horizon)
            for res in result.processors.values():
                ref.slices.extend(res.trace.slices)
                ref.events.extend(res.trace.events)
                ref.events.sort(key=lambda e: (e.time, e.kind.value, e.who))
            for rec in result.fault_records:
                ref.log(
                    rec.fault.time, SimEventKind.FAULT, f"core{rec.fault.core}",
                    detail=f"{rec.outcome}"
                    + (f" victim={rec.victim}" if rec.victim else ""),
                )
            ref.events.sort(key=lambda e: (e.time, e.kind.value, e.who))
            assert result.trace.slices == ref.slices
            assert result.trace.events == ref.events
            for key, res in result.processors.items():
                events = res.trace.events
                assert events == sorted(
                    events, key=lambda e: (e.time, e.kind.value, e.who)
                ), key

    def test_victims_match_a_full_scan(self):
        for result in _faulted_runs():
            for rec in result.fault_records:
                res = result.processors.get(rec.processor)
                if res is None or rec.victim is None:
                    continue
                if rec.outcome is FaultOutcome.CORRUPTED:
                    assert rec.victim == reference_job_running_at(res, rec.fault.time)
                else:
                    aborts = [
                        e.who for e in res.trace.events
                        if e.kind is SimEventKind.ABORT
                        and abs(e.time - rec.fault.time) <= EPS
                    ]
                    assert rec.victim == aborts[0]

    def test_equal_keys_keep_processor_order(self, monkeypatch):
        # Job names are unique across processors, so a real run never logs
        # two events with one key on two processors; a tagged event with the
        # same key on every processor shows the order the sort keeps.
        real = multicore_module.simulate_uniproc

        def tagged(taskset, policy, windows, horizon, *, processor, **kw):
            result = real(taskset, policy, windows, horizon, processor=processor, **kw)
            result.trace.log(horizon, SimEventKind.MODE_SWITCH, "tag", detail=processor)
            return result

        monkeypatch.setattr(multicore_module, "simulate_uniproc", tagged)
        result = next(_faulted_runs())
        tags = [e.detail for e in result.trace.events if e.who == "tag"]
        assert len(tags) == len(result.processors) > 1
        assert tags == list(result.processors)


class TestSimTraceMerge:
    def test_equal_keys_keep_insertion_order(self):
        first, second = SimTrace(5.0), SimTrace(5.0)
        first.log(1.0, SimEventKind.FAULT, "core0", "masked")
        first.log(2.0, SimEventKind.RELEASE, "a#0")
        second.log(1.0, SimEventKind.FAULT, "core0", "silenced")
        second.log(0.5, SimEventKind.RELEASE, "b#0")
        first.merge(second)
        assert first.events == [
            SimEvent(0.5, SimEventKind.RELEASE, "b#0"),
            SimEvent(1.0, SimEventKind.FAULT, "core0", "masked"),
            SimEvent(1.0, SimEventKind.FAULT, "core0", "silenced"),
            SimEvent(2.0, SimEventKind.RELEASE, "a#0"),
        ]
