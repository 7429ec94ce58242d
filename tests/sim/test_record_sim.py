"""The offline simulator on records equals the object path it replaced.

:func:`reference_run` is ``MulticoreSim.run`` as it was before the run
kept its jobs as columns: every task arrives through an
:class:`~repro.sim.events.EventQueue` as an ``ARRIVAL`` event, every fault
as a ``FAULT_STRIKE`` event, and :func:`reference_classify_fault` walks
the cycle template (:func:`reference_segment_at`, the lookup
``ModeSwitchController.segment_at`` had) and the mode's channel layout once
per strike. Its NF victims are marked on the :class:`~repro.model.Job` object
that ``running_job`` returns. Everything is compared with ``==``: fault
records, victims, aborted and corrupted jobs, misses, the merged trace and
every processor's jobs.
"""

import heapq

import numpy as np
import pytest

from repro.core import Overheads, SlotSchedule, design_platform
from repro.dependability import scenario_from_params
from repro.experiments.paper import paper_partition
from repro.faults import Fault, FaultOutcome, FaultRecord
from repro.generators import generate_mixed_taskset
from repro.model import Job, JobState, Mode, Task, TaskSet
from repro.partition import partition_by_modes
from repro.platform import SegmentKind
from repro.platform.modes import layout_for
from repro.platform.switcher import Segment
from repro.runner.points import get_experiment
from repro.sim import EventKind, EventQueue, MulticoreSim, make_policy, simulate_uniproc
from repro.sim import events as events_module
from repro.sim.multicore import _EFFECT_TO_OUTCOME, _proc_key
from repro.sim.trace import ExecutionSlice, SimEvent, SimEventKind, SimTrace
from repro.sim.uniproc import JobColumns, UniprocResult, subtract_blackouts
from repro.util import EPS

from .test_hot_path_equivalence import (
    _SplitTemplate,
    _UnsortedTemplate,
    reference_select,
    reference_simulate_uniproc,
    uniproc_state,
)
from .test_lean_trace import CAMPAIGN_PARAMS, _count_constructions

# -- the replaced implementation ----------------------------------------------


def reference_segment_at(schedule, t):
    """The segment holding ``t``: one walk of the cycle template."""
    template = [(a, b, SegmentKind(kind), mode) for a, b, kind, mode in schedule.cycle_template()]
    period = schedule.period
    cycle = int(t // period)
    rel = t - cycle * period
    if rel >= period - EPS and template:
        cycle += 1
        rel = 0.0
    for rel_a, rel_b, kind, mode in template:
        if rel_a - EPS <= rel < rel_b - EPS:
            base = cycle * period
            return Segment(base + rel_a, base + rel_b, kind, mode, cycle)
    rel_a, rel_b, kind, mode = template[-1]
    base = cycle * period
    return Segment(base + rel_a, base + rel_b, kind, mode, cycle)


def reference_classify_fault(sim, fault):
    """One :func:`reference_segment_at` and one walk of the mode's channel
    layout."""
    if not 0 <= fault.core < sim.core_count:
        raise ValueError(f"fault on core {fault.core} is outside the platform")
    seg = reference_segment_at(sim.schedule, fault.time)
    if seg.kind is not SegmentKind.USABLE or seg.mode is None:
        return FaultOutcome.HARMLESS, seg.mode, None, seg
    layout = layout_for(seg.mode, sim.core_count)
    for idx, channel in enumerate(layout.channels):
        if channel.contains(fault.core):
            return _EFFECT_TO_OUTCOME[channel.fault_effect()], seg.mode, idx, seg
    raise AssertionError("layouts are total")


def reference_run(sim, horizon, *, faults=(), release_offsets="zero"):
    """The offline queue drain, classification and victim resolution."""
    queue = EventQueue()
    bin_counts = {}
    for mode in Mode:
        bins = sim._partition.bins(mode)
        bin_counts[mode] = len(bins)
        for idx, taskset in enumerate(bins):
            for task in taskset:
                queue.push_at(0.0, EventKind.ARRIVAL, (mode, idx, task))
    for fault in faults:
        queue.push_at(fault.time, EventKind.FAULT_STRIKE, fault)

    arrivals, records, aborts, blackouts = {}, [], {}, {}
    for ev in queue.drain():
        if ev.kind is EventKind.ARRIVAL:
            mode, idx, task = ev.data
            arrivals.setdefault((mode, idx), []).append(task)
            continue
        fault = ev.data
        if fault.time >= horizon:
            raise ValueError(f"fault at {fault.time} is beyond the horizon {horizon}")
        outcome, mode, chan, seg = reference_classify_fault(sim, fault)
        if outcome is FaultOutcome.HARMLESS:
            records.append(
                FaultRecord(fault, outcome, mode, None, detail=f"hit {seg.kind} time")
            )
            continue
        if outcome is FaultOutcome.MASKED:
            detail = "majority vote over redundant lock-step"
        elif outcome is FaultOutcome.SILENCED:
            aborts.setdefault((mode, chan), []).append(fault.time)
            blackouts.setdefault((mode, chan), []).append((fault.time, seg.end))
            detail = f"channel blocked until {seg.end:g}"
        else:
            detail = "undetected soft error"
        records.append(FaultRecord(fault, outcome, mode, _proc_key(mode, chan), detail=detail))

    processors = {}
    for mode in Mode:
        windows = sim._controller.usable_windows(mode, horizon)
        for idx in range(bin_counts[mode]):
            taskset = TaskSet(arrivals.get((mode, idx), ()))
            if len(taskset) == 0:
                continue
            key = _proc_key(mode, idx)
            processors[key] = simulate_uniproc(
                taskset,
                make_policy(taskset, sim._alg),
                subtract_blackouts(windows, blackouts.get((mode, idx), [])),
                horizon,
                processor=key,
                release_offsets=sim._resolve_offsets(release_offsets, mode, taskset),
                abort_events=aborts.get((mode, idx), ()),
            )

    final = []
    for rec in records:
        victim = None
        if rec.outcome is FaultOutcome.CORRUPTED and rec.processor not in processors:
            rec = FaultRecord(
                rec.fault, FaultOutcome.HARMLESS, rec.mode, rec.processor,
                detail="core hosts no tasks",
            )
        if rec.processor in processors:
            res = processors[rec.processor]
            if rec.outcome is FaultOutcome.CORRUPTED:
                job = res.running_job(rec.fault.time)
                if job is None:
                    rec = FaultRecord(
                        rec.fault, FaultOutcome.HARMLESS, rec.mode, rec.processor,
                        detail="core was idle",
                    )
                else:
                    job.corrupted = True
                    victim = job.name
            elif rec.outcome is FaultOutcome.SILENCED:
                for e in res.trace.events_of(SimEventKind.ABORT):
                    if abs(e.time - rec.fault.time) <= EPS:
                        victim = e.who
                        break
        if victim is not None:
            rec = FaultRecord(
                rec.fault, rec.outcome, rec.mode, rec.processor,
                victim=victim, detail=rec.detail,
            )
        final.append(rec)

    trace = SimTrace(horizon)
    for res in processors.values():
        trace.merge(res.trace)
    for rec in final:
        trace.log(
            rec.fault.time, SimEventKind.FAULT, f"core{rec.fault.core}",
            f"{rec.outcome}" + (f" victim={rec.victim}" if rec.victim else ""),
        )
    trace.events.sort(key=lambda e: (e.time, e.kind.value, e.who))
    return processors, final, trace


# -- comparison ------------------------------------------------------------------


def assert_same_run(sim, horizon, faults, release_offsets="zero"):
    """``sim.run`` equals :func:`reference_run` on everything it returns."""
    new = sim.run(horizon, faults=faults, release_offsets=release_offsets)
    # The victims, misses and aborts are read before any list is built.
    records, misses = list(new.fault_records), new.misses
    aborted, corrupted = new.aborted_jobs(), new.corrupted_jobs()
    processors, ref_records, ref_trace = reference_run(
        sim, horizon, faults=faults, release_offsets=release_offsets
    )
    assert records == ref_records
    assert misses == [e for e in ref_trace.events if e.kind is SimEventKind.DEADLINE_MISS]
    assert aborted == [
        j.name for res in processors.values() for j in res.jobs
        if j.state is JobState.ABORTED
    ]
    assert corrupted == [
        r.victim for r in ref_records
        if r.outcome is FaultOutcome.CORRUPTED and r.victim
    ]
    assert list(new.processors) == list(processors)
    for key, res in new.processors.items():
        assert uniproc_state(res) == uniproc_state(processors[key]), key
    assert new.trace.slices == ref_trace.slices
    assert new.trace.events == ref_trace.events
    return new


def _edge_faults(schedule, core_count, cycles):
    """Strikes on every segment edge (and EPS either side) and on cycle
    multiples, unsorted, several at one instant."""
    period = schedule.period
    rels = {0.0}
    for rel_a, rel_b, _kind, _mode in schedule.cycle_template():
        rels.update({rel_a, rel_b, (rel_a + rel_b) / 2})
    times = set()
    for c in range(cycles):
        base = c * period
        for rel in rels:
            for t in (base + rel, base + rel - EPS, base + rel + EPS / 2):
                if t >= 0:
                    times.add(t)
    times = sorted(times)
    faults = [Fault(t, i % core_count, core_count) for i, t in enumerate(times)]
    faults += [Fault(t, (i + 1) % core_count, core_count) for i, t in enumerate(times[::3])]
    rng = np.random.default_rng(len(faults))
    rng.shuffle(faults)
    return faults


SCHEDULES = {
    "slot": SlotSchedule(3.0, {Mode.FT: 0.9, Mode.FS: 1.2, Mode.NF: 0.6}, Overheads(0.1, 0.1, 0.1)),
    "slot-third": SlotSchedule(1 / 3, {Mode.FT: 0.1, Mode.FS: 0.1, Mode.NF: 0.1}, Overheads(0.01, 0.0, 0.02)),
    "split": _SplitTemplate(),
    "unsorted": _UnsortedTemplate(),
}


# -- the strike table --------------------------------------------------------------


class TestClassifyFaultMatchesReference:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("core_count", [2, 4, 5, 8])
    def test_edges_and_cycle_multiples(self, name, core_count):
        schedule = SCHEDULES[name]
        sim = MulticoreSim(paper_partition(), schedule, "EDF", core_count=core_count)
        faults = _edge_faults(schedule, core_count, 5)
        faults += [Fault(t, c, core_count) for t in (1e6 * schedule.period, 0.0) for c in range(core_count)]
        for fault in faults:
            assert sim.classify_fault(fault) == reference_classify_fault(sim, fault), fault

    @pytest.mark.parametrize(
        "scenario", ["poisson", "bursty", "permanent", "correlated", "intermittent"]
    )
    def test_seeded_scenario_streams(self, scenario):
        for seed in range(4):
            gen_seed, fault_seed = np.random.SeedSequence([seed, 23]).spawn(2)
            ts = generate_mixed_taskset(
                8, 0.8, np.random.default_rng(gen_seed),
                period_method="hyperperiod-limited", period_hyperperiod=3600.0,
            )
            part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
            config = design_platform(part, "EDF", Overheads.uniform(0.05), "min-overhead-bandwidth")
            sim = MulticoreSim(part, config)
            faults = scenario_from_params({"scenario": scenario, "rate": 0.3}).generate(
                config.period * 60, np.random.default_rng(fault_seed),
                core_count=config.core_count,
            )
            assert faults
            for fault in faults:
                assert sim.classify_fault(fault) == reference_classify_fault(sim, fault)

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_controller_lookup_equals_the_template_walk(self, name):
        schedule = SCHEDULES[name]
        controller = MulticoreSim(paper_partition(), schedule, "EDF")._controller
        template = schedule.cycle_template()
        for fault in _edge_faults(schedule, 4, 5) + [Fault(1e6 * schedule.period, 0)]:
            t = fault.time
            entry, cycle = controller.entry_at(t)
            seg = reference_segment_at(schedule, t)
            assert controller.segment_at(t) == seg, t
            assert controller.segment(entry, cycle) == seg
            # The entry indexes the schedule's own template.
            _rel_a, _rel_b, kind, mode = template[entry]
            assert (SegmentKind(kind), mode, cycle) == (seg.kind, seg.mode, seg.cycle)

    def test_segment_is_built_for_the_caller(self):
        sim = MulticoreSim(paper_partition(), SCHEDULES["slot"], "EDF")
        _outcome, _mode, _chan, seg = sim.classify_fault(Fault(4.0, 1))
        assert isinstance(seg, Segment)
        assert seg == sim._controller.segment_at(4.0)

    def test_core_outside_the_platform(self):
        sim = MulticoreSim(paper_partition(), SCHEDULES["slot"], "EDF", core_count=2)
        with pytest.raises(ValueError, match="core_count=2"):
            sim.classify_fault(Fault(0.5, 3, 4))
        with pytest.raises(ValueError, match="core_count=2"):
            sim.run(30.0, faults=[Fault(0.5, 3, 4)])


# -- whole runs ----------------------------------------------------------------------


class TestRunMatchesReference:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("core_count", [2, 4, 5, 8])
    @pytest.mark.parametrize("alg", ["EDF", "RM", "DM"])
    def test_edge_strikes(self, name, core_count, alg):
        schedule = SCHEDULES[name]
        sim = MulticoreSim(paper_partition(), schedule, alg, core_count=core_count)
        horizon = schedule.period * 12
        faults = [f for f in _edge_faults(schedule, core_count, 12) if f.time < horizon]
        result = assert_same_run(sim, horizon, faults)
        outcomes = {r.outcome for r in result.fault_records}
        assert FaultOutcome.HARMLESS in outcomes and len(outcomes) > 1

    @pytest.mark.parametrize("alg", ["EDF", "RM", "DM"])
    @pytest.mark.parametrize("offsets", ["zero", "critical"])
    def test_generated_designs_under_every_scenario(self, alg, offsets):
        seen = set()
        for k, scenario in enumerate(
            ["poisson", "bursty", "permanent", "correlated", "intermittent"]
        ):
            gen_seed, fault_seed = np.random.SeedSequence([k, 5]).spawn(2)
            ts = generate_mixed_taskset(
                8, 0.8, np.random.default_rng(gen_seed),
                period_method="hyperperiod-limited", period_hyperperiod=360.0,
            )
            part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
            config = design_platform(part, alg, Overheads.uniform(0.05), "min-overhead-bandwidth")
            horizon = config.period * 20
            faults = scenario_from_params({"scenario": scenario, "rate": 0.3}).generate(
                horizon, np.random.default_rng(fault_seed), core_count=config.core_count
            )
            result = assert_same_run(MulticoreSim(part, config), horizon, faults, offsets)
            seen.update((r.outcome, r.victim is not None) for r in result.fault_records)
        # Not vacuous: every outcome, and victims of both kinds.
        assert {(FaultOutcome.CORRUPTED, True), (FaultOutcome.SILENCED, True)} <= seen
        assert {o for o, _ in seen} == set(FaultOutcome)

    def test_unsorted_faults_with_equal_times(self):
        schedule = SCHEDULES["slot"]
        sim = MulticoreSim(paper_partition(), schedule, "EDF")
        # Two strikes per instant on one FS couple, then on both, in an order
        # no sort gives: the records keep it for equal times.
        times = [7.9, 1.5, 4.6, 1.5, 7.9, 10.2, 4.6, 0.3, 13.0]
        faults = [Fault(t, i % 4) for i, t in enumerate(times)]
        faults += [Fault(t, 3 - i % 4) for i, t in enumerate(reversed(times))]
        result = assert_same_run(sim, 15.0, faults)
        stamped = [(r.fault.time, r.fault.core) for r in result.fault_records]
        expected = sorted(
            [(f.time, f.core) for f in faults], key=lambda tc: tc[0]
        )
        assert stamped == expected

    def test_fault_beyond_the_horizon(self):
        sim = MulticoreSim(paper_partition(), SCHEDULES["slot"], "EDF")
        with pytest.raises(ValueError, match="beyond the horizon"):
            sim.run(30.0, faults=[Fault(31.0, 0), Fault(1.0, 0)])

    def test_one_shot_fault_iterable(self):
        sim = MulticoreSim(paper_partition(), SCHEDULES["slot"], "EDF")
        faults = [Fault(1.5, 0), Fault(0.5, 2)]
        result = sim.run(30.0, faults=iter(faults))
        assert [r.fault for r in result.fault_records] == [faults[1], faults[0]]


# -- the job columns --------------------------------------------------------------------


def _ts():
    return TaskSet([
        Task("a", 1.0, 4.0, deadline=3.0),
        Task("b", 2.0, 6.0),
        Task("c", 1.5, 12.0, deadline=10.0),
    ])


class TestJobColumns:
    WINDOWS = [(0.0, 3.0), (4.0, 9.0), (10.0, 23.0)]

    def _both(self, alg, **kw):
        ts = _ts()
        new = simulate_uniproc(ts, make_policy(ts, alg), self.WINDOWS, 24.0, **kw)
        old = reference_simulate_uniproc(ts, make_policy(ts, alg), self.WINDOWS, 24.0, **kw)
        return new, old

    @pytest.mark.parametrize("alg", ["EDF", "RM", "DM"])
    def test_jobs_built_on_read_equal_the_reference(self, alg):
        new, old = self._both(alg, abort_events=[1.0, 12.5])
        assert new._jobs is None
        assert new.jobs == old.jobs
        assert new.jobs is new.jobs
        assert [j.name for j in new.jobs] == [new.job_columns.name(i) for i in range(len(new.jobs))]

    @pytest.mark.parametrize("read_first", [False, True])
    def test_corrupted_marks_reach_the_jobs(self, read_first):
        new, old = self._both("EDF")
        if read_first:
            new.jobs
        ran, starts, ends = new.slice_columns
        for k in (0, 4, 7):
            i = new.job_id_at((starts[k] + ends[k]) / 2)
            assert i == ran[k]
            new.corrupt(i)
            old.jobs[i].corrupted = True
            assert new.job_columns.corrupted[i]
        assert new.jobs == old.jobs
        assert sum(j.corrupted for j in new.jobs) == len({ran[k] for k in (0, 4, 7)}) > 1

    def test_running_job_reads_the_jobs(self):
        new, _old = self._both("EDF")
        for t in (0.5, 3.5, 5.5):
            i = new.job_id_at(t)
            job = new.running_job(t)
            assert (job is None) == (i is None)
            if job is not None:
                assert job is new.jobs[i]
                assert new.job_running_at(t) == job.name

    @pytest.mark.parametrize("alg", ["EDF", "RM"])
    def test_job_with_no_work(self, alg):
        # A WCET at or below EPS is never selected, never completes and is
        # never judged, as in the object loop.
        ts = TaskSet([Task("tiny", EPS / 2, 3.0), Task("a", 2.0, 4.0), Task("z", EPS, 5.0)])
        windows = [(0.0, 2.5), (3.0, 20.0)]
        new = simulate_uniproc(ts, make_policy(ts, alg), windows, 20.0)
        old = reference_simulate_uniproc(ts, make_policy(ts, alg), windows, 20.0)
        assert uniproc_state(new) == uniproc_state(old)
        for job in new.jobs:
            if job.task.name != "a":
                assert job.state is JobState.READY
                assert job.remaining == job.task.wcet
        assert {s.task for s in new.trace.slices} == {"a"}

    @pytest.mark.parametrize("alg", ["EDF", "RM"])
    def test_deadline_exactly_eps_before_a_step(self, alg):
        # A window opens at d + EPS, so the step there has now - EPS == d:
        # the deadline has not passed yet, and the late job is logged when
        # it completes, not at that step.
        ts = TaskSet([Task("a", 2.0, 8.0, deadline=3.0), Task("b", 1.0, 8.0, deadline=3.0 + EPS)])
        windows = [(0.0, 1.0), (3.0 + EPS, 10.0)]
        new = simulate_uniproc(ts, make_policy(ts, alg), windows, 16.0)
        old = reference_simulate_uniproc(ts, make_policy(ts, alg), windows, 16.0)
        assert (3.0 + EPS) - EPS == 3.0
        assert uniproc_state(new) == uniproc_state(old)
        assert [e.detail for e in new.misses][0].startswith("completed late")

    def test_result_from_a_job_list(self):
        ts = _ts()
        jobs = [Job(t, 0.0, 0) for t in ts]
        jobs[1].abort()
        result = UniprocResult("P[0]", jobs, SimTrace(10.0))
        assert result.jobs is jobs
        assert result.job_columns.names_in(JobState.ABORTED) == ["b#0"]
        assert result.job_columns.jobs() == jobs
        assert result.job_id_at(0.5) is None
        result.corrupt(2)
        assert jobs[2].corrupted and result.job_columns.corrupted == [False, False, True]
        assert isinstance(result.job_columns, JobColumns)


def test_results_compare_by_value():
    # Two runs of one simulator are equal, processor by processor and as a
    # whole, as when the result was a dataclass.
    sim = MulticoreSim(paper_partition(), SCHEDULES["slot"], "EDF")
    faults = [Fault(0.5, 0), Fault(1.5, 2), Fault(4.6, 3), Fault(7.9, 1)]
    first, second = sim.run(30.0, faults=faults), sim.run(30.0, faults=faults)
    assert first.processors == second.processors
    assert first == second
    assert sim.run(30.0) != first
    key = next(iter(first.processors))
    res = second.processors[key]
    assert res == first.processors[key] and res != first.processors[list(first.processors)[1]]
    res.corrupt(0)
    assert res != first.processors[key] and first != second
    assert res != "FT[0]"
    with pytest.raises(TypeError):
        hash(res)
    jobs = [Job(t, 0.0, 0) for t in _ts()]
    assert UniprocResult("P[0]", jobs, SimTrace(10.0)) == UniprocResult("P[0]", list(jobs), SimTrace(10.0))


# -- the policy key ---------------------------------------------------------------------


class TestPolicyKey:
    def test_key_orders_as_the_reference_selection(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tasks = [
                Task(f"t{i}", 1.0, float(rng.integers(2, 6)), deadline=float(rng.integers(1, 3)))
                for i in range(4)
            ]
            ts = TaskSet(tasks)
            jobs = []
            for _ in range(int(rng.integers(1, 8))):
                task = tasks[rng.integers(4)]
                jobs.append(Job(task, float(rng.integers(0, 4)), int(rng.integers(0, 9))))
            # Distinct (release, task) pairs, as in any one run.
            jobs = list({(j.release, j.task.name): j for j in jobs}.values())
            for alg in ("EDF", "RM", "DM"):
                policy = make_policy(ts, alg)
                heap = [
                    (policy.key(j.task, j.release, j.absolute_deadline), i)
                    for i, j in enumerate(jobs)
                ]
                heapq.heapify(heap)
                left = list(jobs)
                while left:
                    top = jobs[heapq.heappop(heap)[1]]
                    assert top is reference_select(policy, left)
                    left.remove(top)


# -- what a campaign point builds ----------------------------------------------------------


def test_dependability_point_builds_no_job_event_or_segment(monkeypatch):
    jobs = _count_constructions(monkeypatch, Job)
    events = _count_constructions(monkeypatch, events_module.Event)
    segments = _count_constructions(monkeypatch, Segment)
    records = _count_constructions(monkeypatch, FaultRecord)
    params = {**CAMPAIGN_PARAMS, "scenario": "bursty"}
    record = get_experiment("dependability")(params, np.random.SeedSequence(0))
    # Not vacuous: the run missed deadlines, aborted jobs and corrupted jobs.
    assert record["total_misses"] and record["aborted_jobs"] and record["corrupted_jobs"]
    assert (len(jobs), len(events), len(segments)) == (0, 0, 0)
    # One record per strike, built once its victim is known.
    assert len(records) == record["injected"] > 0


def test_trace_built_from_the_columns():
    # Slices name their job and task; a fault-free run logs only releases
    # and completions.
    ts = _ts()
    res = simulate_uniproc(ts, make_policy(ts, "EDF"), [(0.0, 24.0)], 24.0, processor="X[0]")
    for s in res.trace.slices:
        assert isinstance(s, ExecutionSlice) and s.processor == "X[0]"
        assert s.job.rsplit("#", 1)[0] == s.task
    kinds = {e.kind for e in res.trace.events}
    assert kinds == {SimEventKind.RELEASE, SimEventKind.COMPLETION}
    assert all(isinstance(e, SimEvent) for e in res.trace.events)
