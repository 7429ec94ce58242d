"""The lean simulation path: traces built only when read.

``simulate_uniproc`` records its slices as columns and logs only deadline
misses and aborts; ``MulticoreSim.run`` defers the merged trace. These
tests pin three promises: a fault campaign's verdict builds no trace
records, the lean reads (misses, victims, aborts) equal full scans of the
built lists, and a trace written to after the run behaves like one built
eagerly.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core import Overheads, design_platform
from repro.dependability import scenario_from_params
from repro.faults import FaultOutcome
from repro.generators import generate_mixed_taskset
from repro.model import Task, TaskSet
from repro.partition import partition_by_modes
from repro.runner.points import get_experiment
from repro.sim import EDFPolicy, MulticoreSim, simulate_uniproc
from repro.sim.trace import ExecutionSlice, SimEvent, SimEventKind, SimTrace
from repro.util import EPS

MISS = SimEventKind.DEADLINE_MISS
ABORT = SimEventKind.ABORT


def _count_constructions(monkeypatch, cls):
    """Every instance of ``cls`` built from now on, in construction order."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


# -- (a) the campaign path builds no trace records ---------------------------

#: A generated design under a dense fault stream: seed 0 gives deadline
#: misses, aborted jobs and corrupted jobs on both points.
CAMPAIGN_PARAMS = {
    "source": "generated", "n": 8, "u_total": 0.8, "rate": 0.2, "cycles": 30,
}


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("dependability", {**CAMPAIGN_PARAMS, "scenario": "bursty"}),
        ("fault-injection", CAMPAIGN_PARAMS),
    ],
)
def test_campaign_point_builds_no_trace_records(monkeypatch, experiment, params):
    events = _count_constructions(monkeypatch, SimEvent)
    slices = _count_constructions(monkeypatch, ExecutionSlice)
    record = get_experiment(experiment)(params, np.random.SeedSequence(0))
    # Not vacuous: the run missed deadlines, aborted jobs and corrupted jobs.
    assert record["total_misses"] > 0
    assert record["aborted_jobs"] > 0
    assert record["corrupted_jobs"] > 0
    kinds = Counter(e.kind for e in events)
    assert slices == []
    assert set(kinds) <= {MISS, ABORT}
    assert kinds[MISS] == record["total_misses"]
    assert kinds[ABORT] == record["aborted_jobs"]


# -- (b) lean reads equal full scans of the built lists --------------------------


@pytest.fixture
def faulted_run():
    """A generated design under bursty faults, its trace not yet read."""
    gen_seed, fault_seed = np.random.SeedSequence(0).spawn(2)
    ts = generate_mixed_taskset(
        8, 0.8, np.random.default_rng(gen_seed),
        period_method="hyperperiod-limited", period_hyperperiod=3600.0,
    )
    part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
    config = design_platform(
        part, "EDF", Overheads.uniform(0.05), "min-overhead-bandwidth"
    )
    horizon = config.period * 30
    faults = scenario_from_params({"scenario": "bursty", "rate": 0.2}).generate(
        horizon, np.random.default_rng(fault_seed), core_count=config.core_count
    )
    return MulticoreSim(part, config).run(horizon, faults=faults)


def test_lean_reads_leave_the_traces_unbuilt(faulted_run):
    result = faulted_run
    result.misses
    for res in result.processors.values():
        res.misses
        res.trace.events_of(ABORT)
    assert "events" not in vars(result.trace)
    assert all("events" not in vars(r.trace) for r in result.processors.values())


def test_misses_equal_the_built_lists(faulted_run):
    result = faulted_run
    lean_misses = result.misses
    lean_by_proc = {key: res.misses for key, res in result.processors.items()}
    assert lean_misses
    built = result.trace.events
    assert lean_misses == [e for e in built if e.kind is MISS]
    assert result.misses == lean_misses
    assert result.trace.misses() == lean_misses
    for key, res in result.processors.items():
        assert lean_by_proc[key] == [e for e in res.trace.events if e.kind is MISS]
        assert res.misses == lean_by_proc[key]


def test_victims_equal_full_scans(faulted_run):
    result = faulted_run
    outcomes = Counter(r.outcome for r in result.fault_records)
    assert outcomes[FaultOutcome.CORRUPTED] and outcomes[FaultOutcome.SILENCED]
    result.trace.events
    for rec in result.fault_records:
        res = result.processors.get(rec.processor)
        if res is None:
            continue
        t = rec.fault.time
        if rec.outcome is FaultOutcome.CORRUPTED:
            scan = [s.job for s in res.trace.slices if s.start - EPS <= t < s.end - EPS]
            assert rec.victim == scan[0]
            assert res.job_running_at(t) == rec.victim
            corrupted = [j for j in res.jobs if j.name == rec.victim]
            assert corrupted[0].corrupted
        elif rec.outcome is FaultOutcome.SILENCED:
            scan = [
                e.who for e in res.trace.events
                if e.kind is ABORT and abs(e.time - t) <= EPS
            ]
            assert rec.victim == (scan[0] if scan else None)
    aborted = sorted(
        e.who for res in result.processors.values()
        for e in res.trace.events if e.kind is ABORT
    )
    assert sorted(result.aborted_jobs()) == aborted


def test_merged_trace_is_built_once(faulted_run):
    result = faulted_run
    events, slices = result.trace.events, result.trace.slices
    assert result.trace.events is events and result.trace.slices is slices
    assert slices == [
        s for res in result.processors.values() for s in res.trace.slices
    ]
    faults = result.trace.events_of(SimEventKind.FAULT)
    assert len(faults) == len(result.fault_records)


# -- (c) writes after a run -----------------------------------------------------------


def _run():
    ts = TaskSet([Task("a", 1.0, 4.0), Task("b", 3.0, 6.0)])
    return simulate_uniproc(ts, EDFPolicy(), [(0.0, 3.0), (4.0, 11.0)], 12.0)


def test_log_and_add_slice_append_to_the_built_lists():
    res = _run()
    res.trace.log(12.0, SimEventKind.MODE_SWITCH, "late", "after the run")
    events = res.trace.events
    assert events[-1] == SimEvent(12.0, SimEventKind.MODE_SWITCH, "late", "after the run")
    assert events[:-1] == _run().trace.events
    extra = ExecutionSlice("P[0]", "z#0", "z", 11.0, 12.0)
    res.trace.add_slice(extra)
    assert res.trace.slices == _run().trace.slices + [extra]


def test_miss_logged_after_the_run_is_a_miss():
    res = _run()
    before = res.misses
    res.trace.log(11.5, MISS, "a#9", "logged after the run")
    assert res.misses == before + [SimEvent(11.5, MISS, "a#9", "logged after the run")]
    assert res.trace.misses() == res.misses


def test_gantt_matches_an_eager_trace():
    res = _run()
    eager = SimTrace(res.trace.horizon)
    for s in _run().trace.slices:
        eager.add_slice(s)
    assert res.trace.gantt(width=24) == eager.gantt(width=24)
    assert res.trace.slices == eager.slices


def test_deferred_trace_pickles_built():
    res = _run()
    copy = pickle.loads(pickle.dumps(res.trace))
    assert copy == res.trace
    assert vars(copy).keys() == {"horizon", "slices", "events"}
