"""Property-based tests for the uniprocessor simulator.

The simulator is cross-validated against the analysis: whenever the exact
dedicated-processor tests accept a set, its synchronous simulation must meet
every deadline; and conservation laws (executed time == completed work) must
hold for arbitrary windows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import edf_schedulable_dedicated, fp_schedulable_dedicated
from repro.model import JobState, Task, TaskSet
from repro.sim import make_policy, simulate_uniproc


@st.composite
def integer_tasksets(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    tasks = []
    for i in range(n):
        period = draw(st.integers(min_value=3, max_value=16))
        wcet = draw(st.integers(min_value=1, max_value=max(period // 2, 1)))
        tasks.append(Task(f"t{i}", float(wcet), float(period)))
    return TaskSet(tasks)


def _horizon(ts):
    return min(ts.hyperperiod() * 2, 400.0)


@given(integer_tasksets())
@settings(max_examples=50, deadline=None)
def test_edf_accepted_sets_simulate_cleanly(ts):
    if not edf_schedulable_dedicated(ts).schedulable:
        return
    h = _horizon(ts)
    res = simulate_uniproc(ts, make_policy(ts, "EDF"), [(0.0, h)], h)
    assert not res.misses


@given(integer_tasksets())
@settings(max_examples=50, deadline=None)
def test_rm_accepted_sets_simulate_cleanly(ts):
    if not fp_schedulable_dedicated(ts, "RM").schedulable:
        return
    h = _horizon(ts)
    res = simulate_uniproc(ts, make_policy(ts, "RM"), [(0.0, h)], h)
    assert not res.misses


@given(integer_tasksets())
@settings(max_examples=50, deadline=None)
def test_executed_time_equals_completed_work(ts):
    h = _horizon(ts)
    res = simulate_uniproc(ts, make_policy(ts, "EDF"), [(0.0, h)], h)
    executed = res.trace.busy_time()
    work = sum(
        j.task.wcet - j.remaining for j in res.jobs
    )
    assert abs(executed - work) < 1e-6


@given(integer_tasksets(), st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_windowed_execution_stays_inside_windows(ts, k):
    h = min(float(ts.hyperperiod()), 100.0) * 2
    stride = h / (2 * k)
    windows = [(2 * i * stride, (2 * i + 1) * stride) for i in range(k)]
    res = simulate_uniproc(ts, make_policy(ts, "EDF"), windows, h)
    for s in res.trace.slices:
        assert any(
            a - 1e-9 <= s.start and s.end <= b + 1e-9 for a, b in windows
        )


@given(integer_tasksets())
@settings(max_examples=50, deadline=None)
def test_jobs_never_execute_before_release_or_after_completion(ts):
    h = _horizon(ts)
    res = simulate_uniproc(ts, make_policy(ts, "RM"), [(0.0, h)], h)
    by_name = {j.name: j for j in res.jobs}
    for s in res.trace.slices:
        j = by_name[s.job]
        assert s.start >= j.release - 1e-9
        if j.completion_time is not None:
            assert s.end <= j.completion_time + 1e-9


_half = st.integers(min_value=-2, max_value=60).map(lambda k: k / 2.0)


@st.composite
def fault_shaped_cases(draw):
    """A task set with windows, blackouts, aborts and offsets on one grid.

    Windows may touch, overlap and come unsorted; aborts land on window
    edges, inside blackouts and twice at one instant.
    """
    alg = draw(st.sampled_from(["EDF", "RM", "DM"]))
    tasks = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        period = float(draw(st.integers(min_value=2, max_value=12)))
        deadline = period
        if alg == "DM":
            deadline = float(draw(st.integers(min_value=1, max_value=int(period))))
        wcet = min(draw(st.integers(min_value=1, max_value=8)) / 4.0, deadline)
        tasks.append(Task(f"t{i}", wcet, period, deadline=deadline))
    pairs = st.tuples(_half, st.integers(min_value=-1, max_value=8).map(lambda k: k / 2.0))
    windows = [(a, a + w) for a, w in draw(st.lists(pairs, min_size=1, max_size=10))]
    blackouts = [(a, a + w) for a, w in draw(st.lists(pairs, max_size=5))]
    edges = [t for w in windows + blackouts for t in w]
    aborts = draw(st.lists(st.one_of(_half, st.sampled_from(edges)), max_size=6))
    aborts += aborts[:1]
    offsets = draw(st.dictionaries(st.sampled_from([t.name for t in tasks]), _half.filter(lambda x: x >= 0)))
    horizon = float(draw(st.integers(min_value=4, max_value=30)))
    return TaskSet(tasks), alg, windows, blackouts, aborts, offsets, horizon


@given(fault_shaped_cases())
@settings(max_examples=150, deadline=None)
def test_uniproc_equals_the_loop_it_replaced(case):
    from tests.sim.test_hot_path_equivalence import run_both, uniproc_state

    ts, alg, windows, blackouts, aborts, offsets, horizon = case
    new, old = run_both(
        ts, alg, windows, horizon, blackouts=blackouts,
        abort_events=aborts, release_offsets=offsets,
    )
    assert uniproc_state(new) == uniproc_state(old)
