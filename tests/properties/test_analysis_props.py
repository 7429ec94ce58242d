"""Property-based tests for the schedulability analyses.

Cross-validates independent implementations: point tests vs response-time
analysis for FP, RM acceptance vs EDF acceptance, and basic
demand-function laws.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    demand_bound_function,
    edf_schedulable_dedicated,
    fp_response_time,
    fp_schedulable_dedicated,
    rate_monotonic,
)
from repro.model import Task, TaskSet


@st.composite
def integer_tasksets(draw):
    """Small integer-parameter task sets (exact float arithmetic)."""
    n = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    for i in range(n):
        period = draw(st.integers(min_value=3, max_value=24))
        wcet = draw(st.integers(min_value=1, max_value=max(period // 2, 1)))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(Task(f"t{i}", float(wcet), float(period), float(deadline)))
    return TaskSet(tasks)


@given(integer_tasksets())
@settings(max_examples=100, deadline=None)
def test_fp_point_test_agrees_with_rta(ts):
    order = rate_monotonic(ts)
    point = fp_schedulable_dedicated(ts, "RM")
    rta_ok = all(
        fp_response_time(t, order[:i]) is not None
        for i, t in enumerate(order)
    )
    assert point.schedulable == rta_ok


@given(integer_tasksets())
@settings(max_examples=100, deadline=None)
def test_rm_schedulable_implies_edf_schedulable(ts):
    # EDF optimality on a dedicated uniprocessor.
    if fp_schedulable_dedicated(ts, "RM").schedulable:
        assert edf_schedulable_dedicated(ts).schedulable


@given(integer_tasksets(), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_dbf_monotone_and_bounded(ts, t):
    d1 = demand_bound_function(ts, t)
    d2 = demand_bound_function(ts, t + 1.0)
    assert d1 <= d2 + 1e-9
    # dbf never exceeds the total work releasable in [0, t]:
    ceiling = sum((t / task.period + 1) * task.wcet for task in ts)
    assert d1 <= ceiling + 1e-9


@given(integer_tasksets())
@settings(max_examples=100, deadline=None)
def test_dbf_zero_before_first_deadline(ts):
    d_min = min(t.deadline for t in ts)
    assert demand_bound_function(ts, d_min * 0.999) == 0.0
