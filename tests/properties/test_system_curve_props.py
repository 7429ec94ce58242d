"""Property: the stacked Eq.-15 curve equals the per-bin evaluation exactly.

Random partitions (empty modes, empty bins, constrained deadlines) under
EDF, RM and DM, with the fast kernels on (hull-pruned groups) and off (full
point sets), against :class:`ReferenceSystemCurve`, the per-bin loop that
:class:`~repro.core.integration.SystemCurve` replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import kernels
from repro.core import SystemCurve
from repro.model import Mode, PartitionedTaskSet, Task, TaskSet
from tests.core.test_stacked_curve import ReferenceSystemCurve


@st.composite
def partitions(draw):
    bins: dict[Mode, list[TaskSet]] = {}
    count = 0
    for mode in Mode:
        bins[mode] = []
        for _ in range(draw(st.integers(min_value=0, max_value=mode.parallelism))):
            tasks = []
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                period = draw(st.integers(min_value=4, max_value=24))
                wcet = draw(
                    st.floats(min_value=0.1, max_value=period / 2, allow_nan=False)
                )
                # period - 2 >= period / 2 >= wcet: a constrained deadline.
                deadline = draw(st.sampled_from([period, period - 2]))
                tasks.append(
                    Task(f"t{count}", wcet, float(period), float(deadline), mode=mode)
                )
                count += 1
            bins[mode].append(TaskSet(tasks))
    return PartitionedTaskSet(bins)


periods = st.lists(
    st.floats(min_value=0.01, max_value=80.0, allow_nan=False), min_size=1, max_size=16
)


@given(partitions(), st.sampled_from(["EDF", "RM", "DM"]), st.booleans(), periods)
@settings(max_examples=80, deadline=None)
def test_stacked_curve_equals_per_bin_reference(part, algorithm, fast, ps):
    with kernels.kernels_forced(fast):
        curve = SystemCurve(part, algorithm)
        ref = ReferenceSystemCurve(part, algorithm)
    grid = np.asarray(ps)
    assert np.array_equal(curve.lhs(grid), ref.lhs(grid))
    for mode in Mode:
        assert np.array_equal(curve.mode_minq(mode, grid), ref.mode_minq(mode, grid))
    assert curve.lhs(ps[0]) == ref.lhs(ps[0])
    assert curve.min_quanta(ps[0]) == ref.min_quanta(ps[0])
