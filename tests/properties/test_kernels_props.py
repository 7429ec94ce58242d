"""Property tests for the fast-kernel exactness gate.

For every campaign preset's generator shape (weighted, faultspace, table2,
figure4) the integer fast path must return results *identical* to the float
path — verdicts and minQ values alike. These run the same analysis twice
under :class:`repro.analysis.kernels.kernels_forced` and compare exactly
(no tolerance: the goldens are byte-compared, so so are we).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    deadline_set,
    fp_schedulable_dedicated,
    kernels,
    edf_schedulable_dedicated,
)
from repro.core import min_quantum
from repro.experiments.paper import paper_partition, paper_taskset
from repro.generators import generate_mixed_taskset
from repro.model import Mode


def _paper_bins():
    part = paper_partition()
    return [ts for mode in Mode for ts in part.bins(mode)]


def _preset_taskset(preset: str, seed: int, n: int, u_total: float):
    """A task set the way the preset's campaign points generate them."""
    if preset in ("weighted", "faultspace"):
        # the schedulability/fault-injection experiments both build their
        # sets through _generate: mixed modes, hyperperiod-limited periods
        return generate_mixed_taskset(
            n,
            u_total,
            np.random.default_rng(seed),
            period_method="hyperperiod-limited",
            period_hyperperiod=3600.0,
        )
    # table2/figure4 analyse the paper's fixed 13-task design
    return paper_taskset()


def _assert_fast_matches_exact(ts, period: float, algorithm: str) -> None:
    with kernels.kernels_forced(True):
        fast_edf = edf_schedulable_dedicated(ts)
        fast_fp = fp_schedulable_dedicated(ts, "DM").schedulable
        fast_dl = deadline_set(ts, 3600.0)
        fast_q = min_quantum(ts, algorithm, period)
    with kernels.kernels_forced(False):
        exact_edf = edf_schedulable_dedicated(ts)
        assert exact_edf.schedulable == fast_edf.schedulable
        assert exact_edf.points_checked == fast_edf.points_checked
        assert fp_schedulable_dedicated(ts, "DM").schedulable == fast_fp
        assert deadline_set(ts, 3600.0) == fast_dl
        assert min_quantum(ts, algorithm, period) == fast_q


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=8),
    u_total=st.floats(min_value=0.3, max_value=1.4),
    period=st.floats(min_value=0.5, max_value=200.0),
    algorithm=st.sampled_from(["EDF", "RM", "DM"]),
)
@settings(max_examples=40, deadline=None)
def test_weighted_preset_fast_equals_exact(seed, n, u_total, period, algorithm):
    ts = _preset_taskset("weighted", seed, n, u_total)
    _assert_fast_matches_exact(ts, period, algorithm)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=6),
    u_total=st.floats(min_value=0.5, max_value=2.0),
    period=st.floats(min_value=0.5, max_value=200.0),
    algorithm=st.sampled_from(["EDF", "RM"]),
)
@settings(max_examples=40, deadline=None)
# u_total == n * u_max: the generator's single-vector boundary, and a draw
# just inside it that exhausts rejection sampling
@example(seed=0, n=2, u_total=2.0, period=1.0, algorithm="EDF")
@example(seed=1, n=2, u_total=1.99999, period=7.5, algorithm="RM")
def test_faultspace_preset_fast_equals_exact(seed, n, u_total, period, algorithm):
    # the dependability sweep pushes u_total well past 1: overloaded sets
    # must agree on their (negative) verdicts too
    ts = _preset_taskset("faultspace", seed, n, u_total)
    _assert_fast_matches_exact(ts, period, algorithm)


@given(
    period=st.floats(min_value=0.5, max_value=500.0),
    algorithm=st.sampled_from(["EDF", "RM", "DM"]),
)
@settings(max_examples=40, deadline=None)
def test_table2_paper_bins_fast_equals_exact(period, algorithm):
    # Table 2 computes minQ per partition bin of the paper's design
    for ts in _paper_bins():
        with kernels.kernels_forced(True):
            fast = min_quantum(ts, algorithm, period)
        with kernels.kernels_forced(False):
            assert min_quantum(ts, algorithm, period) == fast


@given(period=st.floats(min_value=0.5, max_value=500.0))
@settings(max_examples=40, deadline=None)
def test_figure4_paper_taskset_fast_equals_exact(period):
    # Figure 4 sweeps minQ(P) over the paper task set's partition bins
    _assert_fast_matches_exact(_paper_bins()[0], period, "EDF")
