"""Unit tests for the FP workload W_i(t) (Eq. 5)."""

import numpy as np
import pytest

from repro.analysis import fp_workload, fp_workload_array, kernels
from repro.model import Task


class TestWorkload:
    def test_no_interference(self):
        t = Task("t", 2, 10)
        assert fp_workload(t, [], 5.0) == 2.0

    def test_single_interferer(self):
        t = Task("t", 2, 10)
        h = Task("h", 1, 4)
        # ceil(5/4) = 2 jobs of h
        assert fp_workload(t, [h], 5.0) == 2 + 2 * 1

    def test_boundary_is_exclusive(self):
        # At t = 8 exactly, ceil(8/4) = 2 (the job released AT 8 not counted).
        t = Task("t", 2, 10)
        h = Task("h", 1, 4)
        assert fp_workload(t, [h], 8.0) == 2 + 2 * 1

    def test_just_after_boundary(self):
        t = Task("t", 2, 10)
        h = Task("h", 1, 4)
        assert fp_workload(t, [h], 8.1) == 2 + 3 * 1

    def test_array_matches_scalar(self):
        t = Task("t", 2, 10)
        hp = [Task("h1", 1, 3), Task("h2", 1, 7)]
        ts = [1.0, 3.0, 6.5, 7.0, 10.0]
        arr = fp_workload_array(t, hp, ts)
        expected = [fp_workload(t, hp, x) for x in ts]
        assert np.allclose(arr, expected)

    def test_array_rejects_nonpositive(self):
        t = Task("t", 2, 10)
        with pytest.raises(ValueError):
            fp_workload_array(t, [], [1.0, 0.0])

    def test_scalar_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fp_workload(Task("t", 1, 5), [], 0.0)

    @pytest.mark.parametrize("fast", [True, False], ids=["kernels", "float"])
    def test_any_real_scalar_t(self, fast):
        task, hp = Task("a", 1.0, 5.0), [Task("b", 2.0, 10.0)]
        with kernels.kernels_forced(fast):
            got = [
                fp_workload(task, hp, t)
                for t in (5, 5.0, np.int64(5), np.float64(5))
            ]
        assert got == [3.0] * 4

    def test_monotone_in_t(self):
        t = Task("t", 2, 50)
        hp = [Task("h1", 1, 3), Task("h2", 2, 7)]
        ts = np.linspace(0.5, 50, 200)
        w = fp_workload_array(t, hp, ts)
        assert np.all(np.diff(w) >= -1e-12)
