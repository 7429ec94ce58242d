"""Unit tests for the Eqs. 12–15 integration layer."""

import numpy as np
import pytest

from repro.core import Overheads, SlotSchedule, SystemCurve, quanta_feasible
from repro.core.minq import min_quantum
from repro.model import Mode


class TestSystemCurve:
    def test_mode_minq_is_max_over_bins(self, paper_part):
        curve = SystemCurve(paper_part, "EDF")
        p = 2.0
        expected = max(
            min_quantum(ts, "EDF", p)
            for ts in paper_part.bins(Mode.NF)
            if len(ts)
        )
        assert curve.mode_minq(Mode.NF, p) == expected

    def test_lhs_is_period_minus_sum(self, paper_part):
        curve = SystemCurve(paper_part, "EDF")
        p = 2.0
        total = sum(curve.mode_minq(m, p) for m in Mode)
        assert curve.lhs(p) == pytest.approx(p - total)

    def test_vectorised_matches_scalar(self, paper_part):
        curve = SystemCurve(paper_part, "EDF")
        ps = np.array([0.5, 1.0, 2.0, 3.0])
        arr = curve.lhs(ps)
        for p, v in zip(ps, arr):
            assert curve.lhs(float(p)) == v

    def test_min_quanta_keys(self, paper_part):
        q = SystemCurve(paper_part, "EDF").min_quanta(2.0)
        assert set(q) == set(Mode)
        assert all(v >= 0 for v in q.values())


class TestQuantaFeasible:
    def test_feasible_design_accepted(self, paper_part, paper_config_b):
        verdicts = quanta_feasible(paper_part, "EDF", paper_config_b.schedule)
        assert all(verdicts.values())

    def test_shrunk_quantum_rejected(self, paper_part, paper_config_b):
        s = paper_config_b.schedule
        smaller = SlotSchedule(
            s.period,
            {
                Mode.FT: s.quantum(Mode.FT) * 0.8,
                Mode.FS: s.quantum(Mode.FS),
                Mode.NF: s.quantum(Mode.NF),
            },
            s.overheads,
        )
        verdicts = quanta_feasible(paper_part, "EDF", smaller)
        assert not verdicts[Mode.FT]
        assert verdicts[Mode.FS] and verdicts[Mode.NF]

    def test_empty_mode_trivially_feasible(self, paper_ts):
        from repro.model import PartitionedTaskSet

        nf_only = PartitionedTaskSet(
            {Mode.NF: [paper_ts.by_mode(Mode.NF).subset(["tau1"])]}
        )
        schedule = SlotSchedule(1.0, {Mode.NF: 0.5}, Overheads.zero())
        verdicts = quanta_feasible(nf_only, "EDF", schedule)
        assert verdicts[Mode.FT] and verdicts[Mode.FS]
