"""Unit tests for the full-platform simulator."""

import pytest

from repro.faults import Fault, FaultOutcome
from repro.model import Mode
from repro.sim import MulticoreSim


@pytest.fixture
def sim(paper_part, paper_config_b):
    return MulticoreSim(paper_part, paper_config_b)


@pytest.fixture
def short(sim, paper_config_b):
    """A ~30-cycle fault-free run reused by several tests."""
    return sim.run(horizon=paper_config_b.period * 30)


class TestFaultFreeRun:
    def test_no_misses(self, short):
        assert short.miss_count == 0

    def test_every_nonempty_bin_has_a_processor(self, short, paper_part):
        expected = {
            f"{mode}[{i}]"
            for mode in Mode
            for i, ts in enumerate(paper_part.bins(mode))
            if len(ts)
        }
        assert set(short.processors) == expected

    def test_slices_respect_mode_windows(self, short, paper_config_b):
        from repro.platform import ModeSwitchController, SegmentKind

        ctrl = ModeSwitchController(paper_config_b.schedule)
        for s in short.trace.slices[:200]:
            seg = ctrl.segment_at(s.start + 1e-9)
            assert seg.kind is SegmentKind.USABLE
            assert f"{seg.mode}[" in s.processor

    def test_worst_response_times_bounded_by_deadlines(self, short, paper_ts):
        for task, rt in short.worst_response_times().items():
            assert rt <= paper_ts[task].deadline + 1e-9

    def test_all_tasks_execute(self, short, paper_ts):
        executed = {s.task for s in short.trace.slices}
        assert executed == set(paper_ts.names)

    def test_critical_phasing_also_clean(self, sim, paper_config_b):
        res = sim.run(
            horizon=paper_config_b.period * 30, release_offsets="critical"
        )
        assert res.miss_count == 0

    def test_unknown_phasing_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.run(horizon=10.0, release_offsets="banana")

    def test_raw_schedule_requires_algorithm(self, paper_part, paper_config_b):
        with pytest.raises(ValueError):
            MulticoreSim(paper_part, paper_config_b.schedule)
        MulticoreSim(paper_part, paper_config_b.schedule, "EDF")  # ok


class TestFaultInjection:
    def _usable_instant(self, config, mode, eps=1e-3):
        a, b = config.schedule.usable_window(mode)
        return (a + b) / 2.0

    def test_ft_fault_masked(self, sim, paper_config_b):
        t = self._usable_instant(paper_config_b, Mode.FT)
        res = sim.run(
            horizon=paper_config_b.period * 10, faults=[Fault(t, core=2)]
        )
        assert res.fault_summary()[FaultOutcome.MASKED] == 1
        assert res.miss_count == 0

    def test_fs_fault_silences_channel(self, sim, paper_config_b):
        t = self._usable_instant(paper_config_b, Mode.FS)
        res = sim.run(
            horizon=paper_config_b.period * 10, faults=[Fault(t, core=0)]
        )
        rec = res.fault_records[0]
        assert rec.outcome is FaultOutcome.SILENCED
        assert rec.processor == "FS[0]"

    def test_fs_fault_on_other_couple(self, sim, paper_config_b):
        t = self._usable_instant(paper_config_b, Mode.FS)
        res = sim.run(
            horizon=paper_config_b.period * 10, faults=[Fault(t, core=3)]
        )
        assert res.fault_records[0].processor == "FS[1]"

    def test_nf_fault_corrupts_running_job(self, sim, paper_config_b):
        # tau5 keeps NF[3] busy; hit core 3 mid NF window.
        t = self._usable_instant(paper_config_b, Mode.NF)
        res = sim.run(
            horizon=paper_config_b.period * 10, faults=[Fault(t, core=3)]
        )
        rec = res.fault_records[0]
        assert rec.outcome in (FaultOutcome.CORRUPTED, FaultOutcome.HARMLESS)
        if rec.outcome is FaultOutcome.CORRUPTED:
            assert rec.victim is not None
            assert rec.victim in res.corrupted_jobs()

    def test_fault_in_overhead_time_harmless(self, sim, paper_config_b):
        a, b = paper_config_b.schedule.overhead_window(Mode.FT)
        res = sim.run(
            horizon=paper_config_b.period * 5,
            faults=[Fault((a + b) / 2, core=1)],
        )
        assert res.fault_records[0].outcome is FaultOutcome.HARMLESS

    def test_fault_beyond_horizon_rejected(self, sim):
        with pytest.raises(ValueError, match="beyond"):
            sim.run(horizon=5.0, faults=[Fault(100.0, core=0)])

    def test_ft_tasks_never_miss_even_under_ft_faults(self, sim, paper_config_b):
        # Inject one FT-slot fault per cycle for 10 cycles: all masked.
        P = paper_config_b.period
        a, b = paper_config_b.schedule.usable_window(Mode.FT)
        mid = (a + b) / 2
        faults = [Fault(mid + k * P, core=k % 4) for k in range(10)]
        res = sim.run(horizon=P * 11, faults=faults)
        summary = res.fault_summary()
        assert summary[FaultOutcome.MASKED] == 10
        assert res.miss_count == 0


class TestHorizonDefaults:
    def test_default_horizon_is_whole_cycles(self, sim, paper_config_b):
        h = sim.default_horizon()
        assert h / paper_config_b.period == pytest.approx(
            round(h / paper_config_b.period)
        )

    def test_default_horizon_covers_hyperperiod(self, sim, paper_ts):
        assert sim.default_horizon() >= paper_ts.hyperperiod()

    def test_simulator_rejects_zero_horizon(self, sim):
        # A run must cover positive time.
        with pytest.raises(ValueError, match="horizon"):
            sim.run(horizon=0.0)


class TestClassifyFaultGeneralizedPlatforms:
    """classify_fault beyond the hardcoded 4-core chip (2/5/6/8 cores)."""

    def _sim(self, core_count):
        from repro.core import SlotSchedule
        from repro.experiments.paper import paper_partition

        sched = SlotSchedule(
            3.0, {Mode.FT: 1.0, Mode.FS: 1.0, Mode.NF: 1.0}
        )
        return MulticoreSim(
            paper_partition(), sched, "EDF", core_count=core_count
        )

    def test_ft_masks_with_three_or_more_cores(self):
        for n in (6, 8):
            sim = self._sim(n)
            for core in (0, n - 1):
                outcome, mode, _idx, _seg = sim.classify_fault(
                    Fault(0.5, core, n)
                )
                assert (outcome, mode) == (FaultOutcome.MASKED, Mode.FT)

    def test_two_core_ft_degrades_to_fail_silent(self):
        sim = self._sim(2)
        outcome, mode, _idx, _seg = sim.classify_fault(Fault(0.5, 1, 2))
        assert (outcome, mode) == (FaultOutcome.SILENCED, Mode.FT)

    def test_fs_couples_silence_on_any_width(self):
        for n in (2, 6, 8):
            sim = self._sim(n)
            outcome, mode, idx, _seg = sim.classify_fault(
                Fault(1.5, n - 1, n)
            )
            assert (outcome, mode) == (FaultOutcome.SILENCED, Mode.FS)
            assert idx == (n - 1) // 2

    def test_odd_fs_trailing_singleton_corrupts(self):
        sim = self._sim(5)
        outcome, mode, idx, _seg = sim.classify_fault(Fault(1.5, 4, 5))
        assert (outcome, mode) == (FaultOutcome.CORRUPTED, Mode.FS)
        assert idx == 2

    def test_nf_corrupts_everywhere(self):
        for n in (2, 6, 8):
            sim = self._sim(n)
            outcome, mode, idx, _seg = sim.classify_fault(
                Fault(2.5, n - 1, n)
            )
            assert (outcome, mode) == (FaultOutcome.CORRUPTED, Mode.NF)
            assert idx == n - 1

    def test_fault_beyond_platform_rejected_with_hint(self):
        import pytest

        sim = self._sim(6)
        with pytest.raises(ValueError, match="core_count=6"):
            sim.classify_fault(Fault(0.5, 6, 8))
