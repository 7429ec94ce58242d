"""Fault-campaign tests: per-mode guarantees of Section 2.2."""

import pytest

from repro.faults import Fault, FaultCampaign, FaultOutcome
from repro.model import Mode


@pytest.fixture(scope="module")
def campaign_result(paper_part, paper_config_b):
    camp = FaultCampaign(paper_part, paper_config_b, rate=0.08)
    return camp.run(horizon=paper_config_b.period * 60, seed=11)


class TestCampaign:
    def test_every_fault_classified(self, campaign_result):
        assert campaign_result.injected == len(campaign_result.records)
        assert sum(campaign_result.outcomes.values()) == campaign_result.injected

    def test_ft_faults_always_masked(self, campaign_result):
        by_mode = campaign_result.outcomes_by_mode
        if Mode.FT in by_mode:
            ft = by_mode[Mode.FT]
            assert ft[FaultOutcome.SILENCED] == 0
            assert ft[FaultOutcome.CORRUPTED] == 0

    def test_fs_faults_never_corrupt(self, campaign_result):
        by_mode = campaign_result.outcomes_by_mode
        if Mode.FS in by_mode:
            assert by_mode[Mode.FS][FaultOutcome.CORRUPTED] == 0
            assert by_mode[Mode.FS][FaultOutcome.MASKED] == 0

    def test_nf_faults_never_silence(self, campaign_result):
        by_mode = campaign_result.outcomes_by_mode
        if Mode.NF in by_mode:
            assert by_mode[Mode.NF][FaultOutcome.SILENCED] == 0

    def test_ft_tasks_never_miss(self, campaign_result):
        assert campaign_result.ft_misses == 0

    def test_corrupted_jobs_listed(self, campaign_result):
        assert len(campaign_result.corrupted_jobs) == campaign_result.outcomes[
            FaultOutcome.CORRUPTED
        ]

    def test_summary_renders(self, campaign_result):
        s = campaign_result.summary()
        assert "faults injected" in s and "masked" in s

    def test_rates_sum_to_one(self, campaign_result):
        if campaign_result.injected:
            total = sum(
                campaign_result.rate(o) for o in FaultOutcome
            )
            assert total == pytest.approx(1.0)


class TestEmptyCampaign:
    def test_rate_is_none_not_perfect(self, paper_part, paper_config_b):
        """An empty campaign has no outcome rates: a silent 0.0 would make
        it read as a perfect (fault-free) run."""
        camp = FaultCampaign(paper_part, paper_config_b)
        res = camp.run(horizon=paper_config_b.period * 2, faults=[])
        assert res.injected == 0
        assert all(res.rate(o) is None for o in FaultOutcome)

    def test_summary_renders_na(self, paper_part, paper_config_b):
        camp = FaultCampaign(paper_part, paper_config_b)
        res = camp.run(horizon=paper_config_b.period * 2, faults=[])
        s = res.summary()
        assert "n/a" in s and "%" not in s


class TestExplicitFaults:
    def test_explicit_fault_list(self, paper_part, paper_config_b):
        camp = FaultCampaign(paper_part, paper_config_b)
        res = camp.run(
            horizon=paper_config_b.period * 5,
            faults=[Fault(0.1, 0), Fault(2.0, 1)],
        )
        assert res.injected == 2

    def test_one_shot_fault_iterable_counted(self, paper_part, paper_config_b):
        """A generator of faults must not read back as injected=0: the sim
        drains the iterable, so the campaign has to materialize it once."""
        camp = FaultCampaign(paper_part, paper_config_b)
        res = camp.run(
            horizon=paper_config_b.period * 5,
            faults=iter([Fault(0.1, 0), Fault(2.0, 1)]),
        )
        assert res.injected == 2
        assert res.injected == len(res.records)


class TestMissAccounting:
    """``ft_misses`` counts only the FT tasks' deadline misses.

    P = 4 with FT served in ``[0, 1)`` and NF in ``[1, 2)`` of every cycle,
    no overheads, over a 16-unit horizon (four cycles). The FT task needs 3
    units per 8 but gets 1 per 4: ``ft#0`` has 2 units by its deadline at 8
    and completes late at 9, and ``ft#1`` gets only ``[12, 13)`` before its
    deadline at 16. The NF task needs 2 units per 4 but gets 1: all four of
    its jobs (deadlines 4, 8, 12, 16) miss. By hand: 2 FT misses of 6.
    """

    @pytest.fixture
    def starved(self):
        from repro.core import PlatformConfig, SlotSchedule
        from repro.model import Task, TaskSet
        from repro.model.partitioned import partition_from_names

        ts = TaskSet([Task("ft", 3.0, 8.0, mode=Mode.FT), Task("nf", 2.0, 4.0)])
        part = partition_from_names(ts, {Mode.FT: [["ft"]], Mode.NF: [["nf"]]})
        config = PlatformConfig(SlotSchedule(4.0, {Mode.FT: 1.0, Mode.NF: 1.0}), "EDF")
        return FaultCampaign(part, config).run(horizon=16.0, faults=[Fault(1.5, 2)])

    def test_ft_misses_hand_count(self, starved):
        assert starved.ft_misses == 2
        assert starved.total_misses == 6
        assert 0 < starved.ft_misses < starved.total_misses

    def test_counts_match_the_miss_events(self, starved):
        misses = starved.simulation.misses
        assert sorted(e.who for e in misses) == [
            "ft#0", "ft#1", "nf#0", "nf#1", "nf#2", "nf#3",
        ]
        assert starved.total_misses == starved.simulation.miss_count

    @pytest.mark.parametrize(
        "ft, nf", [("ctl#a", "nf"), ("x", "x#1")], ids=["hash-in-ft", "ft-prefix-of-nf"]
    )
    def test_task_names_holding_a_hash(self, ft, nf):
        # A job is named task#index: its task is everything before the last
        # "#", so a task name may hold one.
        from repro.core import PlatformConfig, SlotSchedule
        from repro.model import Task, TaskSet
        from repro.model.partitioned import partition_from_names

        ts = TaskSet([Task(ft, 3.0, 8.0, mode=Mode.FT), Task(nf, 2.0, 4.0)])
        part = partition_from_names(ts, {Mode.FT: [[ft]], Mode.NF: [[nf]]})
        config = PlatformConfig(SlotSchedule(4.0, {Mode.FT: 1.0, Mode.NF: 1.0}), "EDF")
        res = FaultCampaign(part, config).run(horizon=16.0, faults=[Fault(1.5, 2)])
        assert res.ft_misses == 2
        assert res.total_misses == 6
        assert res.simulation.misses_by_task() == {ft: 2, nf: 4}
