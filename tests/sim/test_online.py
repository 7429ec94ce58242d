"""Online-engine tests: live admission, departures, failure re-assignment.

Built on the paper platform (4 cores, paper partition) with the max-slack
EDF design — the deployment Section 4 motivates for dynamic scenarios.
Killing core 2 on this platform is the canonical failure: the FS couple
(2,3) loses lock-step (orphaning ``tau9``), the NF singleton on core 2
dies (orphaning ``tau4``), and the 4-wide FT voting channel survives with
3 live members.
"""

import dataclasses
import math
from collections import Counter

import pytest

from repro.core import Overheads, design_platform
from repro.experiments.paper import paper_partition
from repro.faults.model import Fault, FaultOutcome
from repro.model import Mode, Task
from repro.sim import MulticoreSim, OnlineArrival, OnlineSim


@pytest.fixture(scope="module")
def platform():
    part = paper_partition()
    config = design_platform(part, "EDF", Overheads.uniform(0.05), "max-slack")
    return config, part


def make_sim(platform, slack=None):
    config, part = platform
    if slack is not None:
        config = dataclasses.replace(config, slack=slack)
    return config, OnlineSim(config, part)


def tiny_task(name="dyn", mode=Mode.NF):
    return Task(name, 0.05, 20.0, mode=mode)


def growing_task(name="grow"):
    # Heavy enough that admission must grow the NF quantum out of the
    # reserve (the paper design's spare NF quantum absorbs small tasks).
    return Task(name, 2.0, 20.0, mode=Mode.NF)


class TestArrivals:
    def test_empty_run_is_a_no_op(self, platform):
        config, sim = make_sim(platform)
        result = sim.run(10.0)
        assert result.offered == 0 and result.admitted == 0
        assert result.acceptance_ratio is None
        assert result.slack_final == config.slack

    def test_small_task_admitted_and_binned(self, platform):
        config, sim = make_sim(platform)
        result = sim.run(
            30.0, arrivals=[OnlineArrival(3.0, tiny_task())]
        )
        assert result.offered == 1 and result.admitted == 1
        b = int(3.0 // config.period)
        assert result.acceptance_bins == {b: [1, 1]}
        assert result.slack_final <= config.slack

    def test_bin_width_override(self, platform):
        _config, sim = make_sim(platform)
        result = sim.run(
            30.0, arrivals=[OnlineArrival(7.0, tiny_task())], bin_width=2.0
        )
        assert result.acceptance_bins == {3: [1, 1]}

    def test_oversized_task_rejected_with_reason(self, platform):
        _config, sim = make_sim(platform)
        hog = Task("hog", 15.0, 20.0, mode=Mode.NF)
        result = sim.run(30.0, arrivals=[OnlineArrival(1.0, hog)])
        assert result.offered == 1 and result.admitted == 0
        (time, name, admitted, reason) = result.decisions[0]
        assert (time, name, admitted) == (1.0, "hog", False)
        assert "slack" in reason

    def test_departure_reclaims_the_reserve(self, platform):
        config, sim = make_sim(platform)
        result = sim.run(
            30.0,
            arrivals=[OnlineArrival(2.0, growing_task(), lifetime=5.0)],
        )
        assert result.departed == 1
        assert result.slack_final == pytest.approx(config.slack)

    def test_departure_past_horizon_never_fires(self, platform):
        config, sim = make_sim(platform)
        result = sim.run(
            30.0,
            arrivals=[OnlineArrival(2.0, growing_task(), lifetime=100.0)],
        )
        assert result.departed == 0
        assert result.slack_final < config.slack


class TestCoreDeath:
    def test_death_orphans_fs_couple_and_nf_singleton(self, platform):
        _config, sim = make_sim(platform)
        result = sim.run(60.0, core_deaths=[(10.0, 2)])
        assert result.deaths == [(10.0, 2)]
        assert result.orphaned == 2  # tau9 (FS couple 2-3) + tau4 (NF)
        # every orphan resolves one way or the other
        assert len(result.reassign_latencies) + len(result.lost) == 2
        assert len(result.miss_windows) == 2
        dead = sim.admission.dead_processors
        assert (Mode.FS, 1) in dead and (Mode.NF, 2) in dead
        assert (Mode.FT, 0) not in dead  # 4-wide voting survives 1 death

    def test_reassignment_with_generous_reserve(self, platform):
        config, sim = make_sim(platform, slack=5.0)
        result = sim.run(60.0, core_deaths=[(10.0, 2)])
        assert result.lost == []
        assert len(result.reassign_latencies) == 2
        # One attempt per major-cycle boundary, in eviction order.
        boundary = (math.floor(10.0 / config.period) + 1) * config.period
        assert result.reassign_latencies[0] == pytest.approx(boundary - 10.0)
        assert result.reassign_latencies[1] == pytest.approx(
            boundary - 10.0 + config.period
        )
        assert result.miss_windows == result.reassign_latencies

    def test_lost_orphans_miss_to_the_horizon(self, platform):
        _config, sim = make_sim(platform)  # paper slack: too thin to rescue
        result = sim.run(60.0, core_deaths=[(10.0, 2)])
        assert sorted(result.lost) == result.lost
        for name, window in zip(result.lost, result.miss_windows):
            assert window == pytest.approx(50.0)
        # a processor-less task misses one job per elapsed period
        assert result.post_failure_misses == sum(
            int(50.0 // task.period)
            for task in [
                t
                for t in paper_partition().all_tasks()
                if t.name in result.lost
            ]
        )

    def test_double_death_is_idempotent(self, platform):
        _config, sim = make_sim(platform)
        result = sim.run(60.0, core_deaths=[(10.0, 2), (20.0, 2)])
        assert result.deaths == [(10.0, 2)]
        assert result.orphaned == 2

    def test_dead_bin_refuses_explicit_admission(self, platform):
        _config, sim = make_sim(platform)
        sim.run(60.0, core_deaths=[(10.0, 2)])
        decision = sim.admission.try_admit(tiny_task("late"), processor=2)
        assert not decision.admitted
        assert "failed permanently" in decision.reason

    def test_invalid_core_rejected(self, platform):
        _config, sim = make_sim(platform)
        with pytest.raises(ValueError, match="outside the platform's cores"):
            sim.run(60.0, core_deaths=[(10.0, 7)])

    def test_every_orphan_resolves_exactly_once(self, platform):
        # Orphans resolve by re-assignment, loss, or their own departure —
        # each exactly once, each with exactly one miss window.
        _config, sim = make_sim(platform, slack=5.0)
        result = sim.run(
            60.0,
            arrivals=[OnlineArrival(1.0, tiny_task("fleeting"), lifetime=9.05)],
            core_deaths=[(10.0, 3)],
        )
        assert result.orphaned == len(result.miss_windows)
        resolved_by_departure = (
            result.orphaned - len(result.reassign_latencies) - len(result.lost)
        )
        assert 0 <= resolved_by_departure <= result.departed


class TestFaults:
    def test_fault_outcomes_follow_mode_semantics(self, platform):
        config, sim = make_sim(platform)
        ft_t = config.schedule.usable_window(Mode.FT)[0]
        nf_t = config.schedule.usable_window(Mode.NF)[0]
        result = sim.run(
            30.0,
            faults=[Fault(ft_t, 0), Fault(nf_t, 0), Fault(nf_t + 2e-9, 1)],
        )
        assert result.fault_outcomes == {"masked": 1, "corrupted": 2}

    def test_outcomes_match_the_offline_classifier(self, platform):
        # On five cores the FS layout keeps a singleton (core 4), so a
        # strike's outcome depends on the struck core, not only the mode.
        config, part = platform
        online = OnlineSim(config, part, core_count=5)
        offline = MulticoreSim(part, config, core_count=5)
        faults = [
            Fault(k * config.period / 40, core, 5) for k in range(80) for core in range(5)
        ]
        expected = Counter(str(offline.classify_fault(f)[0]) for f in faults)
        assert online.run(3 * config.period, faults=faults).fault_outcomes == expected
        fs_start = config.schedule.usable_window(Mode.FS)[0]
        by_core = [offline.classify_fault(Fault(fs_start, c, 5))[0] for c in (0, 4)]
        assert by_core == [FaultOutcome.SILENCED, FaultOutcome.CORRUPTED]

    def test_strikes_on_dead_cores_are_dropped(self, platform):
        config, sim = make_sim(platform)
        nf_t = 20.0 * config.period + config.schedule.usable_window(Mode.NF)[0]
        result = sim.run(
            30.0,
            core_deaths=[(1.0, 2)],
            faults=[Fault(nf_t, 2)],
        )
        assert result.fault_outcomes == {}

    def test_fault_outside_cores_rejected(self, platform):
        _config, sim = make_sim(platform)
        with pytest.raises(ValueError, match="outside the platform's cores"):
            sim.run(30.0, faults=[Fault(1.0, 5, 8)])


class TestDeterminism:
    def test_identical_runs_produce_identical_records(self, platform):
        records = []
        for _ in range(2):
            _config, sim = make_sim(platform)
            result = sim.run(
                60.0,
                arrivals=[
                    OnlineArrival(1.0, tiny_task("d1"), lifetime=30.0),
                    OnlineArrival(4.0, tiny_task("d2", Mode.FS), lifetime=20.0),
                ],
                core_deaths=[(10.0, 2)],
                faults=[Fault(5.0, 0)],
            )
            records.append(result.to_record())
        assert records[0] == records[1]
