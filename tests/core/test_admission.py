"""Unit tests for run-time admission via slack redistribution."""

import pytest

from repro.core import AdmissionController, Overheads, design_platform
from repro.model import Mode, Task, TaskSet
from repro.partition import partition_by_modes


@pytest.fixture
def controller(paper_config_c, paper_part):
    """Controller over the max-slack design (slack ≈ 0.103)."""
    return AdmissionController(paper_config_c, paper_part)


class TestAdmission:
    def test_initial_state_mirrors_config(self, controller, paper_config_c):
        assert controller.slack == pytest.approx(paper_config_c.slack)
        assert controller.period == paper_config_c.period
        for mode in Mode:
            assert controller.usable_quantum(mode) == pytest.approx(
                paper_config_c.schedule.usable(mode)
            )

    def test_admit_small_task_succeeds(self, controller):
        slack_before = controller.slack
        small = Task("new_nf", wcet=0.05, period=10, mode=Mode.NF)
        decision = controller.try_admit(small)
        assert decision.admitted
        assert decision.processor is not None
        assert controller.slack <= slack_before
        assert decision.slack_left == pytest.approx(controller.slack)

    def test_admit_grows_quantum(self, controller):
        before = controller.usable_quantum(Mode.NF)
        heavy = Task("new_nf", wcet=1.0, period=10, mode=Mode.NF)
        decision = controller.try_admit(heavy)
        if decision.admitted:
            assert controller.usable_quantum(Mode.NF) >= before

    def test_admit_huge_task_rejected(self, controller):
        huge = Task("hog", wcet=9.0, period=10, mode=Mode.FT)
        decision = controller.try_admit(huge)
        assert not decision.admitted
        assert "slack" in decision.reason

    def test_rejected_admission_does_not_mutate_state(self, controller):
        slack = controller.slack
        q = {m: controller.usable_quantum(m) for m in Mode}
        controller.try_admit(Task("hog", wcet=9.0, period=10, mode=Mode.FT))
        assert controller.slack == pytest.approx(slack)
        for m in Mode:
            assert controller.usable_quantum(m) == pytest.approx(q[m])

    def test_duplicate_name_rejected(self, controller):
        t = Task("tau1", wcet=0.1, period=10, mode=Mode.NF)
        decision = controller.try_admit(t)
        assert not decision.admitted
        assert "already present" in decision.reason

    def test_explicit_processor_out_of_range(self, controller):
        t = Task("new", wcet=0.1, period=10, mode=Mode.FS)
        decision = controller.try_admit(t, processor=7)
        assert not decision.admitted

    def test_remove_returns_bandwidth(self, controller):
        small = Task("tmp", wcet=0.3, period=5, mode=Mode.FS)
        d = controller.try_admit(small)
        assert d.admitted
        slack_after_admit = controller.slack
        freed = controller.remove("tmp")
        assert freed >= 0.0
        assert controller.slack >= slack_after_admit

    def test_remove_unknown_raises(self, controller):
        with pytest.raises(KeyError):
            controller.remove("ghost")

    def test_admit_then_config_snapshot_is_feasible(self, controller, paper_part):
        from repro.core import quanta_feasible

        t = Task("new_fs", wcet=0.1, period=8, mode=Mode.FS)
        decision = controller.try_admit(t)
        assert decision.admitted
        cfg = controller.config()
        part = controller.partition()
        assert all(quanta_feasible(part, "EDF", cfg.schedule).values())

    def test_admission_cycle_is_reversible(self, controller):
        slack0 = controller.slack
        q0 = controller.usable_quantum(Mode.NF)
        d = controller.try_admit(Task("x", wcet=0.2, period=6, mode=Mode.NF))
        assert d.admitted
        controller.remove("x")
        assert controller.slack == pytest.approx(slack0, abs=1e-9)
        assert controller.usable_quantum(Mode.NF) <= q0 + 1e-9

    def test_partition_snapshot_contains_admitted_task(self, controller):
        controller.try_admit(Task("snap", wcet=0.05, period=9, mode=Mode.NF))
        part = controller.partition()
        assert "snap" in part.mode_taskset(Mode.NF).names


def test_duplicate_name_from_another_mode_rejected():
    ts = TaskSet(
        [
            Task("a", 1.0, 10.0, mode=Mode.NF),
            Task("b", 1.0, 10.0, mode=Mode.FS),
            Task("c", 1.0, 10.0, mode=Mode.FT),
        ]
    )
    part = partition_by_modes(ts, heuristic="worst-fit")
    config = design_platform(part, "EDF", Overheads.uniform(0.05), "max-slack")
    controller = AdmissionController(config, part)
    slack = controller.slack
    decision = controller.try_admit(Task("a", 0.5, 10.0, mode=Mode.FS))
    assert not decision.admitted
    assert decision.reason == "task 'a' already present"
    assert decision.slack_left == controller.slack == slack
    # the partition stays valid, and removal finds the original NF task
    assert controller.partition() == part
    controller.remove("a")
    assert "a" not in controller.partition().mode_taskset(Mode.NF).names
