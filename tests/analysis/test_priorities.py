"""Unit tests for priority orders (RM, DM)."""

import pytest

from repro.analysis import deadline_monotonic, priority_order, rate_monotonic
from repro.model import Task, TaskSet


@pytest.fixture
def ts():
    return TaskSet(
        [
            Task("slow", 1, 20, deadline=6),
            Task("fast", 1, 5),
            Task("mid", 1, 10, deadline=8),
        ]
    )


class TestStaticOrders:
    def test_rm_by_period(self, ts):
        assert [t.name for t in rate_monotonic(ts)] == ["fast", "slow", "mid"][0:1] + [
            "mid",
            "slow",
        ]

    def test_dm_by_deadline(self, ts):
        assert [t.name for t in deadline_monotonic(ts)] == ["fast", "slow", "mid"]

    def test_ties_broken_by_name(self):
        ts = TaskSet([Task("b", 1, 10), Task("a", 1, 10)])
        assert [t.name for t in rate_monotonic(ts)] == ["a", "b"]

    def test_priority_order_dispatch(self, ts):
        assert priority_order(ts, "rm") == rate_monotonic(ts)
        assert priority_order(ts, "DM") == deadline_monotonic(ts)

    def test_unknown_policy_rejected(self, ts):
        with pytest.raises(ValueError):
            priority_order(ts, "LLF")

    def test_rm_equals_dm_for_implicit_deadlines(self):
        ts = TaskSet([Task("a", 1, 4), Task("b", 1, 9), Task("c", 1, 6)])
        assert rate_monotonic(ts) == deadline_monotonic(ts)
