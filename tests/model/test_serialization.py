"""Unit tests for task/taskset JSON round-trips."""

import pytest

from repro.experiments import paper_taskset
from repro.model import (
    Mode,
    Task,
    TaskSet,
    task_from_dict,
    task_to_dict,
    taskset_from_dict,
    taskset_from_json,
    taskset_to_dict,
    taskset_to_json,
)


class TestTaskRoundTrip:
    def test_roundtrip_preserves_everything(self):
        t = Task("x", wcet=1.5, period=10, deadline=7, mode=Mode.FS)
        assert task_from_dict(task_to_dict(t)) == t

    def test_dict_shape(self):
        d = task_to_dict(Task("x", 1, 10))
        assert d == {
            "name": "x",
            "wcet": 1.0,
            "period": 10.0,
            "deadline": 10.0,
            "mode": "NF",
        }

    def test_missing_mode_defaults_to_nf(self):
        t = task_from_dict({"name": "x", "wcet": 1, "period": 10})
        assert t.mode is Mode.NF

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            task_from_dict({"name": "x", "wcet": 1, "period": 10, "mode": "XX"})


class TestTaskSetRoundTrip:
    def test_json_roundtrip_paper_set(self):
        ts = paper_taskset()
        assert taskset_from_json(taskset_to_json(ts)) == ts

    def test_dict_roundtrip_empty(self):
        assert taskset_from_dict(taskset_to_dict(TaskSet())) == TaskSet()

    def test_schema_version_present(self):
        assert taskset_to_dict(TaskSet())["schema"] == 1

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            taskset_from_dict({"schema": 99, "tasks": []})

    def test_json_is_stable_text(self):
        ts = TaskSet([Task("a", 1, 4)])
        assert taskset_to_json(ts) == taskset_to_json(ts)



class TestJitter:
    """No analysis accounts for release jitter, so a set that declares it
    must not load and then be designed as if it had none."""

    @staticmethod
    def _data(**extra):
        return {"schema": 1, "tasks": [
            {"name": "a", "wcet": 4, "period": 10, "mode": "FT", **extra},
            {"name": "b", "wcet": 2, "period": 20, "mode": "FS"},
            {"name": "c", "wcet": 3, "period": 15, "mode": "NF"},
        ]}

    def test_nonzero_jitter_rejected_naming_the_task(self):
        with pytest.raises(ValueError, match="task 'a'.*jitter"):
            taskset_from_dict(self._data(jitter=7))

    def test_absent_or_zero_jitter_loads(self):
        expected = TaskSet([
            Task("a", 4, 10, mode=Mode.FT),
            Task("b", 2, 20, mode=Mode.FS),
            Task("c", 3, 15, mode=Mode.NF),
        ])
        assert taskset_from_dict(self._data()) == expected
        assert taskset_from_dict(self._data(jitter=0)) == expected
        assert taskset_from_dict(self._data(jitter=0.0)) == expected
