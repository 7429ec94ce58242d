"""JSON-friendly serialization of tasks and task sets.

Round-trips :class:`~repro.model.task.Task` and
:class:`~repro.model.taskset.TaskSet` through plain dicts/JSON so workloads
can be stored next to experiment results.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.model.task import Mode, Task
from repro.model.taskset import TaskSet

_SCHEMA_VERSION = 1


def _check_object(what: str, data: Any) -> None:
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object: got {data!r}")


def task_to_dict(task: Task) -> dict[str, Any]:
    """Serialize a task to a plain dict."""
    return {
        "name": task.name,
        "wcet": task.wcet,
        "period": task.period,
        "deadline": task.deadline,
        "mode": task.mode.value,
    }


def task_from_dict(data: Mapping[str, Any]) -> Task:
    """Deserialize a task from :func:`task_to_dict` output.

    A nonzero ``"jitter"`` is rejected: no analysis accounts for release
    jitter, so accepting it would report a guarantee that does not hold.
    """
    _check_object("a task", data)
    try:
        mode = Mode(data.get("mode", "NF"))
    except ValueError as exc:
        raise ValueError(f"unknown mode {data.get('mode')!r}") from exc
    if data.get("jitter", 0):
        raise ValueError(
            f"task {data.get('name')!r}: release jitter "
            f"{data['jitter']!r} is not supported (only 0)"
        )
    return Task(
        name=data["name"],
        wcet=data["wcet"],
        period=data["period"],
        deadline=data.get("deadline"),
        mode=mode,
    )


def taskset_to_dict(taskset: TaskSet) -> dict[str, Any]:
    """Serialize a task set (with schema version for forward compatibility)."""
    return {
        "schema": _SCHEMA_VERSION,
        "tasks": [task_to_dict(t) for t in taskset],
    }


def taskset_from_dict(data: Mapping[str, Any]) -> TaskSet:
    """Deserialize a task set from :func:`taskset_to_dict` output."""
    _check_object("a task set", data)
    schema = data.get("schema", _SCHEMA_VERSION)
    if schema != _SCHEMA_VERSION:
        raise ValueError(f"unsupported taskset schema version: {schema}")
    return TaskSet(task_from_dict(td) for td in data["tasks"])


def taskset_to_json(taskset: TaskSet, *, indent: int | None = 2) -> str:
    """Serialize a task set to a JSON string."""
    return json.dumps(taskset_to_dict(taskset), indent=indent)


def taskset_from_json(text: str) -> TaskSet:
    """Deserialize a task set from :func:`taskset_to_json` output."""
    return taskset_from_dict(json.loads(text))
