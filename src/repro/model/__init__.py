"""Sporadic real-time task model with fault-robustness modes.

Implements Section 2 of the paper: sporadic tasks ``(C_i, T_i, D_i)`` with a
required operating mode (FT / FS / NF), task sets with utilization and
hyperperiod queries, and run-time job instances used by the simulator.
"""

from repro.model.job import Job, JobState
from repro.model.partitioned import PartitionedTaskSet
from repro.model.serialization import (
    task_from_dict,
    task_to_dict,
    taskset_from_dict,
    taskset_from_json,
    taskset_to_dict,
    taskset_to_json,
)
from repro.model.task import MODE_ORDER, Mode, Task
from repro.model.taskset import TaskSet

__all__ = [
    "MODE_ORDER",
    "Mode",
    "Task",
    "TaskSet",
    "PartitionedTaskSet",
    "Job",
    "JobState",
    "task_to_dict",
    "task_from_dict",
    "taskset_to_dict",
    "taskset_from_dict",
    "taskset_to_json",
    "taskset_from_json",
]
