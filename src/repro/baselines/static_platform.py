"""Static (inflexible) platform configurations.

A static platform fixes one channel layout forever:

* ``ALL_FT`` — one 4-way redundant channel: every task is masked against
  faults, but the whole application must fit a single logical processor;
* ``ALL_FS`` — two fail-silent channels: capacity 2, but FT tasks only get
  detection, not masking;
* ``ALL_NF`` — four parallel cores: capacity 4, no protection at all.

:func:`evaluate_static` reports, per configuration, whether the task set is
schedulable and whether every task receives at least its required protection
level; :func:`compare_with_flexible` puts the paper's scheme side by side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core import DesignError, Overheads, design_platform
from repro.model import Mode, PartitionedTaskSet, TaskSet
from repro.partition import PartitionError, partition_by_modes, partition_tasks

#: Protection strength order: FT masks, FS detects, NF nothing.
_STRENGTH = {Mode.FT: 2, Mode.FS: 1, Mode.NF: 0}


class StaticKind(enum.Enum):
    """The three frozen configurations."""

    ALL_FT = "all-ft"
    ALL_FS = "all-fs"
    ALL_NF = "all-nf"

    @property
    def provided_mode(self) -> Mode:
        """Protection level every task receives under this configuration."""
        return {
            StaticKind.ALL_FT: Mode.FT,
            StaticKind.ALL_FS: Mode.FS,
            StaticKind.ALL_NF: Mode.NF,
        }[self]

    @property
    def processors(self) -> int:
        """Logical processors the configuration offers."""
        return self.provided_mode.parallelism

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class StaticReport:
    """Evaluation of one static configuration for a task set."""

    kind: StaticKind
    schedulable: bool
    protection_ok: bool
    under_protected: tuple[str, ...]
    capacity: int
    utilization: float
    detail: str = ""

    @property
    def acceptable(self) -> bool:
        """A configuration is acceptable only if it schedules *and* protects."""
        return self.schedulable and self.protection_ok


def evaluate_static(
    taskset: TaskSet,
    kind: StaticKind,
    algorithm: str = "EDF",
    *,
    admission: str | None = None,
) -> StaticReport:
    """Evaluate a static configuration for a mixed FT/FS/NF task set.

    Schedulability ignores the tasks' required modes (the static platform
    runs everything at its single protection level); the protection check
    then reports which tasks would be under-protected.
    """
    provided = kind.provided_mode
    under = tuple(
        t.name for t in taskset if _STRENGTH[t.mode] > _STRENGTH[provided]
    )
    admission = admission or ("edf" if algorithm.upper() == "EDF" else "rm")
    # Re-mode the tasks so the bin-packer sees one uniform class.
    uniform = TaskSet(t.replace(mode=provided) for t in taskset)
    try:
        partition_tasks(
            uniform,
            kind.processors,
            heuristic="worst-fit",
            admission=admission,
            decreasing=True,
        )
        schedulable = True
        detail = ""
    except PartitionError as exc:
        schedulable = False
        detail = str(exc)
    return StaticReport(
        kind=kind,
        schedulable=schedulable,
        protection_ok=not under,
        under_protected=under,
        capacity=kind.processors,
        utilization=taskset.utilization,
        detail=detail,
    )


@dataclass(frozen=True)
class FlexibleReport:
    """The flexible scheme's result on the same task set."""

    schedulable: bool
    protection_ok: bool  # by construction True when schedulable
    period: float | None
    detail: str = ""


def compare_with_flexible(
    taskset: TaskSet,
    algorithm: str = "EDF",
    overheads: Overheads | None = None,
    *,
    partition: PartitionedTaskSet | None = None,
) -> dict[str, StaticReport | FlexibleReport]:
    """Side-by-side: three static baselines vs the paper's flexible scheme.

    The flexible scheme is *acceptable* exactly when a design exists — by
    construction it always provides every task its required mode.
    """
    out: dict[str, StaticReport | FlexibleReport] = {}
    for kind in StaticKind:
        out[str(kind)] = evaluate_static(taskset, kind, algorithm)
    try:
        part = partition or partition_by_modes(taskset, admission="utilization")
        config = design_platform(
            part, algorithm, overheads or Overheads.zero()
        )
        out["flexible"] = FlexibleReport(
            schedulable=True, protection_ok=True, period=config.period
        )
    except (DesignError, PartitionError, ValueError) as exc:
        out["flexible"] = FlexibleReport(
            schedulable=False, protection_ok=True, period=None, detail=str(exc)
        )
    return out
