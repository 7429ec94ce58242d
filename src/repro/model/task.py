"""The sporadic task and the three operating modes of the paper.

A task is the immutable tuple ``(C_i, T_i, D_i, mode_i)`` of Section 2.3:
worst-case execution time, minimum inter-arrival time, relative constrained
deadline (``D_i <= T_i``) and the fault-robustness mode the task requires
(Section 2.2). Tasks are value objects — hashable, comparable, safe to use as
dict keys and set members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.util import check_positive


class Mode(enum.Enum):
    """Operating mode requested by a task (Section 2.2).

    * ``FT`` — fault-tolerant: executed while all four cores run in redundant
      lock-step; a single transient fault is masked by majority voting.
    * ``FS`` — fail-silent: executed on one of two dual lock-step channels;
      a fault is detected by output comparison and the channel is silenced.
    * ``NF`` — non-fault-tolerant: executed on one of four independent cores;
      no guarantee is given under faults.
    """

    FT = "FT"
    FS = "FS"
    NF = "NF"

    @property
    def parallelism(self) -> int:
        """Number of logical processors the platform offers in this mode."""
        return _PARALLELISM[self]

    @property
    def cores_per_channel(self) -> int:
        """Physical cores backing one logical processor in this mode."""
        return 4 // _PARALLELISM[self]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_PARALLELISM = {Mode.FT: 1, Mode.FS: 2, Mode.NF: 4}

#: Canonical slot ordering of the major cycle (Figure 2): FT, then FS, then NF.
MODE_ORDER: tuple[Mode, Mode, Mode] = (Mode.FT, Mode.FS, Mode.NF)


@dataclass(frozen=True, order=False)
class Task:
    """A sporadic real-time task ``(C, T, D, mode)``.

    Parameters
    ----------
    name:
        Unique identifier within a task set (e.g. ``"tau1"``).
    wcet:
        Worst-case execution time ``C_i`` (> 0).
    period:
        Minimum inter-arrival time ``T_i`` (> 0).
    deadline:
        Relative deadline ``D_i``; defaults to ``period`` (implicit deadline).
        Must satisfy ``0 < C_i <= D_i <= T_i`` (constrained deadlines, as
        assumed by the paper's analysis).
    mode:
        Required operating mode; defaults to :attr:`Mode.NF`.

    The model has no release jitter: the analysis (Eqs. 5, 9), ``minQ``
    and the simulator release every job at its arrival.
    """

    name: str
    wcet: float
    period: float
    deadline: float = field(default=None)  # type: ignore[assignment]
    mode: Mode = Mode.NF

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"task name must be a non-empty string: got {self.name!r}")
        check_positive("wcet", self.wcet)
        check_positive("period", self.period)
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        check_positive("deadline", self.deadline)
        if not isinstance(self.mode, Mode):
            raise TypeError(f"mode must be a Mode: got {self.mode!r}")
        if self.wcet > self.deadline:
            raise ValueError(
                f"task {self.name}: wcet ({self.wcet}) must not exceed "
                f"deadline ({self.deadline})"
            )
        if self.deadline > self.period:
            raise ValueError(
                f"task {self.name}: deadline ({self.deadline}) must not exceed "
                f"period ({self.period}) — the analysis assumes constrained deadlines"
            )
        # Normalise numeric fields to float so hashing/equality are stable
        # regardless of whether ints or floats were passed in.
        object.__setattr__(self, "wcet", float(self.wcet))
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "deadline", float(self.deadline))

    @property
    def utilization(self) -> float:
        """Utilization ``U_i = C_i / T_i``."""
        return self.wcet / self.period

    @property
    def density(self) -> float:
        """Density ``C_i / D_i`` (equals utilization for implicit deadlines)."""
        return self.wcet / self.deadline

    @property
    def implicit_deadline(self) -> bool:
        """True when ``D_i == T_i``."""
        return self.deadline == self.period

    def replace(self, **changes: Any) -> "Task":
        """Return a copy of this task with the given fields replaced."""
        kwargs = {
            "name": self.name,
            "wcet": self.wcet,
            "period": self.period,
            "deadline": self.deadline,
            "mode": self.mode,
        }
        kwargs.update(changes)
        return Task(**kwargs)

    def __repr__(self) -> str:
        dl = "" if self.implicit_deadline else f", D={self.deadline:g}"
        return f"Task({self.name}: C={self.wcet:g}, T={self.period:g}{dl}, {self.mode})"
