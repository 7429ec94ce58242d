"""Cores, lock-step channels, and the checker's fault semantics.

A *channel* is a group of cores executing the same code in lock-step and
appearing to the scheduler as one logical processor. The checker observes
every channel's outputs and applies the Section 2.4 semantics when a single
transient fault hits one member core:

* 4-way redundant lock-step (FT): majority voting over 4 (or the 3
  fault-free) outputs masks the fault — the channel keeps running and never
  emits a wrong value;
* 2-way lock-step (FS): the two outputs disagree; the checker blocks the
  channel's bus access (fail-silent) before the wrong value reaches memory;
* single core (NF): nothing observes the fault — the running job's output
  is silently corrupted.

:meth:`LockstepChannel.fault_effect` gives that outcome for one channel.
The simulators classify a strike by the channel that holds the struck core
in the layout of the mode in force (:func:`repro.platform.modes.layout_for`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FaultEffect(enum.Enum):
    """The checker's outcome for a single transient fault hitting a channel."""

    MASKED = "masked"          #: majority vote hid the fault (FT)
    SILENCED = "silenced"      #: mismatch detected, channel blocked (FS)
    CORRUPTED = "corrupted"    #: undetected wrong output (NF)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Core:
    """One physical core of the platform."""

    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or self.index < 0:
            raise ValueError(
                f"core index must be a nonnegative int: got {self.index}"
            )


@dataclass(frozen=True)
class LockstepChannel:
    """A group of cores appearing as one logical processor.

    Attributes
    ----------
    cores:
        Member core indices (>= 1 core; the paper's chip uses widths 1, 2
        and 4, but larger platforms group more).
    voting:
        True when the channel has enough redundancy to *mask* a single fault
        by majority (the paper's 4-way redundant lock-step; 3 cores would
        also suffice, see the Section 2.4 remark).
    """

    cores: tuple[int, ...]
    voting: bool = False

    def __post_init__(self) -> None:
        if len(self.cores) < 1:
            raise ValueError("channel must group at least one core")
        if len(set(self.cores)) != len(self.cores):
            raise ValueError(f"duplicate cores in channel: {self.cores}")
        for c in self.cores:
            if not isinstance(c, int) or c < 0:
                raise ValueError(
                    f"core index must be a nonnegative int: got {c}"
                )
        if self.voting and len(self.cores) < 3:
            raise ValueError(
                "majority voting needs at least 3 lock-stepped cores"
            )

    @property
    def width(self) -> int:
        """Number of member cores."""
        return len(self.cores)

    def contains(self, core: int) -> bool:
        """Whether the physical core belongs to this channel."""
        return core in self.cores

    def fault_effect(self) -> FaultEffect:
        """The checker's outcome when a single member core suffers a soft error."""
        if self.voting:
            return FaultEffect.MASKED
        if self.width >= 2:
            return FaultEffect.SILENCED
        return FaultEffect.CORRUPTED
