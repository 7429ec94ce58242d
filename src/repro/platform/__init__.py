"""Model of the 4-core reconfigurable lock-step platform (Section 2.4).

The hardware of Figure 1 — four identical cores behind a crossbar, with a
*checker* that compares core outputs, gates memory access, and reconfigures
the core grouping — is modelled at the level the paper's scheme needs:

* :mod:`repro.platform.hardware` — cores, lock-step channels, the checker's
  compare/vote/silence semantics;
* :mod:`repro.platform.modes` — the three channel layouts (FT: one 4-way
  redundant channel; FS: two 2-way fail-silent channels; NF: four
  independent cores);
* :mod:`repro.platform.switcher` — the mode-switch controller that walks a
  :class:`~repro.core.config.SlotSchedule` over time, yielding usable
  windows, overhead windows and idle reserve.

Cycle-level lock-step execution is *not* modelled: every property the paper
claims depends only on slot timing and on the checker's per-mode outcome for
a single transient fault (mask / silence / corrupt), which this model
captures exactly.
"""

from repro.platform.hardware import Checker, Core, FaultEffect, LockstepChannel
from repro.platform.modes import ModeLayout, layout_for, surviving_channels
from repro.platform.switcher import ModeSwitchController, Segment, SegmentKind

__all__ = [
    "Core",
    "LockstepChannel",
    "Checker",
    "FaultEffect",
    "ModeLayout",
    "layout_for",
    "surviving_channels",
    "ModeSwitchController",
    "Segment",
    "SegmentKind",
]
