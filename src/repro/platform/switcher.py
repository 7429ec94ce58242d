"""Mode-switch controller: walking a slot schedule over simulated time.

Turns a :class:`~repro.core.config.SlotSchedule` into the concrete timeline
of Figure 2 — for every major cycle, each mode's usable window, the
switch-out overhead window at the slot tail, and any idle reserve at the end
of the cycle. The multicore simulator consumes each mode's usable windows
(:meth:`ModeSwitchController.usable_windows`). Both simulators find what
the platform was doing at a fault instant with
:meth:`ModeSwitchController.entry_at`, the one lookup of an instant's
cycle-template entry: the offline one indexes its per-entry fault effects
by it, and :meth:`ModeSwitchController.segment_at` builds on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.core.config import SlotSchedule
from repro.model import Mode
from repro.platform.modes import ModeLayout, layout_for
from repro.util import EPS, check_nonneg, check_positive


class SegmentKind(enum.Enum):
    """What the platform is doing during a timeline segment."""

    USABLE = "usable"       #: a mode's tasks may execute
    OVERHEAD = "overhead"   #: switching out of the mode (state sync, storing)
    IDLE = "idle"           #: unallocated reserve at the end of the cycle

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Segment:
    """A maximal timeline interval with constant platform behaviour.

    ``mode`` is None for idle segments (no channel layout is guaranteed
    during reserve time; we treat faults there as harmless).
    """

    start: float
    end: float
    kind: SegmentKind
    mode: Mode | None
    cycle: int

    @property
    def duration(self) -> float:
        """Segment length."""
        return self.end - self.start

    def __repr__(self) -> str:
        who = str(self.mode) if self.mode is not None else "-"
        return f"Segment[{self.start:.4f},{self.end:.4f}) {self.kind} {who} (cycle {self.cycle})"


class ModeSwitchController:
    """Expands a slot schedule into the platform timeline.

    Parameters
    ----------
    schedule:
        Any object exposing ``period`` and ``cycle_template()``, such as
        :class:`~repro.core.config.SlotSchedule`.
    """

    def __init__(self, schedule: SlotSchedule):
        self._schedule = schedule
        # The schedule's kind strings are SegmentKind values.
        self._template: list[tuple[float, float, SegmentKind, Mode | None]] = [
            (a, b, SegmentKind(kind), mode)
            for a, b, kind, mode in schedule.cycle_template()
        ]
        # Half-open bounds: an entry's segment holds lo <= rel < hi.
        self._bounds = [(a - EPS, b - EPS) for a, b, _, _ in self._template]

    @property
    def schedule(self) -> SlotSchedule:
        """The underlying slot schedule."""
        return self._schedule

    def layout_at(self, mode: Mode, core_count: int = 4) -> ModeLayout:
        """Channel layout installed while serving ``mode``."""
        return layout_for(mode, core_count)

    def segments(self, horizon: float) -> Iterator[Segment]:
        """All segments of ``[0, horizon)``, in time order (clipped at the end)."""
        check_positive("horizon", horizon)
        period = self._schedule.period
        cycle = 0
        base = 0.0
        while base < horizon - EPS:
            for rel_a, rel_b, kind, mode in self._template:
                a, b = base + rel_a, base + rel_b
                if a >= horizon - EPS:
                    break
                yield Segment(a, min(b, horizon), kind, mode, cycle)
            cycle += 1
            base = cycle * period

    def usable_windows(self, mode: Mode, horizon: float) -> list[tuple[float, float]]:
        """The mode's usable windows within ``[0, horizon)`` (simulator input).

        Exactly the ``(start, end)`` of the mode's usable :meth:`segments`,
        read off the cycle template without building them: the same
        ``cycle * period + rel`` arithmetic and the same ``horizon - EPS``
        cut. :meth:`segments` stops a cycle at its first entry that starts
        past the cut, so an entry is kept only while every entry up to it
        starts before the cut; ``gate`` is the latest of those starts.
        """
        check_positive("horizon", horizon)
        period = self._schedule.period
        cut = horizon - EPS
        entries = []
        gate = float("-inf")
        for rel_a, rel_b, kind, m in self._template:
            gate = max(gate, rel_a)
            if kind is SegmentKind.USABLE and m is mode:
                entries.append((gate, rel_a, rel_b))
        windows: list[tuple[float, float]] = []
        cycle = 0
        base = 0.0
        while base < cut:
            for gate, rel_a, rel_b in entries:
                if base + gate >= cut:
                    break
                windows.append((base + rel_a, min(base + rel_b, horizon)))
            cycle += 1
            base = cycle * period
        return windows

    def entry_at(self, t: float) -> tuple[int, int]:
        """The cycle-template entry whose segment holds time ``t >= 0``.

        Returns ``(entry, cycle)``: ``entry`` indexes the schedule's
        ``cycle_template()``, and the segment spans ``rel_a`` to ``rel_b``
        of that entry, offset by ``cycle * period``. Boundary convention: a
        boundary instant belongs to the *starting* segment (half-open
        segments), matching the simulator's event order.
        """
        check_nonneg("t", t)
        period = self._schedule.period
        cycle = int(t // period)
        rel = t - cycle * period
        # Guard against rel == period from float division artifacts.
        if rel >= period - EPS and self._bounds:
            cycle += 1
            rel = 0.0
        for entry, (lo, hi) in enumerate(self._bounds):
            if lo <= rel < hi:
                return entry, cycle
        # rel fell into the final sliver before the next cycle (float noise):
        return len(self._bounds) - 1, cycle

    def segment(self, entry: int, cycle: int) -> Segment:
        """Cycle ``cycle``'s segment of cycle-template entry ``entry``."""
        rel_a, rel_b, kind, mode = self._template[entry]
        base = cycle * self._schedule.period
        return Segment(base + rel_a, base + rel_b, kind, mode, cycle)

    def segment_at(self, t: float) -> Segment:
        """The segment containing time ``t >= 0`` (see :meth:`entry_at`)."""
        return self.segment(*self.entry_at(t))

    def mode_at(self, t: float) -> Mode | None:
        """The operating mode active at ``t`` (None during idle reserve)."""
        return self.segment_at(t).mode
