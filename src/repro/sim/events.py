"""The event queue of the online simulation engine.

:class:`repro.sim.online.OnlineSim` (runtime arrivals/departures, live
admission, failure-triggered re-assignment) drives its discrete dynamics
through one :class:`EventQueue`. (The offline
:class:`repro.sim.multicore.MulticoreSim` knows its tasks and faults
upfront and handles its strikes in one stable sort by time, the order this
queue pops same-kind events in.) The queue is a plain binary heap with a
**total deterministic order**:

``(time, kind priority, insertion sequence)``

* events pop in nondecreasing time;
* at equal times, the :class:`EventKind` priority breaks the tie — platform
  state changes (core death) are observed before the fault strikes they
  explain, departures free bandwidth before the same instant's admissions
  consume it, and re-assigned orphans (who held an admission before the
  failure) re-admit ahead of brand-new arrivals;
* at equal ``(time, kind)``, events pop in insertion order (FIFO).

No wall clock, no randomness: given the same pushes, every drain is
identical, which is what lets campaign points built on the engine keep
the runner's bit-identical ``(workers, batch, shard)`` contract.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Iterator


class EventKind(enum.IntEnum):
    """Discrete simulation events; the int value is the same-time priority."""

    #: A core fails permanently (``PermanentScenario``'s onset).
    CORE_DEATH = 0
    #: A transient soft error strikes one core.
    FAULT_STRIKE = 1
    #: A task leaves the system and releases its bandwidth.
    DEPARTURE = 2
    #: A re-assignment attempt for a task orphaned by a core death.
    REASSIGN = 3
    #: A task enters the system.
    ARRIVAL = 4

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Event:
    """One timestamped simulation event.

    ``data`` carries the kind-specific payload (a task, a fault, a core
    index, ...) and never participates in the ordering.
    """

    time: float
    kind: EventKind
    data: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.time, (int, float)) or isinstance(self.time, bool):
            raise TypeError(f"event time must be a number: got {self.time!r}")
        if not math.isfinite(self.time):
            raise ValueError(f"event time must be finite: got {self.time!r}")
        if self.time < 0:
            raise ValueError(f"event time must be >= 0: got {self.time!r}")
        if not isinstance(self.kind, EventKind):
            raise TypeError(f"event kind must be an EventKind: got {self.kind!r}")


class EventQueue:
    """A deterministic min-heap of :class:`Event`.

    Orders by ``(time, kind priority, insertion sequence)``; pushing during
    a drain is allowed (the online engine schedules departures and
    re-assignments from inside its handlers).
    """

    def __init__(self, events: "Iterator[Event] | list[Event] | tuple[Event, ...]" = ()):
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        for ev in events:
            self.push(ev)

    def push(self, event: Event) -> None:
        """Insert one event (FIFO among equal ``(time, kind)`` keys)."""
        if not isinstance(event, Event):
            raise TypeError(f"expected an Event: got {event!r}")
        heapq.heappush(
            self._heap, (event.time, int(event.kind), self._seq, event)
        )
        self._seq += 1

    def push_at(self, time: float, kind: EventKind, data: Any = None) -> Event:
        """Build and insert an event; returns it."""
        ev = Event(time, kind, data)
        self.push(ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the next event (IndexError when empty)."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Event:
        """The next event without removing it (IndexError when empty)."""
        if not self._heap:
            raise IndexError("peek into an empty EventQueue")
        return self._heap[0][3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self, until: float | None = None) -> Iterator[Event]:
        """Pop events in order; stop (leaving the rest) at ``time >= until``.

        Handlers may :meth:`push` while iterating — newly scheduled events
        join the drain in their proper order (including at the current
        instant, where the kind/FIFO rules still apply).
        """
        while self._heap:
            if until is not None and self._heap[0][0] >= until:
                return
            yield heapq.heappop(self._heap)[3]


__all__ = ["Event", "EventKind", "EventQueue"]
