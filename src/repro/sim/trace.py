"""Simulation traces: execution slices, events, metrics, ASCII Gantt.

A :class:`SimTrace` is built one of two ways. The global simulator builds
it eagerly, one :meth:`~SimTrace.add_slice` and :meth:`~SimTrace.log` at a
time. The partitioned simulators defer it (:meth:`SimTrace.deferred`): they
record what ran in their own columns, log only the rare events as they
happen, and hand over a function that assembles the ``slices`` and
``events`` lists from those records. The lists are assembled on their
first read and are plain lists from then on, so a fault campaign, which
reads only the misses and the aborts, never builds one.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.model import Job, Mode
from repro.util import EPS


class SimEventKind(enum.Enum):
    """Discrete events recorded by the simulators."""

    RELEASE = "release"
    COMPLETION = "completion"
    DEADLINE_MISS = "deadline_miss"
    ABORT = "abort"
    FAULT = "fault"
    MODE_SWITCH = "mode_switch"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class SimEvent:
    """One timestamped event. ``who`` is a job name, task name or core id."""

    time: float
    kind: SimEventKind
    who: str
    detail: str = ""

    def __repr__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{self.time:10.4f}] {self.kind:<14} {self.who}{extra}"


#: Sort key of every trace's events: time, then kind, then who. It reads the
#: kind's ``_value_`` slot, which is what the ``value`` property returns, so
#: the order is the ``(e.time, e.kind.value, e.who)`` order without a
#: property call per event. Sorts with it are stable: events with equal keys
#: keep their insertion order.
EVENT_ORDER = operator.attrgetter("time", "kind._value_", "who")


@dataclass(frozen=True)
class ExecutionSlice:
    """A maximal interval during which one job ran uninterrupted."""

    processor: str  # e.g. "NF[2]"
    job: str        # e.g. "tau4#3"
    task: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Slice length."""
        return self.end - self.start


#: The event kinds a deferred trace answers for before it is built: rare,
#: logged as they happen, and all a fault campaign's verdict reads.
LOGGED_KINDS = frozenset({SimEventKind.DEADLINE_MISS, SimEventKind.ABORT})


@dataclass
class SimTrace:
    """Aggregated output of a simulation run.

    A deferred trace (see :meth:`deferred`) has no ``slices`` or ``events``
    attribute until one of them is read; that read builds both.
    """

    horizon: float
    slices: list[ExecutionSlice] = field(default_factory=list)
    events: list[SimEvent] = field(default_factory=list)

    # A deferred trace's builder and logged events, until it is built. Not
    # fields: the constructor, ``==`` and ``repr`` see only the lists.
    _build = None
    _logged = None

    @classmethod
    def deferred(
        cls,
        horizon: float,
        build: Callable[[], tuple[list[ExecutionSlice], list[SimEvent]]],
        logged: list[SimEvent] | None = None,
    ) -> "SimTrace":
        """A trace whose ``slices`` and ``events`` ``build()`` returns.

        ``build`` runs once, on the first read of either list; its events
        may come in any order and are sorted then by :data:`EVENT_ORDER`.
        ``logged``, when given, holds every event of the
        :data:`LOGGED_KINDS` that ``build`` will return, in the same
        relative order: until the trace is built, :meth:`events_of` reads
        those kinds from it. Filtering a stable-sorted list gives the same
        result as stable-sorting the filtered list, so the answer is the
        same either way.
        """
        trace = cls.__new__(cls)
        trace.horizon = horizon
        trace._build = build
        trace._logged = logged
        return trace

    def __getattr__(self, name: str):
        # Normal lookup failed: a deferred trace's lists before their first
        # read. Build both, and keep them as plain attributes.
        if name not in ("slices", "events") or self._build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        slices, events = self._build()
        events.sort(key=EVENT_ORDER)
        self.slices, self.events = slices, events
        self._build = self._logged = None
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        # A builder is a closure, which does not pickle: copy the lists.
        return {"horizon": self.horizon, "slices": self.slices, "events": self.events}

    def add_slice(self, s: ExecutionSlice) -> None:
        """Append an execution slice, merging with a contiguous predecessor."""
        if (
            self.slices
            and self.slices[-1].processor == s.processor
            and self.slices[-1].job == s.job
            and abs(self.slices[-1].end - s.start) <= EPS
        ):
            prev = self.slices[-1]
            self.slices[-1] = ExecutionSlice(
                prev.processor, prev.job, prev.task, prev.start, s.end
            )
        else:
            self.slices.append(s)

    def log(self, time: float, kind: SimEventKind, who: str, detail: str = "") -> None:
        """Record an event."""
        self.events.append(SimEvent(time, kind, who, detail))

    # -- queries ------------------------------------------------------------------

    def events_of(self, kind: SimEventKind) -> list[SimEvent]:
        """All events of one kind, in time order."""
        if self._logged is not None and kind in LOGGED_KINDS:
            return sorted(
                (e for e in self._logged if e.kind is kind), key=EVENT_ORDER
            )
        return [e for e in self.events if e.kind is kind]

    def misses(self) -> list[SimEvent]:
        """All deadline-miss events."""
        return self.events_of(SimEventKind.DEADLINE_MISS)

    def slices_on(self, processor: str) -> list[ExecutionSlice]:
        """Execution slices of one logical processor."""
        return [s for s in self.slices if s.processor == processor]

    def busy_time(self, processor: str | None = None) -> float:
        """Total executed time (optionally restricted to one processor)."""
        return sum(
            s.duration
            for s in self.slices
            if processor is None or s.processor == processor
        )

    def task_execution(self, task: str) -> float:
        """Total time executed on behalf of one task."""
        return sum(s.duration for s in self.slices if s.task == task)

    def merge(self, other: "SimTrace") -> None:
        """Fold another trace into this one (events re-sorted by time)."""
        self.slices.extend(other.slices)
        self.events.extend(other.events)
        self.events.sort(key=EVENT_ORDER)

    # -- rendering ------------------------------------------------------------------

    def gantt(
        self,
        *,
        start: float = 0.0,
        end: float | None = None,
        width: int = 100,
        processors: Iterable[str] | None = None,
    ) -> str:
        """ASCII Gantt chart of ``[start, end)`` with one row per processor.

        Each column covers ``(end-start)/width`` time; the cell shows the
        first character(s) of the task that ran the majority of the column
        (``.`` = idle/unavailable).
        """
        end = end if end is not None else self.horizon
        if end <= start:
            raise ValueError(f"empty gantt range [{start}, {end})")
        procs = sorted(
            set(s.processor for s in self.slices)
            if processors is None
            else set(processors)
        )
        col_w = (end - start) / width
        lines = [f"t = [{start:g}, {end:g})  ({col_w:g} per column)"]
        for proc in procs:
            cells = []
            slices = self.slices_on(proc)
            for c in range(width):
                a = start + c * col_w
                b = a + col_w
                # Majority task in [a, b).
                best_task, best_time = None, 0.0
                for s in slices:
                    overlap = min(b, s.end) - max(a, s.start)
                    if overlap > best_time:
                        best_task, best_time = s.task, overlap
                if best_task is None:
                    cells.append(".")
                else:
                    label = best_task[-1] if best_task[-1].isdigit() else best_task[0]
                    cells.append(label)
            lines.append(f"{proc:<8}|{''.join(cells)}|")
        return "\n".join(lines)
