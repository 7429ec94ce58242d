"""Hierarchical wall-clock spans with an O(1) disabled path.

The telemetry layer answers "where did this run spend its time?" without
ever touching what the run *computes*: recorders hold wall-clock spans
(``time.perf_counter``), and none of that state is readable by the engine,
the accumulators, or the snapshot writer. Campaign snapshots are therefore
byte-identical with telemetry enabled or disabled
(``tests/invariance/test_matrix.py``). What a run *counts* lives in its
campaign record (:class:`repro.runner.stream.StreamStats`), not here.

Activation is **thread-local**: :func:`activate` installs a
:class:`Telemetry` recorder for the current thread only, so two server
jobs folding on different threads never cross-contaminate, and
:func:`span` is safe to sprinkle through hot paths — with no recorder
active it is a single thread-local read followed by a ``None`` check that
returns a shared no-op context manager without allocating.

Pool workers are separate processes: the engine passes an "enable
telemetry" flag in the batch payload, each worker records into a private
collector, and the per-batch :meth:`Telemetry.export` delta ships back
with the batch results to be :meth:`Telemetry.absorb`-ed into the parent
recorder under the ``worker/`` prefix — the same pattern the fast-kernel
counters established.

Span paths are ``/``-joined from the enclosing span stack, so
``with span("campaign"): with span("execute"): ...`` records the inner
time under ``campaign/execute``. When a :class:`TraceSink` is attached,
every finished span is also appended to the run's NDJSON trace.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Mapping, TextIO

#: Bump when the NDJSON trace record layout changes.
TRACE_SCHEMA = 1


class _Local(threading.local):
    """This thread's telemetry state.

    ``telemetry`` has a class-level default, so a thread that never
    activated a recorder reads ``None`` by plain attribute lookup. A bare
    :class:`threading.local` would raise and catch an ``AttributeError`` on
    every disabled call instead, which costs about six times as much.
    """

    telemetry: "Telemetry | None" = None


_local = _Local()


def active() -> "Telemetry | None":
    """The recorder installed for this thread, or None (disabled)."""
    return _local.telemetry


def enabled() -> bool:
    """Whether any recorder is active on this thread."""
    return _local.telemetry is not None


def activate(telemetry: "Telemetry | None") -> "Telemetry | None":
    """Install ``telemetry`` for this thread; returns the previous recorder."""
    previous = _local.telemetry
    _local.telemetry = telemetry
    return previous


class activated:
    """Context manager installing a recorder for the enclosed block."""

    def __init__(self, telemetry: "Telemetry | None"):
        self._telemetry = telemetry
        self._previous: "Telemetry | None" = None

    def __enter__(self) -> "Telemetry | None":
        self._previous = activate(self._telemetry)
        return self._telemetry

    def __exit__(self, *exc: object) -> None:
        activate(self._previous)


class _NullSpan:
    """Shared allocation-free span used while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> "Any":
    """A timed span on the active recorder; the shared no-op when disabled."""
    t = _local.telemetry
    if t is None:
        return NULL_SPAN
    return _Span(t, name, attrs)


class _Span:
    """One live span: pushes its name on enter, records duration on exit."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict[str, Any]):
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        stack = self._telemetry._stack
        path = "/".join(stack)
        stack.pop()
        self._telemetry._finish(path, self._start, end - self._start, self._attrs)
        return False


def _copy_mapping(source: Mapping[str, Any]) -> dict[str, Any]:
    """Snapshot a dict that another thread may be growing.

    Recorders are single-writer (the thread they are activated on) but may
    be *read* from other threads (the server's ``/jobs/{id}/telemetry``), and
    copying a dict mid-insert can raise ``RuntimeError``. A short retry is
    all that is needed — inserts are rare relative to reads.
    """
    for _ in range(8):
        try:
            return dict(source)
        except RuntimeError:
            continue
    return dict(source)  # last attempt; propagate if it still races


class Telemetry:
    """One run's recorder: span phase totals and CPU seconds.

    ``phases`` maps span *paths* to ``[count, total_seconds]``; the path is
    the ``/``-joined stack of enclosing span names, so the mapping is a
    collapsed flame graph of the run. Worker-collector exports fold in via
    :meth:`absorb` under a prefix, keeping parallel CPU time separate from
    the parent's wall-clock phases.
    """

    def __init__(self, sink: "TraceSink | None" = None):
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.phases: dict[str, list[float]] = {}
        self._stack: list[str] = []
        self._sink = sink
        #: CPU seconds absorbed from worker-process collectors.
        self.worker_cpu: float = 0.0

    # -- recording (single writer thread) ----------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def _finish(
        self, path: str, started: float, duration: float, attrs: dict[str, Any]
    ) -> None:
        slot = self.phases.get(path)
        if slot is None:
            self.phases[path] = [1, duration]
        else:
            slot[0] += 1
            slot[1] += duration
        if self._sink is not None:
            self._sink.span(path, started - self._t0, duration, attrs)

    def absorb(self, delta: Mapping[str, Any], prefix: str = "worker") -> None:
        """Fold a worker collector's :meth:`export` into this recorder."""
        for path, (n, total) in delta.get("phases", {}).items():
            key = f"{prefix}/{path}" if prefix else path
            slot = self.phases.get(key)
            if slot is None:
                self.phases[key] = [n, total]
            else:
                slot[0] += n
                slot[1] += total
        self.worker_cpu += float(delta.get("cpu_seconds", 0.0))

    # -- reading (any thread) ----------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds since the recorder was created."""
        return time.perf_counter() - self._t0

    @property
    def cpu_seconds(self) -> float:
        """This process's CPU seconds since creation plus absorbed worker CPU."""
        return (time.process_time() - self._cpu0) + self.worker_cpu

    def export(self) -> dict[str, Any]:
        """JSON-safe snapshot: phases, cpu/wall seconds."""
        return {
            "phases": {
                path: [int(slot[0]), slot[1]]
                for path, slot in _copy_mapping(self.phases).items()
            },
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
        }

    def phase_wall(self, path: str) -> float:
        """Total recorded wall seconds of one span path (0.0 if never seen)."""
        slot = self.phases.get(path)
        return float(slot[1]) if slot else 0.0


class TraceSink:
    """Append-only NDJSON trace writer (one JSON object per line).

    Line types: a ``meta`` header, one ``span`` record per finished span
    (path, start relative to the recorder epoch, duration, attrs), and a
    final ``summary`` holding the recorder's aggregate export — which is
    what :mod:`repro.telemetry.profile` prefers when present, so a
    truncated trace still profiles from its span records alone.
    """

    def __init__(self, path: "str | Path", **meta: Any):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: "TextIO | None" = self.path.open("w")
        self._write(
            {
                "type": "meta",
                "schema": TRACE_SCHEMA,
                "clock": "perf_counter",
                "unix_time": time.time(),
                **meta,
            }
        )

    def _write(self, record: Mapping[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def span(
        self, path: str, t0: float, duration: float, attrs: Mapping[str, Any]
    ) -> None:
        record: dict[str, Any] = {
            "type": "span",
            "path": path,
            "t0": round(t0, 6),
            "dur": round(duration, 6),
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._write(record)

    def record(self, record: Mapping[str, Any]) -> None:
        """Append one free-form record (must carry its own ``type``)."""
        self._write(dict(record))

    def close(self, telemetry: "Telemetry | None" = None) -> None:
        """Write the final summary (if a recorder is given) and close."""
        if self._handle is None:
            return
        if telemetry is not None:
            self._write({"type": "summary", **telemetry.export()})
        self._handle.close()
        self._handle = None


__all__ = [
    "NULL_SPAN",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceSink",
    "activate",
    "activated",
    "active",
    "enabled",
    "span",
]
