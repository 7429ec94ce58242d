"""Full-platform simulation: slots, channels, schedulers, faults.

:class:`MulticoreSim` executes a designed platform end-to-end:

1. the :class:`~repro.platform.switcher.ModeSwitchController` expands the
   slot schedule into per-mode usable windows, one walk of the cycle
   template per mode;
2. a deterministic :class:`~repro.sim.events.EventQueue` is drained:
   every task arrives at t=0 (offline is the event core's special case)
   and injected faults are strike events, classified through the checker
   semantics of the mode active at the fault instant (mask / silence /
   corrupt / harmless);
3. every logical processor of every mode runs its partition bin with the
   local scheduler inside its windows — fail-silent faults black out the
   remainder of the silenced channel's slot and abort the running job;
4. fault victims are resolved against what each processor ran: an NF
   corruption hits whatever job occupied the core at the fault instant
   (a bisection over the processor's slice columns), a silenced fault the
   job its abort killed (each processor's abort events are collected once);
5. the run's trace is deferred: when first read, every processor's events,
   in processor order, and then the fault events of the final records are
   sorted once, stably, into it. Results are aggregated into deadline,
   response-time and fault statistics; the deadline misses join the
   processors' misses without building any trace.

A run's cost follows its events: cycles × windows for the timeline and
one uniprocessor step per release, completion, abort or window edge. The
merged trace costs one sort, paid only by a caller that reads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from repro.core.config import PlatformConfig, SlotSchedule
from repro.faults.model import Fault, FaultOutcome, FaultRecord
from repro.model import Mode, PartitionedTaskSet, TaskSet
from repro.platform.hardware import FaultEffect
from repro.platform.modes import layout_for
from repro.platform.switcher import ModeSwitchController, SegmentKind
from repro.sim.events import EventKind, EventQueue
from repro.sim.scheduler import make_policy
from repro.sim.trace import (
    EVENT_ORDER,
    ExecutionSlice,
    SimEvent,
    SimEventKind,
    SimTrace,
)
from repro.sim.uniproc import (
    UniprocResult,
    simulate_uniproc,
    subtract_blackouts,
)
from repro.util import EPS, check_positive, lcm_fractions, to_fraction

_EFFECT_TO_OUTCOME = {
    FaultEffect.MASKED: FaultOutcome.MASKED,
    FaultEffect.SILENCED: FaultOutcome.SILENCED,
    FaultEffect.CORRUPTED: FaultOutcome.CORRUPTED,
}


@functools.cache
def _proc_key(mode: Mode, index: int) -> str:
    # Cached: the format goes through Enum.__format__, and a run asks for
    # one processor's key once per fault on it.
    return f"{mode}[{index}]"


@dataclass
class MulticoreResult:
    """Aggregated outcome of a platform simulation run."""

    horizon: float
    schedule: SlotSchedule
    processors: dict[str, UniprocResult]
    trace: SimTrace
    fault_records: list[FaultRecord] = field(default_factory=list)

    @property
    def misses(self) -> list[SimEvent]:
        """All deadline-miss events across processors, in trace order.

        The processors' misses in processor order, sorted once: the misses
        of the merged trace, which this does not build.
        """
        misses = [e for res in self.processors.values() for e in res.misses]
        misses.sort(key=EVENT_ORDER)
        return misses

    @property
    def miss_count(self) -> int:
        """Total number of deadline misses."""
        return len(self.misses)

    def misses_by_task(self) -> dict[str, int]:
        """Deadline misses grouped by task name."""
        out: dict[str, int] = {}
        for e in self.misses:
            task = e.who.split("#")[0]
            out[task] = out.get(task, 0) + 1
        return out

    def corrupted_jobs(self) -> list[str]:
        """Jobs whose outputs were silently corrupted (NF faults)."""
        return [
            r.victim for r in self.fault_records
            if r.outcome is FaultOutcome.CORRUPTED and r.victim
        ]

    def aborted_jobs(self) -> list[str]:
        """Jobs killed by fail-silent channel shutdowns."""
        out = []
        for res in self.processors.values():
            out.extend(j.name for j in res.aborted)
        return out

    def fault_summary(self) -> dict[FaultOutcome, int]:
        """Histogram of fault outcomes."""
        out = {o: 0 for o in FaultOutcome}
        for r in self.fault_records:
            out[r.outcome] += 1
        return out

    def worst_response_times(self) -> dict[str, float]:
        """Largest observed response time per task (completed jobs only)."""
        out: dict[str, float] = {}
        for res in self.processors.values():
            for task, rts in res.response_times().items():
                out[task] = max(out.get(task, 0.0), max(rts))
        return out

    def availability_windows(self, mode: Mode) -> list[tuple[float, float]]:
        """The usable windows the platform granted to a mode (fault-free view)."""
        controller = ModeSwitchController(self.schedule)
        return controller.usable_windows(mode, self.horizon)


class MulticoreSim:
    """Simulator of the flexible multicore platform for one designed config.

    The offline special case of the event-driven core: every task arrives
    at t=0 (an :class:`~repro.sim.events.EventKind.ARRIVAL` event per task)
    and the injected faults are
    :class:`~repro.sim.events.EventKind.FAULT_STRIKE` events, all drained
    from one deterministic :class:`~repro.sim.events.EventQueue` before the
    per-processor schedules run. The online engine
    (:mod:`repro.sim.online`) shares the same queue but feeds it runtime
    arrivals, departures and core deaths.

    Parameters
    ----------
    partition:
        The per-mode, per-processor task partition.
    config:
        A :class:`PlatformConfig` (from the design pipeline) or a raw
        :class:`SlotSchedule`.
    algorithm:
        Local scheduler; defaults to the config's algorithm (required when a
        raw schedule is given).
    core_count:
        Number of physical cores; defaults to the config's ``core_count``
        (a raw :class:`SlotSchedule` defaults to the paper's 4).
    """

    def __init__(
        self,
        partition: PartitionedTaskSet,
        config: PlatformConfig | SlotSchedule,
        algorithm: str | None = None,
        *,
        core_count: int | None = None,
    ):
        if isinstance(config, PlatformConfig):
            self._schedule = config.schedule
            algorithm = algorithm or config.algorithm
            if core_count is None:
                core_count = config.core_count
        else:
            self._schedule = config
        if algorithm is None:
            raise ValueError("algorithm is required when passing a raw SlotSchedule")
        self._alg = algorithm.upper()
        self._partition = partition
        self._controller = ModeSwitchController(self._schedule)
        self._core_count = 4 if core_count is None else int(core_count)

    @property
    def core_count(self) -> int:
        """Number of physical cores the simulated platform has."""
        return self._core_count

    @property
    def schedule(self) -> SlotSchedule:
        """The slot schedule being simulated."""
        return self._schedule

    def default_horizon(self, *, cycles_cap: int = 2000) -> float:
        """Two task hyperperiods, rounded up to whole platform cycles.

        Capped at ``cycles_cap`` platform cycles to keep pathological
        hyperperiods tractable.
        """
        tasks = self._partition.all_tasks()
        if len(tasks) == 0:
            return 10.0 * self._schedule.period
        h = float(lcm_fractions([to_fraction(t.period) for t in tasks]))
        p = self._schedule.period
        n_cycles = min(int(2.0 * h / p) + 1, cycles_cap)
        return max(n_cycles, 1) * p

    # -- fault classification ----------------------------------------------------

    def classify_fault(self, fault: Fault) -> tuple[FaultOutcome, Mode | None, int | None, object]:
        """Checker view of a fault: (outcome, mode, channel index, segment)."""
        if not 0 <= fault.core < self._core_count:
            raise ValueError(
                f"fault on core {fault.core} is outside the simulated "
                f"platform's cores 0..{self._core_count - 1}: regenerate "
                f"the fault stream with core_count={self._core_count}"
            )
        seg = self._controller.segment_at(fault.time)
        if seg.kind is not SegmentKind.USABLE or seg.mode is None:
            return FaultOutcome.HARMLESS, seg.mode, None, seg
        layout = layout_for(seg.mode, self._core_count)
        for idx, channel in enumerate(layout.channels):
            if channel.contains(fault.core):
                return _EFFECT_TO_OUTCOME[channel.fault_effect()], seg.mode, idx, seg
        raise AssertionError(
            f"layout for {seg.mode} does not cover core {fault.core}"
        )  # pragma: no cover - layouts are total by construction

    # -- main entry ----------------------------------------------------------------

    def run(
        self,
        horizon: float | None = None,
        *,
        faults: Sequence[Fault] = (),
        release_offsets: str | Mapping[str, float] = "zero",
    ) -> MulticoreResult:
        """Simulate ``[0, horizon)`` with optional fault injection.

        Parameters
        ----------
        horizon:
            Simulation length (default: :meth:`default_horizon`).
        faults:
            Transient faults to inject (times within the horizon).
        release_offsets:
            ``"zero"`` — synchronous release at t=0;
            ``"critical"`` — every task's first release is aligned with the
            *end* of its mode's first usable window (the supply-worst-case
            phasing used by Lemma 1);
            or an explicit per-task offset mapping.
        """
        horizon = horizon if horizon is not None else self.default_horizon()
        check_positive("horizon", horizon)

        # 1. drain the event queue: offline means every task arrives at
        # t=0 and every fault is a strike event. Equal-time strikes pop in
        # insertion order (the queue is FIFO per (time, kind)), matching
        # the stable time-sort of the pre-event-queue loop bit-for-bit.
        queue = EventQueue()
        bin_counts: dict[Mode, int] = {}
        for mode in Mode:
            bins = self._partition.bins(mode)
            bin_counts[mode] = len(bins)
            for idx, taskset in enumerate(bins):
                for task in taskset:
                    queue.push_at(0.0, EventKind.ARRIVAL, (mode, idx, task))
        for fault in faults:
            queue.push_at(fault.time, EventKind.FAULT_STRIKE, fault)

        arrivals: dict[tuple[Mode, int], list] = {}
        records: list[FaultRecord] = []
        aborts: dict[tuple[Mode, int], list[float]] = {}
        blackouts: dict[tuple[Mode, int], list[tuple[float, float]]] = {}
        for ev in queue.drain():
            if ev.kind is EventKind.ARRIVAL:
                mode, idx, task = ev.data
                arrivals.setdefault((mode, idx), []).append(task)
                continue
            fault = ev.data
            if fault.time >= horizon:
                raise ValueError(
                    f"fault at {fault.time} is beyond the horizon {horizon}"
                )
            outcome, mode, chan, seg = self.classify_fault(fault)
            if outcome is FaultOutcome.HARMLESS:
                records.append(
                    FaultRecord(
                        fault, outcome, mode, None,
                        detail=f"hit {seg.kind} time",
                    )
                )
                continue
            if outcome is FaultOutcome.MASKED:
                detail = "majority vote over redundant lock-step"
            elif outcome is FaultOutcome.SILENCED:
                key = (mode, chan)
                aborts.setdefault(key, []).append(fault.time)
                blackouts.setdefault(key, []).append((fault.time, seg.end))
                # The victim (running job) is filled in after simulation.
                detail = f"channel blocked until {seg.end:g}"
            else:  # CORRUPTED — resolved against the slice columns afterwards
                detail = "undetected soft error"
            records.append(
                FaultRecord(
                    fault, outcome, mode, _proc_key(mode, chan), detail=detail
                )
            )

        # 2. run every logical processor on the tasks the drain delivered
        processors: dict[str, UniprocResult] = {}
        for mode in Mode:
            windows = self._controller.usable_windows(mode, horizon)
            for idx in range(bin_counts[mode]):
                taskset = TaskSet(arrivals.get((mode, idx), ()))
                if len(taskset) == 0:
                    continue
                key = _proc_key(mode, idx)
                proc_windows = subtract_blackouts(
                    windows, blackouts.get((mode, idx), [])
                )
                offsets = self._resolve_offsets(release_offsets, mode, taskset)
                result = simulate_uniproc(
                    taskset,
                    make_policy(taskset, self._alg),
                    proc_windows,
                    horizon,
                    processor=key,
                    release_offsets=offsets,
                    abort_events=aborts.get((mode, idx), ()),
                )
                processors[key] = result

        # 3. resolve fault victims against what the processors ran
        final_records: list[FaultRecord] = []
        abort_log: dict[str, list[SimEvent]] = {}
        for rec in records:
            victim = None
            if (
                rec.outcome is FaultOutcome.CORRUPTED
                and rec.processor not in processors
            ):
                # The struck core hosts no tasks at all: nothing observable
                # was corrupted.
                rec = FaultRecord(
                    rec.fault, FaultOutcome.HARMLESS, rec.mode,
                    rec.processor, detail="core hosts no tasks",
                )
            if rec.processor in processors:
                res = processors[rec.processor]
                if rec.outcome is FaultOutcome.CORRUPTED:
                    job = res.running_job(rec.fault.time)
                    if job is None:
                        rec = FaultRecord(
                            rec.fault, FaultOutcome.HARMLESS, rec.mode,
                            rec.processor, detail="core was idle",
                        )
                    else:
                        # Mark the job object for downstream consumers.
                        job.corrupted = True
                        victim = job.name
                elif rec.outcome is FaultOutcome.SILENCED:
                    # The victim is the job the abort event killed at this time.
                    if rec.processor not in abort_log:
                        abort_log[rec.processor] = res.trace.events_of(
                            SimEventKind.ABORT
                        )
                    for e in abort_log[rec.processor]:
                        if abs(e.time - rec.fault.time) <= EPS:
                            victim = e.who
                            break
            if victim is not None:
                rec = FaultRecord(
                    rec.fault, rec.outcome, rec.mode, rec.processor,
                    victim=victim, detail=rec.detail,
                )
            final_records.append(rec)

        def build() -> tuple[list[ExecutionSlice], list[SimEvent]]:
            # Every processor's events in processor order, then the fault
            # events in record order. The trace's sort is stable, so events
            # with equal keys keep this order: the order that merging the
            # traces one by one and then logging the faults gave.
            slices = [s for res in processors.values() for s in res.trace.slices]
            events = [e for res in processors.values() for e in res.trace.events]
            events += [
                SimEvent(
                    rec.fault.time,
                    SimEventKind.FAULT,
                    f"core{rec.fault.core}",
                    f"{rec.outcome}"
                    + (f" victim={rec.victim}" if rec.victim else ""),
                )
                for rec in final_records
            ]
            return slices, events

        return MulticoreResult(
            horizon=horizon,
            schedule=self._schedule,
            processors=processors,
            trace=SimTrace.deferred(horizon, build),
            fault_records=final_records,
        )

    def _resolve_offsets(
        self,
        release_offsets: str | Mapping[str, float],
        mode: Mode,
        taskset,
    ) -> dict[str, float]:
        if isinstance(release_offsets, str):
            if release_offsets == "zero":
                return {}
            if release_offsets == "critical":
                # Worst-case phasing of Lemma 1: the window of interest starts
                # right when the mode's usable slot ends.
                _, slot_end = self._schedule.usable_window(mode)
                return {t.name: slot_end for t in taskset}
            raise ValueError(
                f"unknown release_offsets spec {release_offsets!r} "
                "(use 'zero', 'critical' or a mapping)"
            )
        return {t.name: float(release_offsets.get(t.name, 0.0)) for t in taskset}
