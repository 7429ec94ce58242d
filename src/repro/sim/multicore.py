"""Full-platform simulation: slots, channels, schedulers, faults.

:class:`MulticoreSim` executes a designed platform end-to-end:

1. the :class:`~repro.platform.switcher.ModeSwitchController` expands the
   slot schedule into per-mode usable windows, one walk of the cycle
   template per mode;
2. the injected faults are handled in one stable sort by time. Each
   strike is classified from a table the simulator builds on its first
   classification: for each cycle-template entry, per core, the outcome
   and channel of the checker semantics of the mode it serves (mask /
   silence / corrupt / harmless). The controller's
   :meth:`~repro.platform.switcher.ModeSwitchController.entry_at` finds
   the strike's entry, which indexes the table; no segment is built;
3. every logical processor of every mode runs its partition bin with the
   local scheduler inside its windows — fail-silent faults black out the
   remainder of the silenced channel's slot and abort the running job;
4. fault victims are resolved against what each processor ran: an NF
   corruption hits whatever job occupied the core at the fault instant
   (a bisection over the processor's slice columns, which hold job ids),
   a silenced fault the job its abort killed (each processor's abort
   events are collected once). Each fault record is built once, with its
   victim;
5. the run's trace is deferred: when first read, every processor's events,
   in processor order, and then the fault events of the final records are
   sorted once, stably, into it. Results are aggregated into deadline,
   response-time and fault statistics; the deadline misses join the
   processors' misses without building any trace.

A run's cost follows its events: cycles × windows for the timeline, one
table lookup per strike and one uniprocessor step per release,
completion, abort or window edge. The jobs and the merged trace are built
only for a caller that reads them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from repro.core.config import PlatformConfig, SlotSchedule
from repro.faults.model import Fault, FaultOutcome, FaultRecord
from repro.model import JobState, Mode, PartitionedTaskSet
from repro.platform.hardware import FaultEffect
from repro.platform.modes import layout_for
from repro.platform.switcher import ModeSwitchController, Segment, SegmentKind
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


#: Faults are handled in time order; equal times keep the given order.
_BY_TIME = operator.attrgetter("time")


@functools.cache
def _proc_key(mode: Mode, index: int) -> str:
    # Cached: the format goes through Enum.__format__, and every run asks
    # for the same few keys.
    return f"{mode}[{index}]"


class _StrikeRow(NamedTuple):
    """What a strike in one cycle-template entry's segment does."""

    kind: SegmentKind
    mode: Mode | None
    #: The entry's ``rel_b``: cycle ``c``'s segment ends at ``c * period + end``.
    end: float
    #: Per core: the outcome, the struck channel's index and its processor
    #: key (both None when harmless).
    effects: tuple[tuple[FaultOutcome, int | None, str | None], ...]


@functools.cache
def _layout_effects(
    mode: Mode, core_count: int
) -> tuple[tuple[FaultOutcome, int, str], ...]:
    """Per core: the outcome, channel index and processor key of a strike
    while ``mode``'s channel layout is installed.

    Layouts are total: every core is in exactly one channel.
    """
    channels = layout_for(mode, core_count).channels
    return tuple(
        next(
            (_EFFECT_TO_OUTCOME[channel.fault_effect()], idx, _proc_key(mode, idx))
            for idx, channel in enumerate(channels)
            if channel.contains(core)
        )
        for core in range(core_count)
    )


_HARMLESS_DETAIL = {kind: f"hit {kind} time" for kind in SegmentKind}


def _strike_table(schedule: SlotSchedule, core_count: int) -> list[_StrikeRow]:
    """One :class:`_StrikeRow` per entry of the schedule's cycle template,
    indexed as :meth:`ModeSwitchController.entry_at` numbers them.

    A strike in a usable segment of a mode hits the channel of the mode's
    layout that holds the struck core, with that channel's fault effect;
    anywhere else it is harmless.
    """
    harmless = ((FaultOutcome.HARMLESS, None, None),) * core_count
    rows = []
    for _rel_a, rel_b, kind, mode in schedule.cycle_template():
        kind = SegmentKind(kind)
        usable = kind is SegmentKind.USABLE and mode is not None
        effects = _layout_effects(mode, core_count) if usable else harmless
        rows.append(_StrikeRow(kind, mode, rel_b, effects))
    return rows


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
            # A job is named task#index, and a task name may hold a "#".
            task = e.who.rsplit("#", 1)[0]
            out[task] = out.get(task, 0) + 1
        return out

    def corrupted_jobs(self) -> list[str]:
        """Jobs whose outputs were silently corrupted (NF faults)."""
        return [
            r.victim for r in self.fault_records
            if r.outcome is FaultOutcome.CORRUPTED and r.victim
        ]

    def aborted_jobs(self) -> list[str]:
        """Jobs killed by fail-silent channel shutdowns.

        Processor by processor, each in job order, read off the job columns.
        """
        out = []
        for res in self.processors.values():
            out.extend(res.job_columns.names_in(JobState.ABORTED))
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

    Every task of the partition is present from t=0 and the injected
    faults are known upfront, so a run handles its strikes in one stable
    sort by time before the per-processor schedules run. (The online
    engine, :mod:`repro.sim.online`, drains a
    :class:`~repro.sim.events.EventQueue` instead: its arrivals,
    departures and core deaths happen at run time.)

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

    @functools.cached_property
    def _strikes(self) -> list[_StrikeRow]:
        """The strike table, built on the first classification."""
        return _strike_table(self._schedule, self._core_count)

    def _entry_at(self, fault: Fault) -> tuple[int, int]:
        """The cycle-template entry ``fault`` strikes, and the cycle."""
        if not 0 <= fault.core < self._core_count:
            raise ValueError(
                f"fault on core {fault.core} is outside the simulated "
                f"platform's cores 0..{self._core_count - 1}: regenerate "
                f"the fault stream with core_count={self._core_count}"
            )
        return self._controller.entry_at(fault.time)

    def classify_fault(self, fault: Fault) -> tuple[FaultOutcome, Mode | None, int | None, Segment]:
        """The checker's view of a fault: (outcome, mode, channel index, segment)."""
        entry, cycle = self._entry_at(fault)
        row = self._strikes[entry]
        outcome, chan, _key = row.effects[fault.core]
        return outcome, row.mode, chan, self._controller.segment(entry, cycle)

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

        # 1. classify the strikes in time order (stable: equal-time strikes
        # keep their given order). Fail-silent strikes open a blackout and
        # an abort on their channel; the records wait for their victims.
        strikes: list[tuple[Fault, FaultOutcome, Mode | None, str | None, str]] = []
        aborts: dict[str, list[float]] = {}
        blackouts: dict[str, list[tuple[float, float]]] = {}
        for fault in sorted(faults, key=_BY_TIME):
            t = fault.time
            if t >= horizon:
                raise ValueError(f"fault at {t} is beyond the horizon {horizon}")
            entry, cycle = self._entry_at(fault)
            row = self._strikes[entry]
            outcome, _chan, key = row.effects[fault.core]
            if outcome is FaultOutcome.HARMLESS:
                detail = _HARMLESS_DETAIL[row.kind]
                strikes.append((fault, outcome, row.mode, None, detail))
                continue
            if outcome is FaultOutcome.MASKED:
                detail = "majority vote over redundant lock-step"
            elif outcome is FaultOutcome.SILENCED:
                end = cycle * self._schedule.period + row.end
                aborts.setdefault(key, []).append(t)
                blackouts.setdefault(key, []).append((t, end))
                detail = f"channel blocked until {end:g}"
            else:  # CORRUPTED — resolved against the slice columns afterwards
                detail = "undetected soft error"
            strikes.append((fault, outcome, row.mode, key, detail))

        # 2. run every logical processor on its partition bin
        processors: dict[str, UniprocResult] = {}
        for mode in Mode:
            windows = self._controller.usable_windows(mode, horizon)
            for idx, taskset in enumerate(self._partition.bins(mode)):
                if len(taskset) == 0:
                    continue
                key = _proc_key(mode, idx)
                proc_windows = subtract_blackouts(windows, blackouts.get(key, []))
                offsets = self._resolve_offsets(release_offsets, mode, taskset)
                processors[key] = simulate_uniproc(
                    taskset,
                    make_policy(taskset, self._alg),
                    proc_windows,
                    horizon,
                    processor=key,
                    release_offsets=offsets,
                    abort_events=aborts.get(key, ()),
                )

        # 3. resolve fault victims against what the processors ran
        records: list[FaultRecord] = []
        abort_log: dict[str, list[SimEvent]] = {}
        for fault, outcome, mode, key, detail in strikes:
            victim = None
            res = processors.get(key)
            if outcome is FaultOutcome.CORRUPTED:
                job = None if res is None else res.job_id_at(fault.time)
                if job is not None:
                    res.corrupt(job)
                    victim = res.job_columns.name(job)
                else:
                    # The struck core hosts no tasks, or ran none just then:
                    # nothing observable was corrupted.
                    outcome = FaultOutcome.HARMLESS
                    detail = "core hosts no tasks" if res is None else "core was idle"
            elif outcome is FaultOutcome.SILENCED and res is not None:
                # The victim is the job the abort event killed at this time.
                if key not in abort_log:
                    abort_log[key] = res.trace.events_of(SimEventKind.ABORT)
                for e in abort_log[key]:
                    if abs(e.time - fault.time) <= EPS:
                        victim = e.who
                        break
            records.append(
                FaultRecord(fault, outcome, mode, key, victim=victim, detail=detail)
            )

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
                for rec in records
            ]
            return slices, events

        return MulticoreResult(
            horizon=horizon,
            schedule=self._schedule,
            processors=processors,
            trace=SimTrace.deferred(horizon, build),
            fault_records=records,
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
