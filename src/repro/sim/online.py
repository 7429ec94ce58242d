"""Online simulation: runtime arrivals, live admission, re-assignment.

The engine on the event-driven core (:mod:`repro.sim.events`). Where
:class:`~repro.sim.multicore.MulticoreSim` admits a fixed task set
offline and replays a whole horizon, :class:`OnlineSim` runs the dynamic
scenario Section 4 motivates: tasks **arrive and leave at run time**, each
arrival is decided live by the deployed
:class:`~repro.core.admission.AdmissionController` (slack-reserve quantum
growth at the fixed period ``P``), and a **permanent core failure** — the
:class:`~repro.dependability.scenarios.PermanentScenario` onset — triggers
*re-assignment* of the dead core's admitted tasks to surviving channels
instead of recording guaranteed misses.

Event semantics (same-time priority is the :class:`EventKind` order):

* ``CORE_DEATH(core)`` — the core is dead for good. Every channel that can
  no longer uphold its fault semantics (see
  :func:`repro.platform.modes.surviving_channels`) is killed in the
  controller; its admitted tasks become *orphans*. Re-designing the
  platform is a per-cycle activity, so orphan ``i`` gets one re-admission
  attempt at the ``(i+1)``-th major-cycle boundary after the death — the
  re-assignment latency is queue position times ``P`` plus the boundary
  alignment.
* ``FAULT_STRIKE(fault)`` — a transient; classified through the mode
  active at the instant exactly like the offline simulator (strikes on
  already-dead cores are dropped: the channel is gone, there is no output
  to corrupt).
* ``DEPARTURE(name)`` — the task leaves and its quantum is reclaimed into
  the reserve (before any same-instant admission consumes it).
* ``REASSIGN(task, death_time)`` — one re-admission attempt for an
  orphan; failure means the task is *lost* (its miss window runs to the
  horizon).
* ``ARRIVAL(task, lifetime)`` — a live admission decision; accepted tasks
  with a finite lifetime schedule their own departure.

Everything is pure arithmetic over the pushed events — no clocks, no
hidden randomness — so campaign points built on this engine inherit the
runner's bit-identical ``(workers, batch, shard)`` contract.

Streaming metrics (all exact-accumulator friendly):

* acceptance over time — per time-bin ``(offered, accepted)`` counts;
* re-assignment latency — death-to-readmission per rescued orphan;
* post-failure miss window — death-to-resolution (horizon when lost) per
  orphan, plus the estimated deadline misses inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.admission import AdmissionController
from repro.core.config import PlatformConfig
from repro.faults.model import Fault, FaultOutcome
from repro.model import Mode, PartitionedTaskSet, Task
from repro.platform.modes import layout_for, surviving_channels
from repro.platform.switcher import ModeSwitchController, SegmentKind
from repro.sim.events import EventKind, EventQueue
from repro.sim.multicore import _layout_effects
from repro.util import check_positive


@dataclass(frozen=True)
class OnlineArrival:
    """One dynamic arrival: a task entering at ``time`` for ``lifetime``.

    ``lifetime`` is how long the task stays once admitted (None: forever).
    """

    time: float
    task: Task
    lifetime: float | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"arrival time must be >= 0: got {self.time}")
        if self.lifetime is not None:
            check_positive("lifetime", self.lifetime)


@dataclass
class OnlineResult:
    """Aggregated outcome of one online simulation run."""

    horizon: float
    period: float
    bin_width: float
    #: Per time-bin arrival counts: ``{bin index: [offered, accepted]}``.
    acceptance_bins: dict[int, list[int]] = field(default_factory=dict)
    #: Every admission decision: ``(time, task name, admitted, reason)``.
    decisions: list[tuple[float, str, bool, str]] = field(default_factory=list)
    #: Permanent core deaths applied: ``(time, core)``.
    deaths: list[tuple[float, int]] = field(default_factory=list)
    #: Tasks evicted by core deaths (orphan count).
    orphaned: int = 0
    #: Death-to-readmission latency per rescued orphan.
    reassign_latencies: list[float] = field(default_factory=list)
    #: Orphans that could not be re-admitted (lost for good).
    lost: list[str] = field(default_factory=list)
    #: Death-to-resolution window per orphan (horizon-capped when lost).
    miss_windows: list[float] = field(default_factory=list)
    #: Estimated deadline misses inside the miss windows (jobs whose
    #: periods elapsed while the orphan had no processor).
    post_failure_misses: int = 0
    #: Transient-fault outcome histogram (offline classification rules).
    fault_outcomes: dict[str, int] = field(default_factory=dict)
    departed: int = 0
    slack_final: float = 0.0

    @property
    def offered(self) -> int:
        """Total arrivals offered to the admission controller."""
        return sum(o for o, _ in self.acceptance_bins.values())

    @property
    def admitted(self) -> int:
        """Total arrivals admitted."""
        return sum(a for _, a in self.acceptance_bins.values())

    @property
    def acceptance_ratio(self) -> float | None:
        """Overall acceptance ratio (None before any arrival)."""
        return self.admitted / self.offered if self.offered else None

    def to_record(self) -> dict[str, Any]:
        """The JSON-able campaign-point record of this run.

        ``acceptance_bins`` is a sorted ``[bin, offered, accepted]`` list so
        the aggregation layer can fold each bin's counts exactly.
        """
        return {
            "horizon": self.horizon,
            "period": self.period,
            "bin_width": self.bin_width,
            "acceptance_bins": [
                [b, o, a]
                for b, (o, a) in sorted(self.acceptance_bins.items())
            ],
            "offered": self.offered,
            "admitted": self.admitted,
            "acceptance_ratio": self.acceptance_ratio,
            "departed": self.departed,
            "deaths": [[t, c] for t, c in self.deaths],
            "orphaned": self.orphaned,
            "reassigned": len(self.reassign_latencies),
            "reassign_latencies": list(self.reassign_latencies),
            "lost": len(self.lost),
            "miss_windows": list(self.miss_windows),
            "post_failure_misses": self.post_failure_misses,
            "fault_outcomes": dict(self.fault_outcomes),
            "slack_final": self.slack_final,
        }


class OnlineSim:
    """Event-driven online simulation over a deployed platform design.

    Parameters
    ----------
    config:
        The deployed :class:`PlatformConfig` (design with the ``max-slack``
        goal so the admission controller has a reserve to work with).
    partition:
        The initial (already admitted) task partition.
    algorithm:
        Local scheduler; defaults to the config's.
    core_count:
        Physical cores; defaults to the config's ``core_count``.
    """

    def __init__(
        self,
        config: PlatformConfig,
        partition: PartitionedTaskSet,
        algorithm: str | None = None,
        *,
        core_count: int | None = None,
    ):
        self._config = config
        self._controller = AdmissionController(config, partition, algorithm)
        self._switcher = ModeSwitchController(config.schedule)
        self._core_count = (
            config.core_count if core_count is None else int(core_count)
        )

    @property
    def admission(self) -> AdmissionController:
        """The live admission controller (evolves during :meth:`run`)."""
        return self._controller

    # -- main entry --------------------------------------------------------

    def run(
        self,
        horizon: float,
        *,
        arrivals: Sequence[OnlineArrival] = (),
        core_deaths: Sequence[tuple[float, int]] = (),
        faults: Sequence[Fault] = (),
        bin_width: float | None = None,
    ) -> OnlineResult:
        """Simulate ``[0, horizon)``: admissions, departures, failures.

        Events at or beyond the horizon never fire (a departure scheduled
        past the end simply does not happen). ``bin_width`` sets the
        acceptance-curve time bin (default: one major cycle ``P``).
        """
        check_positive("horizon", horizon)
        period = self._config.period
        width = period if bin_width is None else float(bin_width)
        check_positive("bin_width", width)

        result = OnlineResult(horizon, period, width)
        queue = EventQueue()
        for arrival in arrivals:
            queue.push_at(
                arrival.time, EventKind.ARRIVAL, (arrival.task, arrival.lifetime)
            )
        for time, core in core_deaths:
            if not 0 <= core < self._core_count:
                raise ValueError(
                    f"core death on core {core} is outside the platform's "
                    f"cores 0..{self._core_count - 1}"
                )
            queue.push_at(time, EventKind.CORE_DEATH, core)
        for fault in faults:
            queue.push_at(fault.time, EventKind.FAULT_STRIKE, fault)

        dead_cores: set[int] = set()
        #: Orphans awaiting re-assignment: name -> (task, death time).
        pending: dict[str, tuple[Task, float]] = {}
        handlers = {
            EventKind.ARRIVAL: self._on_arrival,
            EventKind.DEPARTURE: self._on_departure,
            EventKind.CORE_DEATH: self._on_core_death,
            EventKind.REASSIGN: self._on_reassign,
            EventKind.FAULT_STRIKE: self._on_fault,
        }
        for ev in queue.drain(until=horizon):
            handlers[ev.kind](ev, queue, result, dead_cores, pending)

        # Orphans whose re-assignment slot never arrived within the horizon
        # are unresolved: they miss until the end.
        for name, (task, death_time) in pending.items():
            result.lost.append(name)
            window = horizon - death_time
            result.miss_windows.append(window)
            result.post_failure_misses += self._window_misses(task, window)
        result.lost.sort()
        result.slack_final = self._controller.slack
        return result

    # -- handlers ----------------------------------------------------------

    def _on_arrival(self, ev, queue, result, dead_cores, pending) -> None:
        task, lifetime = ev.data
        decision = self._controller.try_admit(task)
        b = int(ev.time // result.bin_width)
        counts = result.acceptance_bins.setdefault(b, [0, 0])
        counts[0] += 1
        if decision.admitted:
            counts[1] += 1
            if lifetime is not None:
                queue.push_at(ev.time + lifetime, EventKind.DEPARTURE, task.name)
        result.decisions.append(
            (ev.time, task.name, decision.admitted, decision.reason)
        )

    def _on_departure(self, ev, queue, result, dead_cores, pending) -> None:
        name = ev.data
        if name in pending:
            # The task would have left anyway: its orphanhood resolves as a
            # departure, not a loss — the miss window ends here.
            task, death_time = pending.pop(name)
            window = ev.time - death_time
            result.miss_windows.append(window)
            result.post_failure_misses += self._window_misses(task, window)
            result.departed += 1
            return
        try:
            self._controller.remove(name)
        except KeyError:
            return  # already lost or never admitted
        result.departed += 1

    def _on_core_death(self, ev, queue, result, dead_cores, pending) -> None:
        core = ev.data
        if core in dead_cores:
            return
        dead_cores.add(core)
        result.deaths.append((ev.time, core))
        orphans: list[Task] = []
        for mode in Mode:
            layout = layout_for(mode, self._core_count)
            alive = set(surviving_channels(layout, dead_cores))
            n_bins = len(self._controller.partition().bins(mode))
            for idx in range(min(n_bins, len(layout.channels))):
                if idx in alive:
                    continue
                orphans.extend(self._controller.kill_processor(mode, idx))
        result.orphaned += len(orphans)
        # One re-admission attempt per major cycle, in eviction order: the
        # platform re-derives one bin's quanta per cycle boundary.
        boundary = (math.floor(ev.time / result.period) + 1) * result.period
        for i, task in enumerate(orphans):
            pending[task.name] = (task, ev.time)
            queue.push_at(
                boundary + i * result.period, EventKind.REASSIGN, (task, ev.time)
            )

    def _on_reassign(self, ev, queue, result, dead_cores, pending) -> None:
        task, death_time = ev.data
        if task.name not in pending:
            return  # departed (or otherwise resolved) while waiting
        decision = self._controller.try_admit(task)
        del pending[task.name]
        if decision.admitted:
            window = ev.time - death_time
            result.reassign_latencies.append(window)
            result.miss_windows.append(window)
            result.post_failure_misses += self._window_misses(task, window)
        else:
            result.lost.append(task.name)
            window = result.horizon - death_time
            result.miss_windows.append(window)
            result.post_failure_misses += self._window_misses(task, window)
            result.decisions.append(
                (ev.time, task.name, False, decision.reason)
            )

    def _on_fault(self, ev, queue, result, dead_cores, pending) -> None:
        fault = ev.data
        if not 0 <= fault.core < self._core_count:
            raise ValueError(
                f"fault on core {fault.core} is outside the platform's "
                f"cores 0..{self._core_count - 1}"
            )
        if fault.core in dead_cores:
            return  # the channel is gone; nothing observable remains
        seg = self._switcher.segment_at(fault.time)
        if seg.kind is not SegmentKind.USABLE or seg.mode is None:
            outcome = FaultOutcome.HARMLESS
        else:
            outcome = _layout_effects(seg.mode, self._core_count)[fault.core][0]
        key = str(outcome)
        result.fault_outcomes[key] = result.fault_outcomes.get(key, 0) + 1

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _window_misses(task: Task, window: float) -> int:
        """Deadline misses a processor-less task accrues over ``window``."""
        if window <= 0:
            return 0
        return int(math.floor(window / task.period))


__all__ = ["OnlineArrival", "OnlineResult", "OnlineSim"]
