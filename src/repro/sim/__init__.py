"""Discrete-event simulation of the flexible multiprocessor platform.

Built bottom-up for this repository (no external simulator):

* :mod:`repro.sim.scheduler` — preemptive uniprocessor policies (fixed
  priority, EDF) as pluggable job selectors;
* :mod:`repro.sim.uniproc` — one logical processor executing a partition's
  task set inside arbitrary availability windows, with channel-blackout and
  job-abort hooks for fail-silent faults;
* :mod:`repro.sim.multicore` — the full platform: expands a designed
  :class:`~repro.core.config.SlotSchedule` into mode slots, runs every
  logical processor of every mode, applies each fault's effect from the
  struck channel of the mode in force
  (:meth:`~repro.platform.hardware.LockstepChannel.fault_effect`), and
  aggregates deadline and fault statistics;
* :mod:`repro.sim.events` — the deterministic event queue the online
  engine drains (arrival / departure / fault strike / core death /
  re-assignment, totally ordered);
* :mod:`repro.sim.online` — the online engine: runtime arrivals decided
  live by the admission controller, departures reclaiming bandwidth, and
  permanent core failures triggering re-assignment of the dead core's
  tasks to surviving channels;
* :mod:`repro.sim.trace` — execution traces, events, metrics, ASCII Gantt;
* :mod:`repro.sim.validation` — analysis/simulation cross-checks (designs
  must run without misses; measured supply must dominate the analytic
  guarantee).
"""

from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.multicore import MulticoreResult, MulticoreSim
from repro.sim.online import OnlineArrival, OnlineResult, OnlineSim
from repro.sim.scheduler import EDFPolicy, FixedPriorityPolicy, make_policy
from repro.sim.trace import ExecutionSlice, SimEvent, SimEventKind, SimTrace
from repro.sim.uniproc import UniprocResult, simulate_uniproc
from repro.sim.validation import ValidationReport, measured_mode_supply, validate_design

__all__ = [
    "make_policy",
    "FixedPriorityPolicy",
    "EDFPolicy",
    "simulate_uniproc",
    "UniprocResult",
    "MulticoreSim",
    "MulticoreResult",
    "Event",
    "EventKind",
    "EventQueue",
    "OnlineArrival",
    "OnlineResult",
    "OnlineSim",
    "SimTrace",
    "SimEvent",
    "SimEventKind",
    "ExecutionSlice",
    "validate_design",
    "ValidationReport",
    "measured_mode_supply",
]
