"""Design goals: turning the feasible region into a concrete platform config.

Section 4 of the paper demonstrates two designs for the same task set and
overhead budget:

* **minimise overhead bandwidth** ``O_tot / P`` (Table 2 row (b)) — pick the
  *largest* feasible period. On the region boundary ``G(P*) = O_tot`` the
  three mode inequalities hold with equality, so the quanta are forced to
  their (maximal) binding values and no slack remains;
* **maximise run-time flexibility** (row (c)) — pick the period maximising
  the slack ratio ``(G(P) − O_tot)/P``, allocate each quantum at its
  *minimum*, and keep the remaining bandwidth as a redistributable reserve.

:func:`design_platform` executes a goal and returns a fully validated
:class:`~repro.core.config.PlatformConfig`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.config import Overheads, PlatformConfig, SlotSchedule
from repro.core.integration import SystemCurve, _quanta_verdicts
from repro.core.region import FeasibleRegion
from repro.model import MODE_ORDER, Mode, PartitionedTaskSet
from repro.util import EPS, check_positive


class DesignError(ValueError):
    """Raised when a design goal cannot be satisfied (no feasible period)."""


class DesignGoal(abc.ABC):
    """Strategy object choosing the period ``P`` for a partition/overheads."""

    #: human-readable identifier recorded on the resulting config
    name: str = "abstract"

    @abc.abstractmethod
    def choose_period(self, region: FeasibleRegion, otot: float) -> float:
        """Return the design period ``P*`` (raise :class:`DesignError` if none)."""


class MinOverheadBandwidthGoal(DesignGoal):
    """Table 2(b): minimise ``O_tot / P`` by taking the largest feasible period."""

    name = "min-overhead-bandwidth"

    def choose_period(self, region: FeasibleRegion, otot: float) -> float:
        try:
            return region.max_feasible_period(otot)
        except ValueError as exc:
            raise DesignError(str(exc)) from exc


class MaxSlackGoal(DesignGoal):
    """Table 2(c): maximise the redistributable bandwidth ``(G(P)−O_tot)/P``."""

    name = "max-slack"

    def choose_period(self, region: FeasibleRegion, otot: float) -> float:
        try:
            _ratio, point = region.max_slack_ratio(otot)
        except ValueError as exc:
            raise DesignError(str(exc)) from exc
        return point.period


@dataclass(frozen=True)
class FixedPeriodGoal(DesignGoal):
    """Design at a user-chosen period (must be feasible)."""

    period: float
    name: str = "fixed-period"

    def choose_period(self, region: FeasibleRegion, otot: float) -> float:
        check_positive("period", self.period)
        if not region.is_feasible(self.period, otot):
            raise DesignError(
                f"period {self.period} infeasible for O_tot={otot} "
                f"(G(P)={float(region.lhs(self.period)):.6f})"
            )
        return self.period


def design_platform(
    partition: PartitionedTaskSet,
    algorithm: str,
    overheads: Overheads,
    goal: DesignGoal | str = "min-overhead-bandwidth",
    *,
    region: FeasibleRegion | None = None,
    distribute_slack: str = "reserve",
) -> PlatformConfig:
    """Run a design goal end-to-end and return a validated platform config.

    Parameters
    ----------
    partition:
        Per-mode, per-processor task partition (Section 3).
    algorithm:
        Local scheduler: "RM", "DM" or "EDF".
    overheads:
        Mode-switch overheads (their sum is the ``O_tot`` of Eq. 15).
    goal:
        A :class:`DesignGoal` or one of the names
        ``"min-overhead-bandwidth"`` / ``"max-slack"``.
    region:
        Optional pre-built :class:`FeasibleRegion` for this partition and
        algorithm (reuse across designs to avoid repeated sweeps). The
        design is read off and checked against its one curve.
    distribute_slack:
        What to do with bandwidth above the binding quanta:

        * ``"reserve"`` (default) — keep it unallocated (idle reserve), the
          Table 2(c) convention;
        * ``"proportional"`` — grow every non-empty slot proportionally to
          its binding quantum until the cycle is full (the Table 2(b)
          boundary design has zero slack, so both conventions coincide
          there).

    Returns
    -------
    :class:`PlatformConfig` whose schedule satisfies Eqs. 12–15 (verified
    before returning).
    """
    if isinstance(goal, str):
        goal = {
            "min-overhead-bandwidth": MinOverheadBandwidthGoal(),
            "max-slack": MaxSlackGoal(),
        }.get(goal.lower())
        if goal is None:
            raise ValueError(
                "unknown goal name; use 'min-overhead-bandwidth' or 'max-slack'"
            )
    if distribute_slack not in ("reserve", "proportional"):
        raise ValueError("distribute_slack must be 'reserve' or 'proportional'")

    region = region or FeasibleRegion(partition, algorithm)
    otot = overheads.total
    period = goal.choose_period(region, otot)
    curve: SystemCurve = region.system_curve
    min_quanta = curve.min_quanta(period)

    # Assemble slots: empty modes get no slot (and pay no switch overhead).
    quanta: dict[Mode, float] = {}
    for mode in MODE_ORDER:
        q_usable = min_quanta[mode]
        if q_usable <= EPS and len(partition.mode_taskset(mode)) == 0:
            quanta[mode] = 0.0
        else:
            quanta[mode] = q_usable + overheads.of(mode)

    slack = period - sum(quanta.values())
    if slack < -1e-7:
        raise DesignError(
            f"goal produced an infeasible allocation: slots exceed the period "
            f"by {-slack:.3e} (P={period})"
        )
    slack = max(slack, 0.0)

    if distribute_slack == "proportional" and slack > EPS:
        total_q = sum(q for q in quanta.values() if q > EPS)
        if total_q > EPS:
            for mode in MODE_ORDER:
                if quanta[mode] > EPS:
                    quanta[mode] += slack * quanta[mode] / total_q
            slack = 0.0

    schedule = SlotSchedule(period, quanta, overheads)
    # Eqs. 12-14 at the schedule's period, which is ``period``: check them
    # against the binding quanta computed above.
    verdicts = _quanta_verdicts(schedule, min_quanta)
    if not all(verdicts.values()):
        bad = [str(m) for m, ok in verdicts.items() if not ok]
        raise DesignError(
            f"internal design validation failed for modes {bad} at P={period}"
        )
    return PlatformConfig(
        schedule=schedule,
        algorithm=algorithm.upper(),
        slack=slack,
        goal=goal.name,
        min_quanta=min_quanta,
    )
