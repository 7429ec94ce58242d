"""Platform configuration objects: overheads, slot schedule, final design.

These encode the notation of Figure 2: a major cycle of period ``P`` divided
into three mode slots ``Q_FT, Q_FS, Q_NF`` (in that order), each ending with
the mode-switch overhead ``O_k``, leaving ``Q̃_k = Q_k − O_k`` usable; any
remainder of the cycle is explicit idle reserve (the design slack of
Table 2(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.model import MODE_ORDER, Mode
from repro.supply import LinearSupply, PeriodicSlotSupply
from repro.util import EPS, check_core_count, check_nonneg, check_positive

# re-export for convenience
__all__ = ["Overheads", "SlotSchedule", "PlatformConfig"]


@dataclass(frozen=True)
class Overheads:
    """Mode-switch overheads ``O_FT, O_FS, O_NF`` (Section 2.4).

    ``O_k`` is charged when switching *out of* mode ``k`` and is accounted
    inside slot ``Q_k``.
    """

    ft: float = 0.0
    fs: float = 0.0
    nf: float = 0.0

    def __post_init__(self) -> None:
        check_nonneg("ft overhead", self.ft)
        check_nonneg("fs overhead", self.fs)
        check_nonneg("nf overhead", self.nf)

    @classmethod
    def uniform(cls, total: float) -> "Overheads":
        """Split a total overhead budget equally across the three switches."""
        check_nonneg("total", total)
        each = total / 3.0
        return cls(each, each, each)

    @classmethod
    def zero(cls) -> "Overheads":
        """No switching overheads."""
        return cls(0.0, 0.0, 0.0)

    def of(self, mode: Mode) -> float:
        """Overhead charged at the end of the given mode's slot."""
        return {Mode.FT: self.ft, Mode.FS: self.fs, Mode.NF: self.nf}[mode]

    @property
    def total(self) -> float:
        """``O_tot = O_FT + O_FS + O_NF``."""
        return self.ft + self.fs + self.nf


class SlotSchedule:
    """The slot layout of one major cycle (Figure 2).

    Parameters
    ----------
    period:
        Major cycle length ``P``.
    quanta:
        Mapping mode → slot length ``Q_k`` (including its overhead). The
        slots are laid out in the canonical order FT, FS, NF starting at
        time 0; ``sum Q_k <= P`` and the remainder (if any) is idle reserve.
    overheads:
        Per-mode switch overheads; each must satisfy ``O_k <= Q_k`` whenever
        ``Q_k > 0`` (an empty slot pays no switch).
    """

    __slots__ = ("_P", "_Q", "_O")

    def __init__(
        self,
        period: float,
        quanta: Mapping[Mode, float],
        overheads: Overheads | None = None,
    ):
        check_positive("period", period)
        overheads = overheads or Overheads.zero()
        q = {mode: float(quanta.get(mode, 0.0)) for mode in Mode}
        for mode, qk in q.items():
            check_nonneg(f"quantum {mode}", qk)
            ok = overheads.of(mode) if qk > EPS else 0.0
            if qk > EPS and ok > qk + EPS:
                raise ValueError(
                    f"overhead O_{mode}={ok} exceeds its slot Q_{mode}={qk}"
                )
        total = sum(q.values())
        if total > period + EPS:
            raise ValueError(
                f"slots sum to {total} which exceeds the period {period}"
            )
        self._P = float(period)
        self._Q = q
        self._O = overheads

    # -- scalar accessors ------------------------------------------------------

    @property
    def period(self) -> float:
        """Major cycle length ``P``."""
        return self._P

    @property
    def overheads(self) -> Overheads:
        """The switch overheads."""
        return self._O

    def quantum(self, mode: Mode) -> float:
        """Slot length ``Q_k`` (including overhead)."""
        return self._Q[mode]

    def usable(self, mode: Mode) -> float:
        """Usable slot time ``Q̃_k = Q_k − O_k`` (0 for an empty slot)."""
        qk = self._Q[mode]
        if qk <= EPS:
            return 0.0
        return qk - self._O.of(mode)

    def alpha(self, mode: Mode) -> float:
        """Supply rate ``α_k = Q̃_k / P`` (Eq. 2)."""
        return self.usable(mode) / self._P

    def delta(self, mode: Mode) -> float:
        """Supply delay ``Δ_k = P − Q̃_k`` (Eq. 2)."""
        return self._P - self.usable(mode)

    @property
    def idle_reserve(self) -> float:
        """Unallocated time per cycle: ``P − sum_k Q_k`` (design slack)."""
        return max(self._P - sum(self._Q.values()), 0.0)

    @property
    def overhead_bandwidth(self) -> float:
        """Fraction of the cycle spent switching: ``O_tot / P`` (paid only
        for non-empty slots)."""
        paid = sum(self._O.of(m) for m in Mode if self._Q[m] > EPS)
        return paid / self._P

    # -- windows ---------------------------------------------------------------

    def slot_window(self, mode: Mode) -> tuple[float, float]:
        """``[start, end)`` of the mode's slot within the cycle (FT,FS,NF order)."""
        start = 0.0
        for m in MODE_ORDER:
            if m is mode:
                return (start, start + self._Q[m])
            start += self._Q[m]
        raise KeyError(mode)  # pragma: no cover - Mode is exhaustive

    def usable_window(self, mode: Mode) -> tuple[float, float]:
        """``[start, start + Q̃_k)`` — the slot minus its trailing overhead."""
        a, _b = self.slot_window(mode)
        return (a, a + self.usable(mode))

    def overhead_window(self, mode: Mode) -> tuple[float, float]:
        """``[start + Q̃_k, end)`` — the switch-out overhead at the slot tail."""
        a, b = self.slot_window(mode)
        return (a + self.usable(mode), b)

    def cycles(self, horizon: float) -> Iterator[float]:
        """Start times of the cycles overlapping ``[0, horizon)``."""
        check_positive("horizon", horizon)
        t = 0.0
        while t < horizon - EPS:
            yield t
            t += self._P

    def cycle_template(self) -> list[tuple[float, float, str, Mode | None]]:
        """One cycle's segments: ``(rel_start, rel_end, kind, mode)``.

        ``kind`` is ``"usable"``, ``"overhead"`` or ``"idle"`` — the generic
        timeline interface consumed by
        :class:`repro.platform.switcher.ModeSwitchController`.
        """
        template: list[tuple[float, float, str, Mode | None]] = []
        cursor = 0.0
        for mode in MODE_ORDER:
            usable = self.usable(mode)
            overhead = self.quantum(mode) - usable
            if usable > EPS:
                template.append((cursor, cursor + usable, "usable", mode))
                cursor += usable
            if overhead > EPS:
                template.append((cursor, cursor + overhead, "overhead", mode))
                cursor += overhead
        if self._P - cursor > EPS:
            template.append((cursor, self._P, "idle", None))
        return template

    # -- supply views ------------------------------------------------------------

    def supply(self, mode: Mode) -> PeriodicSlotSupply:
        """Exact Lemma-1 supply of the mode's usable slot."""
        return PeriodicSlotSupply(self._P, self.usable(mode))

    def linear_supply(self, mode: Mode) -> LinearSupply:
        """Linear Eq.-3 supply of the mode's usable slot."""
        return LinearSupply.from_slot(self._P, self.usable(mode))

    # -- misc ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotSchedule):
            return NotImplemented
        return (
            self._P == other._P and self._Q == other._Q and self._O == other._O
        )

    def __repr__(self) -> str:
        qs = ", ".join(f"Q_{m}={self._Q[m]:.4g}" for m in MODE_ORDER)
        return f"SlotSchedule(P={self._P:.4g}, {qs}, idle={self.idle_reserve:.4g})"

    def table(self) -> str:
        """Paper-style textual table of the schedule."""
        rows = [f"{'mode':<6}{'Q_k':>10}{'O_k':>10}{'Q̃_k':>10}{'α_k':>10}{'Δ_k':>10}"]
        for m in MODE_ORDER:
            rows.append(
                f"{str(m):<6}{self._Q[m]:>10.4f}{self._O.of(m):>10.4f}"
                f"{self.usable(m):>10.4f}{self.alpha(m):>10.4f}{self.delta(m):>10.4f}"
            )
        rows.append(f"P = {self._P:.4f}, idle reserve = {self.idle_reserve:.4f}")
        return "\n".join(rows)


@dataclass(frozen=True)
class PlatformConfig:
    """A complete platform design produced by :func:`repro.core.design.design_platform`.

    Attributes
    ----------
    schedule:
        The slot layout (P, Q_k, overheads).
    algorithm:
        Local scheduling algorithm used in the analysis ("RM", "DM" or "EDF").
    slack:
        Bandwidth-redistributable time per cycle *not* allocated to any slot
        (Table 2's ``slack`` column is ``slack / P``).
    goal:
        Name of the design goal that produced this configuration.
    min_quanta:
        The binding lower bounds ``minQ_k(P)`` at the chosen period, per mode.
    core_count:
        Physical cores of the platform (the paper's chip has 4). Fault
        scenarios draw strike targets from ``0..core_count-1`` instead of a
        hardcoded range, and the simulator's channel layouts
        (:mod:`repro.platform.modes`) generalize to any core count — FT is
        one all-core channel (voting with >= 3 members), FS consecutive
        lock-step couples, NF independent singletons — so dependability
        campaigns scale with the platform end-to-end.
    """

    schedule: SlotSchedule
    algorithm: str
    slack: float = 0.0
    goal: str = "manual"
    min_quanta: Mapping[Mode, float] = field(default_factory=dict)
    core_count: int = 4

    def __post_init__(self) -> None:
        check_core_count(self.core_count)

    @property
    def period(self) -> float:
        """Major cycle length ``P``."""
        return self.schedule.period

    @property
    def slack_ratio(self) -> float:
        """Redistributable bandwidth ``slack / P`` (Table 2, last column)."""
        return self.slack / self.period

    def allocated_utilization(self, mode: Mode) -> float:
        """``Q̃_k / P`` — the paper's "alloc. util." row of Table 2."""
        return self.schedule.alpha(mode)

    def summary(self) -> str:
        """Paper-style summary mirroring Table 2 rows."""
        s = self.schedule
        parts = [
            f"design goal       : {self.goal} ({self.algorithm})",
            f"P                 : {s.period:.4f}",
            f"O_tot             : {s.overheads.total:.4f} "
            f"(bandwidth {s.overheads.total / s.period:.4f})",
        ]
        for m in MODE_ORDER:
            parts.append(
                f"Q̃_{m:<3}            : {s.usable(m):.4f} "
                f"(alloc. util. {self.allocated_utilization(m):.4f})"
            )
        parts.append(f"slack             : {self.slack:.4f} (ratio {self.slack_ratio:.4f})")
        return "\n".join(parts)
