"""Multi-quantum slots: the paper's future-work item, made designable.

Section 5: *"we will explore the possibility of providing different
fault-tolerance services during the same time quantum per period, as well as
the same fault-tolerance service during more than one time quantum per
period."* This module implements the second idea end to end:

* a mode ``k`` may be served by ``k_m`` evenly interleaved quanta per major
  cycle instead of one. Its worst-case supply delay shrinks from
  ``P − Q̃_k`` towards ``(P − Q̃_k)/k_m`` — but every extra quantum pays the
  mode's switch-out overhead ``O_k`` again;
* :func:`min_quantum_split` inverts the resulting linear supply bound in
  closed form — substituting ``α = Q̃/P`` and ``Δ = (P − Q̃)/k`` into
  Theorems 1/2 turns the feasibility condition into

  .. math::

     Q̃ \\ \\ge\\ \\frac{\\sqrt{(k t - P)^2 + 4 k P W} - (k t - P)}{2}

  (Eqs. 6/11 are the ``k = 1`` specialisation);
* :class:`SplitSchedule` realises the layout: the cycle is divided into
  ``max k_m`` frames; a mode with ``k_m`` pieces occupies a slice in
  ``k_m`` of them, evenly spread. The schedule plugs into the existing
  switcher/simulator through the ``cycle_template()`` interface;
* :func:`design_split_platform` runs the full design pipeline (region sweep,
  design goals) with per-mode piece counts.

The delay model ``Δ = (P − Q̃)/k`` is exact for the *idealised* even layout
(every inter-piece gap equal); the concrete :class:`SplitSchedule` layout
can have slightly unequal gaps once several modes interleave, so the design
validates the realised layout's exact :class:`~repro.supply.SlotLayoutSupply`
against the analysis and inflates quanta if needed (``_ensure_layout_feasible``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis import edf_schedulable_supply, fp_schedulable_supply
from repro.analysis.edf import edf_demand
from repro.analysis.priorities import priority_order
from repro.analysis.workload import fp_workload_array
from repro.analysis.points import scheduling_points
from repro.core.config import Overheads
from repro.core.design import DesignError
from repro.model import MODE_ORDER, Mode, PartitionedTaskSet, TaskSet
from repro.supply import LinearSupply, SlotLayoutSupply
from repro.util import EPS, check_positive


def _f_quantum_split(
    t: np.ndarray, w: np.ndarray, period: float, k: int
) -> np.ndarray:
    """Generalised quadratic root for ``k`` evenly spread quanta."""
    tm = k * t - period
    return 0.5 * (np.sqrt(tm * tm + 4.0 * k * period * w) - tm)


def min_quantum_split(
    taskset: TaskSet, algorithm: str, period: float, pieces: int
) -> float:
    """Minimum *total* usable quantum when served by ``pieces`` even slots.

    Reduces exactly to :func:`repro.core.minq.min_quantum` at ``pieces=1``;
    the required budget is non-increasing in ``pieces`` (shorter starvation
    for the same bandwidth).
    """
    check_positive("period", period)
    if pieces < 1:
        raise ValueError(f"pieces must be >= 1: got {pieces}")
    if len(taskset) == 0:
        return 0.0
    alg = algorithm.upper()
    if alg == "EDF":
        pts, w = edf_demand(taskset)
        return float(_f_quantum_split(pts, w, period, pieces).max())
    if alg not in ("RM", "DM"):
        raise ValueError(f"unknown algorithm {algorithm!r} (EDF, RM or DM)")
    order = priority_order(taskset, alg)
    worst = 0.0
    for i, task in enumerate(order):
        hp = order[:i]
        pts = np.asarray(scheduling_points(task, hp), dtype=float)
        w = fp_workload_array(task, hp, pts)
        worst = max(worst, float(_f_quantum_split(pts, w, period, pieces).min()))
    return worst


class SplitSchedule:
    """A major cycle serving each mode with ``k_m`` interleaved quanta.

    Parameters
    ----------
    period:
        Major cycle length ``P``.
    usable:
        Mode → *total* usable time ``Q̃_m`` per cycle (split into ``k_m``
        equal pieces).
    pieces:
        Mode → number of quanta per cycle (defaults to 1 per mode).
    overheads:
        Per-switch overheads; a mode with ``k_m`` pieces pays ``k_m · O_m``
        per cycle.

    Layout: the cycle is divided into ``F = max k_m`` equal frames; mode
    ``m`` places one piece (usable + overhead) in frames
    ``0, F/k_m, 2F/k_m, …`` in the canonical FT→FS→NF order inside each
    frame; the remainder of each frame is idle reserve.
    """

    def __init__(
        self,
        period: float,
        usable: Mapping[Mode, float],
        pieces: Mapping[Mode, int] | None = None,
        overheads: Overheads | None = None,
    ):
        check_positive("period", period)
        self._P = float(period)
        self._O = overheads or Overheads.zero()
        self._k = {m: int((pieces or {}).get(m, 1)) for m in Mode}
        for m, k in self._k.items():
            if k < 1:
                raise ValueError(f"pieces[{m}] must be >= 1: got {k}")
        self._usable = {m: float(usable.get(m, 0.0)) for m in Mode}
        for m, q in self._usable.items():
            if q < 0:
                raise ValueError(f"usable[{m}] must be >= 0: got {q}")
        total = sum(
            q + self._k[m] * self._O.of(m)
            for m, q in self._usable.items()
            if q > EPS
        )
        if total > self._P + EPS:
            raise ValueError(
                f"slots + per-piece overheads ({total:.6f}) exceed the "
                f"period ({self._P})"
            )
        self._template = self._build_template()

    # -- layout ------------------------------------------------------------------

    def _build_template(self) -> list[tuple[float, float, str, Mode | None]]:
        frames = max(self._k.values())
        frame_len = self._P / frames
        piece_cost = {
            m: self._usable[m] / self._k[m] + self._O.of(m)
            for m in Mode
            if self._usable[m] > EPS
        }
        # Assign pieces to frames. A mode with k pieces uses every
        # (frames/k)-th frame; the free offset is chosen to balance frame
        # loads so no frame overflows while others idle.
        per_frame: list[list[Mode]] = [[] for _ in range(frames)]
        load = [0.0] * frames
        for mode in sorted(
            piece_cost, key=lambda m: (-self._k[m], MODE_ORDER.index(m))
        ):
            k = self._k[mode]
            stride = frames / k
            best_offset, best_peak = 0, float("inf")
            max_off = max(int(stride), 1)
            for off in range(max_off):
                idxs = [int(round(i * stride + off)) % frames for i in range(k)]
                if len(set(idxs)) < k:
                    continue
                peak = max(load[i] + piece_cost[mode] for i in idxs)
                if peak < best_peak - EPS:
                    best_peak, best_offset = peak, off
            idxs = [
                int(round(i * stride + best_offset)) % frames for i in range(k)
            ]
            for i in idxs:
                per_frame[i].append(mode)
                load[i] += piece_cost[mode]
        # Within a frame, modes with more pieces go first: their windows then
        # sit at identical frame-relative offsets, keeping inter-piece gaps
        # even (the idealised (P − Q̃)/k delay is then achieved exactly when
        # every frame hosting the mode has the same prefix).
        template: list[tuple[float, float, str, Mode | None]] = []
        for f, modes in enumerate(per_frame):
            cursor = f * frame_len
            end_of_frame = (f + 1) * frame_len
            ordered = sorted(
                modes, key=lambda m: (-self._k[m], MODE_ORDER.index(m))
            )
            for mode in ordered:
                piece = self._usable[mode] / self._k[mode]
                o = self._O.of(mode)
                if cursor + piece + o > end_of_frame + EPS:
                    raise ValueError(
                        f"frame {f} overflows: mode pieces do not fit — "
                        f"reduce quanta or pieces"
                    )
                template.append((cursor, cursor + piece, "usable", mode))
                cursor += piece
                if o > EPS:
                    template.append((cursor, cursor + o, "overhead", mode))
                    cursor += o
            if end_of_frame - cursor > EPS:
                template.append((cursor, end_of_frame, "idle", None))
        return template

    # -- SlotSchedule-compatible interface ----------------------------------------

    @property
    def period(self) -> float:
        """Major cycle length ``P``."""
        return self._P

    @property
    def overheads(self) -> Overheads:
        """Per-switch overheads."""
        return self._O

    def pieces(self, mode: Mode) -> int:
        """Quanta per cycle serving ``mode``."""
        return self._k[mode]

    def usable(self, mode: Mode) -> float:
        """Total usable time of the mode per cycle."""
        return self._usable[mode]

    def quantum(self, mode: Mode) -> float:
        """Total slot time of the mode per cycle (usable + all overheads)."""
        if self._usable[mode] <= EPS:
            return 0.0
        return self._usable[mode] + self._k[mode] * self._O.of(mode)

    def alpha(self, mode: Mode) -> float:
        """Supply rate ``Q̃_m / P``."""
        return self._usable[mode] / self._P

    def delta(self, mode: Mode) -> float:
        """Worst-case supply delay of the *realised* layout."""
        return self.supply(mode).delta

    def cycle_template(self) -> list[tuple[float, float, str, Mode | None]]:
        """The generic timeline interface (see SlotSchedule)."""
        return list(self._template)

    def usable_window(self, mode: Mode) -> tuple[float, float]:
        """First usable window of the mode (critical-phasing anchor)."""
        for a, b, kind, m in self._template:
            if kind == "usable" and m is mode:
                return (a, b)
        return (0.0, 0.0)

    @property
    def idle_reserve(self) -> float:
        """Unallocated time per cycle."""
        return sum(b - a for a, b, kind, _m in self._template if kind == "idle")

    def supply(self, mode: Mode) -> SlotLayoutSupply:
        """Exact supply of the mode's realised window layout."""
        windows = [
            (a, b) for a, b, kind, m in self._template
            if kind == "usable" and m is mode
        ]
        return SlotLayoutSupply(self._P, windows)

    def linear_supply(self, mode: Mode) -> LinearSupply:
        """Bounded-delay abstraction of the realised layout."""
        z = self.supply(mode)
        if z.alpha <= 0:
            return LinearSupply(0.0, 0.0)
        return LinearSupply(z.alpha, z.delta)

    def __repr__(self) -> str:
        ks = ", ".join(
            f"{m}:{self._usable[m]:.3g}x{self._k[m]}" for m in MODE_ORDER
        )
        return f"SplitSchedule(P={self._P:.4g}, {ks})"


@dataclass(frozen=True)
class SplitDesign:
    """Result of :func:`design_split_platform`."""

    schedule: SplitSchedule
    algorithm: str
    pieces: Mapping[Mode, int]
    min_quanta: Mapping[Mode, float]
    slack: float

    @property
    def period(self) -> float:
        """Major cycle length."""
        return self.schedule.period

    def summary(self) -> str:
        """Readable description of the split design."""
        lines = [
            f"split design ({self.algorithm}); P = {self.period:.4f}, "
            f"slack = {self.slack:.4f}"
        ]
        for m in MODE_ORDER:
            lines.append(
                f"  {m}: Q̃ = {self.schedule.usable(m):.4f} in "
                f"{self.pieces.get(m, 1)} pieces "
                f"(delay {self.schedule.delta(m):.4f})"
                if self.schedule.usable(m) > 0
                else f"  {m}: (empty)"
            )
        return "\n".join(lines)


def _bin_point_demands(
    taskset: TaskSet, algorithm: str
) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """Precomputed (points, demands, is_edf) groups for vectorised sweeps."""
    alg = algorithm.upper()
    groups: list[tuple[np.ndarray, np.ndarray, bool]] = []
    if len(taskset) == 0:
        return groups
    if alg == "EDF":
        groups.append((*edf_demand(taskset), True))
        return groups
    order = priority_order(taskset, alg)
    for i, task in enumerate(order):
        hp = order[:i]
        pts = np.asarray(scheduling_points(task, hp), dtype=float)
        groups.append((pts, fp_workload_array(task, hp, pts), False))
    return groups


def _split_region_lhs(
    partition: PartitionedTaskSet,
    algorithm: str,
    pieces: Mapping[Mode, int],
    ps: np.ndarray,
) -> np.ndarray:
    """Eq.-15 analogue with per-mode splitting; per-piece overheads are
    added by the caller (as the paper adds ``O_tot`` to the plain LHS)."""
    out = ps.copy()
    for mode in Mode:
        k = pieces.get(mode, 1)
        best = np.zeros_like(ps)
        for ts in partition.bins(mode):
            for pts, w, is_edf in _bin_point_demands(ts, algorithm):
                f = _f_quantum_split(pts[:, None], w[:, None], ps[None, :], k)
                best = np.maximum(best, f.max(axis=0) if is_edf else f.min(axis=0))
        out -= best
    return out


def _ensure_layout_feasible(
    partition: PartitionedTaskSet,
    algorithm: str,
    schedule: SplitSchedule,
) -> bool:
    """Check every bin against the *realised* layout's exact supply."""
    alg = algorithm.upper()
    for mode in Mode:
        supply = schedule.supply(mode)
        for ts in partition.bins(mode):
            if len(ts) == 0:
                continue
            if alg == "EDF":
                ok = edf_schedulable_supply(ts, supply).schedulable
            else:
                ok = fp_schedulable_supply(ts, supply, alg).schedulable
            if not ok:
                return False
    return True


def design_split_platform(
    partition: PartitionedTaskSet,
    algorithm: str,
    overheads: Overheads,
    pieces: Mapping[Mode, int],
    *,
    p_max: float = 64.0,
    grid: int = 2001,
    inflation_steps: int = 8,
) -> SplitDesign:
    """Max-period design with per-mode multi-quantum service.

    Finds the largest period ``P`` such that the split quanta plus all
    per-piece overheads fit the cycle (the Eq.-15 analogue), builds the
    interleaved :class:`SplitSchedule`, verifies the realised layout with
    exact supplies, and — if the idealised even-gap assumption was slightly
    optimistic — inflates the quanta into the remaining slack until the
    layout verifies (at most ``inflation_steps`` rounds of +2% each).

    Raises :class:`~repro.core.design.DesignError` when no feasible split
    design exists.
    """
    pieces = {m: int(pieces.get(m, 1)) for m in Mode}
    otot = sum(
        pieces[m] * overheads.of(m)
        for m in Mode
        if len(partition.mode_taskset(m)) > 0
    )
    ps = np.linspace(p_max / grid, p_max, grid)
    g = _split_region_lhs(partition, algorithm, pieces, ps)
    ok = np.nonzero(g >= otot)[0]
    if ok.size == 0:
        raise DesignError(
            f"no feasible period for split design (pieces={pieces}, "
            f"per-cycle overhead {otot:.4f})"
        )
    i = int(ok[-1])
    lo = float(ps[i])
    hi = float(ps[min(i + 1, grid - 1)])
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        val = float(
            _split_region_lhs(partition, algorithm, pieces, np.array([mid]))[0]
        )
        if val >= otot:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    boundary_period = lo

    def build(period: float, scale: float) -> SplitSchedule | None:
        quanta = {}
        for mode in Mode:
            need = max(
                (
                    min_quantum_split(ts, algorithm, period, pieces[mode])
                    for ts in partition.bins(mode)
                    if len(ts)
                ),
                default=0.0,
            )
            quanta[mode] = need * scale
        try:
            return SplitSchedule(period, quanta, pieces, overheads)
        except ValueError:
            return None

    # The idealised even-gap delay model can be slightly optimistic for the
    # realised interleaving, and the boundary period has no slack to absorb
    # the difference. Back off the period geometrically and, at each
    # period, try inflating the quanta into the frame slack.
    period = boundary_period
    for _backoff in range(24):
        scale = 1.0
        for _ in range(inflation_steps):
            schedule = build(period, scale)
            if schedule is not None and _ensure_layout_feasible(
                partition, algorithm, schedule
            ):
                min_quanta = {m: schedule.usable(m) / scale for m in Mode}
                return SplitDesign(
                    schedule=schedule,
                    algorithm=algorithm.upper(),
                    pieces=pieces,
                    min_quanta=min_quanta,
                    slack=schedule.idle_reserve,
                )
            scale *= 1.02
        period *= 0.96
    raise DesignError(
        f"split layout could not be made feasible near P={boundary_period:.4f} "
        f"(pieces={pieces}) — uneven inter-piece gaps exceed the idealised "
        f"delay model's margin"
    )
