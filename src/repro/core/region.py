"""Feasible-period region analysis (the engine behind Figure 4).

The paper plots ``G(P)`` — the left-hand side of Eq. 15 — against ``P`` for
both EDF and RM and reads several designs off the curve:

* point 1 / 2: the maximum feasible period at zero overhead
  (largest root of ``G(P) = 0``);
* point 3 / 4: the maximum admissible total overhead
  (the global maximum of ``G``);
* point 5: the maximum feasible period at a given overhead
  (largest ``P`` with ``G(P) = O_tot``);
* Table 2(c): the period maximising the *slack ratio* ``(G(P) − O_tot)/P``
  (the steepest dashed line through the origin staying under the curve).

``G`` is continuous and piecewise-smooth with kinks where the binding
scheduling point/task switches, and is eventually strictly decreasing (for
large ``P`` each ``minQ_k`` grows like ``P − t_k*``, so the sum of three such
terms overtakes ``P``). The sweeps below therefore use a fine grid plus
bisection/local refinement, which is robust to the kinks.

A region evaluates ``G`` through one
:class:`~repro.core.integration.SystemCurve` (the stacked hull arrays of
every bin) and computes its default grid sweep at most once: every query
starts from that shared sweep, then bisects or refines on the same curve.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.integration import SystemCurve
from repro.model import Mode, PartitionedTaskSet
from repro.util import check_nonneg, check_positive


@dataclass(frozen=True)
class RegionPoint:
    """A named point of the feasible region (see Figure 4)."""

    period: float
    lhs: float  # G(period)


class FeasibleRegion:
    """Sweeps and queries of the Eq.-15 region for one partition/algorithm.

    Parameters
    ----------
    partition:
        Per-mode, per-processor partition.
    algorithm:
        "RM", "DM" or "EDF".
    p_max:
        Upper end of the sweep range. Defaults to auto-expansion until the
        curve has fallen clearly below zero (all designs of interest lie at
        ``G >= 0``).
    grid:
        Number of grid points per sweep (the default resolves the paper's
        3-decimal values comfortably once combined with refinement).
    """

    def __init__(
        self,
        partition: PartitionedTaskSet,
        algorithm: str,
        *,
        p_max: float | None = None,
        grid: int = 4001,
    ):
        if grid < 100:
            raise ValueError(f"grid must be >= 100: got {grid}")
        self._curve = SystemCurve(partition, algorithm)
        self._grid = int(grid)
        self._p_max = float(p_max) if p_max is not None else self._auto_p_max()
        self._default_sweep: tuple[np.ndarray, np.ndarray] | None = None

    # -- basic evaluation --------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """The local scheduling algorithm."""
        return self._curve.algorithm

    @property
    def p_max(self) -> float:
        """Upper end of the sweep range."""
        return self._p_max

    @property
    def system_curve(self) -> SystemCurve:
        """The underlying Eq.-15 curve object."""
        return self._curve

    def lhs(self, periods: np.ndarray | float) -> np.ndarray | float:
        """``G(P)`` for scalar or array input."""
        return self._curve.lhs(periods)

    def _auto_p_max(self) -> float:
        """Find a sweep end beyond the last zero crossing of ``G``.

        Tries ``8, 16, ..., 2**59``: the sweep always reaches past ``P = 4``.
        """
        hi = 8.0
        for _ in range(57):
            ps = np.linspace(hi / 2, hi, 64)
            if np.all(self._curve.lhs(ps) < 0.0):
                return hi
            hi *= 2.0
        raise RuntimeError(
            "could not bracket the feasible region; is the partition feasible at all?"
        )

    def sweep(
        self, p_min: float | None = None, p_max: float | None = None, n: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(P grid, G(P))`` — the Figure 4 series.

        With no arguments this is the default sweep (``grid`` points up to
        :attr:`p_max`), computed once per region and returned as read-only
        arrays.
        """
        default = p_min is None and p_max is None and n is None
        if default and self._default_sweep is not None:
            return self._default_sweep
        lo = p_min if p_min is not None else self._p_max / self._grid
        hi = p_max if p_max is not None else self._p_max
        check_positive("p_min", lo)
        if hi <= lo:
            raise ValueError(f"empty sweep range [{lo}, {hi}]")
        ps = np.linspace(lo, hi, n or self._grid)
        g = np.asarray(self._curve.lhs(ps))
        if default:
            ps.flags.writeable = False
            g.flags.writeable = False
            self._default_sweep = (ps, g)
        return ps, g

    # -- queries ------------------------------------------------------------------

    def max_feasible_period(self, otot: float = 0.0, *, tol: float = 1e-9) -> float:
        """Largest ``P`` with ``G(P) >= O_tot`` (points 1, 2 and 5 of Fig. 4).

        Raises :class:`ValueError` when no period is feasible for the given
        total overhead.
        """
        check_nonneg("otot", otot)
        ps, g = self.sweep()
        ok = g >= otot
        if not np.any(ok):
            # The grid may have missed a narrow feasible spike; refine around
            # the global maximum before giving up.
            peak = self.max_admissible_overhead()
            if peak.lhs < otot:
                raise ValueError(
                    f"no feasible period: max admissible overhead is "
                    f"{peak.lhs:.6f} < O_tot={otot:.6f}"
                )
            lo, hi = peak.period, self._p_max
        else:
            i = int(np.nonzero(ok)[0][-1])
            if i == len(ps) - 1:
                # G still >= otot at the sweep end — expand, on the same curve.
                wider = copy.copy(self)
                wider._p_max = self._p_max * 2
                wider._default_sweep = None
                return wider.max_feasible_period(otot, tol=tol)
            lo, hi = float(ps[i]), float(ps[i + 1])
        # Bisection: G(lo) >= otot > G(hi).
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self._curve.lhs(mid)) >= otot:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, hi):
                break
        return lo

    def max_admissible_overhead(self) -> RegionPoint:
        """Global maximum of ``G`` (points 3 and 4 of Fig. 4).

        Returns the :class:`RegionPoint` ``(P*, G(P*))``; any total overhead
        up to ``G(P*)`` admits at least one feasible period.
        """
        ps, g = self.sweep()
        i = int(np.argmax(g))
        lo = float(ps[max(i - 1, 0)])
        hi = float(ps[min(i + 1, len(ps) - 1)])
        # Local dense refinement (G is piecewise smooth; two rounds of dense
        # grids give ~1e-9 accuracy on the argmax segment).
        for _ in range(4):
            fine = np.linspace(lo, hi, 2001)
            gv = np.asarray(self._curve.lhs(fine))
            j = int(np.argmax(gv))
            lo = float(fine[max(j - 1, 0)])
            hi = float(fine[min(j + 1, len(fine) - 1)])
        p_star = 0.5 * (lo + hi)
        return RegionPoint(p_star, float(self._curve.lhs(p_star)))

    def max_slack_ratio(self, otot: float = 0.0) -> tuple[float, RegionPoint]:
        """Maximise the redistribution ratio ``(G(P) − O_tot) / P``.

        This is the Table 2(c) design criterion — the steepest line through
        ``(0, O_tot)`` staying below the curve. Returns
        ``(ratio, RegionPoint(P*, G(P*)))``.

        Raises :class:`ValueError` when no feasible period exists.
        """
        check_nonneg("otot", otot)
        ps, g = self.sweep()
        ratios = (g - otot) / ps
        i = int(np.argmax(ratios))
        if ratios[i] < 0:
            raise ValueError(
                f"no feasible period for O_tot={otot}: best ratio {ratios[i]:.6f} < 0"
            )
        lo = float(ps[max(i - 1, 0)])
        hi = float(ps[min(i + 1, len(ps) - 1)])
        for _ in range(4):
            fine = np.linspace(lo, hi, 2001)
            gv = np.asarray(self._curve.lhs(fine))
            rv = (gv - otot) / fine
            j = int(np.argmax(rv))
            lo = float(fine[max(j - 1, 0)])
            hi = float(fine[min(j + 1, len(fine) - 1)])
        p_star = 0.5 * (lo + hi)
        g_star = float(self._curve.lhs(p_star))
        return (g_star - otot) / p_star, RegionPoint(p_star, g_star)

    def is_feasible(self, period: float, otot: float = 0.0) -> bool:
        """Check Eq. 15 at one period: ``G(P) >= O_tot``."""
        check_positive("period", period)
        check_nonneg("otot", otot)
        return float(self._curve.lhs(period)) >= otot - 1e-12

    def min_quanta(self, period: float) -> dict[Mode, float]:
        """Per-mode binding quanta at a period (delegates to the curve)."""
        return self._curve.min_quanta(period)
