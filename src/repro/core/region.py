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
Each ``G`` call costs little more for a few hundred periods than for one,
so the searches batch their periods without changing a result bit:

* the bracket evaluates four octaves ``[hi/2, hi]`` per call; each octave
  end is a power of two, so ``hi * _OCTAVE`` is exactly
  ``np.linspace(hi / 2, hi, 64)``;
* the bisection evaluates up to 24 midpoints per call along the path that
  a chord through the bracket ends predicts, then applies their real signs
  in order, as a one-period-per-step loop would, up to the first sign the
  prediction got wrong. Every midpoint it uses is that loop's midpoint;
  the prediction only chooses which periods to evaluate.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.integration import SystemCurve
from repro.model import Mode, PartitionedTaskSet
from repro.util import check_nonneg, check_positive

#: ``[hi/2, hi]`` as fractions of an octave end ``hi`` (64 periods).
_OCTAVE = np.linspace(0.5, 1.0, 64)
#: The octave ends the bracket tries: ``8, 16, ..., 2**59``.
_OCTAVE_ENDS = np.ldexp(8.0, np.arange(57))
_OCTAVES_PER_CALL = 4
_BRACKET_ERROR = (
    "could not bracket the feasible region; is the partition feasible at all?"
)
#: Midpoints one bisection call evaluates, and the steps one bisection takes.
_LEVELS_PER_CALL = 24
_MAX_STEPS = 200


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
        Upper end of the sweep range (finite, > 0). Defaults to
        auto-expansion until the curve has fallen clearly below zero (all
        designs of interest lie at ``G >= 0``).
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
        if p_max is not None:
            check_positive("p_max", p_max)
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

        Returns the first octave end ``hi`` in ``8, 16, ..., 2**59`` with
        ``G < 0`` at all 64 periods of ``np.linspace(hi / 2, hi, 64)``: the
        sweep always reaches past ``P = 4``.
        """
        for j in range(0, len(_OCTAVE_ENDS), _OCTAVES_PER_CALL):
            ends = _OCTAVE_ENDS[j : j + _OCTAVES_PER_CALL]
            g = self._curve.lhs((ends[:, None] * _OCTAVE).ravel())
            below = np.all(g.reshape(len(ends), -1) < 0.0, axis=1)
            if below.any():
                return float(ends[below.argmax()])
        raise RuntimeError(_BRACKET_ERROR)

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
        if n is not None and n < 2:
            raise ValueError(f"n must be >= 2: got {n}")
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
        total overhead. When ``G >= O_tot`` still holds at the end of the
        default sweep, the search sweeps copies of the region with
        :attr:`p_max` doubled until it does not, and raises
        :class:`RuntimeError` once the sweep end would pass ``2**59``.
        """
        check_nonneg("otot", otot)
        region = self
        ps, g = region.sweep()
        while g[-1] >= otot:
            # G still >= otot at the sweep end: widen a copy, on the same
            # curve, up to the bracket's last octave end.
            if region._p_max * 2 > _OCTAVE_ENDS[-1]:
                raise RuntimeError(_BRACKET_ERROR)
            region = copy.copy(region)
            region._p_max *= 2
            region._default_sweep = None
            ps, g = region.sweep()
        ok = g >= otot
        if not np.any(ok):
            # The grid may have missed a narrow feasible spike; refine around
            # the global maximum before giving up.
            peak = region.max_admissible_overhead()
            if peak.lhs < otot:
                raise ValueError(
                    f"no feasible period: max admissible overhead is "
                    f"{peak.lhs:.6f} < O_tot={otot:.6f}"
                )
            return self._bisect(peak.period, region._p_max, peak.lhs, g[-1], otot, tol)
        i = int(np.nonzero(ok)[0][-1])
        return self._bisect(ps[i], ps[i + 1], g[i], g[i + 1], otot, tol)

    def _bisect(
        self, lo: float, hi: float, g_lo: float, g_hi: float, otot: float, tol: float
    ) -> float:
        """Bisect ``G(lo) >= otot > G(hi)`` down to ``tol`` (relative) width.

        Each round guesses the rest of the path from the chord through
        ``(lo, G(lo))`` and ``(hi, G(hi))``, evaluates up to
        ``_LEVELS_PER_CALL`` of its midpoints in one call and applies their
        real signs in order, stopping after the first wrong guess: every
        applied midpoint is the one a one-period-per-step loop would take.
        """
        lo, hi, g_lo, g_hi = float(lo), float(hi), float(g_lo), float(g_hi)
        steps = 0
        while True:
            drop = g_lo - g_hi
            cross = lo + (hi - lo) * ((g_lo - otot) / drop) if drop > 0 else hi
            mids: list[float] = []
            guesses: list[bool] = []
            a, b = lo, hi
            for _ in range(min(_LEVELS_PER_CALL, _MAX_STEPS - steps)):
                mid = 0.5 * (a + b)
                # A midpoint rounded onto ``a`` is as feasible as ``a``.
                feasible = mid == a or mid < cross
                mids.append(mid)
                guesses.append(feasible)
                if feasible:
                    a = mid
                else:
                    b = mid
                if b - a <= tol * max(1.0, b):
                    break
            values = self._curve.lhs(np.array(mids)).tolist()
            for mid, guess, value in zip(mids, guesses, values):
                steps += 1
                feasible = value >= otot
                if feasible:
                    lo, g_lo = mid, value
                else:
                    hi, g_hi = mid, value
                if hi - lo <= tol * max(1.0, hi) or steps == _MAX_STEPS:
                    return lo
                if feasible != guess:
                    break

    def _zoom_argmax(
        self,
        ps: np.ndarray,
        i: int,
        score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> float:
        """Refine the argmax ``ps[i]`` of ``score(P, G(P))`` over a sweep.

        Four rounds of 2001 periods between the neighbours of the current
        argmax (``G`` is piecewise smooth, so this reaches ~1e-9 on the
        argmax segment); returns the centre of the last bracket.
        """
        lo = float(ps[max(i - 1, 0)])
        hi = float(ps[min(i + 1, len(ps) - 1)])
        for _ in range(4):
            fine = np.linspace(lo, hi, 2001)
            j = int(np.argmax(score(fine, self._curve.lhs(fine))))
            lo = float(fine[max(j - 1, 0)])
            hi = float(fine[min(j + 1, len(fine) - 1)])
        return 0.5 * (lo + hi)

    def max_admissible_overhead(self) -> RegionPoint:
        """Global maximum of ``G`` (points 3 and 4 of Fig. 4).

        Returns the :class:`RegionPoint` ``(P*, G(P*))``; any total overhead
        up to ``G(P*)`` admits at least one feasible period.
        """
        ps, g = self.sweep()
        p_star = self._zoom_argmax(ps, int(np.argmax(g)), lambda _ps, gv: gv)
        return RegionPoint(p_star, float(self._curve.lhs(p_star)))

    def max_slack_ratio(self, otot: float = 0.0) -> tuple[float, RegionPoint]:
        """Maximise the redistribution ratio ``(G(P) − O_tot) / P``.

        This is the Table 2(c) design criterion — the steepest line through
        ``(0, O_tot)`` staying below the curve. Returns
        ``(ratio, RegionPoint(P*, G(P*)))``.

        Raises :class:`ValueError` when no feasible period exists.
        """
        check_nonneg("otot", otot)

        def ratio(ps: np.ndarray, g: np.ndarray) -> np.ndarray:
            return (g - otot) / ps

        ps, g = self.sweep()
        ratios = ratio(ps, g)
        i = int(np.argmax(ratios))
        if ratios[i] < 0:
            raise ValueError(
                f"no feasible period for O_tot={otot}: best ratio {ratios[i]:.6f} < 0"
            )
        p_star = self._zoom_argmax(ps, i, ratio)
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
