"""Exact supply of a statically positioned periodic slot (Lemma 1).

The platform of the paper dedicates, inside every major cycle of length
``P``, one *fixed-position* slot of usable length ``Q̃`` to each mode. The
worst-case window for a task of that mode starts immediately after a slot
ends: it first sees a blackout of ``P − Q̃`` and then full service for ``Q̃``,
repeating. Lemma 1 (from Lipari & Bini 2004) gives:

.. math::

    Z(t) = \\begin{cases}
       j\\,Q̃ & t \\in [jP,\\ (j+1)P - Q̃) \\\\
       t - (j+1)(P - Q̃) & \\text{otherwise}
    \\end{cases}
    \\qquad j = \\lfloor t/P \\rfloor

Note this is *not* the periodic resource model of Shin & Lee, which lets
the budget float inside the period and therefore has a ``2(P−Q̃)``
blackout.
"""

from __future__ import annotations

import numpy as np

from repro.supply.base import SupplyFunction
from repro.util import EPS, check_nonneg, check_positive, fuzzy_ceil, fuzzy_floor


class PeriodicSlotSupply(SupplyFunction):
    """Exact supply ``Z(t)`` of a fixed slot of usable length ``Q̃`` per period ``P``.

    Parameters
    ----------
    period:
        Cycle length ``P`` (> 0).
    budget:
        Usable slot length ``Q̃`` with ``0 <= Q̃ <= P``. (``Q̃`` already
        excludes the mode-switch overhead: ``Q̃ = Q − O``.)
    """

    __slots__ = ("_P", "_Q")

    def __init__(self, period: float, budget: float):
        check_positive("period", period)
        check_nonneg("budget", budget)
        if budget > period + EPS:
            raise ValueError(
                f"budget ({budget}) must not exceed period ({period})"
            )
        self._P = float(period)
        self._Q = float(min(budget, period))

    @property
    def period(self) -> float:
        """Cycle length ``P``."""
        return self._P

    @property
    def budget(self) -> float:
        """Usable slot length ``Q̃``."""
        return self._Q

    @property
    def alpha(self) -> float:
        """Rate ``α = Q̃ / P`` (Eq. 2)."""
        return self._Q / self._P

    @property
    def delta(self) -> float:
        """Delay ``Δ = P − Q̃`` (Eq. 2)."""
        return self._P - self._Q

    def supply(self, t: float) -> float:
        """Exact ``Z(t)`` per Lemma 1."""
        check_nonneg("t", t)
        if self._Q <= 0.0:
            return 0.0
        P, Q = self._P, self._Q
        j = fuzzy_floor(t / P)
        if t < (j + 1) * P - Q:
            # Inside the blackout portion of cycle j: only j full slots seen.
            return j * Q
        return t - (j + 1) * (P - Q)

    def supply_array(self, ts) -> np.ndarray:
        """Vectorised Lemma 1 evaluation."""
        t = np.asarray(ts, dtype=float)
        if self._Q <= 0.0:
            return np.zeros_like(t)
        P, Q = self._P, self._Q
        j = np.floor(t / P + EPS)
        blackout = t < (j + 1) * P - Q
        return np.where(blackout, j * Q, t - (j + 1) * (P - Q))

    def inverse(self, w: float, *, hint: float | None = None) -> float:
        """Closed-form pseudo-inverse: smallest ``t`` with ``Z(t) >= w``.

        For ``w`` in ``(j Q̃, (j+1) Q̃]`` the ramp of cycle ``j`` reaches ``w``
        at ``t = (j+1)(P − Q̃) + w``.
        """
        check_nonneg("w", w)
        if w <= EPS:
            return 0.0
        if self._Q <= 0.0:
            raise ValueError(f"zero budget; cannot ever provide w={w}")
        P, Q = self._P, self._Q
        # w lies in ramp j when w in (jQ, (j+1)Q], i.e. j = ceil(w/Q) - 1;
        # fuzzy_ceil keeps w = jQ (an exact ramp top) in ramp j-1.
        j = max(fuzzy_ceil(w / Q) - 1, 0)
        return (j + 1) * (P - Q) + w

    def __repr__(self) -> str:
        return f"PeriodicSlotSupply(P={self._P:g}, Q̃={self._Q:g})"
