"""Integration between modes: Eqs. 12–15 of the paper.

Each mode ``k`` needs its slot to satisfy ``Q_k − minQ_k(P) >= O_k`` where
``minQ_k(P) = max_i minQ(T_k^i, alg, P)`` over the mode's processor bins
(Eqs. 12, 13, 14). Summing the three inequalities gives the feasible-period
condition (Eq. 15):

.. math::

   G(P) \\;=\\; P - \\sum_{k} \\max_i minQ(T_k^i, alg, P) \\;\\ge\\; O_{tot}

:class:`SystemCurve` packages the whole left-hand side as a vectorised
function of ``P``. It builds one :class:`~repro.core.minq.QuantumCurve` per
non-empty bin and stacks the curves' hull groups
(:attr:`~repro.core.minq.QuantumCurve.hull_groups`) into one ``(t, W)``
array per mode, so ``minQ_k`` at any number of periods is one broadcast of
``f_P`` and one reduction: the max over the stacked points for EDF
(Eq. 11); for RM/DM the min over each task's points, then the max over the
mode's tasks (Eq. 6). Max and min are exact, so the stacked value equals
the per-bin maximum bit for bit. :meth:`SystemCurve.quanta_feasible`
checks a concrete :class:`~repro.core.config.SlotSchedule` against
Eqs. 12–14; :func:`quanta_feasible` builds a curve to do so.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.config import SlotSchedule
from repro.core.minq import QuantumCurve, _f_quantum
from repro.model import MODE_ORDER, Mode, PartitionedTaskSet
from repro.util import EPS, check_positive

#: One non-empty mode's stacked hull points and demands, as ``(n, 1)``
#: columns, and for RM/DM the first row of every task's group (else None).
_Stack = tuple[np.ndarray, np.ndarray, np.ndarray | None]


def _stack_minq(stack: _Stack, ps: np.ndarray) -> np.ndarray:
    """``minQ_k`` at every period of ``ps`` (a 1-D array), floored at 0."""
    t, w, starts = stack
    f = _f_quantum(t, w, ps)  # one row per stacked point
    if starts is not None:
        f = np.minimum.reduceat(f, starts, axis=0)  # Eq. 6: one row per task
    return np.maximum(f.max(axis=0), 0.0)


def _positive_periods(periods: np.ndarray | float) -> np.ndarray:
    ps = np.atleast_1d(np.asarray(periods, dtype=float))
    if np.any(ps <= 0):
        raise ValueError("periods must be > 0")
    return ps


class SystemCurve:
    """Vectorised per-mode ``minQ_k(P)`` and Eq.-15 LHS ``G(P)``.

    Parameters
    ----------
    partition:
        The per-mode, per-processor task partition.
    algorithm:
        Local scheduler used on every logical processor ("RM", "DM", "EDF").
    """

    def __init__(self, partition: PartitionedTaskSet, algorithm: str):
        self._partition = partition
        self._alg = algorithm.upper()
        # One stack per non-empty mode, in Mode order.
        self._stacks: dict[Mode, _Stack] = {}
        for mode in Mode:
            groups = [
                group
                for ts in partition.bins(mode)
                if len(ts) > 0
                for group in QuantumCurve(ts, self._alg).hull_groups
            ]
            if not groups:
                continue
            t = np.concatenate([pts for pts, _w in groups])[:, None]
            w = np.concatenate([w for _pts, w in groups])[:, None]
            # Groups are never empty, so neither is a reduceat segment: an
            # empty one would yield the element at its offset, not the identity.
            starts = (
                None
                if self._alg == "EDF"
                else np.cumsum([0] + [pts.size for pts, _w in groups[:-1]])
            )
            self._stacks[mode] = (t, w, starts)

    @property
    def partition(self) -> PartitionedTaskSet:
        """The underlying partition."""
        return self._partition

    @property
    def algorithm(self) -> str:
        """The local scheduling algorithm."""
        return self._alg

    def _mode_minq(self, mode: Mode, ps: np.ndarray) -> np.ndarray:
        stack = self._stacks.get(mode)
        return np.zeros_like(ps) if stack is None else _stack_minq(stack, ps)

    def mode_minq(self, mode: Mode, periods: np.ndarray | float) -> np.ndarray | float:
        """``minQ_k(P) = max_i minQ(T_k^i, alg, P)`` (0 for an empty mode)."""
        scalar = np.isscalar(periods)
        out = self._mode_minq(mode, _positive_periods(periods))
        return float(out[0]) if scalar else out

    def lhs(self, periods: np.ndarray | float) -> np.ndarray | float:
        """Eq. 15 left-hand side ``G(P) = P − sum_k minQ_k(P)``."""
        scalar = np.isscalar(periods)
        ps = _positive_periods(periods)
        total = ps.copy()
        # Subtract in Mode order; an empty mode subtracts exactly 0.
        for stack in self._stacks.values():
            total -= _stack_minq(stack, ps)
        return float(total[0]) if scalar else total

    def min_quanta(self, period: float) -> dict[Mode, float]:
        """All three binding quanta ``minQ_k(P)`` at one period."""
        check_positive("period", period)
        ps = np.array([float(period)])
        return {mode: float(self._mode_minq(mode, ps)[0]) for mode in Mode}

    def quanta_feasible(
        self, schedule: SlotSchedule, *, tol: float = 1e-9
    ) -> dict[Mode, bool]:
        """Check Eqs. 12–14 for a concrete slot schedule.

        Mode ``k`` passes when ``Q_k − minQ_k(P) >= O_k`` (equivalently
        ``Q̃_k >= minQ_k(P)``). Empty modes pass trivially. The returned
        mapping has one verdict per mode; the schedule as a whole is
        feasible when all three hold (``SlotSchedule`` already guarantees
        ``sum Q_k <= P``).
        """
        return _quanta_verdicts(schedule, self.min_quanta(schedule.period), tol)


def _quanta_verdicts(
    schedule: SlotSchedule, bounds: Mapping[Mode, float], tol: float = 1e-9
) -> dict[Mode, bool]:
    """Eqs. 12–14 per mode, against the binding quanta ``bounds`` at the
    schedule's period: ``Q̃_k`` passes when it reaches ``minQ_k(P)``
    within ``max(tol, EPS * max(1, minQ_k(P)))``."""
    result: dict[Mode, bool] = {}
    for mode in MODE_ORDER:
        need = bounds[mode]
        have = schedule.usable(mode)
        result[mode] = have + max(tol, EPS * max(1.0, need)) >= need
    return result


def quanta_feasible(
    partition: PartitionedTaskSet,
    algorithm: str,
    schedule: SlotSchedule,
    *,
    tol: float = 1e-9,
) -> dict[Mode, bool]:
    """Check Eqs. 12–14 for a concrete slot schedule.

    Builds the partition's :class:`SystemCurve` and returns its
    :meth:`~SystemCurve.quanta_feasible` verdicts, one per mode.
    """
    return SystemCurve(partition, algorithm).quanta_feasible(schedule, tol=tol)
