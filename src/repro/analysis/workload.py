"""Fixed-priority workload ``W_i(t)`` (Eq. 5 of the paper).

``W_i(t) = C_i + sum_{j in hp(i)} ceil(t / T_j) * C_j`` is the worst-case
cumulative processor demand of task ``i`` and its higher-priority
interference in ``[0, t]`` under the synchronous (critical-instant) release
pattern.

Both entry points route through the integer kernels of
:mod:`repro.analysis.kernels` when ``(task, *higher_priority)`` rescales
onto an exact integer time base; the float fallback snaps interference
counts with the same :func:`~repro.util.fuzzy_ceil` rule scalar and vector.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.analysis import kernels
from repro.model import Task
from repro.util import check_positive, fuzzy_ceil, fuzzy_ceil_array


def fp_workload(task: Task, higher_priority: Sequence[Task], t: float) -> float:
    """``W_i(t)`` at a single point ``t > 0`` (Eq. 5).

    ``t`` may be any finite real scalar (``int``, ``float`` or a NumPy
    scalar); it is taken as a float on both paths.
    """
    t = float(t)
    check_positive("t", t)
    if kernels.fast_kernels_enabled():
        sts = kernels.rescale((task, *higher_priority))
        t_scaled = kernels.scale_scalar(sts, t) if sts is not None else None
        kernels.note_selection(t_scaled is not None)
        if sts is not None and t_scaled is not None:
            total = task.wcet
            for j, tj in enumerate(higher_priority, start=1):
                p = int(sts.periods[j])
                total += ((t_scaled + (p - 1)) // p) * tj.wcet
            return total
    total = task.wcet
    for tj in higher_priority:
        total += float(fuzzy_ceil(t / tj.period)) * tj.wcet
    return total


def fp_workload_array(
    task: Task, higher_priority: Sequence[Task], ts: Iterable[float]
) -> np.ndarray:
    """Vectorised ``W_i(t)`` over an array of points.

    The ``ceil`` snaps to the nearest integer within tolerance so that
    points that are exact multiples of a period (the usual case for
    scheduling points) are not bumped to the next job by float noise.
    """
    t = np.asarray(list(ts), dtype=float)
    if np.any(t <= 0):
        raise ValueError("workload points must be > 0")
    if kernels.fast_kernels_enabled():
        sts = kernels.rescale((task, *higher_priority))
        t_scaled = kernels.scale_points(sts, t) if sts is not None else None
        kernels.note_selection(t_scaled is not None)
        if sts is not None and t_scaled is not None:
            return kernels.workload_array(sts, t_scaled)
    total = np.full_like(t, task.wcet)
    for tj in higher_priority:
        total += fuzzy_ceil_array(t / tj.period) * tj.wcet
    return total
