"""UUniFast utilization generation (Bini & Buttazzo 2005).

Draws ``n`` task utilizations summing exactly to ``u_total``, uniformly over
the simplex — the standard generator for uniprocessor experiments. The
``discard`` variant (Davis & Burns) resamples until every individual
utilization is at most ``u_max``, which keeps the distribution uniform over
the truncated simplex and is the standard multiprocessor adaptation.
"""

from __future__ import annotations

import numpy as np

from repro.generators.randfixedsum import randfixedsum
from repro.util import check_positive


def uunifast(n: int, u_total: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` utilizations summing to ``u_total``, uniform on the simplex."""
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")
    check_positive("u_total", u_total)
    utils = np.empty(n)
    remaining = u_total
    for i in range(n - 1):
        next_remaining = remaining * rng.random() ** (1.0 / (n - 1 - i))
        utils[i] = remaining - next_remaining
        remaining = next_remaining
    utils[n - 1] = remaining
    return utils


def uunifast_discard(
    n: int,
    u_total: float,
    rng: np.random.Generator,
    *,
    u_max: float = 1.0,
    max_attempts: int = 10_000,
) -> np.ndarray:
    """UUniFast with rejection of vectors containing any ``U_i > u_max``.

    At the boundary ``u_total == n * u_max`` the truncated simplex is the
    single vector ``(u_max, ..., u_max)``, returned as is. When the
    acceptance region is so small that ``max_attempts`` resamples all fail
    (``u_total/n`` close to ``u_max``), the draw falls back to
    :func:`~repro.generators.randfixedsum.randfixedsum`, which samples the
    same truncated simplex uniformly without rejection.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")
    check_positive("u_total", u_total)
    if u_total > n * u_max:
        raise ValueError(
            f"infeasible: u_total={u_total} > n*u_max={n * u_max}"
        )
    if u_total == n * u_max:
        return np.full(n, float(u_max))
    for _ in range(max_attempts):
        utils = uunifast(n, u_total, rng)
        if np.all(utils <= u_max):
            return utils
    return randfixedsum(n, u_total, rng, high=u_max)
