"""Period generators.

Real-time experiments conventionally draw periods log-uniformly (Emberson et
al.) so every order of magnitude is equally represented; a uniform
generator is provided for sensitivity studies, and a hyperperiod-limited one
keeps the exact analyses tractable. The uniform and log-uniform generators
can round periods to a granularity ``g`` (keeping hyperperiods manageable
for the EDF ``dlSet`` computations).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.util import check_positive


def _round_to(values: np.ndarray, granularity: float | None) -> np.ndarray:
    if granularity is None:
        return values
    check_positive("granularity", granularity)
    out = np.round(values / granularity) * granularity
    return np.maximum(out, granularity)


def uniform_periods(
    n: int,
    rng: np.random.Generator,
    *,
    low: float = 10.0,
    high: float = 100.0,
    granularity: float | None = None,
) -> np.ndarray:
    """``n`` periods uniform in ``[low, high]``."""
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")
    check_positive("low", low)
    if high <= low:
        raise ValueError(f"empty range [{low}, {high}]")
    return _round_to(rng.uniform(low, high, n), granularity)


def loguniform_periods(
    n: int,
    rng: np.random.Generator,
    *,
    low: float = 10.0,
    high: float = 1000.0,
    granularity: float | None = None,
) -> np.ndarray:
    """``n`` periods log-uniform in ``[low, high]`` (Emberson et al.)."""
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")
    check_positive("low", low)
    if high <= low:
        raise ValueError(f"empty range [{low}, {high}]")
    return _round_to(
        np.exp(rng.uniform(np.log(low), np.log(high), n)), granularity
    )


def hyperperiod_limited_periods(
    n: int,
    rng: np.random.Generator,
    *,
    low: float = 10.0,
    high: float = 1000.0,
    hyperperiod: float = 3600.0,
) -> np.ndarray:
    """``n`` periods drawn from the divisors of ``hyperperiod`` in ``[low, high]``.

    The Goossens-&-Macq-style limitation: every sampled period divides the
    given ``hyperperiod``, so any subset of tasks has a hyperperiod that
    divides it too. This keeps the EDF ``dlSet`` (and thus the vectorised
    ``minQ`` curves behind the campaign sweeps) small and *exact* even for
    wide period ranges, where free log-uniform integer periods make the LCM
    explode. Divisors are weighted ``1/d`` to approximate the conventional
    log-uniform spread across magnitudes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")
    divisors, probabilities = _period_lattice(low, high, hyperperiod)
    return rng.choice(divisors, size=n, p=probabilities)


@lru_cache(maxsize=64)
def _period_lattice(
    low: float, high: float, hyperperiod: float
) -> tuple[np.ndarray, np.ndarray]:
    """The divisors of ``hyperperiod`` in ``[low, high]`` and their ``1/d``
    probabilities, as read-only arrays: the online preset draws one period
    per arrival from the same lattice."""
    check_positive("low", low)
    if high <= low:
        raise ValueError(f"empty range [{low}, {high}]")
    base = int(round(hyperperiod))
    if base < 1 or abs(hyperperiod - base) > 1e-9:
        raise ValueError(f"hyperperiod must be a positive integer: got {hyperperiod}")
    divs: set[int] = set()
    for d in range(1, int(base**0.5) + 1):
        if base % d == 0:
            divs.add(d)
            divs.add(base // d)
    divisors = np.array(
        sorted(d for d in divs if low <= d <= high), dtype=float
    )
    if len(divisors) < 2:
        raise ValueError(
            f"hyperperiod {base} has fewer than 2 divisors in [{low}, {high}]"
        )
    weights = 1.0 / divisors
    probabilities = weights / weights.sum()
    divisors.flags.writeable = False
    probabilities.flags.writeable = False
    return divisors, probabilities
