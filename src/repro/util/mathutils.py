"""Numeric helpers: tolerant float comparisons and exact rational LCM.

Real-time schedulability math mixes closed-form irrational values (the minQ
formula contains a square root) with exact integer task parameters. Analysis
code works in floats with the tolerances defined here; hyperperiods of
integer/rational task sets are computed exactly over :class:`fractions.Fraction`
to avoid float LCM pitfalls.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

#: Absolute tolerance used for event ordering and feasibility comparisons.
EPS: float = 1e-9

#: Relative tolerance for comparisons between quantities of arbitrary scale.
REL_TOL: float = 1e-9


def feq(a: float, b: float, eps: float = EPS) -> bool:
    """Return True if ``a`` and ``b`` are equal within mixed abs/rel tolerance."""
    return abs(a - b) <= max(eps, REL_TOL * max(abs(a), abs(b)))


def approx_le(a: float, b: float, eps: float = EPS) -> bool:
    """Return True if ``a <= b`` allowing tolerance ``eps``."""
    return a <= b or feq(a, b, eps)


def fuzzy_floor(x: float, eps: float = EPS) -> int:
    """``floor`` robust to float noise just below an integer.

    ``fuzzy_floor(2.9999999999) == 3`` — needed when computing interference
    counts ``floor(t/T)`` at points ``t`` that are exact multiples of ``T``
    but were produced by float arithmetic. Snaps only to the *nearest*
    integer, so a large relative tolerance can never jump several integers.
    """
    tol = max(eps, REL_TOL * abs(x))
    nearest = round(x)
    if abs(x - nearest) <= tol:
        return int(nearest)
    return math.floor(x)


def fuzzy_ceil(x: float, eps: float = EPS) -> int:
    """``ceil`` robust to float noise just above an integer (see fuzzy_floor)."""
    tol = max(eps, REL_TOL * abs(x))
    nearest = round(x)
    if abs(x - nearest) <= tol:
        return int(nearest)
    return math.ceil(x)


def fuzzy_floor_array(x: "np.ndarray", eps: float = EPS) -> "np.ndarray":
    """Vectorised :func:`fuzzy_floor` (float array out).

    The one tolerance rule for interference/job counts, shared by the scalar
    and array demand paths: snap to the *nearest* integer within mixed
    abs/rel tolerance, else plain floor. The former array rule
    (``floor(x + EPS)``) lacked the relative term, so scalar and vector
    demands diverged for large job counts — exactly at deadline boundaries.
    """
    x = np.asarray(x, dtype=float)
    nearest = np.rint(x)
    tol = np.maximum(eps, REL_TOL * np.abs(x))
    return np.where(np.abs(x - nearest) <= tol, nearest, np.floor(x))


def fuzzy_ceil_array(x: "np.ndarray", eps: float = EPS) -> "np.ndarray":
    """Vectorised :func:`fuzzy_ceil` (float array out) — see fuzzy_floor_array."""
    x = np.asarray(x, dtype=float)
    nearest = np.rint(x)
    tol = np.maximum(eps, REL_TOL * np.abs(x))
    return np.where(np.abs(x - nearest) <= tol, nearest, np.ceil(x))


def boundary_le(t: float, limit: float, eps: float = EPS) -> bool:
    """Inclusion rule ``t <= limit`` with an on-boundary band of ``±eps``.

    A point inside the band counts as *on* the boundary and is included:
    ``deadline_set``'s horizon rule. The integer kernels implement the
    same rule with the band collapsed to zero.
    """
    return t <= limit + eps


def to_fraction(value: float | int | Fraction, max_denominator: int = 10**9) -> Fraction:
    """Convert a number to an exact :class:`Fraction`.

    Integers and Fractions convert losslessly. Floats are rationalised via
    :meth:`Fraction.limit_denominator` with a large default denominator bound,
    which recovers exact values for task parameters that were originally
    rational (e.g. ``0.25``) while keeping irrational design outputs close.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot convert non-finite value {value!r} to Fraction")
    return Fraction(value).limit_denominator(max_denominator)


def lcm_fractions(values: Sequence[Fraction]) -> Fraction:
    """Exact least common multiple of positive rationals.

    For fractions ``a_i/b_i`` in lowest terms,
    ``lcm = lcm(a_1..a_n) / gcd(b_1..b_n)``; this is the smallest positive
    rational that is an integer multiple of every input.
    """
    if not values:
        return Fraction(1)
    num = 1
    den = 0
    for v in values:
        if v <= 0:
            raise ValueError(f"lcm_fractions requires positive values, got {v}")
        num = num * v.numerator // math.gcd(num, v.numerator)
        den = math.gcd(den, v.denominator)
    return Fraction(num, den if den else 1)
