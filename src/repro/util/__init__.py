"""Shared numeric and validation utilities.

This package holds the small helpers used across the library: floating-point
tolerances, exact LCM/hyperperiod arithmetic over rationals, and argument
validation with consistent error messages.
"""

from repro.util.mathutils import (
    EPS,
    REL_TOL,
    approx_le,
    boundary_le,
    feq,
    fuzzy_ceil,
    fuzzy_ceil_array,
    fuzzy_floor,
    fuzzy_floor_array,
    lcm_fractions,
    to_fraction,
)
from repro.util.validation import (
    check_core_count,
    check_finite,
    check_in_range,
    check_nonneg,
    check_positive,
    check_type,
)

__all__ = [
    "EPS",
    "REL_TOL",
    "approx_le",
    "boundary_le",
    "feq",
    "fuzzy_ceil",
    "fuzzy_ceil_array",
    "fuzzy_floor",
    "fuzzy_floor_array",
    "lcm_fractions",
    "to_fraction",
    "check_core_count",
    "check_finite",
    "check_in_range",
    "check_nonneg",
    "check_positive",
    "check_type",
]
