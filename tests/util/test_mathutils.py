"""Unit tests for numeric helpers."""

import math
from fractions import Fraction

import pytest

from repro.util import (
    EPS,
    approx_le,
    feq,
    fuzzy_ceil,
    fuzzy_floor,
    lcm_fractions,
    to_fraction,
)


class TestFloatComparisons:
    def test_feq_exact(self):
        assert feq(1.0, 1.0)

    def test_feq_within_abs_tolerance(self):
        assert feq(1.0, 1.0 + 1e-12)

    def test_feq_within_rel_tolerance_large_values(self):
        assert feq(1e12, 1e12 * (1 + 1e-10))

    def test_feq_rejects_distinct(self):
        assert not feq(1.0, 1.001)

    def test_approx_le(self):
        assert approx_le(1.0, 1.0)
        assert approx_le(1.0 + 1e-12, 1.0)
        assert not approx_le(1.1, 1.0)


class TestFuzzyRounding:
    def test_fuzzy_floor_plain(self):
        assert fuzzy_floor(2.7) == 2

    def test_fuzzy_floor_just_below_integer(self):
        assert fuzzy_floor(3.0 - 1e-12) == 3

    def test_fuzzy_floor_exact_integer(self):
        assert fuzzy_floor(5.0) == 5

    def test_fuzzy_floor_negative(self):
        assert fuzzy_floor(-1.2) == -2

    def test_fuzzy_ceil_plain(self):
        assert fuzzy_ceil(2.3) == 3

    def test_fuzzy_ceil_just_above_integer(self):
        assert fuzzy_ceil(3.0 + 1e-12) == 3

    def test_fuzzy_ceil_exact_integer(self):
        assert fuzzy_ceil(5.0) == 5

    def test_fuzzy_floor_never_jumps_multiple_integers(self):
        # Relative tolerance at 1e12 is ~1000, but snapping must stay at the
        # nearest integer — never leap across several of them.
        x = 1e12 - 1.0
        assert fuzzy_floor(x) == int(x)

    def test_fuzzy_ceil_never_jumps_multiple_integers(self):
        x = 1e12 + 1.0
        assert fuzzy_ceil(x) == int(x)


class TestToFraction:
    def test_int_passthrough(self):
        assert to_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        f = Fraction(3, 7)
        assert to_fraction(f) is f or to_fraction(f) == f

    def test_simple_decimal(self):
        assert to_fraction(0.25) == Fraction(1, 4)

    def test_repeating_decimal_recovered(self):
        assert to_fraction(1 / 3) == Fraction(1, 3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            to_fraction(math.inf)
        with pytest.raises(ValueError):
            to_fraction(math.nan)


class TestLcm:
    def test_lcm_fractions_integers(self):
        assert lcm_fractions([Fraction(6), Fraction(8), Fraction(12)]) == 24

    def test_lcm_fractions_paper_periods(self):
        periods = [Fraction(p) for p in (6, 8, 12, 10, 24)]
        assert lcm_fractions(periods) == 120

    def test_lcm_fractions_rationals(self):
        # lcm(1/2, 1/3) = 1 ; lcm(3/4, 1/2) = 3/2
        assert lcm_fractions([Fraction(1, 2), Fraction(1, 3)]) == 1
        assert lcm_fractions([Fraction(3, 4), Fraction(1, 2)]) == Fraction(3, 2)

    def test_lcm_fractions_empty(self):
        assert lcm_fractions([]) == 1

    def test_lcm_fractions_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lcm_fractions([Fraction(-1, 2)])

    def test_lcm_is_multiple_of_inputs(self):
        vals = [Fraction(5, 3), Fraction(7, 6), Fraction(2)]
        out = lcm_fractions(vals)
        for v in vals:
            assert (out / v).denominator == 1
