"""Unit tests for period generators."""

import numpy as np
import pytest

from repro.generators import (
    hyperperiod_limited_periods,
    loguniform_periods,
    uniform_periods,
)
from repro.util import check_positive


def reference_hyperperiod_limited_periods(
    n, rng, *, low=10.0, high=1000.0, hyperperiod=3600.0
):
    """The generator before its divisor lattice was cached: it rebuilds the
    divisors and their ``1/d`` probabilities on every call."""
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")
    check_positive("low", low)
    if high <= low:
        raise ValueError(f"empty range [{low}, {high}]")
    base = int(round(hyperperiod))
    if base < 1 or abs(hyperperiod - base) > 1e-9:
        raise ValueError(f"hyperperiod must be a positive integer: got {hyperperiod}")
    divs = set()
    for d in range(1, int(base**0.5) + 1):
        if base % d == 0:
            divs.add(d)
            divs.add(base // d)
    divisors = np.array(sorted(d for d in divs if low <= d <= high), dtype=float)
    if len(divisors) < 2:
        raise ValueError(
            f"hyperperiod {base} has fewer than 2 divisors in [{low}, {high}]"
        )
    weights = 1.0 / divisors
    return rng.choice(divisors, size=n, p=weights / weights.sum())


class TestUniformPeriods:
    def test_range(self, rng):
        p = uniform_periods(200, rng, low=10, high=50)
        assert np.all((p >= 10) & (p <= 50))

    def test_granularity(self, rng):
        p = uniform_periods(100, rng, low=10, high=50, granularity=5.0)
        assert np.allclose(p % 5.0, 0.0)

    def test_granularity_never_produces_zero(self, rng):
        p = uniform_periods(100, rng, low=1.0, high=2.0, granularity=5.0)
        assert np.all(p >= 5.0)

    def test_rejects_empty_range(self, rng):
        with pytest.raises(ValueError):
            uniform_periods(5, rng, low=10, high=10)

    def test_rejects_bad_n(self, rng):
        with pytest.raises(ValueError):
            uniform_periods(0, rng)


class TestLogUniformPeriods:
    def test_range(self, rng):
        p = loguniform_periods(200, rng, low=10, high=1000)
        assert np.all((p >= 10) & (p <= 1000))

    def test_log_spread_covers_decades(self):
        rng = np.random.default_rng(5)
        p = loguniform_periods(4000, rng, low=10, high=1000)
        # Log-uniform: ~half the mass below sqrt(10*1000) = 100.
        frac_below_100 = np.mean(p < 100)
        assert 0.4 < frac_below_100 < 0.6

    def test_granularity(self, rng):
        p = loguniform_periods(50, rng, low=10, high=100, granularity=1.0)
        assert np.allclose(p, np.round(p))


class TestHyperperiodLimitedPeriods:
    def test_every_period_divides_the_hyperperiod(self, rng):
        p = hyperperiod_limited_periods(200, rng, low=10, high=1000, hyperperiod=3600)
        assert np.all((p >= 10) & (p <= 1000))
        assert np.allclose(3600 % p, 0.0)

    def test_any_subset_lcm_bounded(self, rng):
        # The property the campaign sweeps rely on: per-bin hyperperiods
        # (LCMs of arbitrary subsets) always divide the chosen bound.
        p = hyperperiod_limited_periods(12, rng, hyperperiod=3600)
        lcm = np.lcm.reduce(p.astype(int))
        assert 3600 % lcm == 0

    def test_deterministic_per_rng_seed(self):
        a = hyperperiod_limited_periods(20, np.random.default_rng(5))
        b = hyperperiod_limited_periods(20, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_rejects_non_integer_hyperperiod(self, rng):
        with pytest.raises(ValueError):
            hyperperiod_limited_periods(5, rng, hyperperiod=3600.5)

    def test_rejects_range_with_too_few_divisors(self, rng):
        with pytest.raises(ValueError):
            hyperperiod_limited_periods(5, rng, low=11, high=11.5, hyperperiod=3600)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"hyperperiod": 720.0},
            {"low": 5, "high": 120, "hyperperiod": 720},
            {"low": 10.0, "high": 1000.0, "hyperperiod": 3600.0},
        ],
    )
    def test_cached_lattice_draws_match_reference(self, kwargs):
        got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
        for n in (1, 1, 3, 1, 50, 1):  # one draw per arrival, then batches
            got = hyperperiod_limited_periods(n, got_rng, **kwargs)
            want = reference_hyperperiod_limited_periods(n, want_rng, **kwargs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            got[:] = 1.0  # a draw is the caller's own array
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((0,), {}),
            ((5,), {"low": 0.0}),
            ((5,), {"low": -1.0}),
            ((5,), {"low": 10, "high": 10}),
            ((5,), {"hyperperiod": 3600.5}),
            ((5,), {"hyperperiod": 0.0}),
            ((5,), {"low": 11, "high": 11.5, "hyperperiod": 3600}),
            ((5,), {"low": 7, "high": 8, "hyperperiod": 3600}),
        ],
    )
    def test_errors_match_reference(self, args, kwargs):
        for _ in range(2):  # a refused lattice is not cached
            with pytest.raises(ValueError) as want:
                reference_hyperperiod_limited_periods(
                    *args, np.random.default_rng(0), **kwargs
                )
            with pytest.raises(ValueError) as got:
                hyperperiod_limited_periods(*args, np.random.default_rng(0), **kwargs)
            assert str(got.value) == str(want.value)
