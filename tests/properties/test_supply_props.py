"""Property-based tests for supply-function invariants.

Every supply function must be: zero at zero, non-decreasing, 1-Lipschitz
(cannot supply faster than real time), superadditive
(``Z(a+b) >= Z(a) + Z(b)``), and consistent with its ``(alpha, delta)``
abstraction. The linear Eq.-3 bound must lower-bound the exact Lemma-1
supply for every parameter pair.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.supply import LinearSupply, PeriodicSlotSupply, SlotLayoutSupply

periods = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


def periodic_slot(period, budget_frac):
    return PeriodicSlotSupply(period, period * budget_frac)


@given(periods, fractions, times)
def test_periodic_zero_at_zero_and_nonnegative(p, f, t):
    z = periodic_slot(p, f)
    assert z.supply(0.0) == 0.0
    assert z.supply(t) >= 0.0


@given(periods, fractions, times, times)
def test_periodic_monotone(p, f, t1, t2):
    z = periodic_slot(p, f)
    lo, hi = min(t1, t2), max(t1, t2)
    assert z.supply(hi) >= z.supply(lo) - 1e-9


@given(periods, fractions, times, st.floats(min_value=0.0, max_value=10.0))
def test_periodic_lipschitz(p, f, t, dt):
    z = periodic_slot(p, f)
    assert z.supply(t + dt) - z.supply(t) <= dt + 1e-9


@given(periods, fractions, times, times)
@settings(max_examples=200)
def test_periodic_superadditive(p, f, a, b):
    z = periodic_slot(p, f)
    assert z.supply(a + b) >= z.supply(a) + z.supply(b) - 1e-7


@given(periods, fractions, times)
@settings(max_examples=200)
def test_linear_bound_is_safe(p, f, t):
    # Figure 3 / Eq. 3: Z'(t) <= Z(t) everywhere.
    exact = periodic_slot(p, f)
    linear = LinearSupply.from_slot(p, p * f)
    assert linear.supply(t) <= exact.supply(t) + 1e-7


@given(periods, fractions)
def test_alpha_delta_consistent(p, f):
    z = periodic_slot(p, f)
    if z.budget > 0:
        # Z is zero through the delay (up to fuzzy-floor noise at degenerate
        # budgets, bounded by one budget's worth) and positive after it.
        assert z.supply(z.delta) <= max(1e-9, z.budget * (1 + 1e-9))
        assert z.supply(z.delta + 0.25 * p) > 0 or f == 0


@given(periods, fractions, st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=200)
def test_periodic_inverse_roundtrip(p, f, w):
    z = periodic_slot(p, max(f, 0.05))
    t = z.inverse(w)
    assert z.supply(t) >= w - 1e-6
    if t > 1e-6:
        assert z.supply(max(t - 1e-4 * max(1.0, t), 0.0)) < w + 1e-6


@given(
    periods,
    st.lists(
        st.tuples(fractions, fractions), min_size=1, max_size=4
    ),
    times,
)
@settings(max_examples=150)
def test_slot_layout_invariants(p, pairs, t):
    windows = []
    for a, b in pairs:
        lo, hi = sorted((a * p, b * p))
        windows.append((lo, hi))
    z = SlotLayoutSupply(p, windows)
    assert z.supply(0.0) == 0.0
    assert 0.0 <= z.supply(t) <= t + 1e-9
    # rate consistency
    assert z.supply(20 * p) >= z.alpha * 20 * p - p  # within one cycle's slack
