"""Unit tests for arbitrary static slot layouts (future-work extension)."""

import numpy as np
import pytest

from repro.supply import PeriodicSlotSupply, SlotLayoutSupply
from repro.supply.slots import evenly_split_slots


class TestSingleWindowEquivalence:
    def test_matches_lemma1_anywhere_in_cycle(self):
        # A single fixed window of length Q anywhere in the cycle has the
        # same worst-case supply as Lemma 1.
        lemma = PeriodicSlotSupply(5.0, 2.0)
        for start in (0.0, 1.0, 2.5):
            layout = SlotLayoutSupply(5.0, [(start, start + 2.0)])
            ts = np.linspace(0, 25, 501)
            assert np.allclose(
                layout.supply_array(ts), lemma.supply_array(ts), atol=1e-7
            ), start


class TestLayoutBasics:
    def test_budget_and_alpha(self):
        z = SlotLayoutSupply(10.0, [(0, 2), (5, 6)])
        assert z.budget == pytest.approx(3.0)
        assert z.alpha == pytest.approx(0.3)

    def test_delta_is_largest_gap(self):
        z = SlotLayoutSupply(10.0, [(0, 2), (5, 6)])
        # gaps: [2,5) = 3 and [6, 10+0) = 4 -> delta = 4
        assert z.delta == pytest.approx(4.0)

    def test_windows_merged_and_sorted(self):
        z = SlotLayoutSupply(10.0, [(4, 6), (0, 2), (2, 3)])
        assert z.windows == ((0.0, 3.0), (4.0, 6.0))

    def test_degenerate_windows_dropped(self):
        z = SlotLayoutSupply(10.0, [(1, 1), (3, 4)])
        assert z.windows == ((3.0, 4.0),)

    def test_out_of_cycle_window_rejected(self):
        with pytest.raises(ValueError):
            SlotLayoutSupply(10.0, [(8, 11)])

    def test_empty_layout(self):
        z = SlotLayoutSupply(10.0, [])
        assert z.supply(100.0) == 0.0
        assert z.delta == float("inf")

    def test_full_cycle_is_dedicated(self):
        z = SlotLayoutSupply(10.0, [(0, 10)])
        for t in (0.0, 3.7, 12.0):
            assert z.supply(t) == pytest.approx(t)

    def test_supply_monotone_nondecreasing(self):
        z = SlotLayoutSupply(7.0, [(1, 2), (4, 5.5)])
        ts = np.linspace(0, 30, 601)
        vals = z.supply_array(ts)
        assert np.all(np.diff(vals) >= -1e-9)

    def test_supply_against_bruteforce_minimum(self):
        # Definition 1 checked directly: slide t0 over a dense grid.
        z = SlotLayoutSupply(6.0, [(1, 2), (3, 4.5)])

        def available(t0, t1):
            total, step = 0.0, 0.001
            xs = np.arange(t0, t1, step)
            rel = np.mod(xs, 6.0)
            inside = ((rel >= 1) & (rel < 2)) | ((rel >= 3) & (rel < 4.5))
            return inside.sum() * step

        for t in (0.5, 1.5, 3.0, 6.0, 7.25, 13.0):
            brute = min(available(t0, t0 + t) for t0 in np.linspace(0, 6, 61))
            assert z.supply(t) <= brute + 0.02, t  # Z is the guaranteed minimum


class TestEvenSplitting:
    def test_split_preserves_budget(self):
        z = evenly_split_slots(9.0, 3.0, 3)
        assert z.budget == pytest.approx(3.0)

    def test_split_shrinks_delay(self):
        whole = evenly_split_slots(9.0, 3.0, 1)
        split = evenly_split_slots(9.0, 3.0, 3)
        assert split.delta < whole.delta
        assert split.delta == pytest.approx(2.0)  # (P/k) - (Q/k) = 3 - 1

    def test_split_dominates_whole_slot(self):
        whole = evenly_split_slots(9.0, 3.0, 1)
        split = evenly_split_slots(9.0, 3.0, 3)
        ts = np.linspace(0.0, 45.0, 2001)
        assert np.all(split.supply_array(ts) >= whole.supply_array(ts) - 1e-7)

    def test_wraparound_start(self):
        z = evenly_split_slots(8.0, 2.0, 2, start=7.5)
        assert z.budget == pytest.approx(2.0)

    def test_invalid_pieces(self):
        with pytest.raises(ValueError):
            evenly_split_slots(8.0, 2.0, 0)
