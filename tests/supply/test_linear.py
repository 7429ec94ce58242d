"""Unit tests for the linear (bounded-delay) supply of Eq. 3."""

import numpy as np
import pytest

from repro.supply import LinearSupply, PeriodicSlotSupply


class TestLinear:
    def test_zero_until_delta(self):
        z = LinearSupply(0.5, 2.0)
        assert z.supply(0.0) == 0.0
        assert z.supply(2.0) == 0.0

    def test_slope_after_delta(self):
        z = LinearSupply(0.5, 2.0)
        assert z.supply(4.0) == pytest.approx(1.0)

    def test_alpha_delta_properties(self):
        z = LinearSupply(0.25, 3.0)
        assert z.alpha == 0.25
        assert z.delta == 3.0

    def test_from_slot_eq2(self):
        # Eq. 2: alpha = Q/P, delta = P - Q.
        z = LinearSupply.from_slot(4.0, 1.5)
        assert z.alpha == pytest.approx(1.5 / 4.0)
        assert z.delta == pytest.approx(2.5)

    def test_from_slot_touches_lemma1_at_ramp_starts(self):
        # Figure 3: Z'((j+1)P - Q) = jQ = Z(t) there, so Eq. 3 is tight.
        P, Q = 2.966, 0.820  # the Table 2(b) FT slot
        exact = PeriodicSlotSupply(P, Q)
        linear = LinearSupply.from_slot(P, Q)
        for j in range(3):
            t = (j + 1) * P - Q
            assert linear.supply(t) == pytest.approx(exact.supply(t), abs=1e-9)

    def test_from_slot_validates(self):
        with pytest.raises(ValueError):
            LinearSupply.from_slot(0.0, 0.0)
        with pytest.raises(ValueError):
            LinearSupply.from_slot(4.0, 5.0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            LinearSupply(1.5, 0.0)
        with pytest.raises(ValueError):
            LinearSupply(-0.1, 0.0)

    def test_zero_alpha_never_supplies(self):
        z = LinearSupply(0.0, 0.0)
        assert z.supply(1e9) == 0.0
        assert z.delta == float("inf")

    def test_inverse_closed_form(self):
        z = LinearSupply(0.5, 2.0)
        assert z.inverse(1.0) == pytest.approx(4.0)
        assert z.inverse(0.0) == 0.0

    def test_inverse_zero_alpha_raises(self):
        with pytest.raises(ValueError):
            LinearSupply(0.0, 0.0).inverse(1.0)

    def test_supply_array(self):
        z = LinearSupply(0.5, 2.0)
        ts = np.array([0.0, 1.0, 2.0, 3.0, 6.0])
        assert np.allclose(z.supply_array(ts), [0, 0, 0, 0.5, 2.0])

    def test_dedicated_limit(self):
        z = LinearSupply(1.0, 0.0)
        assert z.supply(7.3) == pytest.approx(7.3)
