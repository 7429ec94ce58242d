"""Unit tests for UUniFast generators."""

import numpy as np
import pytest

from repro.generators import uunifast, uunifast_discard


class TestUUniFast:
    def test_sum_is_exact(self, rng):
        u = uunifast(8, 2.5, rng)
        assert u.sum() == pytest.approx(2.5)

    def test_length(self, rng):
        assert len(uunifast(5, 1.0, rng)) == 5

    def test_all_positive(self, rng):
        for _ in range(20):
            assert np.all(uunifast(6, 0.9, rng) >= 0.0)

    def test_single_task(self, rng):
        assert uunifast(1, 0.7, rng)[0] == pytest.approx(0.7)

    def test_rejects_bad_n(self, rng):
        with pytest.raises(ValueError):
            uunifast(0, 1.0, rng)

    def test_rejects_bad_total(self, rng):
        with pytest.raises(ValueError):
            uunifast(3, 0.0, rng)

    def test_deterministic_given_seed(self):
        a = uunifast(5, 1.0, np.random.default_rng(7))
        b = uunifast(5, 1.0, np.random.default_rng(7))
        assert np.allclose(a, b)

    def test_mean_is_uniform_over_simplex(self):
        # Each component has expectation u_total/n on the simplex.
        rng = np.random.default_rng(3)
        draws = np.array([uunifast(4, 2.0, rng) for _ in range(3000)])
        assert np.allclose(draws.mean(axis=0), 0.5, atol=0.03)


class TestUUniFastDiscard:
    def test_respects_u_max(self, rng):
        for _ in range(50):
            u = uunifast_discard(4, 2.0, rng, u_max=0.8)
            assert np.all(u <= 0.8 + 1e-12)

    def test_sum_still_exact(self, rng):
        u = uunifast_discard(4, 2.0, rng, u_max=0.8)
        assert u.sum() == pytest.approx(2.0)

    def test_infeasible_rejected(self, rng):
        with pytest.raises(ValueError, match="infeasible"):
            uunifast_discard(2, 2.1, rng, u_max=1.0)

    def test_tight_draw_falls_back_to_randfixedsum(self, rng):
        # Acceptance probability ~0 here: after max_attempts the draw comes
        # from randfixedsum on the same truncated simplex, not an error.
        u = uunifast_discard(3, 2.9999, rng, u_max=1.0, max_attempts=5)
        assert u.shape == (3,)
        assert u.sum() == pytest.approx(2.9999)
        assert np.all(u <= 1.0 + 1e-9)

    def test_boundary_returns_the_unique_vector(self, rng):
        # u_total == n*u_max: the truncated simplex is one point, which
        # rejection sampling hits with probability zero.
        state = rng.bit_generator.state
        u = uunifast_discard(2, 2.0, rng, u_max=1.0)
        assert u.tolist() == [1.0, 1.0]
        assert rng.bit_generator.state == state  # no draw consumed
        assert uunifast_discard(4, 2.0, rng, u_max=0.5).tolist() == [0.5] * 4

    def test_near_boundary_draw_is_bounded(self, rng):
        u = uunifast_discard(2, 1.99999, rng, u_max=1.0)
        assert u.sum() == pytest.approx(1.99999)
        assert np.all(u <= 1.0 + 1e-9)

    def test_succeeding_draws_unchanged(self):
        # The fallback only replaces the old exhaustion error: a draw that
        # rejection sampling accepts is the same vector as before.
        rng = np.random.default_rng(11)
        expected = None
        for _ in range(100):
            candidate = uunifast(4, 2.0, rng)
            if np.all(candidate <= 0.8):
                expected = candidate
                break
        u = uunifast_discard(4, 2.0, np.random.default_rng(11), u_max=0.8)
        assert expected is not None and u.tolist() == expected.tolist()

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            uunifast_discard(0, 0.0, rng, u_max=0.0)
        with pytest.raises(ValueError):
            uunifast_discard(2, 0.0, rng)
