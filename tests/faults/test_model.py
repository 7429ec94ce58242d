"""Unit tests for the fault model and generators."""

import numpy as np
import pytest

from repro.faults import Fault, FaultOutcome, PoissonFaultGenerator


class TestFault:
    def test_valid(self):
        f = Fault(1.5, 2)
        assert f.time == 1.5 and f.core == 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Fault(-0.1, 0)

    def test_bad_core_rejected(self):
        with pytest.raises(ValueError):
            Fault(1.0, 4)

    def test_core_validated_against_platform_size(self):
        # core 4 exists on an 8-core platform, not on the default 4-core one
        assert Fault(1.0, 4, core_count=8).core == 4
        with pytest.raises(ValueError):
            Fault(1.0, 1, core_count=1)
        with pytest.raises(ValueError):
            Fault(1.0, 0, core_count=0)
        with pytest.raises(ValueError):
            Fault(1.0, 0, core_count=True)

    def test_equality_ignores_core_count(self):
        assert Fault(1.0, 2) == Fault(1.0, 2, core_count=8)


class TestPoissonGenerator:
    def test_all_within_horizon(self, rng):
        gen = PoissonFaultGenerator(rate=0.5)
        faults = gen.generate(100.0, rng)
        assert all(0 <= f.time < 100.0 for f in faults)

    def test_rate_approximately_respected(self):
        gen = PoissonFaultGenerator(rate=0.2)
        rng = np.random.default_rng(7)
        counts = [len(gen.generate(500.0, rng)) for _ in range(20)]
        assert 0.15 < np.mean(counts) / 500.0 < 0.25

    def test_min_separation_enforced(self, rng):
        gen = PoissonFaultGenerator(rate=10.0, min_separation=1.0)
        faults = gen.generate(50.0, rng)
        times = [f.time for f in faults]
        assert all(b - a >= 1.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_cores_uniform(self):
        gen = PoissonFaultGenerator(rate=5.0)
        rng = np.random.default_rng(3)
        faults = gen.generate(400.0, rng)
        counts = np.bincount([f.core for f in faults], minlength=4)
        assert counts.min() > 0.15 * counts.sum()

    def test_core_count_scales_strike_targets(self):
        gen = PoissonFaultGenerator(rate=5.0, core_count=8)
        faults = gen.generate(400.0, np.random.default_rng(3))
        cores = {f.core for f in faults}
        assert cores - set(range(4))  # the old hardcoded 0..3 never hit these
        assert all(0 <= c < 8 for c in cores)

    def test_deterministic_given_seed(self):
        gen = PoissonFaultGenerator(rate=0.5)
        a = gen.generate(50.0, np.random.default_rng(1))
        b = gen.generate(50.0, np.random.default_rng(1))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonFaultGenerator(rate=0.0)
        with pytest.raises(ValueError):
            PoissonFaultGenerator(rate=1.0, min_separation=-1.0)
        with pytest.raises(ValueError):
            PoissonFaultGenerator(rate=1.0, core_count=0)
        with pytest.raises(ValueError):
            PoissonFaultGenerator(rate=1.0).generate(0.0, np.random.default_rng(0))


class TestOutcomeEnum:
    def test_values(self):
        assert str(FaultOutcome.MASKED) == "masked"
        assert len(FaultOutcome) == 4
