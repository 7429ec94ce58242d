"""Fault-scenario library tests: determinism, platform sizing, round trips."""

import numpy as np
import pytest

from repro.dependability import (
    BurstyScenario,
    CorrelatedScenario,
    IntermittentScenario,
    PermanentScenario,
    PoissonScenario,
    scenario_from_params,
    scenario_names,
)

ALL_KINDS = ("poisson", "bursty", "correlated", "intermittent", "permanent")


def make(kind, rate=0.2, **kwargs):
    return scenario_from_params({"scenario": kind, "rate": rate, **kwargs})


class TestRegistry:
    def test_all_kinds_registered(self):
        assert set(scenario_names()) == set(ALL_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            scenario_from_params({"scenario": "cosmic", "rate": 0.1})

    def test_default_kind_is_poisson(self):
        assert isinstance(scenario_from_params({"rate": 0.1}), PoissonScenario)

    def test_unrelated_spec_params_ignored(self):
        s = scenario_from_params(
            {"scenario": "bursty", "rate": 0.1, "u_total": 0.8, "rep": 3}
        )
        assert isinstance(s, BurstyScenario)


class TestContract:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic_given_seed(self, kind):
        s = make(kind)
        a = s.generate(300.0, np.random.default_rng(7), core_count=4)
        b = s.generate(300.0, np.random.default_rng(7), core_count=4)
        assert a == b

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_within_horizon_and_platform(self, kind):
        faults = make(kind).generate(
            300.0, np.random.default_rng(3), core_count=6
        )
        assert all(0.0 <= f.time < 300.0 for f in faults)
        assert all(0 <= f.core < 6 for f in faults)
        assert all(f.core_count == 6 for f in faults)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_serialization_round_trip(self, kind):
        s = make(kind)
        restored = scenario_from_params(s.to_dict())
        assert restored == s
        assert restored.to_dict() == s.to_dict()

    @pytest.mark.parametrize("kind", ("poisson", "bursty", "correlated"))
    def test_strikes_cover_large_platforms(self, kind):
        # the old hardcoded 0..3 range would never hit cores 4+
        faults = make(kind, rate=1.0).generate(
            500.0, np.random.default_rng(1), core_count=8
        )
        assert {f.core for f in faults} - set(range(4))


class TestBursty:
    def test_bursts_violate_wide_separation(self):
        s = BurstyScenario(0.02, burst_factor=100.0, mean_quiet=20.0, mean_burst=5.0)
        times = [
            f.time
            for f in s.generate(2000.0, np.random.default_rng(2), core_count=4)
        ]
        gaps = [b - a for a, b in zip(times, times[1:])]
        # showers produce much tighter spacing than the quiet-rate mean
        assert min(gaps) < 1.0 < max(gaps)

    def test_burst_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            BurstyScenario(0.1, burst_factor=0.5)


class TestCorrelated:
    def test_multi_core_strikes_share_an_instant(self):
        s = CorrelatedScenario(0.5, spread=0.9)
        faults = s.generate(500.0, np.random.default_rng(5), core_count=4)
        by_time = {}
        for f in faults:
            by_time.setdefault(f.time, set()).add(f.core)
        multi = [cores for cores in by_time.values() if len(cores) > 1]
        assert multi, "spread=0.9 must produce simultaneous multi-core strikes"

    def test_zero_spread_is_single_core(self):
        s = CorrelatedScenario(0.5, spread=0.0)
        faults = s.generate(500.0, np.random.default_rng(5), core_count=4)
        times = [f.time for f in faults]
        assert len(times) == len(set(times))

    def test_spread_validated(self):
        with pytest.raises(ValueError):
            CorrelatedScenario(0.1, spread=1.0)


class TestIntermittent:
    def test_pinned_to_one_core(self):
        s = IntermittentScenario(0.1, core=2)
        faults = s.generate(500.0, np.random.default_rng(4), core_count=4)
        assert faults and {f.core for f in faults} == {2}

    def test_unpinned_core_drawn_within_platform(self):
        s = IntermittentScenario(0.1)
        faults = s.generate(500.0, np.random.default_rng(4), core_count=2)
        assert len({f.core for f in faults}) == 1
        assert faults[0].core in (0, 1)

    def test_pinned_core_outside_platform_rejected(self):
        s = IntermittentScenario(0.1, core=5)
        with pytest.raises(ValueError, match="outside the platform"):
            s.generate(100.0, np.random.default_rng(0), core_count=4)


class TestPermanent:
    def test_dead_core_faults_from_onset_at_fixed_cadence(self):
        s = PermanentScenario(0.5, onset_fraction=0.25, core=1)
        faults = s.generate(100.0, np.random.default_rng(0), core_count=4)
        assert {f.core for f in faults} == {1}
        assert faults[0].time == pytest.approx(25.0)
        gaps = {
            round(b.time - a.time, 9) for a, b in zip(faults, faults[1:])
        }
        assert gaps == {2.0}

    def test_onset_fraction_validated(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                PermanentScenario(0.1, onset_fraction=bad)

    def test_onset_zero_kills_the_core_at_t0(self):
        # Exact boundary: the first strike lands exactly at 0, and the
        # cadence covers the whole horizon.
        s = PermanentScenario(0.5, onset_fraction=0.0, core=0)
        faults = s.generate(10.0, np.random.default_rng(0), core_count=4)
        assert faults[0].time == 0.0
        assert len(faults) == 5  # strikes at 0, 2, 4, 6, 8

    def test_onset_one_never_dies(self):
        # Exact boundary: onset == horizon is outside [0, horizon), so the
        # core survives the whole run (empty stream, not one final strike).
        s = PermanentScenario(0.5, onset_fraction=1.0, core=0)
        assert s.generate(10.0, np.random.default_rng(0), core_count=4) == []

    def test_onset_boundaries_roundtrip_params(self):
        for fraction in (0.0, 1.0):
            s = PermanentScenario(
                0.1, onset_fraction=fraction, core=1
            )
            clone = PermanentScenario.from_params(s.params_dict() | {"rate": 0.1})
            assert clone.onset_fraction == fraction


class TestDependabilityPoint:
    def test_poisson_keeps_single_fault_spacing_by_default(self):
        """The dependability point's poisson baseline must honour the
        paper's single-fault assumption (one platform period between
        transients) unless the spec overrides min_separation."""
        from repro.runner import PointSpec, get_experiment, point_seed

        fn = get_experiment("dependability")
        cycles = 20
        base = {"scenario": "poisson", "rate": 2.0, "cycles": cycles,
                "source": "paper"}
        spaced = fn(base, point_seed(PointSpec("dependability", base), 0))
        # spacing >= one period caps the count at one fault per cycle
        assert 0 < spaced["injected"] <= cycles + 1
        dense_params = {**base, "min_separation": 0.0}
        dense = fn(
            dense_params,
            point_seed(PointSpec("dependability", dense_params), 0),
        )
        assert dense["injected"] > cycles + 1
