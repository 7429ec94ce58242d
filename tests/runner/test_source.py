"""PointSource strategy layer: grid parity, adaptive determinism, sharding.

The adaptive tests run against two purpose-built registry experiments
(registered at import, so they only work with ``workers=1`` — pool
workers re-import the registry without this module):

* ``adaptive-probe`` — a deterministic Bernoulli draw whose hit
  probability is a sharp sigmoid (or step) in ``u``, i.e. a cheap stand-in
  for a schedulability boundary;
* ``adaptive-flaky`` — fails at one specific rep unless an env var is
  set, which drives a *real* mid-round campaign abort and resume.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependability.taxonomy import wilson_interval
from repro.runner import (
    AdaptiveRefinementSource,
    Aggregator,
    CampaignError,
    GridSource,
    PointSpec,
    SnapshotError,
    canonical_json,
    curve_metric,
    experiment,
    experiments,
    grid_digest,
    grid_specs,
    mean_metric,
    merge_snapshot_files,
    reps_for_width,
    stream_campaign,
    wilson_width,
)
from repro.runner.shard import MergeError
from repro.runner.source import MAX_DEPTH

if "adaptive-probe" not in experiments():

    @experiment("adaptive-probe")
    def _probe(params, seed_seq):
        u = float(params["u"])
        if params.get("step"):
            p = 0.98 if u < 1.5 else 0.02
        else:
            p = 1.0 / (1.0 + math.exp((u - 1.5) * 12.0))
        rng = np.random.default_rng(seed_seq)
        return {"hit": bool(rng.random() < p)}

    @experiment("adaptive-flaky")
    def _flaky(params, seed_seq):
        if params["rep"] == 2 and not os.environ.get("ADAPTIVE_FLAKY_OK"):
            raise RuntimeError("flaky point")
        rng = np.random.default_rng(seed_seq)
        return {"hit": bool(rng.random() < 0.5)}


def probe_aggregator():
    return Aggregator(
        [curve_metric("hit_curve", ["u"], "hit", experiment="adaptive-probe")]
    )


def probe_source(**kwargs):
    kwargs.setdefault("key_axes", {"u": [0.5, 1.5, 2.5]})
    kwargs.setdefault("ci_width", 0.3)
    kwargs.setdefault("initial_reps", 4)
    return AdaptiveRefinementSource(
        "adaptive-probe",
        metric="hit_curve",
        refine_axis="u",
        **kwargs,
    )


def flaky_aggregator():
    return Aggregator(
        [curve_metric("hit_curve", ["u"], "hit", experiment="adaptive-flaky")]
    )


def flaky_source():
    return AdaptiveRefinementSource(
        "adaptive-flaky",
        metric="hit_curve",
        key_axes={"u": [1.0, 2.0]},
        refine_axis="u",
        ci_width=0.3,
        initial_reps=4,
    )


def rounds_of(result):
    """Reconstruct the per-round spec lists from a StreamResult."""
    rounds, offset = [], 0
    for size in result.stats.round_sizes:
        rounds.append(result.specs[offset : offset + size])
        offset += size
    assert offset == len(result.specs)
    return rounds


class TestWilsonHelpers:
    def test_width_matches_taxonomy_interval(self):
        for successes, total in [(0, 7), (3, 7), (7, 7), (50, 120), (1, 1)]:
            lo, hi = wilson_interval(successes, total)
            assert wilson_width(successes / total, total) == pytest.approx(
                hi - lo, abs=1e-12
            )

    def test_width_monotone_in_n(self):
        for p in (0.0, 0.2, 0.5, 1.0):
            widths = [wilson_width(p, n) for n in (1, 4, 16, 64, 256)]
            assert widths == sorted(widths, reverse=True)

    def test_empty_bin_is_maximally_uncertain(self):
        assert wilson_width(0.5, 0) == math.inf

    def test_reps_for_width_is_minimal(self):
        for p in (0.0, 0.1, 0.5, 0.97):
            for width in (0.5, 0.3, 0.1, 0.05):
                n = reps_for_width(p, width)
                assert wilson_width(p, n) <= width
                assert n == 1 or wilson_width(p, n - 1) > width

    def test_reps_for_width_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reps_for_width(0.5, 0.0)


SPLIT_AXES = {"period": [3.0], "budget": [1.0], "pieces": [1, 2, 3, 4]}


def split_aggregator():
    return Aggregator(
        [mean_metric("delay", "delay", experiment="ablate-slot-split")]
    )


class TestGridSource:
    def test_byte_parity_with_plain_specs(self):
        specs = grid_specs("ablate-slot-split", SPLIT_AXES)
        plain = stream_campaign(specs, split_aggregator(), master_seed=3)
        wrapped = stream_campaign(
            GridSource(specs), split_aggregator(), master_seed=3
        )
        assert plain.aggregate_json() == wrapped.aggregate_json()
        assert plain.specs == wrapped.specs
        assert plain.stats.total == wrapped.stats.total
        assert plain.stats.computed == wrapped.stats.computed
        assert wrapped.stats.rounds == 1
        assert wrapped.stats.round_sizes == (len(specs),)

    def test_config_digest_is_grid_digest(self):
        specs = grid_specs("ablate-slot-split", SPLIT_AXES)
        assert GridSource(specs).config_digest == grid_digest(
            s.digest for s in specs
        )

    def test_single_round_preserves_order_and_dups(self):
        spec = PointSpec("x", {"a": 1})
        other = PointSpec("x", {"a": 2})
        src = GridSource([spec, other, spec])
        assert list(src.rounds()) == [[spec, other, spec]]
        assert src.upfront_specs() == [spec, other, spec]

    def test_empty_grid_emits_no_rounds(self):
        assert list(GridSource([]).rounds()) == []

    def test_state_roundtrip(self):
        src = GridSource([PointSpec("x", {"a": 1})])
        assert src.state_dict() is None
        src.load_state(None)  # a grid snapshot carries no source state
        with pytest.raises(SnapshotError):
            src.load_state({"strategy": "adaptive", "config": "aa"})


class TestAdaptiveDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_same_seed_emits_identical_round_sequences(self, seed):
        runs = []
        for _ in range(2):
            result = stream_campaign(
                probe_source(), probe_aggregator(), master_seed=seed
            )
            runs.append((rounds_of(result), result.aggregate_json()))
        assert runs[0] == runs[1]

    def test_converges_on_every_bin(self):
        result = stream_campaign(probe_source(), probe_aggregator())
        assert result.stats.open_bins == 0
        assert result.stats.rounds >= 1
        assert sum(result.stats.round_sizes) == result.stats.total
        ci = 0.3
        for _key, acc in result.aggregator["hit_curve"].items():
            assert wilson_width(float(acc.mean), acc.count) <= ci

    def test_bisection_inserts_midpoint_bins(self):
        result = stream_campaign(
            probe_source(key_axes={"u": [0.5, 2.5]}, ci_width=0.2),
            probe_aggregator(),
        )
        sampled = {spec.params["u"] for spec in result.specs}
        assert sampled - {0.5, 2.5}, "no midpoint bins were created"
        assert result.stats.open_bins == 0

    def test_mid_gap_floor_respects_max_depth(self):
        src = probe_source(key_axes={"u": [0.5, 2.5]})
        result = stream_campaign(src, probe_aggregator())
        gaps = sorted({spec.params["u"] for spec in result.specs})
        smallest = min(b - a for a, b in zip(gaps, gaps[1:]))
        assert smallest >= 2.0 / 2**MAX_DEPTH - 1e-9

    def test_workers_and_batch_do_not_change_bytes(self, tmp_path):
        # Real registry experiment (pool workers re-import the registry,
        # so the probe experiments cannot cross process boundaries).
        from repro.experiments.weighted import (
            weighted_adaptive_source,
            weighted_aggregator,
        )

        axes = {
            "u_total": [0.8, 2.4],
            "n": [6],
            "period_hyperperiod": [720.0],
            "rep": [0, 1, 2],
            "rate": [0.02],
        }
        snaps = []
        for i, (workers, batch) in enumerate([(1, None), (2, 3)]):
            state = tmp_path / f"w{i}.json"
            stream_campaign(
                weighted_adaptive_source(axes, ci_width=0.4),
                weighted_aggregator(),
                workers=workers,
                batch_size=batch,
                master_seed=3,
                state_path=state,
                on_error="store",
            )
            snaps.append(state.read_text())
        assert snaps[0] == snaps[1]


class TestAdaptiveResume:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mid_round_abort_then_resume_converges_to_same_bytes(
        self, tmp_path_factory, seed
    ):
        tmp_path = tmp_path_factory.mktemp("resume")
        os.environ.pop("ADAPTIVE_FLAKY_OK", None)
        state = tmp_path / "state.json"
        with pytest.raises(CampaignError):
            stream_campaign(
                flaky_source(),
                flaky_aggregator(),
                master_seed=seed,
                state_path=state,
            )
        assert state.exists(), "abort must flush a resumable snapshot"
        interrupted = json.loads(state.read_text())
        assert interrupted["source"]["strategy"] == "adaptive"
        assert not interrupted["source"]["complete"]
        os.environ["ADAPTIVE_FLAKY_OK"] = "1"
        try:
            stream_campaign(
                flaky_source(),
                flaky_aggregator(),
                master_seed=seed,
                state_path=state,
            )
            reference = tmp_path / "reference.json"
            stream_campaign(
                flaky_source(),
                flaky_aggregator(),
                master_seed=seed,
                state_path=reference,
            )
        finally:
            os.environ.pop("ADAPTIVE_FLAKY_OK", None)
        assert state.read_text() == reference.read_text()

    def test_resuming_complete_snapshot_is_a_noop(self, tmp_path):
        state = tmp_path / "state.json"
        first = stream_campaign(
            probe_source(), probe_aggregator(), master_seed=11, state_path=state
        )
        assert first.stats.rounds >= 1
        before = state.read_text()
        again = stream_campaign(
            probe_source(), probe_aggregator(), master_seed=11, state_path=state
        )
        assert again.stats.rounds == 0
        assert again.stats.total == 0
        assert state.read_text() == before

    def test_grid_cannot_resume_adaptive_snapshot(self, tmp_path):
        state = tmp_path / "state.json"
        result = stream_campaign(
            probe_source(), probe_aggregator(), master_seed=1, state_path=state
        )
        with pytest.raises(SnapshotError, match="point source"):
            stream_campaign(
                GridSource(result.specs),
                probe_aggregator(),
                master_seed=1,
                state_path=state,
            )

    def test_adaptive_cannot_resume_grid_snapshot(self, tmp_path):
        state = tmp_path / "state.json"
        specs = [
            PointSpec("adaptive-probe", {"u": 0.5, "rep": r}) for r in range(3)
        ]
        stream_campaign(
            specs, probe_aggregator(), master_seed=1, state_path=state
        )
        with pytest.raises(SnapshotError, match="no source state"):
            stream_campaign(
                probe_source(), probe_aggregator(), master_seed=1,
                state_path=state,
            )

    def test_adaptive_config_mismatch_rejected(self, tmp_path):
        state = tmp_path / "state.json"
        stream_campaign(
            probe_source(ci_width=0.3),
            probe_aggregator(),
            master_seed=1,
            state_path=state,
        )
        with pytest.raises(SnapshotError, match="different adaptive"):
            stream_campaign(
                probe_source(ci_width=0.2),
                probe_aggregator(),
                master_seed=1,
                state_path=state,
            )


class TestAdaptiveBudget:
    def test_budget_stops_refinement_and_reports_open_bins(self, tmp_path):
        state = tmp_path / "state.json"
        result = stream_campaign(
            probe_source(max_points=7),
            probe_aggregator(),
            master_seed=5,
            state_path=state,
        )
        assert result.stats.total <= 7
        assert result.stats.open_bins and result.stats.open_bins > 0
        snap = json.loads(state.read_text())
        assert snap["source"]["complete"] is True
        before = state.read_text()
        again = stream_campaign(
            probe_source(max_points=7),
            probe_aggregator(),
            master_seed=5,
            state_path=state,
        )
        assert again.stats.rounds == 0
        assert state.read_text() == before

    def test_efficiency_vs_exhaustive_grid(self):
        # The paper-style boundary curve: every bin sits far from p=0.5, so
        # the adaptive run must beat the uniform worst-case grid — the
        # acceptance criterion's <= 25% — on the *final* bin set (initial
        # bins plus whatever bisection inserted).
        ci = 0.05
        result = stream_campaign(
            probe_source(
                key_axes={"u": [0.5, 2.5]},
                ci_width=ci,
                base_params={"step": True},
            ),
            probe_aggregator(),
            master_seed=2,
        )
        assert result.stats.open_bins == 0
        bins = {spec.params["u"] for spec in result.specs}
        exhaustive = len(bins) * reps_for_width(0.5, ci)
        assert result.stats.total <= 0.25 * exhaustive, (
            f"adaptive used {result.stats.total} of {exhaustive} "
            f"grid-equivalent points"
        )


class TestShardedAdaptive:
    def test_shards_merge_byte_identical_to_unsharded(self, tmp_path):
        full_state = tmp_path / "full.json"
        stream_campaign(
            probe_source(),
            probe_aggregator(),
            master_seed=9,
            state_path=full_state,
        )
        paths = []
        for index in range(2):
            state = tmp_path / f"shard{index}.json"
            result = stream_campaign(
                probe_source(),
                probe_aggregator(),
                master_seed=9,
                state_path=state,
                shard=(index, 2),
            )
            assert result.stats.planning_points > 0
            paths.append(state)
        merged = merge_snapshot_files(paths)
        assert canonical_json(merged) == full_state.read_text()

    def test_merge_refuses_in_flight_adaptive_shard(self, tmp_path):
        paths = []
        for index in range(2):
            state = tmp_path / f"shard{index}.json"
            stream_campaign(
                probe_source(),
                probe_aggregator(),
                master_seed=9,
                state_path=state,
                shard=(index, 2),
            )
            paths.append(state)
        snap = json.loads(paths[0].read_text())
        snap["source"]["complete"] = False
        paths[0].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="in-flight adaptive"):
            merge_snapshot_files(paths)

    def test_merge_refuses_mixed_strategies(self, tmp_path):
        paths = []
        for index in range(2):
            state = tmp_path / f"shard{index}.json"
            stream_campaign(
                probe_source(),
                probe_aggregator(),
                master_seed=9,
                state_path=state,
                shard=(index, 2),
            )
            paths.append(state)
        snap = json.loads(paths[1].read_text())
        del snap["source"]
        paths[1].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="point-source strategy"):
            merge_snapshot_files(paths)


class TestSourceValidation:
    def test_refine_axis_must_be_a_key_axis(self):
        with pytest.raises(ValueError, match="refine_axis"):
            AdaptiveRefinementSource(
                "adaptive-probe",
                metric="hit_curve",
                key_axes={"u": [1.0]},
                refine_axis="v",
                ci_width=0.1,
            )

    def test_refine_axis_values_must_be_numeric(self):
        with pytest.raises(ValueError, match="numbers"):
            AdaptiveRefinementSource(
                "adaptive-probe",
                metric="hit_curve",
                key_axes={"u": ["lo", "hi"]},
                refine_axis="u",
                ci_width=0.1,
            )

    def test_ci_width_bounds(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="ci_width"):
                probe_source(ci_width=bad)

    def test_colliding_parameter_names_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            AdaptiveRefinementSource(
                "adaptive-probe",
                metric="hit_curve",
                key_axes={"u": [1.0]},
                refine_axis="u",
                ci_width=0.1,
                base_params={"u": 2.0},
            )

    def test_config_digest_distinguishes_budgets(self):
        assert (
            probe_source(max_points=10).config_digest
            != probe_source(max_points=20).config_digest
        )
        assert (
            probe_source().config_digest == probe_source().config_digest
        )

    def test_adaptive_rounds_need_a_view(self):
        with pytest.raises(ValueError, match="live aggregate"):
            next(probe_source().rounds())
