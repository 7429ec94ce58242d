"""Streaming-campaign tests: determinism, resume, memory and cache repair.

These pin the acceptance contract of the aggregation layer: aggregates are
bit-identical across worker counts and cache states, snapshots resume
without re-folding cached points, collect=False keeps no per-point results,
and a corrupt cache entry is recomputed and overwritten mid-campaign.
"""

import json

import pytest

from repro.runner import (
    Aggregator,
    PointSpec,
    ResultCache,
    SnapshotError,
    curve_metric,
    extrema_metric,
    grid_specs,
    mean_metric,
    run_campaign,
    stream_campaign,
)

SCHED_AXES = {"u_total": [0.8, 1.6], "n": [6], "rep": [0, 1]}
SPLIT_AXES = {"period": [3.0], "budget": [1.0], "pieces": [1, 2, 3, 4]}


def sched_aggregator():
    return Aggregator(
        [
            mean_metric("feasible", "feasible", experiment="schedulability"),
            curve_metric(
                "weighted", "u_total", "feasible",
                weight="utilization", experiment="schedulability",
            ),
            extrema_metric("period", "period", experiment="schedulability"),
        ]
    )


def agg_bytes(result):
    return result.aggregate_json()


class TestDeterminism:
    def test_workers_and_cache_states_are_bit_identical(self, tmp_path):
        """workers=1 vs workers=4, cold vs warm cache: same aggregate bytes."""
        specs = grid_specs("schedulability", SCHED_AXES)
        cold_1 = stream_campaign(specs, sched_aggregator(), workers=1, master_seed=5)
        cache = tmp_path / "cache"
        cold_4 = stream_campaign(
            specs, sched_aggregator(), workers=4, master_seed=5, cache_dir=cache
        )
        warm_1 = stream_campaign(
            specs, sched_aggregator(), workers=1, master_seed=5, cache_dir=cache
        )
        assert cold_4.stats.computed == len(specs)
        assert warm_1.stats.computed == 0
        assert warm_1.stats.cached == len(specs)
        assert agg_bytes(cold_1) == agg_bytes(cold_4) == agg_bytes(warm_1)

    def test_matches_materialized_campaign(self):
        """Streamed folds see exactly what run_campaign materializes."""
        specs = grid_specs("schedulability", SCHED_AXES)
        materialized = run_campaign(specs, workers=1, master_seed=5)
        streamed = stream_campaign(
            specs, sched_aggregator(), workers=1, master_seed=5, collect=True
        )
        assert streamed.results == materialized.results
        assert streamed.to_json() == materialized.to_json()

    def test_duplicates_fold_once(self):
        spec = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        agg = Aggregator([mean_metric("delay", "delay")])
        res = stream_campaign([spec, spec, spec], agg)
        assert res.stats.total == 3
        assert res.stats.unique == 1
        assert agg["delay"].count == 1


class TestBatchingBitIdentity:
    """The batched-execution acceptance contract: any (workers, batch_size)
    combination — including batch sizes that don't divide the point count —
    produces byte-identical aggregates, results and snapshots."""

    GRID = [(1, 1), (1, 3), (4, 1), (4, 3), (4, 64), (2, None)]

    def test_workers_batch_grid_is_bit_identical(self):
        specs = grid_specs(
            "schedulability", {**SCHED_AXES, "rep": [0, 1, 2]}
        )
        baseline = stream_campaign(
            specs, sched_aggregator(), workers=1, master_seed=5,
            batch_size=1, collect=True,
        )
        for workers, batch in self.GRID[1:]:
            run = stream_campaign(
                specs, sched_aggregator(), workers=workers, master_seed=5,
                batch_size=batch, collect=True,
            )
            assert run.to_json() == baseline.to_json(), (workers, batch)
            assert agg_bytes(run) == agg_bytes(baseline), (workers, batch)

    def test_snapshot_bytes_identical_across_batch_sizes(self, tmp_path):
        specs = grid_specs("schedulability", SCHED_AXES)
        snaps = []
        for workers, batch in [(1, 1), (4, 3), (2, 64)]:
            state = tmp_path / f"agg-w{workers}-b{batch}.json"
            stream_campaign(
                specs, sched_aggregator(), workers=workers, master_seed=5,
                state_path=state, batch_size=batch,
            )
            snaps.append(state.read_bytes())
        assert snaps[0] == snaps[1] == snaps[2]

    def test_resume_with_a_different_batch_size(self, tmp_path):
        """Cold run at one batch size, warm resume at another: the resumed
        run computes nothing and the snapshot bytes never change."""
        specs = grid_specs("schedulability", SCHED_AXES)
        state = tmp_path / "agg.json"
        cache = tmp_path / "cache"
        cold = stream_campaign(
            specs, sched_aggregator(), workers=2, master_seed=5,
            cache_dir=cache, state_path=state, batch_size=1,
        )
        assert cold.stats.computed == len(specs)
        first_bytes = state.read_bytes()
        warm = stream_campaign(
            specs, sched_aggregator(), workers=2, master_seed=5,
            cache_dir=cache, state_path=state, batch_size=5,
        )
        assert warm.stats.computed == 0
        assert warm.stats.skipped == len(specs)
        assert state.read_bytes() == first_bytes
        assert agg_bytes(warm) == agg_bytes(cold)

    def test_batched_cache_writes_are_readable_per_point(self, tmp_path):
        """put_many writes one record per point: a batch=64 run warms the
        cache for an unbatched re-run."""
        cache = tmp_path / "cache"
        specs = grid_specs("schedulability", SCHED_AXES)
        batched = stream_campaign(
            specs, sched_aggregator(), master_seed=5, cache_dir=cache,
            batch_size=64,
        )
        unbatched = stream_campaign(
            specs, sched_aggregator(), master_seed=5, cache_dir=cache,
            batch_size=1,
        )
        assert unbatched.stats.computed == 0
        assert unbatched.stats.cached == len(specs)
        assert agg_bytes(unbatched) == agg_bytes(batched)

    def test_stats_record_batches_and_effective_size(self):
        specs = grid_specs("schedulability", SCHED_AXES)  # 4 unique points
        run = stream_campaign(
            specs, sched_aggregator(), master_seed=5, batch_size=3
        )
        assert run.stats.batch_size == 3
        assert run.stats.batches == 2  # 3 + 1: non-dividing size

    def test_auto_batching_default_is_per_point_on_tiny_grids(self):
        specs = grid_specs("schedulability", SCHED_AXES)
        run = stream_campaign(specs, sched_aggregator(), master_seed=5)
        assert run.stats.batch_size == 1


class TestMemoryContract:
    def test_collect_false_keeps_no_results(self):
        specs = grid_specs("ablate-slot-split", SPLIT_AXES)
        res = stream_campaign(specs, Aggregator([mean_metric("d", "delay")]))
        assert res.results is None
        with pytest.raises(ValueError, match="kept no results"):
            res.rows()


class TestResume:
    def test_extended_sweep_resumes_without_refolding(self, tmp_path):
        state = tmp_path / "agg.json"
        half = grid_specs("schedulability", {**SCHED_AXES, "rep": [0]})
        full = grid_specs("schedulability", SCHED_AXES)

        first = stream_campaign(
            half, sched_aggregator(), master_seed=5, state_path=state
        )
        assert first.stats.folded == len(half)
        resumed = stream_campaign(
            full, sched_aggregator(), master_seed=5, state_path=state
        )
        # old points are skipped outright: no recomputation, no re-fold
        assert resumed.stats.skipped == len(half)
        assert resumed.stats.computed == len(full) - len(half)
        assert resumed.stats.folded == len(full) - len(half)

        fresh = stream_campaign(full, sched_aggregator(), master_seed=5)
        assert agg_bytes(resumed) == agg_bytes(fresh)

    def test_resume_from_warm_cache_without_snapshot(self, tmp_path):
        """A cache warmed by a plain campaign folds without recomputing."""
        cache = tmp_path / "cache"
        specs = grid_specs("schedulability", SCHED_AXES)
        run_campaign(specs, master_seed=5, cache_dir=cache)
        streamed = stream_campaign(
            specs, sched_aggregator(), master_seed=5, cache_dir=cache
        )
        assert streamed.stats.computed == 0
        assert streamed.stats.cached == len(specs)
        assert streamed.stats.folded == len(specs)

    def test_snapshot_bytes_identical_across_worker_counts(self, tmp_path):
        specs = grid_specs("schedulability", SCHED_AXES)
        snaps = []
        for w in (1, 4):
            state = tmp_path / f"agg-w{w}.json"
            stream_campaign(
                specs, sched_aggregator(), workers=w, master_seed=5,
                state_path=state,
            )
            snaps.append(state.read_bytes())
        assert snaps[0] == snaps[1]

    def test_corrupt_snapshot_starts_fresh(self, tmp_path):
        state = tmp_path / "agg.json"
        state.write_text("{truncated")
        specs = grid_specs("ablate-slot-split", SPLIT_AXES)
        res = stream_campaign(
            specs, Aggregator([mean_metric("d", "delay")]), state_path=state
        )
        assert res.stats.folded == len(specs)
        # and the snapshot was repaired in place
        snap = json.loads(state.read_text())
        assert len(snap["folded"]) == len(specs)

    def test_mismatched_snapshot_is_rejected(self, tmp_path):
        state = tmp_path / "agg.json"
        specs = grid_specs("ablate-slot-split", SPLIT_AXES)
        stream_campaign(
            specs, Aggregator([mean_metric("d", "delay")]),
            master_seed=5, state_path=state,
        )
        with pytest.raises(SnapshotError, match="master seed"):
            stream_campaign(
                specs, Aggregator([mean_metric("d", "delay")]),
                master_seed=6, state_path=state,
            )
        with pytest.raises(SnapshotError, match="config digest"):
            stream_campaign(
                specs, Aggregator([mean_metric("other", "delay")]),
                master_seed=5, state_path=state,
            )


class TestErrors:
    BAD = PointSpec("ablate-slot-split", {"period": 3.0, "budget": 9.0, "pieces": 2})

    def test_failing_points_are_never_folded(self):
        specs = [
            PointSpec("ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}),
            self.BAD,  # budget > period: invalid supply
        ]
        agg = Aggregator([mean_metric("d", "delay")])
        res = stream_campaign(specs, agg, on_error="store", collect=True)
        assert res.stats.errors == 1
        assert agg["d"].count == 1
        assert "error" in res.results[1]

    def test_raise_mode_propagates(self):
        from repro.runner import CampaignError

        with pytest.raises(CampaignError):
            stream_campaign(
                [self.BAD], Aggregator([mean_metric("d", "delay")])
            )

    def test_known_failures_are_skipped_on_resume(self, tmp_path):
        """In store mode a failing digest is persisted, so a resumed run
        neither re-evaluates nor re-reports it as computed."""
        state = tmp_path / "agg.json"
        good = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        first = stream_campaign(
            [good, self.BAD], Aggregator([mean_metric("d", "delay")]),
            on_error="store", state_path=state,
        )
        assert first.stats.errors == 1
        assert self.BAD.digest in json.loads(state.read_text())["failed"]
        again = stream_campaign(
            [good, self.BAD], Aggregator([mean_metric("d", "delay")]),
            on_error="store", state_path=state,
        )
        assert again.stats.computed == 0
        assert again.stats.errors == 1  # still reported, not re-evaluated
        assert again.stats.skipped == 2
        assert agg_bytes(again) == agg_bytes(first)

    def test_snapshot_flushed_when_a_point_aborts(self, tmp_path):
        """Folds completed before a fatal point survive into the snapshot
        (sequential and pool paths alike), so a resumed run skips them."""
        from repro.runner import CampaignError

        good = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        state = tmp_path / "agg.json"
        with pytest.raises(CampaignError):
            stream_campaign(
                [good, self.BAD],
                Aggregator([mean_metric("d", "delay")]),
                workers=1,
                state_path=state,
            )
        snap = json.loads(state.read_text())
        assert good.digest in snap["folded"]

    def test_abort_mid_batch_still_flushes_earlier_folds(self, tmp_path):
        """A fatal point in the middle of a batch flushes the batch mates
        folded before it, exactly like the unbatched abort path."""
        from repro.runner import CampaignError

        good = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        state = tmp_path / "agg.json"
        with pytest.raises(CampaignError):
            stream_campaign(
                [good, self.BAD],
                Aggregator([mean_metric("d", "delay")]),
                workers=1,
                state_path=state,
                batch_size=2,  # both points share one batch
            )
        snap = json.loads(state.read_text())
        assert good.digest in snap["folded"]

    def test_store_mode_with_batches_matches_unbatched(self, tmp_path):
        good = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        unbatched = stream_campaign(
            [good, self.BAD], Aggregator([mean_metric("d", "delay")]),
            on_error="store", collect=True,
        )
        batched = stream_campaign(
            [good, self.BAD], Aggregator([mean_metric("d", "delay")]),
            on_error="store", collect=True, batch_size=2,
        )
        assert batched.stats.errors == 1
        assert batched.results == unbatched.results
        assert agg_bytes(batched) == agg_bytes(unbatched)


class TestCacheRepair:
    def test_corrupt_cache_entry_recomputed_and_overwritten(self, tmp_path):
        """A truncated/corrupt cache file must not crash a campaign: the
        point is recomputed and the entry rewritten."""
        cache_dir = tmp_path / "cache"
        spec = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        first = stream_campaign(
            [spec], Aggregator([mean_metric("d", "delay")]), cache_dir=cache_dir
        )
        path = ResultCache(cache_dir).path(spec, 0)
        for corrupt in ("{truncated", "[1, 2]", '"just a string"', ""):
            path.write_text(corrupt)
            again = stream_campaign(
                [spec], Aggregator([mean_metric("d", "delay")]),
                cache_dir=cache_dir,
            )
            assert again.stats.computed == 1
            assert again.stats.cached == 0
            assert agg_bytes(again) == agg_bytes(first)
            # the corrupt entry was overwritten with a valid record
            assert ResultCache(cache_dir).get(spec, 0) is not None


class TestOnDelta:
    """The on_delta hook publishes progress while points fold; its cadence
    is outside the determinism contract, but its counters are not."""

    def test_deltas_track_folds_to_completion(self):
        specs = grid_specs("schedulability", SCHED_AXES)
        deltas = []
        streamed = stream_campaign(
            specs, sched_aggregator(), workers=1, on_delta=deltas.append
        )
        assert deltas, "no deltas emitted"
        assert {d["event"] for d in deltas} <= {"scan", "batch"}
        folded = [d["folded"] for d in deltas]
        assert folded == sorted(folded), "folded count went backwards"
        assert folded[-1] == streamed.stats.folded == len(specs)
        assert all(d["failed"] == 0 for d in deltas)

    def test_deltas_do_not_change_the_aggregate(self):
        specs = grid_specs("schedulability", SCHED_AXES)
        silent = stream_campaign(specs, sched_aggregator(), workers=1)
        observed = stream_campaign(
            specs, sched_aggregator(), workers=1, on_delta=lambda d: None
        )
        assert agg_bytes(observed) == agg_bytes(silent)


class TestSnapshotForwardCompat:
    """Older readers tolerate (warn about) newer-minor snapshots and
    unknown top-level keys; wrong majors are still refused."""

    def _snapshot(self, tmp_path):
        from repro.runner import save_snapshot

        specs = grid_specs("schedulability", SCHED_AXES)
        agg = sched_aggregator()
        stream_campaign(specs, agg, workers=1)
        path = tmp_path / "snap.json"
        save_snapshot(path, agg, 0, {s.digest for s in specs})
        return path

    def test_newer_minor_warns_through_shard_reader(self, tmp_path):
        from repro.runner import SnapshotCompatWarning
        from repro.runner.shard import read_shard_snapshot

        path = self._snapshot(tmp_path)
        snap = json.loads(path.read_text())
        snap["schema_minor"] = 3
        snap["provenance"] = {"host": "future"}
        path.write_text(json.dumps(snap))
        with pytest.warns(SnapshotCompatWarning) as caught:
            read_shard_snapshot(path)
        messages = [str(w.message) for w in caught]
        assert any("schema minor 3" in m for m in messages)
        assert any("provenance" in m for m in messages)

    def test_wrong_major_still_refused_by_shard_reader(self, tmp_path):
        from repro.runner import MergeError
        from repro.runner.shard import read_shard_snapshot

        path = self._snapshot(tmp_path)
        snap = json.loads(path.read_text())
        snap["schema"] = 3
        path.write_text(json.dumps(snap))
        with pytest.raises(MergeError, match="has schema 3"):
            read_shard_snapshot(path)

    def test_minor_zero_is_never_written(self, tmp_path):
        # byte-stability: tolerating schema_minor on read must not change
        # the bytes we write
        path = self._snapshot(tmp_path)
        assert "schema_minor" not in json.loads(path.read_text())
