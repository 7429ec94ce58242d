"""Shard/merge subsystem tests.

These pin the distributed-campaign acceptance contract: digest-keyed
partitioning is deterministic and enumeration-order free, shard snapshots
carry validated manifests, and merging N shard snapshots reproduces the
unsharded snapshot byte-for-byte — while mismatched configs/seeds/grids and
missing, overlapping, or incomplete shards are refused with a diagnosis.
"""

import json

import pytest

from repro.runner import (
    Aggregator,
    MergeError,
    ShardManifest,
    SnapshotError,
    canonical_json,
    curve_metric,
    grid_digest,
    grid_specs,
    mean_metric,
    merge_snapshot_files,
    merge_snapshots,
    parse_shard,
    shard_of,
    stream_campaign,
)

AXES = {"u_total": [0.8, 1.6], "n": [6], "rep": [0, 1, 2]}
SPLIT_AXES = {"period": [3.0], "budget": [1.0], "pieces": [1, 2, 3, 4]}


def sched_aggregator():
    return Aggregator(
        [
            mean_metric("feasible", "feasible", experiment="schedulability"),
            curve_metric(
                "weighted", "u_total", "feasible",
                weight="utilization", experiment="schedulability",
            ),
        ]
    )


def run_shards(specs, count, tmp_path, aggregator=sched_aggregator, **kwargs):
    """Run every shard of ``specs`` into its own snapshot; return the paths."""
    paths = []
    for i in range(count):
        path = tmp_path / f"shard-{i}of{count}.json"
        stream_campaign(
            specs, aggregator(),
            master_seed=5, state_path=path, shard=(i, count), **kwargs,
        )
        paths.append(path)
    return paths


class TestParseShard:
    def test_parses(self):
        assert parse_shard("0/3") == (0, 3)
        assert parse_shard("2/3") == (2, 3)
        assert parse_shard("0/1") == (0, 1)

    @pytest.mark.parametrize(
        "bad", ["3/3", "-1/3", "1/0", "1", "a/b", "1/2/3", "/3", "2/"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_shard(bad)


class TestPartitioning:
    def test_shards_partition_the_grid(self):
        specs = grid_specs("schedulability", AXES)
        seen: dict[str, int] = {}
        for i in range(3):
            for digest in ShardManifest.for_shard(specs, i, 3).points:
                assert digest not in seen, "shards overlap"
                seen[digest] = i
        assert len(seen) == len(specs)

    def test_assignment_is_enumeration_order_free(self):
        specs = grid_specs("schedulability", AXES)
        fwd = ShardManifest.for_shard(specs, 1, 3)
        rev = ShardManifest.for_shard(list(reversed(specs)), 1, 3)
        assert fwd == rev

    def test_assignment_is_content_keyed(self):
        specs = grid_specs("schedulability", AXES)
        for spec in specs:
            manifest = ShardManifest.for_shard(specs, shard_of(spec.digest, 4), 4)
            assert spec.digest in manifest.points

    def test_single_shard_is_identity(self):
        specs = grid_specs("schedulability", AXES)
        assert ShardManifest.for_shard(specs, 0, 1) == ShardManifest.full(
            s.digest for s in specs
        )

    def test_bad_indices_rejected(self):
        specs = grid_specs("schedulability", AXES)
        with pytest.raises(ValueError, match="invalid shard"):
            stream_campaign(specs, sched_aggregator(), shard=(3, 3))
        with pytest.raises(ValueError, match="invalid shard"):
            stream_campaign(specs, sched_aggregator(), shard=(0, 0))


class TestManifest:
    def test_round_trip(self):
        specs = grid_specs("schedulability", AXES)
        m = ShardManifest.for_shard(specs, 1, 3)
        assert ShardManifest.from_dict(m.to_dict()) == m

    def test_points_match_shard_specs(self):
        specs = grid_specs("schedulability", AXES)
        m = ShardManifest.for_shard(specs, 2, 3)
        assert set(m.points) == {
            s.digest for s in specs if shard_of(s.digest, 3) == 2
        }

    def test_grid_digest_shared_across_shards(self):
        specs = grid_specs("schedulability", AXES)
        grids = {ShardManifest.for_shard(specs, i, 3).grid for i in range(3)}
        assert grids == {grid_digest(s.digest for s in specs)}

    def test_full_manifest_covers_everything(self):
        specs = grid_specs("schedulability", AXES)
        m = ShardManifest.full(s.digest for s in specs)
        assert (m.index, m.count) == (0, 1)
        assert len(m.points) == len(specs)

    def test_invalid_manifest_rejected(self):
        with pytest.raises(ValueError):
            ShardManifest(index=3, count=3, grid="g", points=())
        with pytest.raises(ValueError):
            ShardManifest(index=0, count=0, grid="g", points=())


class TestMergeBitIdentity:
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_n_shard_merge_equals_unsharded_snapshot(self, tmp_path, count):
        """The acceptance criterion: merge(N shards) == 1-shard run, bytes."""
        specs = grid_specs("schedulability", AXES)
        full = tmp_path / "full.json"
        stream_campaign(
            specs, sched_aggregator(), master_seed=5, state_path=full
        )
        paths = run_shards(specs, count, tmp_path)
        merged = merge_snapshot_files(paths)
        assert canonical_json(merged) == full.read_text()

    def test_merge_order_does_not_matter(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        paths = run_shards(specs, 3, tmp_path)
        assert merge_snapshot_files(paths) == merge_snapshot_files(
            list(reversed(paths))
        )

    def test_empty_shard_merges_cleanly(self, tmp_path):
        """A shard that drew no points still produces a valid snapshot."""
        specs = grid_specs("ablate-slot-split", SPLIT_AXES)
        count = len(specs) + 3  # guarantees at least one empty shard
        agg = lambda: Aggregator([mean_metric("d", "delay")])  # noqa: E731
        full = tmp_path / "full.json"
        stream_campaign(specs, agg(), master_seed=5, state_path=full)
        paths = run_shards(specs, count, tmp_path, aggregator=agg)
        assert canonical_json(merge_snapshot_files(paths)) == full.read_text()

    def test_failed_points_survive_the_merge(self, tmp_path):
        """In store mode the failed-digest sets union like the folded sets."""
        from repro.runner import PointSpec

        good = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        bad = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 9.0, "pieces": 2}
        )
        specs = [good, bad]
        agg = lambda: Aggregator([mean_metric("d", "delay")])  # noqa: E731
        full = tmp_path / "full.json"
        stream_campaign(
            specs, agg(), master_seed=5, state_path=full, on_error="store"
        )
        paths = run_shards(
            specs, 2, tmp_path, aggregator=agg, on_error="store"
        )
        merged = merge_snapshot_files(paths)
        assert canonical_json(merged) == full.read_text()
        assert bad.digest in merged["failed"]


class TestMergeSafety:
    def shards(self, tmp_path, **kwargs):
        specs = grid_specs("schedulability", AXES)
        return run_shards(specs, 3, tmp_path, **kwargs)

    def test_missing_shard_reported(self, tmp_path):
        paths = self.shards(tmp_path)
        with pytest.raises(MergeError, match=r"missing shards.*\[2\]"):
            merge_snapshot_files(paths[:2])

    def test_overlapping_shard_reported(self, tmp_path):
        paths = self.shards(tmp_path)
        with pytest.raises(MergeError, match="overlapping"):
            merge_snapshot_files([paths[0], *paths])

    def test_mismatched_master_seed_refused(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        paths = run_shards(specs, 2, tmp_path)
        snap = json.loads(paths[1].read_text())
        snap["master_seed"] = 99
        paths[1].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="master seed"):
            merge_snapshot_files(paths)

    def test_mismatched_config_refused(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        paths = run_shards(specs, 2, tmp_path)
        other = Aggregator(
            [mean_metric("other", "feasible", experiment="schedulability")]
        )
        other_path = tmp_path / "other-config.json"
        stream_campaign(
            specs, other, master_seed=5, state_path=other_path, shard=(1, 2)
        )
        with pytest.raises(MergeError, match="config digest"):
            merge_snapshot_files([paths[0], other_path])

    def test_mismatched_grid_refused(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        grown = grid_specs("schedulability", {**AXES, "rep": [0, 1, 2, 3]})
        a = run_shards(specs, 2, tmp_path)[0]
        b = tmp_path / "other-grid.json"
        stream_campaign(
            grown, sched_aggregator(), master_seed=5, state_path=b, shard=(1, 2)
        )
        with pytest.raises(MergeError, match="grid digest"):
            merge_snapshot_files([a, b])

    def test_incomplete_shard_reported(self, tmp_path):
        paths = self.shards(tmp_path)
        snap = json.loads(paths[0].read_text())
        dropped = snap["folded"].pop()
        # keep the aggregate consistent enough to reach validation
        paths[0].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="incomplete"):
            merge_snapshot_files(paths)
        assert dropped  # the digest really was removed

    def test_truncated_coverage_does_not_merge_partial(self, tmp_path):
        """A manifest whose points list was truncated (consistently with its
        folded set) still fails: the coverage union must re-derive the
        declared grid digest, or the merge would emit a partial curve."""
        paths = self.shards(tmp_path)
        snap = json.loads(paths[0].read_text())
        dropped = snap["shard"]["points"].pop()
        snap["folded"] = [d for d in snap["folded"] if d != dropped]
        snap["failed"] = [d for d in snap["failed"] if d != dropped]
        paths[0].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="reassemble the declared grid"):
            merge_snapshot_files(paths)

    def test_stray_fold_reported(self, tmp_path):
        paths = self.shards(tmp_path)
        snap = json.loads(paths[0].read_text())
        snap["folded"].append("f" * 64)
        paths[0].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="outside its manifest"):
            merge_snapshot_files(paths)

    def test_unreadable_snapshot_is_an_error_not_a_fresh_start(self, tmp_path):
        paths = self.shards(tmp_path)
        with pytest.raises(MergeError, match="cannot read"):
            merge_snapshot_files([*paths[:2], tmp_path / "nope.json"])
        paths[2].write_text("{truncated")
        with pytest.raises(MergeError, match="not valid JSON"):
            merge_snapshot_files(paths)

    def test_old_schema_snapshot_refused(self, tmp_path):
        paths = self.shards(tmp_path)
        snap = json.loads(paths[0].read_text())
        snap["schema"] = 1
        paths[0].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="schema"):
            merge_snapshot_files(paths)

    def test_no_snapshots_refused(self):
        with pytest.raises(MergeError, match="no snapshots"):
            merge_snapshots([])


class TestPartialMerge:
    """The --allow-partial escape hatch: explicit preview snapshots for
    deliberately incomplete shard sets, while the default path (and every
    non-completeness refusal) stays exactly as strict as before."""

    def shards(self, tmp_path, **kwargs):
        specs = grid_specs("schedulability", AXES)
        return run_shards(specs, 3, tmp_path, **kwargs)

    def test_missing_shard_previews_with_partial_marker(self, tmp_path):
        paths = self.shards(tmp_path)
        preview = merge_snapshot_files(paths[:2], allow_partial=True)
        assert preview["partial"] is True
        assert preview["missing_shards"] == [2]
        snaps = [json.loads(p.read_text()) for p in paths[:2]]
        assert set(preview["folded"]) == set(snaps[0]["folded"]) | set(
            snaps[1]["folded"]
        )
        # the preview claims the *declared* grid but only the done points
        assert preview["shard"]["grid"] == snaps[0]["shard"]["grid"]
        assert set(preview["shard"]["points"]) == set(
            preview["folded"]
        ) | set(preview["failed"])

    def test_preview_aggregate_merges_only_present_shards(self, tmp_path):
        from repro.runner import merge_states

        paths = self.shards(tmp_path)
        preview = merge_snapshot_files(paths[:2], allow_partial=True)
        snaps = [json.loads(p.read_text()) for p in paths[:2]]
        assert preview["aggregate"] == merge_states(
            snaps[0]["aggregate"], snaps[1]["aggregate"]
        )

    def test_complete_set_with_allow_partial_is_canonical(self, tmp_path):
        """--allow-partial on a complete set must not water anything down:
        the result is the canonical snapshot, byte for byte."""
        paths = self.shards(tmp_path)
        strict = merge_snapshot_files(paths)
        permissive = merge_snapshot_files(paths, allow_partial=True)
        assert canonical_json(permissive) == canonical_json(strict)
        assert "partial" not in permissive

    def test_incomplete_shard_previews_with_partial_marker(self, tmp_path):
        paths = self.shards(tmp_path)
        snap = json.loads(paths[0].read_text())
        snap["folded"].pop()
        paths[0].write_text(canonical_json(snap))
        preview = merge_snapshot_files(paths, allow_partial=True)
        assert preview["partial"] is True
        assert preview["missing_shards"] == []  # all shards present...
        assert len(preview["folded"]) == len(
            {d for p in paths for d in json.loads(p.read_text())["folded"]}
        )

    def test_preview_refused_as_merge_input(self, tmp_path):
        paths = self.shards(tmp_path)
        preview = merge_snapshot_files(paths[:2], allow_partial=True)
        preview_path = tmp_path / "preview.json"
        preview_path.write_text(canonical_json(preview))
        for allow in (False, True):
            with pytest.raises(MergeError, match="preview"):
                merge_snapshot_files([preview_path], allow_partial=allow)

    def test_preview_refused_as_resume_state(self, tmp_path):
        paths = self.shards(tmp_path)
        preview = merge_snapshot_files(paths[:2], allow_partial=True)
        preview_path = tmp_path / "preview.json"
        preview_path.write_text(canonical_json(preview))
        specs = grid_specs("schedulability", AXES)
        with pytest.raises(SnapshotError, match="preview"):
            stream_campaign(
                specs, sched_aggregator(),
                master_seed=5, state_path=preview_path,
            )

    def test_allow_partial_keeps_every_other_refusal(self, tmp_path):
        """Only the completeness checks relax: mismatched seeds/configs/
        grids and overlapping shards are refused exactly as before."""
        paths = self.shards(tmp_path)
        with pytest.raises(MergeError, match="overlapping"):
            merge_snapshot_files([paths[0], *paths], allow_partial=True)
        snap = json.loads(paths[1].read_text())
        snap["master_seed"] = 99
        paths[1].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="master seed"):
            merge_snapshot_files(paths[:2], allow_partial=True)

    def test_stray_fold_refused_even_when_partial(self, tmp_path):
        paths = self.shards(tmp_path)
        snap = json.loads(paths[0].read_text())
        snap["folded"].append("f" * 64)
        paths[0].write_text(canonical_json(snap))
        with pytest.raises(MergeError, match="outside its manifest"):
            merge_snapshot_files(paths[:2], allow_partial=True)


class TestShardedStreaming:
    def test_resume_into_wrong_shard_snapshot_rejected(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        path = tmp_path / "shard.json"
        stream_campaign(
            specs, sched_aggregator(),
            master_seed=5, state_path=path, shard=(0, 3),
        )
        with pytest.raises(SnapshotError, match="different shard"):
            stream_campaign(
                specs, sched_aggregator(),
                master_seed=5, state_path=path, shard=(1, 3),
            )

    def test_sharded_resume_skips_folded_points(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        path = tmp_path / "shard.json"
        owned = len(ShardManifest.for_shard(specs, 0, 3).points)
        first = stream_campaign(
            specs, sched_aggregator(),
            master_seed=5, state_path=path, shard=(0, 3),
        )
        assert first.stats.folded == owned
        again = stream_campaign(
            specs, sched_aggregator(),
            master_seed=5, state_path=path, shard=(0, 3),
        )
        assert again.stats.computed == 0
        assert again.stats.skipped == owned

    def test_snapshot_records_the_manifest(self, tmp_path):
        specs = grid_specs("schedulability", AXES)
        path = tmp_path / "shard.json"
        stream_campaign(
            specs, sched_aggregator(),
            master_seed=5, state_path=path, shard=(2, 3),
        )
        snap = json.loads(path.read_text())
        assert ShardManifest.from_dict(snap["shard"]) == ShardManifest.for_shard(
            specs, 2, 3
        )
