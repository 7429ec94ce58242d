"""Campaign engine tests: determinism, caching, dedup, error handling.

Pool tests use the cheap ``ablate-slot-split`` / ``schedulability``
experiments so the suite exercises real registry points without long
computations.
"""

import pytest

from repro.runner import (
    MAX_AUTO_BATCH,
    CampaignError,
    PointSpec,
    ProgressReporter,
    auto_batch_size,
    evaluate_batch,
    execute_points,
    run_campaign,
    sweep,
)

SPLIT_AXES = {"period": [3.0], "budget": [1.0], "pieces": [1, 2, 3, 4]}
SCHED_AXES = {"u_total": [0.8, 1.6], "n": [6], "rep": [0, 1]}


class TestRunCampaign:
    def test_results_align_with_specs(self):
        specs = [
            PointSpec("ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": k})
            for k in (4, 1, 2)
        ]
        campaign = run_campaign(specs)
        delays = [r["delay"] for r in campaign.results]
        assert delays[1] > delays[2] > delays[0]  # k=1 worst, k=4 best

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_campaign([PointSpec("no-such-experiment", {})])

    def test_duplicates_evaluated_once(self):
        spec = PointSpec("ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2})
        campaign = run_campaign([spec, spec, spec])
        assert campaign.stats.total == 3
        assert campaign.stats.unique == 1
        assert campaign.results[0] == campaign.results[1] == campaign.results[2]

    def test_pool_matches_inline(self):
        inline = sweep("schedulability", SCHED_AXES, workers=1, master_seed=5)
        pooled = sweep("schedulability", SCHED_AXES, workers=2, master_seed=5)
        assert inline.to_json() == pooled.to_json()

    def test_submission_order_does_not_change_results(self):
        specs = [
            PointSpec("schedulability", {"u_total": 0.8, "n": 6, "rep": r})
            for r in range(3)
        ]
        forward = run_campaign(specs, master_seed=5)
        backward = run_campaign(list(reversed(specs)), master_seed=5)
        for spec, result in forward.rows():
            assert backward.results[backward.specs.index(spec)] == result

    def test_master_seed_changes_seeded_results(self):
        a = sweep("schedulability", SCHED_AXES, master_seed=0)
        b = sweep("schedulability", SCHED_AXES, master_seed=1)
        assert a.to_json() != b.to_json()

    def test_progress_reporter_sees_every_point(self):
        import io

        reporter = ProgressReporter(4, stream=io.StringIO())
        sweep("ablate-slot-split", SPLIT_AXES, progress=reporter)
        assert reporter.snapshot()["done"] == 4
        assert reporter.snapshot()["computed"] == 4


class TestBatching:
    def test_auto_batch_size_heuristic(self):
        # tiny campaigns stay per-point; huge ones cap for responsiveness
        assert auto_batch_size(0, 4) == 1
        assert auto_batch_size(12, 4) == 1
        assert auto_batch_size(5_000, 4) == 5_000 // 32
        assert auto_batch_size(1_000_000, 4) == MAX_AUTO_BATCH
        assert auto_batch_size(100, 0) == 1

    def test_evaluate_batch_matches_per_point_and_isolates_failures(self):
        ok_params = {"period": 3.0, "budget": 1.0, "pieces": 2}
        bad_params = {"period": 3.0, "budget": 1.0, "pieces": 0}
        outcomes, kernel_delta, telemetry_delta = evaluate_batch(
            (
                (
                    ("ablate-slot-split", ok_params),
                    ("ablate-slot-split", bad_params),
                    ("ablate-slot-split", ok_params),
                ),
                0,
            )
        )
        assert [ok for ok, _, _ in outcomes] == [True, False, True]
        # a failing point never poisons its batch mates
        assert outcomes[0][1] == outcomes[2][1]
        assert set(kernel_delta) == {"fast", "fallback"}
        assert all(v >= 0 for v in kernel_delta.values())
        # without the opt-in payload flag no collector is ever created
        assert telemetry_delta is None

    def test_evaluate_batch_ships_telemetry_when_asked(self):
        ok_params = {"period": 3.0, "budget": 1.0, "pieces": 2}
        outcomes, _kernel_delta, delta = evaluate_batch(
            ((("ablate-slot-split", ok_params),), 0, True)
        )
        assert [ok for ok, _, _ in outcomes] == [True]
        assert delta is not None
        assert "point" in delta["phases"]
        assert delta["phases"]["point"][0] == 1

    @pytest.mark.parametrize("workers,batch", [(1, 3), (2, 3), (2, 64)])
    def test_batch_layout_covers_every_point_once(self, workers, batch):
        """Batch sizes that don't divide the point count still finish every
        point exactly once, whatever the (workers, batch) combination."""
        specs = [
            PointSpec(
                "ablate-slot-split",
                {"period": 3.0, "budget": 1.0, "pieces": 1, "rep": r},
            )
            for r in range(7)
        ]
        seen: list[str] = []
        sizes: list[int] = []

        def finish_batch(done, kernel_delta):
            assert set(kernel_delta) == {"fast", "fallback"}  # last hand-off
            sizes.append(len(done))
            for spec, ok, _result, elapsed in done:
                assert ok and elapsed >= 0.0
                seen.append(spec.digest)

        effective = execute_points(
            specs, workers, 0, finish_batch, batch_size=batch
        )
        assert effective == batch
        assert sorted(seen) == sorted(s.digest for s in specs)
        assert all(size <= batch for size in sizes)
        assert len(sizes) == (len(specs) + batch - 1) // batch  # one per batch

    def test_explicit_batch_sizes_are_bit_identical(self):
        baseline = sweep("schedulability", SCHED_AXES, master_seed=5).to_json()
        for workers, batch in [(1, 3), (2, 1), (2, 3), (2, 64)]:
            batched = sweep(
                "schedulability", SCHED_AXES,
                workers=workers, master_seed=5, batch_size=batch,
            )
            assert batched.to_json() == baseline
            assert batched.stats.batch_size == batch

    def test_sequential_raise_aborts_without_evaluating_batch_mates(self):
        """Inline (workers=1) execution surfaces a failing point at once:
        a raise-mode abort must not burn time evaluating the rest of the
        failing point's batch first."""
        bad = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 0}
        )
        good = PointSpec(
            "ablate-slot-split", {"period": 3.0, "budget": 1.0, "pieces": 2}
        )
        seen: list[str] = []

        def finish_batch(done, _kernel_delta):
            for spec, ok, result, _elapsed in done:
                seen.append(spec.digest)
                if not ok:
                    raise CampaignError(spec, result)

        with pytest.raises(CampaignError):
            execute_points([bad, good], 1, 0, finish_batch, batch_size=2)
        assert seen == [bad.digest]  # the batch mate was never touched

    def test_store_mode_survives_mixed_batches(self, tmp_path):
        """A failing point inside a batch is stored, its batch mates are
        still cached and returned."""
        axes = {"period": [3.0], "budget": [1.0], "pieces": [0, 2, 3, 4]}
        campaign = sweep(
            "ablate-slot-split", axes, on_error="store",
            cache_dir=tmp_path, batch_size=4,
        )
        assert "error" in campaign.results[0]
        assert campaign.stats.errors == 1
        again = sweep(
            "ablate-slot-split", axes, on_error="store",
            cache_dir=tmp_path, batch_size=2,
        )
        assert again.stats.cached == 3  # the failing point is never cached
        assert again.results == campaign.results


class TestCaching:
    def test_rerun_computes_nothing(self, tmp_path):
        first = sweep("schedulability", SCHED_AXES, master_seed=5, cache_dir=tmp_path)
        again = sweep("schedulability", SCHED_AXES, master_seed=5, cache_dir=tmp_path)
        assert first.stats.computed == 4
        assert again.stats.computed == 0
        assert again.stats.cached == 4
        assert first.to_json() == again.to_json()

    def test_extended_sweep_computes_only_new_points(self, tmp_path):
        small = sweep("schedulability", SCHED_AXES, master_seed=5, cache_dir=tmp_path)
        wider = sweep(
            "schedulability",
            {**SCHED_AXES, "u_total": [0.8, 1.6, 2.4]},
            master_seed=5,
            cache_dir=tmp_path,
        )
        assert wider.stats.cached == 4
        assert wider.stats.computed == 2
        # Old points keep their exact results inside the extended grid.
        for spec, result in small.rows():
            assert wider.results[wider.specs.index(spec)] == result

    def test_cache_respects_master_seed(self, tmp_path):
        sweep("schedulability", SCHED_AXES, master_seed=5, cache_dir=tmp_path)
        other = sweep("schedulability", SCHED_AXES, master_seed=6, cache_dir=tmp_path)
        assert other.stats.cached == 0
        assert other.stats.computed == 4


class TestErrors:
    BAD = {"period": [3.0], "budget": [1.0], "pieces": [0]}  # 0 pieces: invalid

    def test_raise_mode(self):
        with pytest.raises(CampaignError, match="ablate-slot-split"):
            sweep("ablate-slot-split", self.BAD)

    def test_store_mode_keeps_going_and_never_caches(self, tmp_path):
        axes = {"period": [3.0], "budget": [1.0], "pieces": [0, 2]}
        campaign = sweep(
            "ablate-slot-split", axes, on_error="store", cache_dir=tmp_path
        )
        assert "error" in campaign.results[0]
        assert campaign.results[1]["delay"] > 0
        assert campaign.stats.errors == 1
        # The failing point is not cached; a re-run retries it.
        again = sweep("ablate-slot-split", axes, on_error="store", cache_dir=tmp_path)
        assert again.stats.cached == 1
        assert again.stats.errors == 1

    def test_bad_on_error_value(self):
        with pytest.raises(ValueError):
            run_campaign([], on_error="explode")


class TestKernelCounters:
    """Campaign-level fast/fallback bookkeeping (see repro.analysis.kernels)."""

    #: Non-dyadic deadlines (D = 0.7 T) defeat the integer rescale while the
    #: hyperperiod-limited periods keep the float fallback cheap.
    FALLBACK_AXES = {
        "u_total": [0.6, 1.2],
        "n": [4],
        "rep": [0, 1],
        "deadline_factor": [0.7],
    }

    def test_sched_grid_runs_on_fast_kernels(self):
        from repro.analysis import kernels
        from repro.runner.aggregate import Aggregator
        from repro.runner.grid import grid_specs
        from repro.runner.stream import stream_campaign

        with kernels.kernels_forced(True):
            streamed = stream_campaign(
                grid_specs("schedulability", SCHED_AXES),
                Aggregator([]),
                on_error="store",
            )
        s = streamed.stats
        total = s.kernel_fast + s.kernel_fallback
        assert s.kernel_fast > 0
        assert s.kernel_fast >= 0.9 * total

    def test_fallback_points_are_counted_with_identical_results(self):
        from repro.analysis import kernels
        from repro.runner.aggregate import Aggregator
        from repro.runner.grid import grid_specs
        from repro.runner.stream import stream_campaign

        specs = grid_specs("schedulability", self.FALLBACK_AXES)
        with kernels.kernels_forced(True):
            fast = stream_campaign(
                specs, Aggregator([]), collect=True, on_error="store"
            )
        with kernels.kernels_forced(False):
            slow = stream_campaign(
                specs, Aggregator([]), collect=True, on_error="store"
            )
        assert fast.stats.kernel_fallback > 0
        assert slow.stats.kernel_fast == 0
        # the exactness gate: byte-identical campaign output either way
        assert fast.to_json() == slow.to_json()

    def test_pool_workers_ship_counter_deltas(self):
        from repro.analysis import kernels
        from repro.runner.aggregate import Aggregator
        from repro.runner.grid import grid_specs
        from repro.runner.stream import stream_campaign

        with kernels.kernels_forced(True):
            streamed = stream_campaign(
                grid_specs("schedulability", SCHED_AXES),
                Aggregator([]),
                workers=2,
                batch_size=1,
                on_error="store",
            )
        assert streamed.stats.kernel_fast > 0
