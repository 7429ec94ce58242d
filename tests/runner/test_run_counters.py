"""Campaign run counters: pinned stats and one record behind every view.

A campaign's counters reach callers three ways: ``StreamStats``, the
``on_delta`` payloads ``repro serve`` streams and the progress reporter.
The pinned literals below fix ``StreamStats`` (all but ``elapsed``) for a
spread of scenarios: fresh grids at several ``(workers, batch)`` shapes, a
warm cache, a resume that extends the grid, shards, store-mode failures
and adaptive runs with and without shards, and resumes of complete
adaptive snapshots. The agreement tests check that the views tell the
same story while the run is in flight, not just at its end.
"""

from __future__ import annotations

import io
import sys
import threading

import pytest

from repro.experiments.weighted import (
    weighted_adaptive_source,
    weighted_aggregator,
)
from repro.runner import (
    Aggregator,
    PointSpec,
    ProgressReporter,
    grid_specs,
    mean_metric,
    stream_campaign,
)

SCHED_AXES = {"u_total": [0.8, 1.6, 2.4], "n": [6], "rep": [0, 1, 2]}
#: ``pieces=0`` is an invalid split: two of the eight points fail.
SPLIT_AXES = {"period": [3.0], "budget": [1.0, 2.0], "pieces": [0, 1, 2, 3]}
ADAPTIVE_AXES = {
    "u_total": [0.8, 2.4],
    "n": [6],
    "period_hyperperiod": [720.0],
    "rep": [0, 1, 2],
    "rate": [0.02],
}


def sched_specs() -> list[PointSpec]:
    specs = grid_specs("schedulability", SCHED_AXES)
    return specs + specs[:1]  # one duplicate: total != unique


def sched_aggregator() -> Aggregator:
    return Aggregator(
        [mean_metric("feasible", "feasible", experiment="schedulability")]
    )


def split_aggregator() -> Aggregator:
    return Aggregator(
        [mean_metric("delay", "delay", experiment="ablate-slot-split")]
    )


def counters(result) -> dict:
    out = result.stats.to_dict()
    del out["elapsed"]
    return out


def fresh(workers: int, batch: int):
    def run(tmp_path):
        return [
            counters(
                stream_campaign(
                    sched_specs(), sched_aggregator(), workers=workers,
                    master_seed=5, batch_size=batch,
                )
            )
        ]

    return run


def warm_cache(tmp_path):
    runs = []
    for _ in range(2):
        runs.append(
            counters(
                stream_campaign(
                    sched_specs(), sched_aggregator(), workers=1,
                    master_seed=5, cache_dir=tmp_path / "cache", batch_size=4,
                )
            )
        )
    return runs


def resume_extends(tmp_path):
    specs = sched_specs()
    state = tmp_path / "state.json"
    return [
        counters(
            stream_campaign(
                part, sched_aggregator(), workers=1, master_seed=5,
                state_path=state, batch_size=2,
            )
        )
        for part in (specs[:4], specs)
    ]


def collect_resume(tmp_path):
    specs = sched_specs()
    state = tmp_path / "state.json"
    return [
        counters(
            stream_campaign(
                part, sched_aggregator(), workers=1, master_seed=5,
                state_path=state, cache_dir=tmp_path / "cache",
                collect=collect, batch_size=3,
            )
        )
        for part, collect in ((specs[:5], False), (specs, True))
    ]


def three_shards(tmp_path):
    return [
        counters(
            stream_campaign(
                sched_specs(), sched_aggregator(), workers=1,
                master_seed=5, shard=(index, 3), batch_size=2,
            )
        )
        for index in range(3)
    ]


def store(workers: int, batch: int):
    def run(tmp_path):
        return [
            counters(
                stream_campaign(
                    grid_specs("ablate-slot-split", SPLIT_AXES),
                    split_aggregator(), workers=workers, master_seed=5,
                    batch_size=batch, on_error="store",
                )
            )
        ]

    return run


def store_resume(tmp_path):
    state = tmp_path / "state.json"
    return [
        counters(
            stream_campaign(
                grid_specs("ablate-slot-split", SPLIT_AXES),
                split_aggregator(), workers=1, master_seed=5,
                state_path=state, batch_size=8, on_error="store",
            )
        )
        for _ in range(2)
    ]


def adaptive(tmp_path):
    """An adaptive run, then the resume of its complete snapshot: it emits
    no round and reports the snapshot's points as resumed."""
    state = tmp_path / "state.json"
    return [
        counters(
            stream_campaign(
                weighted_adaptive_source(ADAPTIVE_AXES, ci_width=0.4),
                weighted_aggregator(), workers=1, master_seed=3,
                state_path=state, batch_size=4, on_error="store",
            )
        )
        for _ in range(2)
    ]


def sharded_adaptive(tmp_path):
    """Two adaptive shards sharing a cache: the second reuses planning."""
    return [
        counters(
            stream_campaign(
                weighted_adaptive_source(ADAPTIVE_AXES, ci_width=0.4),
                weighted_aggregator(), workers=1, master_seed=3,
                cache_dir=tmp_path / "cache",
                state_path=tmp_path / f"shard{index}.json",
                shard=(index, 2), batch_size=4, on_error="store",
            )
        )
        for index in range(2)
    ]


def sharded_adaptive_resume(tmp_path):
    """An adaptive shard, then the resume of its complete snapshot: it
    reports only its own points as resumed."""
    return [
        counters(
            stream_campaign(
                weighted_adaptive_source(ADAPTIVE_AXES, ci_width=0.4),
                weighted_aggregator(), workers=1, master_seed=3,
                state_path=tmp_path / "shard0.json", shard=(0, 2),
                batch_size=4, on_error="store",
            )
        )
        for _ in range(2)
    ]


SCENARIOS = {
    "fresh-w1-b1": fresh(1, 1),
    "fresh-w1-b8": fresh(1, 8),
    "fresh-w2-b1": fresh(2, 1),
    "fresh-w2-b8": fresh(2, 8),
    "warm-cache": warm_cache,
    "resume-extends": resume_extends,
    "collect-resume": collect_resume,
    "three-shards": three_shards,
    "store-w1-b1": store(1, 1),
    "store-w1-b8": store(1, 8),
    "store-w2-b8": store(2, 8),
    "store-resume": store_resume,
    "adaptive": adaptive,
    "sharded-adaptive": sharded_adaptive,
    "sharded-adaptive-resume": sharded_adaptive_resume,
}


#: ``StreamStats.to_dict()`` without ``elapsed``, per scenario and run.
#: ``batches`` counts completed engine batches. An inline (workers=1) run
#: hands a failing point over before the rest of its batch; those early
#: hand-offs are not batches, so the ``store-w1-b8``, ``store-resume``,
#: ``adaptive`` and ``sharded-adaptive`` runs report as many batches as
#: the same runs at workers=2.
PINNED = {
    "fresh-w1-b1": [
        dict(total=10, unique=9, computed=9, cached=0, errors=0, workers=1,
            batch_size=1, folded=9, skipped=0, batches=9, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=54,
            kernel_fallback=0),
    ],
    "fresh-w1-b8": [
        dict(total=10, unique=9, computed=9, cached=0, errors=0, workers=1,
            batch_size=8, folded=9, skipped=0, batches=2, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=54,
            kernel_fallback=0),
    ],
    "fresh-w2-b1": [
        dict(total=10, unique=9, computed=9, cached=0, errors=0, workers=2,
            batch_size=1, folded=9, skipped=0, batches=9, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=54,
            kernel_fallback=0),
    ],
    "fresh-w2-b8": [
        dict(total=10, unique=9, computed=9, cached=0, errors=0, workers=2,
            batch_size=8, folded=9, skipped=0, batches=2, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=54,
            kernel_fallback=0),
    ],
    "warm-cache": [
        dict(total=10, unique=9, computed=9, cached=0, errors=0, workers=1,
            batch_size=4, folded=9, skipped=0, batches=3, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=54,
            kernel_fallback=0),
        dict(total=10, unique=9, computed=0, cached=9, errors=0, workers=1,
            batch_size=4, folded=9, skipped=0, batches=0, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
    "resume-extends": [
        dict(total=4, unique=4, computed=4, cached=0, errors=0, workers=1,
            batch_size=2, folded=4, skipped=0, batches=2, rounds=1,
            round_sizes=[4], open_bins=None, planning_points=0, kernel_fast=36,
            kernel_fallback=0),
        dict(total=10, unique=9, computed=5, cached=0, errors=0, workers=1,
            batch_size=2, folded=5, skipped=4, batches=3, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=18,
            kernel_fallback=0),
    ],
    "collect-resume": [
        dict(total=5, unique=5, computed=5, cached=0, errors=0, workers=1,
            batch_size=3, folded=5, skipped=0, batches=2, rounds=1,
            round_sizes=[5], open_bins=None, planning_points=0, kernel_fast=36,
            kernel_fallback=0),
        dict(total=10, unique=9, computed=4, cached=5, errors=0, workers=1,
            batch_size=3, folded=4, skipped=5, batches=2, rounds=1,
            round_sizes=[10], open_bins=None, planning_points=0, kernel_fast=18,
            kernel_fallback=0),
    ],
    "three-shards": [
        dict(total=6, unique=5, computed=5, cached=0, errors=0, workers=1,
            batch_size=2, folded=5, skipped=0, batches=3, rounds=1,
            round_sizes=[6], open_bins=None, planning_points=0, kernel_fast=22,
            kernel_fallback=0),
        dict(total=3, unique=3, computed=3, cached=0, errors=0, workers=1,
            batch_size=2, folded=3, skipped=0, batches=2, rounds=1,
            round_sizes=[3], open_bins=None, planning_points=0, kernel_fast=24,
            kernel_fallback=0),
        dict(total=1, unique=1, computed=1, cached=0, errors=0, workers=1,
            batch_size=2, folded=1, skipped=0, batches=1, rounds=1,
            round_sizes=[1], open_bins=None, planning_points=0, kernel_fast=8,
            kernel_fallback=0),
    ],
    "store-w1-b1": [
        dict(total=8, unique=8, computed=6, cached=0, errors=2, workers=1,
            batch_size=1, folded=6, skipped=0, batches=8, rounds=1,
            round_sizes=[8], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
    "store-w1-b8": [
        dict(total=8, unique=8, computed=6, cached=0, errors=2, workers=1,
            batch_size=8, folded=6, skipped=0, batches=1, rounds=1,
            round_sizes=[8], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
    "store-w2-b8": [
        dict(total=8, unique=8, computed=6, cached=0, errors=2, workers=2,
            batch_size=8, folded=6, skipped=0, batches=1, rounds=1,
            round_sizes=[8], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
    "store-resume": [
        dict(total=8, unique=8, computed=6, cached=0, errors=2, workers=1,
            batch_size=8, folded=6, skipped=0, batches=1, rounds=1,
            round_sizes=[8], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
        dict(total=8, unique=8, computed=0, cached=0, errors=2, workers=1,
            batch_size=8, folded=0, skipped=8, batches=0, rounds=1,
            round_sizes=[8], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
    "adaptive": [
        dict(total=63, unique=63, computed=60, cached=0, errors=3, workers=1,
            batch_size=4, folded=60, skipped=0, batches=18, rounds=5,
            round_sizes=[12, 9, 6, 30, 6], open_bins=0, planning_points=0,
            kernel_fast=540, kernel_fallback=0),
        dict(total=0, unique=0, computed=0, cached=0, errors=3, workers=1,
            batch_size=4, folded=0, skipped=63, batches=0, rounds=0,
            round_sizes=[], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
    "sharded-adaptive": [
        dict(total=28, unique=28, computed=27, cached=0, errors=1, workers=1,
            batch_size=4, folded=27, skipped=0, batches=18, rounds=5,
            round_sizes=[6, 5, 2, 12, 3], open_bins=0, planning_points=35,
            kernel_fast=540, kernel_fallback=0),
        dict(total=35, unique=35, computed=0, cached=33, errors=2, workers=1,
            batch_size=4, folded=33, skipped=0, batches=1, rounds=5,
            round_sizes=[6, 4, 4, 18, 3], open_bins=0, planning_points=28,
            kernel_fast=24, kernel_fallback=0),
    ],
    "sharded-adaptive-resume": [
        dict(total=28, unique=28, computed=27, cached=0, errors=1, workers=1,
            batch_size=4, folded=27, skipped=0, batches=18, rounds=5,
            round_sizes=[6, 5, 2, 12, 3], open_bins=0, planning_points=35,
            kernel_fast=540, kernel_fallback=0),
        dict(total=0, unique=0, computed=0, cached=0, errors=1, workers=1,
            batch_size=4, folded=0, skipped=28, batches=0, rounds=0,
            round_sizes=[], open_bins=None, planning_points=0, kernel_fast=0,
            kernel_fallback=0),
    ],
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_stats_are_pinned(name, tmp_path):
    assert SCENARIOS[name](tmp_path) == PINNED[name]


def mixed_specs() -> list[PointSpec]:
    """Failing slot splits (no kernels) ahead of schedulability points."""
    return grid_specs("ablate-slot-split", SPLIT_AXES) + sched_specs()


def mixed_aggregator() -> Aggregator:
    return Aggregator(split_aggregator().metrics + sched_aggregator().metrics)


def observe(make_run, workers: int):
    """Run once; return (stats, deltas, progress)."""
    deltas: list[dict] = []
    reporter = ProgressReporter(0, stream=io.StringIO())
    result = make_run(workers, reporter, deltas.append)
    return result.stats, deltas, reporter.snapshot()


def mixed_run(workers, reporter, on_delta):
    specs = mixed_specs()
    reporter.grow(len({spec.digest for spec in specs}))
    return stream_campaign(
        specs, mixed_aggregator(), workers=workers, master_seed=5,
        batch_size=8, on_error="store", progress=reporter, on_delta=on_delta,
    )


def adaptive_run(workers, reporter, on_delta):
    return stream_campaign(
        weighted_adaptive_source(ADAPTIVE_AXES, ci_width=0.4),
        weighted_aggregator(), workers=workers, master_seed=3, batch_size=4,
        on_error="store", progress=reporter, on_delta=on_delta,
    )


def sharded_adaptive_run(workers, reporter, on_delta):
    return stream_campaign(
        weighted_adaptive_source(ADAPTIVE_AXES, ci_width=0.4),
        weighted_aggregator(), workers=workers, master_seed=3, batch_size=4,
        shard=(0, 2), on_error="store", progress=reporter, on_delta=on_delta,
    )


RUNS = {
    "mixed-grid": mixed_run,
    "adaptive": adaptive_run,
    "sharded-adaptive": sharded_adaptive_run,
}


class TestCounterAgreement:
    """Stats, deltas and progress are views of one record."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(RUNS))
    def test_views_agree(self, name, workers):
        stats, deltas, progress = observe(RUNS[name], workers)
        assert stats.errors > 0  # failures are part of what must agree
        for delta in deltas:
            assert delta["computed"] + delta["cached"] == delta["folded"], delta
            assert delta["errors"] == delta["failed"], delta
        last = deltas[-1]
        for key in ("folded", "cached", "computed", "errors", "rounds", "batches"):
            assert last[key] == getattr(stats, key), key
        assert last["failed"] == stats.errors
        assert progress["done"] == progress["total"]
        assert progress["batches"] == stats.batches

    @pytest.mark.parametrize("name", list(RUNS))
    def test_batches_do_not_depend_on_workers(self, name):
        inline, *_ = observe(RUNS[name], 1)
        pooled, *_ = observe(RUNS[name], 2)
        assert inline.batches == pooled.batches

    def test_complete_adaptive_resume(self, tmp_path):
        """A complete adaptive snapshot's re-run emits no round; its delta
        and its progress report the snapshot's points as resumed."""
        state = tmp_path / "state.json"

        def resumed_run(workers, reporter, on_delta):
            return stream_campaign(
                weighted_adaptive_source(ADAPTIVE_AXES, ci_width=0.4),
                weighted_aggregator(), workers=workers, master_seed=3,
                batch_size=4, on_error="store", state_path=state,
                progress=reporter, on_delta=on_delta,
            )

        observe(resumed_run, 1)
        stats, deltas, progress = observe(resumed_run, 1)
        (delta,) = deltas
        assert (stats.rounds, stats.skipped, stats.errors) == (0, 63, 3)
        assert (delta["folded"], delta["failed"], delta["errors"]) == (60, 3, 3)
        assert (progress["total"], progress["cached"], progress["errors"]) == (
            63, 60, 3,
        )


def test_kernel_counts_are_per_thread():
    """Campaigns on concurrent threads (as ``repro serve`` runs jobs) each
    count exactly their own kernel selections. Each run evaluates inline on
    its own thread in one batch, so any selection another thread makes
    would land in its delta."""
    specs = grid_specs(
        "schedulability", {**SCHED_AXES, "rep": list(range(8))}
    )

    def selections() -> int:
        stats = stream_campaign(
            specs, sched_aggregator(), workers=1, master_seed=5,
            batch_size=len(specs),
        ).stats
        return stats.kernel_fast + stats.kernel_fallback

    solo = selections()
    runs = 3  # more threads than a small CI runner has cores
    barrier = threading.Barrier(runs, timeout=60)
    counts: list = [None] * runs

    def run(slot: int) -> None:
        barrier.wait()
        counts[slot] = selections()

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(runs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts == [solo] * runs
