"""The parallel campaign engine: fan points out, keep results deterministic.

Execution contract
------------------
* **Determinism** — a point's result depends only on its spec and the
  campaign master seed (content-keyed :func:`~repro.runner.spec.point_seed`),
  never on worker count, completion order, or which other points run.
  ``run_campaign(specs, workers=4)`` is bit-identical to ``workers=1``.
* **Caching** — with a ``cache_dir``, finished points are persisted as JSON
  keyed by ``(spec digest, master seed)``; a re-run (or an extended sweep
  sharing old points) recomputes nothing that is already on disk.
* **Dedup** — duplicate specs inside one campaign are evaluated once and
  fanned back to every occurrence.
* **Ordering** — ``CampaignResult.results[i]`` always corresponds to
  ``specs[i]`` regardless of the order points actually finished in.

Worker processes evaluate :func:`evaluate_batch` on ``(points,
master_seed)`` payloads — plain picklable tuples, resolved against the
registry in :mod:`repro.runner.points` on the worker side. Each pool task
carries a whole *batch* of points (:func:`auto_batch_size` picks how many),
so IPC and future bookkeeping are amortized over the batch instead of paid
once per point — the difference between a million pool tasks and a few
thousand on a million-point shard. Batching never changes results: every
point is still seeded by its own content digest, and completions are folded
through the same order-insensitive paths as unbatched runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, TextIO

from repro import telemetry
from repro.analysis import kernels
from repro.runner.grid import grid_specs
from repro.runner.points import get_experiment
from repro.runner.progress import ProgressReporter
from repro.runner.spec import PointSpec, canonical_json, point_seed

if TYPE_CHECKING:
    from repro.runner.stream import StreamStats


class CampaignError(RuntimeError):
    """A point raised during evaluation (carries the failing spec)."""

    def __init__(self, spec: PointSpec, message: str):
        super().__init__(f"{spec.experiment} point failed: {message}\n  spec: {spec.canonical}")
        self.spec = spec


@dataclass
class CampaignResult:
    """Results aligned one-to-one with the submitted specs."""

    specs: list[PointSpec]
    results: list[Any]
    stats: StreamStats

    def rows(self) -> list[tuple[PointSpec, Any]]:
        """``(spec, result)`` pairs in submission order."""
        return list(zip(self.specs, self.results))

    def to_json(self) -> str:
        """Canonical JSON of specs+results only — identical across worker
        counts and cache states (the ``--out`` rows)."""
        return canonical_json(
            [
                {"spec": spec.to_dict(), "result": result}
                for spec, result in self.rows()
            ]
        )


def evaluate_point(
    payload: tuple[str, Mapping[str, Any], int]
) -> tuple[bool, Any, float]:
    """Evaluate one ``(experiment, params, master_seed)`` payload.

    Returns ``(ok, result_or_error_message, elapsed_seconds)``; exceptions
    are flattened to strings so pool workers never die on a point failure.
    """
    experiment, params, master_seed = payload
    spec = PointSpec(experiment, params)
    fn = get_experiment(experiment)
    start = time.perf_counter()
    try:
        with telemetry.span("point"):
            result = fn(params, point_seed(spec, master_seed))
    except Exception as exc:  # noqa: BLE001 - reported via CampaignError/on_error
        return False, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return True, result, time.perf_counter() - start


def evaluate_batch(
    payload: tuple[tuple[tuple[str, Mapping[str, Any]], ...], int]
) -> tuple[list[tuple[bool, Any, float]], dict[str, int], "dict[str, Any] | None"]:
    """Evaluate a whole ``((experiment, params), ...)`` batch in one task.

    One pool task, one pickled payload, one result message — regardless of
    how many points the batch holds. Outcomes are returned in batch order;
    each point is evaluated independently (a failing point never poisons
    its batch mates).

    Returns ``(outcomes, kernel_delta, telemetry_delta)``: the per-point
    results, this batch's fast/fallback kernel-selection counts (see
    :func:`repro.analysis.kernels.kernel_counters`), and — when the payload
    carries a truthy third element — this batch's telemetry export
    (span phases, CPU seconds), recorded into a private
    per-batch collector so pool workers need no shared state. Without the
    flag the delta is ``None`` and no collector is ever created, keeping
    the disabled path allocation-free.
    """
    points, master_seed, *rest = payload
    with_telemetry = bool(rest[0]) if rest else False
    before = kernels.kernel_counters()
    if not with_telemetry:
        outcomes = [
            evaluate_point((experiment, params, master_seed))
            for experiment, params in points
        ]
        return outcomes, kernels.counters_delta(before), None
    collector = telemetry.Telemetry()
    with telemetry.activated(collector):
        outcomes = [
            evaluate_point((experiment, params, master_seed))
            for experiment, params in points
        ]
    return outcomes, kernels.counters_delta(before), collector.export()


def default_workers() -> int:
    """Default parallelism: every core but one (floor 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


#: Auto-sized batches never exceed this many points: snapshot flushes,
#: progress updates and cache writes all happen at batch completion, so an
#: unbounded batch would turn a resumable campaign into an all-or-nothing
#: task per worker.
MAX_AUTO_BATCH = 256

#: Target number of batches handed to each worker over an auto-sized run —
#: enough slack that an unlucky worker stuck with slow points doesn't
#: serialize the tail of the campaign.
_BATCHES_PER_WORKER = 8

#: In-flight (submitted, unfinished) batches per worker. The engine submits
#: lazily up to this window instead of materializing every pickled future
#: up front — a million-point shard queues a handful of batches, not a
#: million futures.
_INFLIGHT_PER_WORKER = 4


def auto_batch_size(points: int, workers: int) -> int:
    """Heuristic batch size for ``points`` spread over ``workers``.

    Aims for :data:`_BATCHES_PER_WORKER` batches per worker (so the pool
    load-balances), capped at :data:`MAX_AUTO_BATCH` (so progress,
    snapshots and caching stay responsive) with a floor of one point.
    Small campaigns therefore keep per-point tasks; million-point sweeps
    get maximal amortization.
    """
    if points <= 0 or workers <= 0:
        return 1
    return max(1, min(MAX_AUTO_BATCH, points // (workers * _BATCHES_PER_WORKER)))


def execute_points(
    todo: list[PointSpec],
    workers: int,
    master_seed: int,
    finish_batch: Callable[
        [list[tuple[PointSpec, bool, Any, float]], Mapping[str, int] | None], None
    ],
    on_abort: "Callable[[], None] | None" = None,
    batch_size: int | None = None,
) -> int:
    """Evaluate ``todo`` sequentially or via a process pool, in batches.

    The shared execution core of :func:`run_campaign` and
    :func:`repro.runner.stream.stream_campaign`: hands evaluated points
    back through ``finish_batch([(spec, ok, result, elapsed), ...],
    kernel_delta)`` (any batch order in pool mode; batch-internal order is
    submission order). ``kernel_delta`` is the batch's fast/fallback
    kernel-selection count (see :func:`repro.analysis.kernels.kernel_counters`)
    on a batch's last hand-off and ``None`` on the others, so a caller
    counts each batch once. Only inline execution hands a batch over in
    several parts: it surfaces a failing point at once. ``batch_size=None``
    auto-sizes via :func:`auto_batch_size`; returns the effective batch
    size. If ``finish_batch`` raises :class:`CampaignError`, queued batches
    are cancelled and ``on_abort`` runs before the error propagates — both
    paths, so e.g. snapshot flushing behaves identically at any worker
    count.

    Submission is windowed: at most ``workers *`` a small factor of
    batches are in flight at once, so the pending-future set stays O(
    workers) however many points the campaign holds.
    """
    if batch_size is None:
        batch_size = auto_batch_size(len(todo), workers)
    batch_size = max(1, int(batch_size))
    if not todo:
        return batch_size
    batches = [
        todo[i : i + batch_size] for i in range(0, len(todo), batch_size)
    ]
    recorder = telemetry.active()

    if workers == 1 or len(todo) == 1:
        try:
            for batch in batches:
                before = kernels.kernel_counters()
                # Inline batches record into a throwaway collector exactly
                # like a pool worker would, so traces keep the same
                # ``worker/`` shape at any worker count. CPU is zeroed
                # before absorbing: this process's own clock already
                # covers inline work.
                collector = (
                    telemetry.Telemetry() if recorder is not None else None
                )
                done: list[tuple[PointSpec, bool, Any, float]] = []
                for position, spec in enumerate(batch, 1):
                    previous = telemetry.activate(collector) if collector else None
                    try:
                        outcome = evaluate_point(
                            (spec.experiment, spec.params, master_seed)
                        )
                    finally:
                        if collector is not None:
                            telemetry.activate(previous)
                    done.append((spec, *outcome))
                    if not outcome[0] and position < len(batch):
                        # Surface failures immediately: inline execution
                        # has no IPC to amortize, so an on_error="raise"
                        # campaign must abort without evaluating the rest
                        # of the batch first.
                        finish_batch(done, None)
                        done = []
                if collector is not None:
                    inline_delta = collector.export()
                    inline_delta["cpu_seconds"] = 0.0
                    recorder.absorb(inline_delta)
                finish_batch(done, kernels.counters_delta(before))
        except CampaignError:
            if on_abort is not None:
                on_abort()
            raise
        return batch_size
    with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
        window = workers * _INFLIGHT_PER_WORKER
        queued = iter(batches)
        pending: dict[Any, list[PointSpec]] = {}

        def top_up() -> None:
            while len(pending) < window:
                batch = next(queued, None)
                if batch is None:
                    return
                future = pool.submit(
                    evaluate_batch,
                    (
                        tuple((s.experiment, s.params) for s in batch),
                        master_seed,
                        recorder is not None,
                    ),
                )
                pending[future] = batch
        try:
            top_up()
            while pending:
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    batch = pending.pop(future)
                    outcomes, kdelta, tdelta = future.result()
                    if tdelta is not None:
                        recorder.absorb(tdelta)
                    finish_batch(
                        [
                            (spec, ok, result, elapsed)
                            for spec, (ok, result, elapsed) in zip(
                                batch, outcomes
                            )
                        ],
                        kdelta,
                    )
                top_up()
        except CampaignError:
            # Don't let the context-manager exit block on the whole
            # remaining campaign: drop every queued batch first.
            pool.shutdown(wait=False, cancel_futures=True)
            if on_abort is not None:
                on_abort()
            raise
    return batch_size


def run_campaign(
    specs: Iterable[PointSpec],
    *,
    workers: int | None = 1,
    master_seed: int = 0,
    cache_dir: str | os.PathLike | None = None,
    progress: bool | ProgressReporter = False,
    progress_stream: TextIO | None = None,
    on_error: str = "raise",
    batch_size: int | None = None,
) -> CampaignResult:
    """Run every point of a campaign and return aligned results.

    Parameters
    ----------
    specs:
        The experiment points. Duplicates are evaluated once.
    workers:
        Process-pool size; ``1`` (default) runs inline in this process with
        identical results, ``None`` means :func:`default_workers`.
    master_seed:
        Campaign-level entropy for :func:`~repro.runner.spec.point_seed`.
    cache_dir:
        Optional on-disk :class:`~repro.runner.cache.ResultCache` root.
    progress:
        ``True`` for a stderr :class:`ProgressReporter`, or a pre-built
        reporter (used by tests to capture snapshots).
    on_error:
        ``"raise"`` aborts on the first failing point;
        ``"store"`` records ``{"error": message}`` as that point's result
        (never cached) and keeps going.
    batch_size:
        Points per pool task; ``None`` (default) auto-sizes via
        :func:`auto_batch_size`. Results are bit-identical for any value.
    """
    # A materialized campaign is a streamed one that folds into nothing
    # and keeps every result; the streaming module owns the engine loop.
    from repro.runner.aggregate import Aggregator
    from repro.runner.stream import stream_campaign

    streamed = stream_campaign(
        specs,
        Aggregator([]),
        workers=workers,
        master_seed=master_seed,
        cache_dir=cache_dir,
        collect=True,
        progress=progress,
        progress_stream=progress_stream,
        on_error=on_error,
        batch_size=batch_size,
    )
    return CampaignResult(
        specs=streamed.specs,
        results=streamed.results,
        stats=streamed.stats,
    )


def sweep(
    experiment: str,
    axes: Mapping[str, Any],
    *,
    base_params: Mapping[str, Any] | None = None,
    **campaign_kwargs: Any,
) -> CampaignResult:
    """Grid-expand ``axes`` and run the campaign in one call."""
    return run_campaign(
        grid_specs(experiment, axes, base_params=base_params),
        **campaign_kwargs,
    )


__all__ = [
    "MAX_AUTO_BATCH",
    "CampaignError",
    "CampaignResult",
    "auto_batch_size",
    "default_workers",
    "evaluate_batch",
    "evaluate_point",
    "execute_points",
    "run_campaign",
    "sweep",
]
