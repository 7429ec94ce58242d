"""Streaming campaign execution: fold results as points complete.

:func:`run_campaign` materializes every point result — fine for the paper's
worked example, fatal for million-point sweeps. :func:`stream_campaign`
runs the same deterministic engine but hands each finished point straight to
an :class:`~repro.runner.aggregate.Aggregator` and forgets it, so peak
memory is O(accumulators + in-flight points), not O(points).

Because every accumulator is exact and order-insensitive (see
:mod:`repro.runner.aggregate`), the final aggregate is **bit-identical**
for any worker count, completion order, or cache state.

Point sources and rounds
------------------------
Where the points come from is a strategy (see :mod:`repro.runner.source`):
``stream_campaign`` accepts either a plain spec iterable — wrapped in a
:class:`~repro.runner.source.GridSource`, today's exhaustive behavior
bit-for-bit — or any :class:`~repro.runner.source.PointSource`. A source
emits successive *rounds* of specs; each round is fully executed and
folded before the source is asked for the next, so a feedback-driven
source (:class:`~repro.runner.source.AdaptiveRefinementSource`) observes
an exact, order-insensitive aggregate at every round boundary and plans
identically for any ``(workers, batch, shard)`` combination.

Snapshot persistence
--------------------
With a ``state_path`` (the CLI defaults it to ``<cache-dir>/aggregates/``),
the aggregate is periodically persisted as one canonical-JSON snapshot
recording the accumulator states plus the digests of every point already
folded. An interrupted or extended sweep resumes incrementally: points in
the snapshot are never recomputed or re-folded, and only new points are
evaluated and folded. A run that collects no rows skips them outright, with
no cache read; a ``collect=True`` run re-reads each from the result cache
to return its row. Snapshots are keyed
by the aggregator's config digest and the campaign master seed, so a stale
snapshot (changed metrics, changed seed) is rejected instead of silently
merged into. Sources with state of their own (adaptive refinement) persist
it under the snapshot's ``"source"`` key and resume mid-campaign; grid
snapshots carry no such key, so their bytes are unchanged.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TextIO

from repro import telemetry
from repro.runner.aggregate import Aggregator
from repro.runner.cache import ResultCache, atomic_write_text
from repro.runner.engine import CampaignError, default_workers, execute_points
from repro.runner.points import get_experiment
from repro.runner.progress import ProgressReporter
from repro.runner.shard import ShardManifest, grid_digest, shard_of
from repro.runner.source import GridSource, PointSource, SnapshotError
from repro.runner.spec import PointSpec, canonical_json

#: Bump when the snapshot layout changes; old snapshots are rejected.
#: Schema 2 added the shard manifest (see :mod:`repro.runner.shard`).
#: Adaptive campaigns add optional ``source``/``planning`` keys; grid
#: snapshots are byte-identical to pre-source-strategy ones, so the
#: schema number is unchanged.
SNAPSHOT_SCHEMA = 2

#: Minor revision: additive, backward-readable snapshot changes. A reader
#: encountering a *higher* minor than it knows warns and proceeds (new
#: optional keys are ignorable by construction); a different major is still
#: refused. Minor 0 is never written — snapshots gain a ``schema_minor``
#: key only once a revision exists, so current bytes are unchanged.
SNAPSHOT_SCHEMA_MINOR = 0

#: Every key a current writer may put at a snapshot's top level. Anything
#: else was written by a newer minor revision (or by hand) — tolerated
#: with a warning, never an error.
_KNOWN_SNAPSHOT_KEYS = frozenset(
    {
        "schema",
        "schema_minor",
        "master_seed",
        "config",
        "shard",
        "folded",
        "failed",
        "aggregate",
        "partial",
        "missing_shards",
        "source",
        "planning",
    }
)


class SnapshotCompatWarning(UserWarning):
    """A snapshot from a newer minor revision was read best-effort."""


def check_snapshot_compat(
    snap: Mapping[str, Any],
    where: Any,
    *,
    error: type[Exception] = SnapshotError,
) -> None:
    """Schema compatibility gate shared by every snapshot reader.

    Major mismatch raises ``error`` (layout changed — reading on would
    corrupt); a newer *minor* revision or unknown top-level keys only warn
    (:class:`SnapshotCompatWarning`) and proceed, so clients of a newer
    server can still fold what they understand.
    """
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        raise error(
            f"snapshot {where} has schema {snap.get('schema')!r}, "
            f"expected {SNAPSHOT_SCHEMA}"
        )
    minor = snap.get("schema_minor", 0)
    if not isinstance(minor, int) or minor > SNAPSHOT_SCHEMA_MINOR:
        warnings.warn(
            f"snapshot {where} has schema minor {minor!r}, newer than this "
            f"reader's {SNAPSHOT_SCHEMA_MINOR}; reading best-effort",
            SnapshotCompatWarning,
            stacklevel=2,
        )
    unknown = sorted(set(snap) - _KNOWN_SNAPSHOT_KEYS)
    if unknown:
        warnings.warn(
            f"snapshot {where} has unknown top-level key(s) "
            f"{', '.join(map(repr, unknown))}; ignoring them",
            SnapshotCompatWarning,
            stacklevel=2,
        )


#: Persist the snapshot at least every this many newly folded points. Each
#: flush rewrites the whole snapshot (aggregate + folded digests), so the
#: effective interval scales with campaign size — max(this, unique/64) —
#: to keep total snapshot I/O linear-ish instead of quadratic in points.
_FLUSH_EVERY = 256

#: The record counters every ``on_delta`` payload carries, next to the
#: sizes of the snapshot's folded and failed sets.
DELTA_COUNTERS = ("cached", "computed", "errors", "rounds", "batches")


@dataclass(frozen=True)
class StreamStats:
    """What one campaign run did (bookkeeping, not deterministic output).

    Built once, at the end of the run, from the run's shape and its counter
    record: the counters, keyed by these field names, that its ``on_delta``
    payloads read while it is in flight. Counters cover owned points only;
    another shard's planning points are evaluated but never counted.
    """

    total: int
    unique: int
    #: Owned points that succeeded: evaluated this run vs. cache hits.
    computed: int = 0
    cached: int = 0
    #: Owned points that failed, evaluated or resumed.
    errors: int = 0
    elapsed: float = 0.0
    workers: int = 1
    #: Points-per-task the engine resolved (the request, or the auto-sized
    #: value) — informational, like ``workers``; results never depend on it.
    batch_size: int = 1
    #: New folds into the output aggregate.
    folded: int = 0
    #: Points whose outcome the resumed snapshot already held.
    skipped: int = 0
    #: Completed batches the engine handed back (0 when nothing computed).
    batches: int = 0
    #: Rounds the point source emitted (1 for a plain grid campaign).
    rounds: int = 0
    #: Points this shard owned in each round, in round order.
    round_sizes: "tuple[int, ...]" = ()
    #: Bins still short of the convergence target when an adaptive source
    #: stopped (None for sources without a convergence notion).
    open_bins: int | None = None
    #: Other shards' points this shard evaluated so an adaptive source
    #: could observe the full aggregate between rounds (0 otherwise).
    planning_points: int = 0
    #: Analysis calls that ran on the integer fast kernels vs. the float
    #: fallback across every *computed* point (cached/skipped points report
    #: nothing — their kernel selections happened in an earlier run). See
    #: :mod:`repro.analysis.kernels`.
    kernel_fast: int = 0
    kernel_fallback: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of every counter (tuples become lists)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass
class StreamResult:
    """What a streaming campaign returns: the aggregate, not the points."""

    aggregator: Aggregator
    stats: StreamStats
    specs: list[PointSpec]
    #: Per-spec results, only populated with ``collect=True`` (CLI ``--out``).
    results: list[Any] | None = None

    def rows(self) -> list[tuple[PointSpec, Any]]:
        """``(spec, result)`` pairs — requires ``collect=True``."""
        if self.results is None:
            raise ValueError("stream_campaign(collect=False) kept no results")
        return list(zip(self.specs, self.results))

    def to_json(self) -> str:
        """Canonical spec/result JSON (``collect=True`` runs only)."""
        return canonical_json(
            [{"spec": s.to_dict(), "result": r} for s, r in self.rows()]
        )

    def aggregate_json(self) -> str:
        """Canonical JSON of the aggregate state — the bytes CI diffs."""
        return canonical_json(self.aggregator.state_dict())


def _timed_rounds(rounds: "Iterable[Sequence[PointSpec]]"):
    """Yield rounds, timing each planning step as a ``plan`` span.

    Planning happens inside the source's generator between yields; pulling
    items through ``next`` under a span attributes that time without
    restructuring the campaign loop.
    """
    iterator = iter(rounds)
    while True:
        with telemetry.span("plan"):
            batch = next(iterator, _ROUNDS_DONE)
        if batch is _ROUNDS_DONE:
            return
        yield batch


_ROUNDS_DONE = object()


def snapshot_dict(
    *,
    config: str,
    master_seed: int,
    folded: set[str],
    failed: set[str],
    aggregate: Mapping[str, Any],
    shard: ShardManifest,
    missing_shards: "Sequence[int] | None" = None,
    source: "Mapping[str, Any] | None" = None,
    planning: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """The canonical snapshot payload — the single layout both
    :func:`save_snapshot` and :func:`repro.runner.shard.merge_snapshots`
    emit, so a merged snapshot can be byte-compared against a live one.

    ``missing_shards`` marks a *partial-merge preview* (``repro merge
    --allow-partial``): the payload gains ``"partial": true`` plus the
    missing-shard list, so a preview can never be byte-confused with — or
    resumed/merged as — a complete campaign snapshot.

    ``source`` is a stateful point source's resume state (adaptive
    campaigns); ``planning`` is a sharded adaptive campaign's in-flight
    cross-shard planning aggregate. Both keys are simply omitted when
    None, so grid snapshots keep their pre-source-strategy bytes.
    """
    snap = {
        "schema": SNAPSHOT_SCHEMA,
        "master_seed": master_seed,
        "config": config,
        "shard": shard.to_dict(),
        "folded": sorted(folded),
        "failed": sorted(failed),
        "aggregate": dict(aggregate),
    }
    if missing_shards is not None:
        snap["partial"] = True
        snap["missing_shards"] = sorted(missing_shards)
    if source is not None:
        snap["source"] = dict(source)
    if planning is not None:
        snap["planning"] = dict(planning)
    return snap


def save_snapshot(
    path: str | os.PathLike,
    aggregator: Aggregator,
    master_seed: int,
    folded: set[str],
    failed: set[str] = frozenset(),  # type: ignore[assignment]
    shard: ShardManifest | None = None,
    *,
    source: "Mapping[str, Any] | None" = None,
    planning: "Mapping[str, Any] | None" = None,
) -> None:
    """Atomically persist the aggregate + folded/failed point digests.

    Without an explicit ``shard`` manifest the snapshot records the trivial
    0/1 manifest covering exactly the folded/failed points (direct callers;
    :func:`stream_campaign` always passes the campaign's real manifest).
    """
    path = Path(path)
    if shard is None:
        shard = ShardManifest.full(set(folded) | set(failed))
    snap = snapshot_dict(
        config=aggregator.config_digest,
        master_seed=master_seed,
        folded=folded,
        failed=failed,
        aggregate=aggregator.state_dict(),
        shard=shard,
        source=source,
        planning=planning,
    )
    atomic_write_text(path, canonical_json(snap))


def stream_campaign(
    specs: "Iterable[PointSpec] | PointSource",
    aggregator: Aggregator,
    *,
    workers: int | None = 1,
    master_seed: int = 0,
    cache_dir: str | os.PathLike | None = None,
    state_path: str | os.PathLike | None = None,
    collect: bool = False,
    progress: bool | ProgressReporter = False,
    progress_stream: TextIO | None = None,
    on_error: str = "raise",
    shard: tuple[int, int] = (0, 1),
    batch_size: int | None = None,
    on_delta: "Callable[[Mapping[str, Any]], None] | None" = None,
) -> StreamResult:
    """Run a campaign, folding each finished point into ``aggregator``.

    ``specs`` is either a spec iterable — wrapped in a
    :class:`~repro.runner.source.GridSource`, preserving the historical
    behavior bit-for-bit — or a :class:`~repro.runner.source.PointSource`
    whose rounds are executed and folded in sequence.

    Same execution contract as :func:`~repro.runner.engine.run_campaign`
    (determinism, caching, dedup) with three differences:

    * results are folded and dropped — set ``collect=True`` to also keep
      the aligned per-spec result list (back to O(points) memory);
    * with ``state_path``, aggregation itself is resumable: already-folded
      points are never re-evaluated or re-folded, and without ``collect``
      they are skipped without touching cache or pool;
    * failing points are never folded or cached. ``on_error="store"``
      records ``{"error": ...}`` in the collected results (if any), keeps
      going, and persists the failing digests in the snapshot — a resumed
      ``store`` run skips known failures instead of re-evaluating them
      (deterministic points fail identically every time).

    ``shard=(index, count)`` runs one shard of the campaign (see
    :mod:`repro.runner.shard`): this run owns the points
    :func:`~repro.runner.shard.shard_of` assigns to ``index``, and its
    snapshot carries the manifest ``repro merge`` validates. A grid's
    manifest covers the full grid's owned points; an adaptive source's is
    rebuilt each round over the points emitted so far. The default
    ``(0, 1)`` owns every point and writes the trivial 0/1 manifest.

    A sharded *feedback* source must observe every shard's folds to plan
    rounds identically everywhere, so each shard also evaluates the other
    shards' points into a planning view: an empty twin of ``aggregator``
    built here (a shared ``cache_dir`` lets shards reuse each other's
    planning work). Only owned points reach ``aggregator``, the snapshot's
    folded set, the manifest and the counters — adaptive shards therefore
    merge byte-identically to the unsharded run.

    ``batch_size`` packs that many points into each pool task (``None``
    auto-sizes, see :func:`~repro.runner.engine.auto_batch_size`); cache
    entries are written per batch through
    :meth:`~repro.runner.cache.ResultCache.put_many` and completed batches
    fold as they arrive. Results, aggregates and snapshots are
    **bit-identical** for every ``(workers, batch_size)`` combination —
    batching only changes how work is packed, never what a point computes
    or how folds combine.

    The run goes through explicit phases: resume from the snapshot, then
    per round admit (record the round's points), scan (settle what the
    snapshot or the cache already holds) and execute (settle what the
    engine evaluates), and a final snapshot flush. Every point outcome is
    settled in one place, which is also the only place it is counted. A
    complete adaptive snapshot emits no round: its points are settled as
    resumed in one step, and the snapshot is left as it is.

    ``on_delta`` is a progress observer for live consumers (the
    ``repro serve`` delta stream): it is called with a counters mapping
    (``event``, ``folded``, ``failed``, ``cached``, ``computed``,
    ``errors``, ``rounds``, ``batches``) after each round's scan
    (``event="scan"``) and after each batch hand-off folds
    (``event="batch"``). The counters count the points settled by the
    time of emission, so ``computed + cached == folded`` on a fresh run,
    and the last delta agrees with the returned stats. Emission *cadence*
    depends on worker scheduling and is deliberately outside the
    determinism contract — only the final aggregate is bit-identical; the
    hook must not mutate campaign state.
    """
    if on_error not in ("raise", "store"):
        raise ValueError(f"on_error must be 'raise' or 'store': got {on_error!r}")
    source = specs if isinstance(specs, PointSource) else GridSource(specs)
    upfront = source.upfront_specs()
    dynamic = upfront is None
    index, count = shard
    if count < 1 or not (0 <= index < count):
        raise ValueError(f"invalid shard {index}/{count}")

    if dynamic:
        # Rebuilt each round over the points emitted so far.
        manifest = ShardManifest(
            index=index, count=count, grid=grid_digest(()), points=()
        )
    else:
        for spec in upfront:
            get_experiment(spec.experiment)  # fail fast on unknown experiments
        manifest = ShardManifest.for_shard(upfront, index, count)
    owned_upfront = len(manifest.points)

    if isinstance(progress, ProgressReporter):
        reporter: ProgressReporter | None = progress
    elif progress:
        reporter = ProgressReporter(owned_upfront, stream=progress_stream)
    else:
        reporter = None

    return _CampaignRun(
        source=source,
        dynamic=dynamic,
        aggregator=aggregator,
        planning=aggregator.empty() if dynamic and count > 1 else None,
        manifest=manifest,
        workers=default_workers() if workers is None else max(1, int(workers)),
        master_seed=master_seed,
        batch_size=batch_size,
        on_error=on_error,
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
        state_path=Path(state_path) if state_path is not None else None,
        collected={} if collect else None,
        reporter=reporter,
        on_delta=on_delta,
        flush_every=max(_FLUSH_EVERY, owned_upfront // 64),
    ).run()


@dataclass
class _CampaignRun:
    """One campaign run: its configuration, its state and its phases.

    :meth:`run` drives resume → per round (admit → scan → execute) →
    flush. Every point outcome goes through :meth:`settle`, which files it
    (fold, failure set, collected results) and counts it in :attr:`record`;
    a complete adaptive snapshot's held points, which no round emits, go
    through :meth:`settle_snapshot`.
    """

    source: PointSource
    #: Whether the point set is only known round by round (no upfront specs).
    dynamic: bool
    aggregator: Aggregator
    #: The planning view of a sharded feedback source, None otherwise.
    planning: Aggregator | None
    #: This run's shard (index, count and, once known, its points).
    manifest: ShardManifest
    workers: int
    master_seed: int
    batch_size: int | None
    on_error: str
    cache: ResultCache | None
    state_path: Path | None
    #: Digest -> result of every owned point, with ``collect=True`` only.
    collected: dict[str, Any] | None
    reporter: ProgressReporter | None
    on_delta: "Callable[[Mapping[str, Any]], None] | None"
    flush_every: int
    #: The run's counters, keyed by :class:`StreamStats` field name: each
    #: point and batch is counted here once.
    record: "Counter[str]" = field(default_factory=Counter)
    start: float = field(default_factory=time.monotonic)
    #: Owned digests folded into / failed for the snapshot (resumed ones too).
    folded: set[str] = field(default_factory=set)
    failed: set[str] = field(default_factory=set)
    planning_folded: set[str] = field(default_factory=set)
    planning_failed: set[str] = field(default_factory=set)
    #: Owned points, in emission order with duplicates, and by digest.
    ordered: list[PointSpec] = field(default_factory=list)
    unique: dict[str, PointSpec] = field(default_factory=dict)
    #: Other shards' digests a sharded feedback source emitted.
    planning_seen: set[str] = field(default_factory=set)
    round_sizes: list[int] = field(default_factory=list)
    #: Folds and failures since the last snapshot flush.
    new_folds: int = 0
    resumed_complete: bool = False
    #: The batch size the engine resolved for the first round.
    resolved_batch: int | None = None

    def owns(self, digest: str) -> bool:
        count = self.manifest.count
        return count == 1 or shard_of(digest, count) == self.manifest.index

    def run(self) -> StreamResult:
        self.resume()
        view = self.planning if self.planning is not None else self.aggregator
        with telemetry.span("campaign"):
            for round_specs in _timed_rounds(self.source.rounds(view)):
                self.admit(round_specs)
                self.execute(self.scan(round_specs))
            if self.resumed_complete:
                # A resumed-complete adaptive run replans nothing; rewriting
                # the snapshot would shrink its manifest to the (empty)
                # point set seen this run and corrupt it.
                self.settle_snapshot()
            else:
                self.flush(force=True)
        results = None
        if self.collected is not None:
            results = [self.collected[spec.digest] for spec in self.ordered]
        return StreamResult(
            aggregator=self.aggregator,
            specs=self.ordered,
            results=results,
            stats=self.stats(),
        )

    def resume(self) -> None:
        """Continue from the snapshot at ``state_path``, if one is readable.

        A missing or corrupt snapshot starts fresh; a readable one with a
        mismatched schema, master seed, aggregator shape, shard or point
        source raises :class:`SnapshotError` — silently dropping or merging
        an incompatible aggregate would corrupt the resumed campaign.
        Unsharded grids stay permissive: extending a grid into an existing
        snapshot is the documented incremental-resume path.
        """
        path = self.state_path
        if path is None:
            return
        try:
            snap = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(snap, dict):
            return
        check_snapshot_compat(snap, path)
        if snap.get("master_seed") != self.master_seed:
            raise SnapshotError(
                f"snapshot {path} was built with master seed "
                f"{snap.get('master_seed')!r}, not {self.master_seed}"
            )
        if snap.get("config") != self.aggregator.config_digest:
            raise SnapshotError(
                f"snapshot {path} does not match this aggregator's shape "
                f"(config digest mismatch)"
            )
        if snap.get("partial"):
            # A partial-merge preview (`repro merge --allow-partial`) unions
            # several shards' folds under the trivial manifest; resuming a
            # campaign from it would silently skip whole shards of points.
            raise SnapshotError(
                f"snapshot {path} is a partial-merge preview "
                f"(missing shards {snap.get('missing_shards')}); previews "
                f"cannot seed a campaign resume"
            )
        index, count = self.manifest.index, self.manifest.count
        if count > 1:
            # Folding shard 1/3's points into shard 2/3's snapshot, or into
            # a shard of another grid, would poison the eventual merge. An
            # adaptive shard's manifest grows round by round, so only its
            # identity must match.
            stored = snap.get("shard")
            have = (
                (stored.get("index"), stored.get("count"), stored.get("grid"))
                if isinstance(stored, dict)
                else None
            )
            grid = self.manifest.grid
            want = (index, count) if self.dynamic else (index, count, grid)
            if have is None or have[: len(want)] != want:
                of_grid = "" if self.dynamic else f" of grid {grid[:16]}…"
                raise SnapshotError(
                    f"snapshot {path} belongs to a different shard or grid "
                    f"(have {have}, resuming shard {index}/{count}{of_grid})"
                )
        source_state = snap.get("source")
        if source_state is not None:
            self.source.load_state(source_state)
        elif self.source.needs_feedback and (snap.get("folded") or snap.get("failed")):
            raise SnapshotError(
                f"snapshot {path} has folded points but no source "
                f"state; it was not written by an adaptive campaign"
            )
        self.aggregator.load_state(snap["aggregate"])
        self.folded = set(snap["folded"])
        self.failed = set(snap.get("failed", []))
        self.resumed_complete = source_state is not None and self.source.is_complete
        if self.planning is not None and not self.resumed_complete:
            planning = snap.get("planning")
            if planning is not None:
                self.planning.load_state(planning["aggregate"])
                self.planning_folded = set(planning["folded"])
            elif self.folded or self.failed:
                raise SnapshotError(
                    f"snapshot {path} is an in-flight sharded adaptive "
                    f"snapshot without planning state; it cannot be resumed"
                )

    def admit(self, round_specs: Sequence[PointSpec]) -> None:
        """Record a round's points: this shard's in order, others' for planning."""
        self.record["rounds"] += 1
        owned = 0
        for spec in round_specs:
            if self.dynamic:
                get_experiment(spec.experiment)
            digest = spec.digest
            if self.owns(digest):
                owned += 1
                self.ordered.append(spec)
                self.unique.setdefault(digest, spec)
            elif self.planning is not None:
                self.planning_seen.add(digest)
            # else: grid shard narrowing — other shards' points are simply
            # not this run's work (no feedback to serve).
        self.round_sizes.append(owned)
        if not self.dynamic:
            return
        index, count = self.manifest.index, self.manifest.count
        emitted = len(self.unique) + len(self.planning_seen)
        if count > 1:
            self.manifest = ShardManifest(
                index=index,
                count=count,
                grid=grid_digest(set(self.unique) | self.planning_seen),
                points=tuple(self.unique),
            )
        else:
            self.manifest = ShardManifest.full(self.unique)
        self.flush_every = max(_FLUSH_EVERY, emitted // 64)
        if self.reporter is not None:
            self.reporter.grow(emitted - self.reporter.total)

    def scan(self, round_specs: Sequence[PointSpec]) -> list[PointSpec]:
        """Settle the round's points that need no evaluation; return the rest.

        Points already in the snapshot are done: no cache read, no compute,
        no re-fold. Known-failed points are skipped the same way in "store"
        mode (deterministic evaluation fails identically on every re-run).
        Both shortcuts are off when the caller wants the raw results back.
        """
        todo: list[PointSpec] = []
        seen: set[str] = set()
        with telemetry.span("scan"):
            for spec in round_specs:
                digest = spec.digest
                if digest in seen:
                    continue
                seen.add(digest)
                if self.owns(digest):
                    held_ok = digest in self.folded
                    held = self.collected is None and (
                        held_ok or (self.on_error == "store" and digest in self.failed)
                    )
                elif self.planning is not None:
                    held_ok = digest in self.planning_folded
                    held = held_ok or digest in self.planning_failed
                else:
                    continue
                if held:
                    self.settle(spec, held_ok, None, resumed=True)
                    continue
                hit = (
                    self.cache.get(spec, self.master_seed)
                    if self.cache is not None
                    else None
                )
                if hit is None:
                    todo.append(spec)
                else:
                    self.settle(spec, True, hit, cached=True)
        self.emit("scan")
        return todo

    def execute(self, todo: list[PointSpec]) -> None:
        with telemetry.span("execute"):
            resolved = execute_points(
                todo,
                self.workers,
                self.master_seed,
                self.hand_off,
                # persist what has been folded so far even when a point
                # aborts the campaign — a resumed run then skips
                # everything already aggregated
                on_abort=lambda: self.flush(force=True),
                batch_size=self.batch_size,
            )
        if self.resolved_batch is None:
            self.resolved_batch = resolved

    def hand_off(
        self,
        done: "list[tuple[PointSpec, bool, Any, float]]",
        kernel_delta: "Mapping[str, int] | None",
    ) -> None:
        """Take evaluated points from the engine; ``kernel_delta`` marks the
        batch's last hand-off, so only that one counts as a batch."""
        if kernel_delta is not None:
            self.record["batches"] += 1
            self.record["kernel_fast"] += kernel_delta.get("fast", 0)
            self.record["kernel_fallback"] += kernel_delta.get("fallback", 0)
            if self.reporter is not None:
                self.reporter.note_batch()
        if self.cache is not None:
            with telemetry.span("write"):
                self.cache.put_many(
                    (spec, self.master_seed, result, elapsed)
                    for spec, ok, result, elapsed in done
                    if ok
                )
        with telemetry.span("fold"):
            for spec, ok, result, _elapsed in done:
                self.settle(spec, ok, result)
        self.emit("batch")

    def settle(
        self,
        spec: PointSpec,
        ok: bool,
        result: Any,
        *,
        cached: bool = False,
        resumed: bool = False,
    ) -> None:
        """File one point's outcome and count it.

        ``resumed`` marks a point the snapshot already holds, ``cached`` a
        result-cache hit; otherwise ``result`` was just evaluated. An owned
        point folds into the output aggregate (and the planning view, if
        any); another shard's point folds into the planning view only and
        is not counted.
        """
        if not ok and self.on_error == "raise":
            raise CampaignError(spec, result)
        digest = spec.digest
        record = self.record
        if not self.owns(digest):
            if not ok:
                self.planning_failed.add(digest)
            elif not resumed:
                self._fold_planning(spec, result)
        elif resumed:
            record["skipped"] += 1
            if not ok:
                record["errors"] += 1
        elif not ok:
            record["errors"] += 1
            if digest not in self.failed:
                self.failed.add(digest)
                self.new_folds += 1
            if self.collected is not None:
                self.collected[digest] = {"error": result}
        else:
            if cached:
                record["cached"] += 1
            else:
                record["computed"] += 1
            if self.collected is not None:
                self.collected[digest] = result
            if digest in self.folded:
                record["skipped"] += 1  # a resumed fold, re-read for collect
            else:
                self.aggregator.fold(spec, result)
                self.folded.add(digest)
                record["folded"] += 1
                self.new_folds += 1
                if self.planning is not None:
                    self._fold_planning(spec, result)
        if self.reporter is not None:
            self.reporter.update(cached=cached or resumed, error=not ok)
        # Flush only once the point is fully filed, so a snapshot never
        # records a fold whose digest is missing from the folded set.
        self.flush()

    def settle_snapshot(self) -> None:
        """Settle a complete adaptive snapshot's points as resumed.

        Its source emits no round, so none of them reaches :meth:`scan`;
        they count as a grid re-run's scan settles them: each held point
        resumed, each held failure an error.
        """
        for ok, digests in ((True, self.folded), (False, self.failed)):
            self.record["skipped"] += len(digests)
            if not ok:
                self.record["errors"] += len(digests)
            if self.reporter is not None:
                self.reporter.grow(len(digests))
                for _ in digests:
                    self.reporter.update(cached=True, error=not ok)
        self.emit("scan")

    def _fold_planning(self, spec: PointSpec, result: Any) -> None:
        if spec.digest not in self.planning_folded:
            self.planning.fold(spec, result)
            self.planning_folded.add(spec.digest)
            self.new_folds += 1

    def flush(self, force: bool = False) -> None:
        if self.state_path is None or not (force or self.new_folds >= self.flush_every):
            return
        planning = None
        if self.planning is not None and not self.source.is_complete:
            planning = {
                "folded": sorted(self.planning_folded),
                "aggregate": self.planning.state_dict(),
            }
        with telemetry.span("snapshot"):
            save_snapshot(
                self.state_path,
                self.aggregator,
                self.master_seed,
                self.folded,
                self.failed,
                self.manifest,
                source=self.source.state_dict(),
                planning=planning,
            )
        self.new_folds = 0

    def emit(self, event: str) -> None:
        if self.on_delta is None:
            return
        self.on_delta(
            {
                "event": event,
                "folded": len(self.folded),
                "failed": len(self.failed),
                **{key: self.record[key] for key in DELTA_COUNTERS},
            }
        )

    def stats(self) -> StreamStats:
        resolved = self.resolved_batch
        if resolved is None:
            # No rounds ran (empty grid, or a resumed-complete adaptive
            # snapshot); report the batch size an empty execution would use.
            resolved = execute_points(
                [], self.workers, self.master_seed, self.hand_off,
                batch_size=self.batch_size,
            )
        return StreamStats(
            total=len(self.ordered),
            unique=len(self.unique),
            elapsed=time.monotonic() - self.start,
            workers=self.workers,
            batch_size=resolved,
            round_sizes=tuple(self.round_sizes),
            open_bins=self.source.open_bins,
            planning_points=len(self.planning_seen),
            **self.record,
        )



__all__ = [
    "DELTA_COUNTERS",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_SCHEMA_MINOR",
    "SnapshotCompatWarning",
    "SnapshotError",
    "check_snapshot_compat",
    "StreamResult",
    "StreamStats",
    "save_snapshot",
    "snapshot_dict",
    "stream_campaign",
]
