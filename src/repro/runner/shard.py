"""Sharded multi-host campaigns: partition a grid, merge the snapshots.

A campaign that is too big for one machine splits into *shards*: each host
(or CI job) runs ``repro campaign ... --shard i/N`` over the same grid, and
a final ``repro merge`` folds the N shard snapshots into the canonical
full-campaign aggregate. Three properties make this safe:

* **Deterministic partitioning** — a point belongs to shard
  ``int(digest, 16) % N``, a pure function of the spec's content digest.
  Shard membership never depends on enumeration order, axis order, or which
  host expands the grid, so independently launched hosts agree on the split
  and extending a grid never moves existing points between shards.
* **Shard manifests** — every snapshot records *what it claims to cover*:
  the campaign's grid digest, master seed, shard index/count, and the exact
  point-digest coverage set. Merging validates the manifests instead of
  trusting file names.
* **Mergeable aggregates** — accumulator states merge associatively and
  exactly (see :mod:`repro.runner.aggregate`), so the merged snapshot is
  **byte-identical** to the one an unsharded run would have written.

:func:`merge_snapshots` refuses to merge mismatched configs, seeds, grids
or shard counts, and reports missing, overlapping, or incomplete shards
instead of silently producing partial curves.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.runner.aggregate import merge_states
from repro.runner.spec import PointSpec


class MergeError(RuntimeError):
    """Shard snapshots cannot be merged into a full campaign."""


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``i/N`` shard selector into ``(index, count)``.

    >>> parse_shard("0/3")
    (0, 3)
    """
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like i/N (e.g. 0/3): got {text!r}"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be >= 1: got {text!r}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}): got {text!r}"
        )
    return index, count


def shard_of(digest: str, count: int) -> int:
    """The shard a point digest belongs to (content-keyed, order-free)."""
    return int(digest, 16) % count


def grid_digest(digests: Iterable[str]) -> str:
    """SHA-256 fingerprint of a campaign's unique point-digest set."""
    return hashlib.sha256(
        "\n".join(sorted(set(digests))).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class ShardManifest:
    """What one shard snapshot claims to cover.

    ``grid`` fingerprints the *full* campaign's point set (identical across
    all shards); ``points`` is this shard's exact coverage — the digests it
    is responsible for, folded or not, which is what lets the merge detect
    an incomplete shard.
    """

    index: int
    count: int
    grid: str
    points: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1: got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}): got {self.index}"
            )
        object.__setattr__(self, "points", tuple(sorted(set(self.points))))

    @classmethod
    def for_shard(
        cls, specs: Iterable[PointSpec], index: int, count: int
    ) -> "ShardManifest":
        """Manifest of shard ``index/count`` of the full campaign ``specs``."""
        digests = {s.digest for s in specs}
        return cls(
            index=index,
            count=count,
            grid=grid_digest(digests),
            points=tuple(d for d in digests if shard_of(d, count) == index),
        )

    @classmethod
    def full(cls, digests: Iterable[str]) -> "ShardManifest":
        """The trivial 1-shard manifest covering a whole campaign."""
        points = tuple(sorted(set(digests)))
        return cls(index=0, count=1, grid=grid_digest(points), points=points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "count": self.count,
            "grid": self.grid,
            "points": list(self.points),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardManifest":
        return cls(
            index=int(data["index"]),
            count=int(data["count"]),
            grid=str(data["grid"]),
            points=tuple(str(p) for p in data["points"]),
        )


def read_shard_snapshot(path: str | os.PathLike) -> dict[str, Any]:
    """Read and structurally validate one shard snapshot file.

    Unlike a campaign resume (which treats a missing or corrupt snapshot
    as "start fresh"), a merge input that cannot be read is an error —
    merging around it would silently drop a shard.
    """
    from repro.runner.stream import check_snapshot_compat  # late: avoid cycle

    path = Path(path)
    try:
        snap = json.loads(path.read_text())
    except OSError as exc:
        raise MergeError(f"cannot read snapshot {path}: {exc}") from None
    except ValueError as exc:
        raise MergeError(f"snapshot {path} is not valid JSON: {exc}") from None
    if not isinstance(snap, dict):
        raise MergeError(f"snapshot {path} is not a snapshot object")
    check_snapshot_compat(snap, path, error=MergeError)
    for key in ("master_seed", "config", "shard", "folded", "failed", "aggregate"):
        if key not in snap:
            raise MergeError(f"snapshot {path} is missing {key!r}")
    if snap.get("partial"):
        raise MergeError(
            f"snapshot {path} is a partial-merge preview (missing shards "
            f"{snap.get('missing_shards')}); previews cannot be merged — "
            f"merge the original shard snapshots instead"
        )
    try:
        ShardManifest.from_dict(snap["shard"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MergeError(f"snapshot {path} has a malformed shard manifest: {exc}") from None
    return snap


def merge_snapshots(
    snaps: Sequence[Mapping[str, Any]],
    sources: Sequence[str] | None = None,
    *,
    allow_partial: bool = False,
) -> dict[str, Any]:
    """Fold shard snapshots into the canonical full-campaign snapshot.

    Validates before touching any accumulator state:

    * every snapshot shares one master seed, aggregator config digest, grid
      digest and shard count;
    * shard indices are pairwise distinct (overlapping shards) and together
      exactly cover ``0..count-1`` (missing shards);
    * each shard is *complete*: every point in its manifest coverage was
      folded or recorded as failed — a half-run shard is reported, not
      silently merged into a partial curve;
    * coverage sets are pairwise disjoint and their union is the grid;
    * adaptive shards (snapshots carrying point-source state) must all be
      adaptive, all finished, and agree on the final source state, which
      the merged snapshot inherits.

    The merged snapshot carries the trivial ``0/1`` manifest over the full
    grid, the unions of the folded/failed digest sets, and the exact merge
    of the aggregate states — byte-identical (via
    :func:`~repro.runner.spec.canonical_json`) to the snapshot an unsharded
    run of the same campaign writes.

    ``allow_partial=True`` is the deliberate escape hatch for previewing a
    campaign that is still in flight: missing and incomplete shards are
    tolerated, and the result is a *preview* snapshot explicitly marked
    ``"partial": true`` with the missing-shard list — previews are refused
    both as future merge inputs and as campaign resume states, so they can
    never masquerade as the finished campaign. Every consistency check
    that does not concern completeness (seeds, configs, grids, overlaps,
    stray folds) still applies. A complete shard set merged with
    ``allow_partial=True`` yields the canonical (unmarked) snapshot.
    """
    if not snaps:
        raise MergeError("no snapshots to merge")
    names = list(sources) if sources is not None else [
        f"snapshot #{i}" for i in range(len(snaps))
    ]

    def distinct(key: str, values: list[Any]) -> None:
        if len(set(map(repr, values))) > 1:
            detail = ", ".join(f"{n}: {v!r}" for n, v in zip(names, values))
            raise MergeError(f"snapshots disagree on {key}: {detail}")

    manifests = [ShardManifest.from_dict(s["shard"]) for s in snaps]
    distinct("master seed", [s["master_seed"] for s in snaps])
    distinct("aggregator config digest", [s["config"] for s in snaps])
    distinct("grid digest", [m.grid for m in manifests])
    distinct("shard count", [m.count for m in manifests])

    # Adaptive campaigns persist their point-source state; shards of one
    # adaptive campaign must all be adaptive, all *finished* (an in-flight
    # shard's point set is still growing — its manifest covers only the
    # rounds it has seen), and must agree on the final source state, which
    # the merged snapshot then carries so it stays byte-identical to the
    # unsharded run's.
    source_states = [s.get("source") for s in snaps]
    present = [st for st in source_states if st is not None]
    source_state: Mapping[str, Any] | None = None
    if present:
        if len(present) != len(snaps):
            have = [n for n, st in zip(names, source_states) if st is not None]
            raise MergeError(
                f"snapshots disagree on point-source strategy: "
                f"{', '.join(have)} carry adaptive source state, the "
                f"others do not"
            )
        in_flight = [
            name
            for name, st in zip(names, source_states)
            if not st.get("complete")
        ]
        if in_flight and not allow_partial:
            raise MergeError(
                f"{in_flight[0]} is an in-flight adaptive shard — its "
                f"point set is still growing; finish every shard before "
                f"merging (or preview with --allow-partial)"
            )
        if not in_flight:
            distinct("adaptive source state", present)
            source_state = present[0]
    else:
        in_flight = []

    count = manifests[0].count
    seen: dict[int, str] = {}
    for name, manifest in zip(names, manifests):
        if manifest.index in seen:
            raise MergeError(
                f"overlapping shards: index {manifest.index}/{count} appears "
                f"in both {seen[manifest.index]} and {name}"
            )
        seen[manifest.index] = name
    missing = sorted(set(range(count)) - set(seen))
    if missing and not allow_partial:
        raise MergeError(
            f"missing shards: have {sorted(seen)} of {count}, "
            f"missing {missing}"
        )

    incomplete = 0
    all_points: set[str] = set()
    all_done: set[str] = set()
    for name, snap, manifest in zip(names, snaps, manifests):
        coverage = set(manifest.points)
        done = set(snap["folded"]) | set(snap["failed"])
        stray = sorted(done - coverage)
        if stray:
            raise MergeError(
                f"{name} folded {len(stray)} point(s) outside its manifest "
                f"coverage (first: {stray[0][:16]}…)"
            )
        unfinished = coverage - done
        if unfinished:
            if not allow_partial:
                raise MergeError(
                    f"{name} is incomplete: {len(unfinished)} of "
                    f"{len(coverage)} points not yet folded — rerun that "
                    f"shard before merging"
                )
            incomplete += 1
        if all_points & coverage:
            raise MergeError(
                f"{name} covers points already claimed by another shard"
            )
        all_points |= coverage
        all_done |= done

    # An in-flight adaptive shard set can look internally complete (each
    # manifest only covers the rounds that shard has seen), so it must be
    # forced down the marked-preview path regardless.
    partial = bool(missing) or incomplete > 0 or bool(in_flight)
    # The manifests' own grid digest must re-derive from the union of their
    # coverage sets — a truncated/hand-edited points list would otherwise
    # pass every per-shard check and merge into a silently partial curve.
    # (Moot for an acknowledged-partial preview: its union is partial by
    # construction, and the preview keeps the *declared* grid digest.)
    if not partial and grid_digest(all_points) != manifests[0].grid:
        raise MergeError(
            f"shard coverage sets do not reassemble the declared grid: "
            f"union of {len(all_points)} point(s) hashes to "
            f"{grid_digest(all_points)[:16]}…, manifests claim "
            f"{manifests[0].grid[:16]}…"
        )

    aggregate = reduce(merge_states, [s["aggregate"] for s in snaps])
    folded = set().union(*(set(s["folded"]) for s in snaps))
    failed = set().union(*(set(s["failed"]) for s in snaps))
    from repro.runner.stream import snapshot_dict  # late: avoid cycle

    if partial:
        # The preview claims the *declared* grid (what the campaign will
        # eventually cover) but only the done points — never the trivial
        # full manifest an unsharded run would earn.
        shard = ShardManifest(
            index=0, count=1, grid=manifests[0].grid, points=tuple(all_done)
        )
        return snapshot_dict(
            config=snaps[0]["config"],
            master_seed=snaps[0]["master_seed"],
            folded=folded,
            failed=failed,
            aggregate=aggregate,
            shard=shard,
            missing_shards=missing,
        )
    return snapshot_dict(
        config=snaps[0]["config"],
        master_seed=snaps[0]["master_seed"],
        folded=folded,
        failed=failed,
        aggregate=aggregate,
        shard=ShardManifest.full(all_points),
        source=source_state,
    )


def merge_snapshot_files(
    paths: Sequence[str | os.PathLike], *, allow_partial: bool = False
) -> dict[str, Any]:
    """:func:`merge_snapshots` over snapshot files (the ``repro merge`` core)."""
    return merge_snapshots(
        [read_shard_snapshot(p) for p in paths],
        sources=[str(p) for p in paths],
        allow_partial=allow_partial,
    )


__all__ = [
    "MergeError",
    "ShardManifest",
    "grid_digest",
    "merge_snapshot_files",
    "merge_snapshots",
    "parse_shard",
    "read_shard_snapshot",
    "shard_of",
]
