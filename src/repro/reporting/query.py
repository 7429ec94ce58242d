"""Typed queries over campaign aggregate snapshots.

A snapshot (see :mod:`repro.runner.stream`) is the canonical persisted form
of a campaign: exact accumulator states plus the digests of every folded
point. This module loads one, validates it against a registered preset
(:mod:`repro.runner.presets`), and answers structured questions about it —
a curve by metric (optionally pivoted over one axis), an outcome taxonomy
with Wilson confidence intervals, the scalar summary, or the preset's full
rendered report.

Every answer is a pure function of the accumulator states, so responses
are content-addressable: :attr:`SnapshotQuery.content_digest` fingerprints
``(preset, aggregate config, aggregate state)``, and :class:`QueryCache`
memoizes rendered responses under ``(content digest, query)`` — the
``repro serve`` cache hits whenever any client asks any question about an
aggregate state the server has already answered it for, regardless of
which campaign produced the state.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Mapping

from repro.runner.aggregate import (
    Aggregator,
    CategoricalCountAccumulator,
    CurveAccumulator,
)
from repro.runner.presets import PresetSpec, get_preset
from repro.runner.spec import canonical_json
from repro.runner.stream import check_snapshot_compat


class QueryError(ValueError):
    """A snapshot or query that cannot be answered (malformed, mismatched)."""


def render_summary(aggregator: Aggregator) -> str:
    """Deterministic text of an aggregate's scalar summary.

    The fallback report for presets without an aggregate renderer (their
    campaign-time rendering needs materialized per-point rows, which a
    snapshot deliberately does not keep): one canonical-JSON line per
    metric, stable under sharding, merging and resumption.
    """
    lines = ["aggregate summary:"]
    for name, value in sorted(aggregator.summary().items()):
        lines.append(f"  {name} = {canonical_json(value)}")
    return "\n".join(lines)


def _parse_curve_key(
    key: Any, axes: "tuple[str, ...] | None"
) -> dict[str, Any]:
    """One curve bin key as a ``{axis: value}`` mapping.

    Three shapes appear in the wild: positional lists (zipped with the
    preset's declared ``curve_axes``), self-describing ``[[name, value],
    ...]`` pair lists (the sched-style grouped keys), and bare scalars.
    """
    if isinstance(key, list):
        if key and all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
            for p in key
        ):
            return {name: value for name, value in key}
        if axes is not None and len(key) == len(axes):
            return dict(zip(axes, key))
        return {f"axis{i}": v for i, v in enumerate(key)}
    return {"key": key}


class SnapshotQuery:
    """Typed queries over one validated (preset, aggregate) pair."""

    def __init__(self, preset: PresetSpec, aggregator: Aggregator):
        self.preset = preset
        self.aggregator = aggregator

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_aggregator(
        cls, preset: "PresetSpec | str", aggregator: Aggregator
    ) -> "SnapshotQuery":
        """Wrap a live aggregator (the ``repro campaign`` render path)."""
        if isinstance(preset, str):
            preset = get_preset(preset)
        return cls(preset, aggregator)

    @classmethod
    def from_snapshot(
        cls,
        snap: Mapping[str, Any],
        preset: "PresetSpec | str",
        *,
        where: Any = "snapshot",
    ) -> "SnapshotQuery":
        """Validate a parsed snapshot against ``preset`` and load its state.

        Refuses (with :class:`QueryError`) a snapshot whose aggregate was
        not built by this preset — the config digest fingerprints the
        metric shapes, so mis-renderings are impossible rather than merely
        unlikely. Newer-minor snapshots warn and proceed (see
        :func:`repro.runner.stream.check_snapshot_compat`).
        """
        if isinstance(preset, str):
            preset = get_preset(preset)
        if not isinstance(snap, Mapping):
            raise QueryError(f"{where} is not a snapshot object")
        check_snapshot_compat(snap, where, error=QueryError)
        aggregator = preset.aggregator()
        if snap.get("config") != aggregator.config_digest:
            raise QueryError(
                f"snapshots were not built by the {preset.name!r} preset's "
                f"aggregate (config digest mismatch)"
            )
        try:
            aggregator.load_state(snap["aggregate"])
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(
                f"{where} has a malformed aggregate state: {exc}"
            ) from None
        return cls(preset, aggregator)

    # -- identity ----------------------------------------------------------

    @property
    def content_digest(self) -> str:
        """SHA-256 over (preset, aggregate config, aggregate state).

        Two queries answer identically iff their digests match, so this is
        the cache key prefix for every derived response.
        """
        payload = {
            "preset": self.preset.name,
            "config": self.aggregator.config_digest,
            "aggregate": self.aggregator.state_dict(),
        }
        return hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()

    # -- queries -----------------------------------------------------------

    def metrics(self) -> list[dict[str, Any]]:
        """Name + accumulator kind of every metric in the aggregate."""
        return [
            {"name": m.name, "kind": m.acc.kind}
            for m in self.aggregator.metrics
        ]

    def summary(self) -> dict[str, Any]:
        """The aggregate's scalar summary (exact accumulator summaries)."""
        return self.aggregator.summary()

    def curve(self, metric: str, axis: "str | None" = None) -> dict[str, Any]:
        """A curve metric's bins, optionally pivoted over one named axis.

        Without ``axis``: every bin as ``{"key": {axis: value, ...},
        "value": <sub-accumulator summary>}`` in canonical key order. With
        ``axis``: bins grouped into series by the remaining key axes, each
        series' points ordered by the grouped key — the shape a plotting
        client consumes directly.
        """
        acc = self._metric(metric)
        if not isinstance(acc, CurveAccumulator):
            raise QueryError(
                f"metric {metric!r} is {acc.kind!r}, not a curve"
            )
        axes = self.preset.curve_axes.get(metric)
        points = [
            {"key": _parse_curve_key(key, axes), "value": sub.summary()}
            for key, sub in acc.items()
        ]
        if axis is None:
            return {"metric": metric, "points": points}
        series: dict[str, dict[str, Any]] = {}
        for pt in points:
            if axis not in pt["key"]:
                raise QueryError(
                    f"curve {metric!r} has no axis {axis!r} "
                    f"(axes: {'/'.join(sorted(pt['key']))})"
                )
            rest = {k: v for k, v in pt["key"].items() if k != axis}
            group = canonical_json(rest)
            series.setdefault(group, {"key": rest, "points": []})[
                "points"
            ].append([pt["key"][axis], pt["value"]])
        return {
            "metric": metric,
            "axis": axis,
            "series": [series[g] for g in sorted(series)],
        }

    def categorical(self, metric: str) -> dict[str, Any]:
        """An outcome taxonomy with Wilson 95% confidence intervals.

        Accepts a plain categorical metric or a curve of categorical bins
        (the faultspace ``outcomes`` shape); each taxonomy reports exact
        per-category counts and rates plus the Wilson interval of each
        rate.
        """
        acc = self._metric(metric)
        if isinstance(acc, CategoricalCountAccumulator):
            return {"metric": metric, "taxonomy": _taxonomy(acc)}
        if isinstance(acc, CurveAccumulator):
            axes = self.preset.curve_axes.get(metric)
            bins = []
            for key, sub in acc.items():
                if not isinstance(sub, CategoricalCountAccumulator):
                    raise QueryError(
                        f"curve {metric!r} bins are {sub.kind!r}, not "
                        f"categorical"
                    )
                bins.append(
                    {
                        "key": _parse_curve_key(key, axes),
                        "taxonomy": _taxonomy(sub),
                    }
                )
            return {"metric": metric, "bins": bins}
        raise QueryError(
            f"metric {metric!r} is {acc.kind!r}, not categorical"
        )

    def report(self) -> str:
        """The preset's rendered report — the exact text ``repro campaign``
        prints from the same aggregate state (summary fallback for
        row-rendered presets, whose per-point tables are not in snapshots).
        """
        rendered = self.preset.render(self.aggregator)
        if rendered is None:
            rendered = render_summary(self.aggregator)
        return rendered

    def query(self, kind: str, **params: Any) -> Any:
        """Dispatch a named query (the HTTP endpoint surface)."""
        if kind == "summary":
            return self.summary()
        if kind == "metrics":
            return self.metrics()
        if kind == "report":
            return self.report()
        if kind == "curve":
            return self.curve(
                self._required(params, "metric"), params.get("axis")
            )
        if kind == "categorical":
            return self.categorical(self._required(params, "metric"))
        raise QueryError(
            f"unknown query kind {kind!r}; known: "
            f"summary/metrics/report/curve/categorical"
        )

    # -- internals ---------------------------------------------------------

    def _metric(self, name: str) -> Any:
        try:
            return self.aggregator[name]
        except KeyError:
            known = "/".join(m.name for m in self.aggregator.metrics)
            raise QueryError(
                f"unknown metric {name!r}; known: {known}"
            ) from None

    @staticmethod
    def _required(params: Mapping[str, Any], key: str) -> Any:
        value = params.get(key)
        if value is None:
            raise QueryError(f"query needs a {key!r} parameter")
        return value


def _taxonomy(acc: CategoricalCountAccumulator) -> dict[str, Any]:
    from repro.dependability.taxonomy import wilson_interval

    total = acc.total
    categories = {}
    for name in sorted(acc.counts):
        count = acc.counts[name]
        entry: dict[str, Any] = {"count": count, "rate": acc.rate(name)}
        ci = wilson_interval(count, total)
        if ci is not None:
            entry["ci95"] = [ci[0], ci[1]]
        categories[name] = entry
    return {"total": total, "categories": categories}


class QueryCache:
    """Content-addressed memo of rendered query responses.

    Keys are ``(aggregate content digest, canonical query)``: the digest
    pins the *state* the answer was computed from, so overlapping jobs —
    or a re-submitted identical campaign — reuse each other's answers, and
    a still-folding aggregate can never serve stale bytes (its digest
    changes with every fold). Thread-safe; the server shares one instance
    across all connections.
    """

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], bytes] = {}

    @staticmethod
    def key(content_digest: str, kind: str, **params: Any) -> tuple[str, str]:
        query = canonical_json(
            {"kind": kind, "params": {k: v for k, v in params.items() if v is not None}}
        )
        return (content_digest, query)

    def get(self, key: tuple[str, str]) -> "bytes | None":
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: tuple[str, str], value: bytes) -> None:
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.max_entries:
                # Drop the oldest entry (insertion order); good enough for
                # a bounded memo — correctness never depends on retention.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = value

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


__all__ = [
    "QueryCache",
    "QueryError",
    "SnapshotQuery",
    "render_summary",
]
