"""The per-run ``run-manifest.json``: one JSON document describing a run.

The manifest is the machine-readable sibling of the stats line
``repro campaign`` prints: configuration digest and seed (what ran),
wall/CPU breakdown by phase (where time went), the stats themselves with
the cache hit ratio and kernel fast share computed from them (how well the
fast paths engaged), and the content digest of the aggregate the run
produced (what came out). Phases come from the telemetry recorder and
every count from the stats, the campaign's one counter record; nothing is
fed back into any accumulator, so writing it cannot perturb the
byte-identity contract.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

#: Bump when the manifest layout changes. Schema 2 dropped the recorder's
#: counters and gauges; the cache and kernel figures come from ``stats``.
MANIFEST_SCHEMA = 2


def _ratio(hits: int, total: int) -> "float | None":
    return (hits / total) if total > 0 else None


def build_manifest(
    telemetry: "Any",
    *,
    stats: "Mapping[str, Any] | None" = None,
    config: "Mapping[str, Any] | None" = None,
    aggregate_json: "str | None" = None,
    error: "str | None" = None,
) -> dict[str, Any]:
    """Assemble the manifest dict from a recorder and run metadata.

    ``telemetry`` is a :class:`repro.telemetry.core.Telemetry`;
    ``stats`` is the campaign's ``StreamStats.to_dict()`` (absent when the
    run failed before producing stats); ``config`` carries caller-provided
    run identity (preset, seed, axes, workers, ...); ``aggregate_json`` is
    the canonical aggregate snapshot text, digested — not embedded — so the
    manifest can vouch for the run's output without duplicating it. The
    ``cache`` hit ratio (``cached`` over ``cached + computed``) and the
    ``kernels`` fast share are computed from ``stats`` and present with it.
    """
    export = telemetry.export()
    phases = {
        path: {"count": n, "wall_seconds": total}
        for path, (n, total) in sorted(export["phases"].items())
    }

    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "config": dict(config or {}),
        "wall_seconds": export["wall_seconds"],
        "cpu_seconds": export["cpu_seconds"],
        "phases": phases,
    }
    if stats is not None:
        manifest["stats"] = dict(stats)
        cached, fast = stats["cached"], stats["kernel_fast"]
        manifest["cache"] = {
            "hit_ratio": _ratio(cached, cached + stats["computed"]),
        }
        manifest["kernels"] = {
            "fast_share": _ratio(fast, fast + stats["kernel_fallback"]),
        }
    if aggregate_json is not None:
        manifest["aggregate_digest"] = hashlib.sha256(
            aggregate_json.encode("utf-8")
        ).hexdigest()
    if error is not None:
        manifest["error"] = error
    return manifest


def write_manifest(path: "str | Path", manifest: Mapping[str, Any]) -> Path:
    """Atomically write the manifest (sorted keys, trailing newline)."""
    from ..runner.cache import atomic_write_text

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(target, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return target


__all__ = ["MANIFEST_SCHEMA", "build_manifest", "write_manifest"]
