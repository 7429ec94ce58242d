"""On-disk JSON result cache for campaign points.

One file per ``(spec, master_seed)`` pair under
``<root>/<experiment>/<digest16>-s<master_seed>.json``. The stored record
embeds the full spec, so a short-prefix collision or a stale file from an
older spec layout is detected (canonical mismatch) and treated as a miss.
Writes go through a temp file + :func:`os.replace` so concurrent campaigns
sharing a cache directory never observe half-written records.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterable

from repro.runner.spec import PointSpec

#: Bump when the record layout changes; old records become misses.
CACHE_SCHEMA = 1

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + rename).

    The temp name comes from :func:`tempfile.mkstemp`, so concurrent writers
    — other processes *and* other threads of this process, which share a
    PID — never collide on it; on any failure the temp file is removed
    instead of being orphaned next to the cache forever.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Directory-backed cache mapping ``(spec, master_seed)`` to results."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, spec: PointSpec, master_seed: int) -> Path:
        """Cache file for one point (deterministic, collision-checked on read)."""
        bucket = _SAFE.sub("_", spec.experiment) or "_"
        return self.root / bucket / f"{spec.digest[:16]}-s{master_seed}.json"

    def get(self, spec: PointSpec, master_seed: int) -> Any | None:
        """Stored result, or None on miss/corruption/spec mismatch."""
        path = self.path(spec, master_seed)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        # A truncated or overwritten file can parse to a non-dict (e.g. a
        # bare number cut from a larger record) — that's a miss too, so a
        # corrupt entry is recomputed and overwritten mid-campaign instead
        # of crashing it.
        if not isinstance(record, dict):
            return None
        if (
            record.get("schema") != CACHE_SCHEMA
            or record.get("canonical") != spec.canonical
            or record.get("master_seed") != master_seed
            or "result" not in record
        ):
            return None
        return record["result"]

    def put(
        self,
        spec: PointSpec,
        master_seed: int,
        result: Any,
        *,
        elapsed: float | None = None,
    ) -> Path:
        """Atomically persist one point's result; returns the cache path."""
        path = self.path(spec, master_seed)
        record = {
            "schema": CACHE_SCHEMA,
            "canonical": spec.canonical,
            "spec": spec.to_dict(),
            "master_seed": master_seed,
            "result": result,
            "elapsed": elapsed,
        }
        atomic_write_text(path, json.dumps(record, sort_keys=True))
        return path

    def put_many(
        self,
        entries: Iterable[tuple[PointSpec, int, Any, float | None]],
    ) -> list[Path]:
        """Persist a batch of ``(spec, master_seed, result, elapsed)`` entries.

        The batched engine's per-batch spelling of :meth:`put`: the
        grouping is at the call layer (one call per completed batch), not
        the I/O layer — every entry still lands as its own atomic file,
        byte-identical to a per-point ``put``, so per-point resume and
        cross-campaign cache sharing keep working unchanged.
        """
        return [
            self.put(spec, master_seed, result, elapsed=elapsed)
            for spec, master_seed, result, elapsed in entries
        ]
