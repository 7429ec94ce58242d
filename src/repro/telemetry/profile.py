"""Offline trace analysis: ``repro profile <trace>``.

Reads the NDJSON trace a campaign wrote with ``--telemetry`` and renders
an ascii top-phase / flame view: every span path with its call count,
total wall seconds, and share of the root span, drawn as an indented tree
(children grouped under their parent path) with per-line bars. Coverage —
the fraction of the root span's wall time accounted for by its direct
children — is computed so CI can assert the instrumentation actually
explains where the time went (the ISSUE's >= 95% acceptance gate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


@dataclass
class TraceProfile:
    """Aggregated view of one trace: phase totals plus meta/summary lines."""

    meta: dict[str, Any] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    #: span path -> [count, total wall seconds]
    phases: dict[str, list[float]] = field(default_factory=dict)
    span_records: int = 0

    @property
    def root_path(self) -> "str | None":
        """The shallowest recorded path (fewest ``/`` segments, then longest wall)."""
        if not self.phases:
            return None
        return min(
            self.phases,
            key=lambda p: (p.count("/"), -self.phases[p][1]),
        )

    def wall(self, path: str) -> float:
        slot = self.phases.get(path)
        return float(slot[1]) if slot else 0.0

    def children(self, path: str) -> list[str]:
        """Direct children of ``path``, longest wall time first."""
        prefix = path + "/"
        kids = [
            p
            for p in self.phases
            if p.startswith(prefix) and "/" not in p[len(prefix) :]
        ]
        return sorted(kids, key=lambda p: -self.phases[p][1])

    def coverage(self, path: "str | None" = None) -> "float | None":
        """Fraction of ``path``'s wall time covered by its direct children.

        ``None`` when the trace has no spans or the root took no measurable
        time. A root with no children counts as fully covered — all of its
        time is attributed to itself, there is nothing unexplained.
        """
        root = path if path is not None else self.root_path
        if root is None:
            return None
        total = self.wall(root)
        if total <= 0.0:
            return None
        kids = self.children(root)
        if not kids:
            return 1.0
        return min(1.0, sum(self.wall(k) for k in kids) / total)


def load_trace(path: "str | Path") -> TraceProfile:
    """Parse a trace NDJSON file (or a directory containing ``trace.ndjson``).

    Span records are aggregated by path; a trailing ``summary`` record, when
    present, is preferred for phase totals because it also contains phases
    absorbed from pool workers (which never appear as parent-side span
    lines). Malformed lines are skipped — a truncated trace still profiles.
    """
    target = Path(path)
    if target.is_dir():
        target = target / "trace.ndjson"
    profile = TraceProfile()
    from_spans: dict[str, list[float]] = {}
    with target.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            kind = record.get("type")
            if kind == "meta":
                profile.meta = record
            elif kind == "span":
                profile.span_records += 1
                slot = from_spans.setdefault(record.get("path", "?"), [0, 0.0])
                slot[0] += 1
                slot[1] += float(record.get("dur", 0.0))
            elif kind == "summary":
                profile.summary = record
    summary_phases = profile.summary.get("phases")
    if summary_phases:
        profile.phases = {
            path: [int(slot[0]), float(slot[1])]
            for path, slot in summary_phases.items()
        }
    else:
        profile.phases = from_spans
    return profile


def _bar(share: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, share)) * width))
    return "#" * filled + "." * (width - filled)


def _render_subtree(
    profile: TraceProfile,
    path: str,
    root_wall: float,
    depth: int,
    lines: list[str],
) -> None:
    count, total = profile.phases[path]
    share = (total / root_wall) if root_wall > 0 else 0.0
    name = path.rsplit("/", 1)[-1] if depth else path
    lines.append(
        f"{share * 100:6.1f}%  {total:10.3f}s  {int(count):>8}  "
        f"{_bar(share)}  {'  ' * depth}{name}"
    )
    for child in profile.children(path):
        _render_subtree(profile, child, root_wall, depth + 1, lines)


def render_profile(profile: TraceProfile, *, top: int = 40) -> str:
    """Ascii phase breakdown: tree under the root plus a flat top list."""
    lines: list[str] = []
    meta_bits = [
        f"{key}={profile.meta[key]}"
        for key in ("preset", "seed", "run")
        if key in profile.meta
    ]
    if meta_bits:
        lines.append("trace: " + " ".join(meta_bits))
    root = profile.root_path
    if root is None:
        lines.append("(no spans recorded)")
        return "\n".join(lines)

    root_wall = profile.wall(root)
    wall_seconds = profile.summary.get("wall_seconds")
    header = f"root span: {root} ({root_wall:.3f}s"
    if isinstance(wall_seconds, (int, float)):
        header += f" of {wall_seconds:.3f}s run"
    header += ")"
    coverage = profile.coverage()
    if coverage is not None:
        header += f"  coverage: {coverage * 100:.1f}%"
    lines.append(header)
    lines.append("")
    lines.append(f"{'share':>7}  {'wall':>11}  {'count':>8}  {'':24}  phase")
    _render_subtree(profile, root, root_wall, 0, lines)

    others = sorted(
        (p for p in profile.phases if p != root and not p.startswith(root + "/")),
        key=lambda p: -profile.phases[p][1],
    )
    if others:
        lines.append("")
        lines.append("outside the root span:")
        for path in others[:top]:
            count, total = profile.phases[path]
            share = (total / root_wall) if root_wall > 0 else 0.0
            lines.append(
                f"{share * 100:6.1f}%  {total:10.3f}s  {int(count):>8}  "
                f"{_bar(share)}  {path}"
            )
    return "\n".join(lines)


def manifest_summary(manifest: Mapping[str, Any]) -> str:
    """One-line digest of a run manifest for the profile footer."""
    bits: list[str] = []
    cache = manifest.get("cache") or {}
    if cache.get("hit_ratio") is not None:
        bits.append(f"cache hit {cache['hit_ratio'] * 100:.1f}%")
    kernels = manifest.get("kernels") or {}
    if kernels.get("fast_share") is not None:
        bits.append(f"kernel fast {kernels['fast_share'] * 100:.1f}%")
    if "cpu_seconds" in manifest:
        bits.append(f"cpu {manifest['cpu_seconds']:.3f}s")
    if "wall_seconds" in manifest:
        bits.append(f"wall {manifest['wall_seconds']:.3f}s")
    if manifest.get("error"):
        bits.append(f"error: {manifest['error']}")
    return "  ".join(bits)


__all__ = [
    "TraceProfile",
    "load_trace",
    "manifest_summary",
    "render_profile",
]
