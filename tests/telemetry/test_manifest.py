"""Unit tests for run-manifest assembly and writing."""

import hashlib
import json

from repro.telemetry import (
    MANIFEST_SCHEMA,
    Telemetry,
    build_manifest,
    write_manifest,
)


def recorder_with_activity() -> Telemetry:
    t = Telemetry()
    with t.span("campaign"):
        pass
    return t


def stats(cached=0, computed=0, kernel_fast=0, kernel_fallback=0) -> dict:
    """The counters of a ``StreamStats.to_dict()`` the manifest reads."""
    return dict(
        cached=cached, computed=computed, kernel_fast=kernel_fast,
        kernel_fallback=kernel_fallback,
    )


class TestBuildManifest:
    def test_ratios_and_phase_table(self):
        manifest = build_manifest(
            recorder_with_activity(),
            stats=stats(cached=3, computed=1, kernel_fast=9, kernel_fallback=1),
        )
        assert manifest["schema"] == MANIFEST_SCHEMA == 2
        assert manifest["cache"] == {"hit_ratio": 0.75}
        assert manifest["kernels"] == {"fast_share": 0.9}
        assert manifest["phases"]["campaign"]["count"] == 1
        assert manifest["phases"]["campaign"]["wall_seconds"] >= 0.0
        assert "counters" not in manifest and "gauges" not in manifest

    def test_empty_recorder_ratios_are_none(self):
        manifest = build_manifest(Telemetry(), stats=stats())
        assert manifest["cache"]["hit_ratio"] is None
        assert manifest["kernels"]["fast_share"] is None
        assert manifest["phases"] == {}

    def test_optional_fields_only_when_given(self):
        bare = build_manifest(Telemetry())
        for key in ("stats", "cache", "kernels", "aggregate_digest", "error"):
            assert key not in bare
        full = build_manifest(
            Telemetry(),
            stats=stats(cached=4),
            config={"preset": "weighted", "seed": 3},
            aggregate_json='{"a": 1}',
            error="boom",
        )
        assert full["stats"] == stats(cached=4)
        assert full["config"]["preset"] == "weighted"
        assert full["error"] == "boom"
        assert full["aggregate_digest"] == hashlib.sha256(
            b'{"a": 1}'
        ).hexdigest()

    def test_manifest_is_json_serializable(self):
        json.dumps(build_manifest(recorder_with_activity(), stats=stats(1, 1)))


class TestWriteManifest:
    def test_write_creates_parents_and_trailing_newline(self, tmp_path):
        target = tmp_path / "runs" / "a" / "run-manifest.json"
        manifest = build_manifest(Telemetry(), config={"seed": 1})
        written = write_manifest(target, manifest)
        assert written == target
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["config"] == {"seed": 1}

    def test_write_is_stable_for_equal_manifests(self, tmp_path):
        manifest = {"schema": MANIFEST_SCHEMA, "b": 1, "a": 2}
        write_manifest(tmp_path / "one.json", manifest)
        write_manifest(tmp_path / "two.json", dict(reversed(manifest.items())))
        assert (
            (tmp_path / "one.json").read_bytes()
            == (tmp_path / "two.json").read_bytes()
        )
