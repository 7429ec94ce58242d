"""Unit tests for trace loading, coverage, and the ascii profile view."""

import json

import pytest

from repro.telemetry import (
    Telemetry,
    TraceProfile,
    TraceSink,
    load_trace,
    render_profile,
)
from repro.telemetry.profile import manifest_summary


def write_trace(path, *, summary=True):
    """A small realistic trace: campaign > execute > fold, plus worker CPU."""
    sink = TraceSink(path, preset="weighted", seed=3)
    t = Telemetry(sink)
    with t.span("campaign"):
        with t.span("execute"):
            with t.span("fold"):
                pass
    # give the phases deterministic durations for share assertions
    t.phases["campaign"] = [1, 10.0]
    t.phases["campaign/execute"] = [1, 9.5]
    t.phases["campaign/execute/fold"] = [2, 1.0]
    t.phases["worker/point"] = [4, 18.0]
    sink.close(t if summary else None)
    return path


class TestLoadTrace:
    def test_prefers_summary_phases(self, tmp_path):
        profile = load_trace(write_trace(tmp_path / "trace.ndjson"))
        assert profile.meta["preset"] == "weighted"
        # the summary carries the doctored totals and the worker phases
        assert profile.wall("campaign") == 10.0
        assert "worker/point" in profile.phases

    def test_directory_argument_resolves_trace_file(self, tmp_path):
        write_trace(tmp_path / "trace.ndjson")
        assert load_trace(tmp_path).wall("campaign") == 10.0

    def test_falls_back_to_span_records(self, tmp_path):
        profile = load_trace(
            write_trace(tmp_path / "trace.ndjson", summary=False)
        )
        # no summary line: totals rebuilt from the individual span records
        assert profile.summary == {}
        assert profile.span_records == 3
        assert set(profile.phases) == {
            "campaign", "campaign/execute", "campaign/execute/fold",
        }

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        write_trace(path, summary=False)
        with path.open("a") as handle:
            handle.write("{not json\n\n")
        assert load_trace(path).span_records == 3

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "absent.ndjson")


class TestCoverage:
    def test_root_is_shallowest_path(self, tmp_path):
        profile = load_trace(write_trace(tmp_path / "trace.ndjson"))
        assert profile.root_path == "campaign"

    def test_coverage_ratio(self, tmp_path):
        profile = load_trace(write_trace(tmp_path / "trace.ndjson"))
        # execute (9.5s) is campaign's only direct child of 10.0s
        assert profile.coverage() == pytest.approx(0.95)

    def test_coverage_none_without_spans(self):
        assert TraceProfile().coverage() is None

    def test_coverage_none_for_zero_wall_root(self):
        profile = TraceProfile(phases={"root": [1, 0.0]})
        assert profile.coverage() is None

    def test_leaf_root_counts_as_fully_covered(self):
        profile = TraceProfile(phases={"root": [1, 2.0]})
        assert profile.coverage() == 1.0

    def test_coverage_capped_at_one(self):
        profile = TraceProfile(
            phases={"r": [1, 1.0], "r/a": [1, 0.7], "r/b": [1, 0.7]}
        )
        assert profile.coverage() == 1.0


class TestRender:
    def test_render_tree_and_outside_section(self, tmp_path):
        profile = load_trace(write_trace(tmp_path / "trace.ndjson"))
        text = render_profile(profile)
        assert "root span: campaign" in text
        assert "coverage: 95.0%" in text
        assert "fold" in text
        assert "outside the root span:" in text
        assert "worker/point" in text

    def test_render_empty_profile(self):
        assert "(no spans recorded)" in render_profile(TraceProfile())

    def test_top_limits_outside_list(self, tmp_path):
        profile = load_trace(write_trace(tmp_path / "trace.ndjson"))
        for i in range(5):
            profile.phases[f"stray{i}"] = [1, 0.1]
        text = render_profile(profile, top=2)
        outside = text.split("outside the root span:")[1]
        assert len(outside.strip().splitlines()) == 2


class TestManifestSummary:
    def test_one_liner(self):
        line = manifest_summary(
            {
                "cache": {"hit_ratio": 0.5},
                "kernels": {"fast_share": 1.0},
                "cpu_seconds": 1.25,
                "wall_seconds": 2.5,
            }
        )
        assert "cache hit 50.0%" in line
        assert "kernel fast 100.0%" in line
        assert "cpu 1.250s" in line and "wall 2.500s" in line

    def test_error_and_missing_fields(self):
        assert manifest_summary({}) == ""
        assert "error: boom" in manifest_summary({"error": "boom"})
