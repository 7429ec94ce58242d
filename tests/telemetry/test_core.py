"""Unit tests for the telemetry recorder: spans, absorption, traces."""

import json
import threading

import pytest

from repro import telemetry
from repro.telemetry import NULL_SPAN, Telemetry, TraceSink


@pytest.fixture(autouse=True)
def deactivated():
    """Every test starts and ends with no recorder on this thread."""
    previous = telemetry.activate(None)
    yield
    telemetry.activate(previous)


class TestActivation:
    def test_disabled_by_default(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()

    def test_activate_returns_previous(self):
        first = Telemetry()
        assert telemetry.activate(first) is None
        second = Telemetry()
        assert telemetry.activate(second) is first
        assert telemetry.active() is second

    def test_activated_context_restores(self):
        outer = Telemetry()
        telemetry.activate(outer)
        with telemetry.activated(Telemetry()) as inner:
            assert telemetry.active() is inner
        assert telemetry.active() is outer

    def test_thread_local_isolation(self):
        telemetry.activate(Telemetry())
        seen = {}

        def probe():
            seen["other"] = telemetry.active()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["other"] is None

    def test_fresh_thread_reads_the_class_default(self):
        # A thread that never activated a recorder finds None by plain
        # attribute lookup: the disabled path raises nothing, not even an
        # AttributeError caught inside getattr.
        from repro.telemetry import core

        seen = {}

        def probe():
            seen["state"] = vars(core._local).copy()
            seen["telemetry"] = core._local.telemetry

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen == {"state": {}, "telemetry": None}
        assert type(core._local).telemetry is None

    def test_disabled_span_is_shared_noop(self):
        assert telemetry.span("anything") is NULL_SPAN
        with telemetry.span("anything") as s:
            assert s is NULL_SPAN


class TestRecorder:
    def test_span_paths_join_nested_stack(self):
        t = Telemetry()
        telemetry.activate(t)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        assert set(t.phases) == {"outer", "outer/inner"}
        assert t.phases["outer/inner"][0] == 2
        assert t.phases["outer"][0] == 1
        # children are fully contained in the parent's wall time
        assert t.phases["outer"][1] >= t.phases["outer/inner"][1]

    def test_span_records_duration_on_exception(self):
        t = Telemetry()
        telemetry.activate(t)
        with pytest.raises(RuntimeError):
            with telemetry.span("boom"):
                raise RuntimeError("x")
        assert t.phases["boom"][0] == 1
        assert t._stack == []  # the stack unwinds cleanly

    def test_export_is_json_safe_snapshot(self):
        t = Telemetry()
        with t.span("s"):
            pass
        export = t.export()
        json.dumps(export)  # round-trippable
        assert set(export) == {"phases", "cpu_seconds", "wall_seconds"}
        assert export["phases"]["s"][0] == 1
        assert export["wall_seconds"] >= 0.0
        assert export["cpu_seconds"] >= 0.0
        # the export is a copy: mutating it leaves the recorder alone
        export["phases"]["s"][0] = 99
        assert t.phases["s"][0] == 1

    def test_absorb_prefixes_phases(self):
        parent = Telemetry()
        worker = Telemetry()
        with worker.span("point"):
            pass
        delta = worker.export()
        delta["cpu_seconds"] = 0.25
        parent.absorb(delta)
        assert set(parent.phases) == {"worker/point"}
        assert parent.worker_cpu == pytest.approx(0.25)
        assert parent.cpu_seconds >= 0.25

    def test_absorb_twice_accumulates(self):
        parent = Telemetry()
        worker = Telemetry()
        with worker.span("p"):
            pass
        delta = worker.export()
        delta["cpu_seconds"] = 0.25
        parent.absorb(delta)
        parent.absorb(delta)
        assert parent.phases["worker/p"][0] == 2
        assert parent.worker_cpu == pytest.approx(0.5)

    def test_phase_wall_of_unknown_path(self):
        assert Telemetry().phase_wall("nope") == 0.0


class TestTraceSink:
    def test_trace_ndjson_layout(self, tmp_path):
        path = tmp_path / "nested" / "trace.ndjson"
        sink = TraceSink(path, preset="weighted", seed=3)
        t = Telemetry(sink)
        telemetry.activate(t)
        with telemetry.span("campaign"):
            with telemetry.span("execute", batch=4):
                pass
        sink.close(t)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["preset"] == "weighted"
        assert lines[0]["schema"] == telemetry.TRACE_SCHEMA
        spans = [l for l in lines if l["type"] == "span"]
        # inner span finishes (and is written) before the outer one
        assert [s["path"] for s in spans] == ["campaign/execute", "campaign"]
        assert spans[0]["attrs"] == {"batch": 4}
        assert lines[-1]["type"] == "summary"
        assert "campaign" in lines[-1]["phases"]

    def test_close_is_idempotent(self, tmp_path):
        sink = TraceSink(tmp_path / "trace.ndjson")
        sink.close()
        sink.close()  # second close must not raise
