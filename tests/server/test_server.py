"""End-to-end tests for ``repro serve`` over real sockets.

These drive the acceptance contract of the HTTP layer: many concurrent
clients can stream sequenced deltas from one in-flight campaign and all
see the identical event log; the rendered report the server hands out
is byte-identical to what the CLI renders for the same campaign; and a
repeated identical query is answered from the content-addressed cache
(``X-Cache: hit``) without recomputation. The snapshot bytes of a served
job are checked against the CLI's for every preset in
``tests/invariance/test_matrix.py``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.server import ReproServer

# The smoke campaign every test shares: tiny but multi-point, so delta
# events actually interleave with client polling.
SCHED_JOB = {
    "preset": "sched",
    "axes": {"u_total": [0.5, 1.0], "n": [4], "rep": [0, 1]},
    "workers": 1,
}


# -- plain-stdlib HTTP helpers -------------------------------------------


def _request(port, path, *, method="GET", body=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = None
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _get_json(port, path):
    status, headers, body = _request(port, path)
    return status, headers, json.loads(body)


def _stream_events(port, job_id, since=0):
    """Read one delta stream to EOF; returns the decoded event list."""
    url = f"http://127.0.0.1:{port}/jobs/{job_id}/deltas?since={since}"
    with urllib.request.urlopen(url, timeout=60) as resp:
        assert resp.headers.get("Transfer-Encoding") == "chunked"
        return [json.loads(line) for line in resp if line.strip()]


# -- fixtures ------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    spool = tmp_path_factory.mktemp("spool")
    srv = ReproServer(workers=1, spool_dir=spool)
    host, port, stop = srv.start_in_thread()
    yield {"server": srv, "port": port, "spool": spool}
    stop()


@pytest.fixture(scope="module")
def done_job(server):
    """The shared smoke job, submitted once and drained to completion."""
    port = server["port"]
    status, _headers, body = _request(port, "/jobs", method="POST",
                                      body=SCHED_JOB)
    assert status == 202
    submitted = json.loads(body)
    assert submitted["reused"] is False
    job_id = submitted["job"]
    events = _stream_events(port, job_id)
    assert events[-1]["type"] == "complete"
    return {"id": job_id, "events": events}


# -- service surface -----------------------------------------------------


class TestSurface:
    def test_index_lists_endpoints_and_presets(self, server):
        status, _h, body = _get_json(server["port"], "/")
        assert status == 200
        assert body["service"] == "repro serve"
        assert "sched" in body["presets"]
        assert "GET /jobs/{id}/deltas?since=N" in body["endpoints"]

    def test_presets_mirror_registry_capabilities(self, server):
        from repro.runner.presets import get_preset, preset_names

        _s, _h, body = _get_json(server["port"], "/presets")
        records = {r["name"]: r for r in body["presets"]}
        assert tuple(records) == preset_names()
        for name, record in records.items():
            preset = get_preset(name)
            assert record["adaptive"] == preset.adaptive
            assert record["axis_overridable"] == preset.axis_overridable
            assert record["scenario_axis"] == preset.scenario_axis
            assert record["row_rendered"] == preset.row_rendered

    def test_unknown_endpoint_404(self, server):
        status, _h, body = _request(server["port"], "/nope")
        assert status == 404
        assert b"no such endpoint" in body

    def test_wrong_method_405(self, server):
        status, _h, _b = _request(server["port"], "/presets", method="POST",
                                  body={})
        assert status == 405

    def test_bad_submit_400(self, server):
        for payload, fragment in [
            ({"preset": "nope"}, b"unknown preset"),
            ({"preset": "sched", "bogus": 1}, b"unknown job field"),
            ({"preset": "table2", "axes": {"x": [1]}}, b"--axis only applies"),
            ({"preset": "sched", "strategy": "adaptive"},
             b"--strategy adaptive supports"),
            ([], b"must be a JSON object"),
        ]:
            status, _h, body = _request(server["port"], "/jobs",
                                        method="POST", body=payload)
            assert status == 400, payload
            assert fragment in body

    @pytest.mark.parametrize(
        "field, value", [("workers", 0), ("workers", -3), ("batch", 0),
                         ("batch", "x")],
    )
    def test_bad_workers_or_batch_400(self, server, field, value):
        body = dict(SCHED_JOB, seed=11, **{field: value})
        status, _h, reply = _request(server["port"], "/jobs", method="POST",
                                     body=body)
        assert status == 400
        assert f"'{field}' must be a positive integer".encode() in reply


# -- job lifecycle -------------------------------------------------------


class TestJobLifecycle:
    def test_event_log_shape(self, done_job):
        events = done_job["events"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0] == {"seq": 0, "type": "state", "state": "queued"}
        assert events[1] == {"seq": 1, "type": "state", "state": "running"}
        deltas = [e for e in events if e["type"] == "delta"]
        assert deltas, "campaign emitted no progress deltas"
        assert deltas[-1]["folded"] == 4
        assert events[-1]["stats"]["folded"] == 4

    def test_describe_done_job(self, server, done_job):
        status, _h, body = _get_json(server["port"], f"/jobs/{done_job['id']}")
        assert status == 200
        assert body["state"] == "done"
        assert body["preset"] == "sched"
        assert body["stats"]["computed"] == 4
        # unambiguous id prefixes resolve too (spool files use 16 chars)
        status, _h, by_prefix = _get_json(
            server["port"], f"/jobs/{done_job['id'][:16]}"
        )
        assert status == 200 and by_prefix["job"] == done_job["id"]

    def test_replay_from_any_seq(self, server, done_job):
        port, job_id = server["port"], done_job["id"]
        assert _stream_events(port, job_id) == done_job["events"]
        tail = _stream_events(port, job_id, since=2)
        assert tail == done_job["events"][2:]
        # since past the terminal event: clean EOF, not a hang
        beyond = len(done_job["events"]) + 5
        assert _stream_events(port, job_id, since=beyond) == []

    def test_resubmit_is_deduped(self, server, done_job):
        status, _h, body = _request(server["port"], "/jobs", method="POST",
                                    body=SCHED_JOB)
        assert status == 200
        reply = json.loads(body)
        assert reply == {"job": done_job["id"], "reused": True,
                         "state": "done"}
        # workers is not part of the identity: same campaign, same job
        other = dict(SCHED_JOB, workers=2)
        _s, _h, body = _request(server["port"], "/jobs", method="POST",
                                body=other)
        assert json.loads(body)["job"] == done_job["id"]

    def test_unknown_job_404(self, server):
        status, _h, body = _request(server["port"], "/jobs/feed")
        assert status == 404
        assert b"no such job" in body


# -- the acceptance criteria ---------------------------------------------


class TestConcurrentStreams:
    def test_eight_concurrent_clients_see_identical_logs(self, server):
        """≥ 8 clients stream deltas from ONE in-flight campaign; every
        client replays the identical sequenced event log to EOF."""
        port = server["port"]
        job = dict(SCHED_JOB, seed=7,
                   axes={"u_total": [0.5, 0.7, 0.9, 1.0], "n": [4, 8],
                         "rep": [0, 1, 2]})
        status, _h, body = _request(port, "/jobs", method="POST", body=job)
        assert status == 202
        job_id = json.loads(body)["job"]

        results = [None] * 8
        errors = []

        def client(i):
            try:
                results[i] = _stream_events(port, job_id)
            except Exception as exc:  # noqa: BLE001 - surfaced via errors
                errors.append((i, exc))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert all(r is not None for r in results)
        first = results[0]
        assert first[-1]["type"] == "complete"
        assert first[-1]["stats"]["folded"] == 24
        for other in results[1:]:
            assert other == first


class TestQueryCache:
    def test_repeated_query_is_a_cache_hit_with_identical_bytes(
        self, server, done_job
    ):
        port, job_id = server["port"], done_job["id"]
        path = (f"/jobs/{job_id}/query/curve"
                f"?metric=acceptance_feasible&axis=u_total")
        _s, h1, b1 = _request(port, path)
        _s, h2, b2 = _request(port, path)
        assert h1["X-Cache"] == "miss"
        assert h2["X-Cache"] == "hit"
        assert b1 == b2
        curve = json.loads(b1)
        assert curve["axis"] == "u_total"

    def test_report_cached_too(self, server, done_job):
        port, job_id = server["port"], done_job["id"]
        _s, h1, b1 = _request(port, f"/jobs/{job_id}/report")
        _s, h2, b2 = _request(port, f"/jobs/{job_id}/report")
        assert (h1["X-Cache"], h2["X-Cache"]) == ("miss", "hit")
        assert b1 == b2
        assert h2["Content-Type"].startswith("text/plain")

    def test_cache_stats_account_hits(self, server, done_job):
        _s, _h, stats = _get_json(server["port"], "/stats")
        assert stats["query_cache"]["hits"] >= 2
        assert stats["jobs"]["total"] >= 1

    def test_bad_query_params(self, server, done_job):
        port, job_id = server["port"], done_job["id"]
        status, _h, body = _request(port, f"/jobs/{job_id}/query/plot")
        assert status == 404 and b"unknown query kind" in body
        status, _h, body = _request(port, f"/jobs/{job_id}/query/curve")
        assert status == 400 and b"needs a 'metric'" in body
        status, _h, body = _request(
            port, f"/jobs/{job_id}/query/curve?metric=nope"
        )
        assert status == 400 and b"unknown metric" in body


class TestCliByteIdentity:
    """The server and the CLI must render one campaign identically."""

    def test_report_bytes_match_cli_merge_render(
        self, server, done_job, tmp_path, capsys
    ):
        port, job_id = server["port"], done_job["id"]
        _s, _h, http_report = _request(port, f"/jobs/{job_id}/report")
        snap = tmp_path / "snap.json"
        snap.write_bytes(_request(port, f"/jobs/{job_id}/snapshot")[2])
        rc = main(["merge", str(snap), "--preset", "sched",
                   "--out", str(tmp_path / "merged.json")])
        assert rc == 0
        # the merge summary goes to stderr; stdout is exactly the report
        assert http_report.decode() == capsys.readouterr().out


class TestUploadedSnapshots:
    def test_upload_query_and_dedupe(self, server, done_job):
        port = server["port"]
        snap = _request(port, f"/jobs/{done_job['id']}/snapshot")[2]
        status, _h, body = _request(
            port, "/snapshots?preset=sched", method="POST", body=snap
        )
        assert status == 202
        digest = json.loads(body)["snapshot"]
        # same rendered report as the job it came from
        _s, _h, report = _request(port, f"/snapshots/{digest}/report")
        assert report == _request(port, f"/jobs/{done_job['id']}/report")[2]
        # re-upload is recognized by content digest
        status, _h, body = _request(
            port, "/snapshots?preset=sched", method="POST", body=snap
        )
        assert status == 200 and json.loads(body)["reused"] is True

    def test_upload_validation(self, server, done_job):
        port = server["port"]
        snap = _request(port, f"/jobs/{done_job['id']}/snapshot")[2]
        status, _h, body = _request(port, "/snapshots", method="POST",
                                    body=snap)
        assert status == 400 and b"needs ?preset=" in body
        status, _h, body = _request(
            port, "/snapshots?preset=weighted", method="POST", body=snap
        )
        assert status == 400 and b"config digest mismatch" in body
        status, _h, body = _request(port, "/snapshots/feed/report")
        assert status == 404 and b"no such snapshot" in body


# -- telemetry + observability -------------------------------------------


class TestTelemetryEndpoints:
    def test_job_telemetry_is_a_run_manifest(self, server, done_job):
        status, _h, manifest = _get_json(
            server["port"], f"/jobs/{done_job['id']}/telemetry"
        )
        assert status == 200
        assert manifest["state"] == "done"
        assert manifest["config"]["job"] == done_job["id"]
        assert manifest["config"]["preset"] == "sched"
        assert manifest["schema"] == 2
        # the counts are the job's stats; the ratios are computed from them
        stats = done_job["events"][-1]["stats"]
        assert manifest["stats"] == stats and stats["folded"] == 4
        fast, fallback = stats["kernel_fast"], stats["kernel_fallback"]
        assert manifest["cache"] == {"hit_ratio": 0.0}
        assert manifest["kernels"] == {"fast_share": fast / (fast + fallback)}
        # the engine phases recorded on the job thread show up
        assert "campaign" in manifest["phases"]
        assert manifest["wall_seconds"] > 0.0

    def test_metrics_aggregates_jobs_and_requests(self, server, done_job):
        port = server["port"]
        status, _h, metrics = _get_json(port, "/metrics")
        assert status == 200
        assert metrics["uptime_seconds"] > 0.0
        # every job has finished, so the counters sum their final stats
        _s, _h, jobs = _get_json(port, "/jobs")
        assert metrics["jobs"]["by_state"] == {"done": len(jobs["jobs"])}
        assert metrics["counters"] == {
            key: sum(job["stats"][key] for job in jobs["jobs"])
            for key in ("batches", "cached", "computed", "errors", "rounds")
        }
        assert metrics["counters"]["computed"] >= 4
        requests = metrics["requests"]
        assert requests["total"] >= 1
        assert requests["by_route"].get("/jobs", 0) >= 1
        # this very request is counted on the next read
        _s, _h, again = _get_json(port, "/metrics")
        assert again["requests"]["total"] > requests["total"]
        assert again["requests"]["by_status"].get("200", 0) > 0

    def test_job_counters_follow_the_run(self):
        """What ``/metrics`` sums per job: nothing before the first delta,
        then the latest delta, then the final stats."""
        from repro.server.jobs import Job, JobConfig

        keys = ("batches", "cached", "computed", "errors", "rounds")
        job = Job(JobConfig("sched", axes=SCHED_JOB["axes"]))
        assert job.counters() is None
        delta = dict(event="scan", folded=1, failed=0, cached=1, computed=0,
                     errors=0, rounds=1, batches=0)
        job._on_delta(delta)
        assert job.counters() == {key: delta[key] for key in keys}
        job.run(default_workers=1)
        assert job.state == "done" and job.stats["computed"] == 4
        assert job.counters() == {key: job.stats[key] for key in keys}

    def test_metrics_rejects_non_get(self, server):
        status, _h, _b = _request(
            server["port"], "/metrics", method="POST", body={}
        )
        assert status == 405


class TestAccessLog:
    def test_requests_land_as_ndjson_records(self):
        import io

        log = io.StringIO()
        srv = ReproServer(workers=1, access_log=log)
        _host, port, stop = srv.start_in_thread()
        try:
            _request(port, "/presets")
            _request(port, "/nope")
            status, _h, body = _request(port, "/jobs", method="POST",
                                        body=SCHED_JOB)
            job_id = json.loads(body)["job"]
            _request(port, f"/jobs/{job_id}")
        finally:
            stop()
        records = [json.loads(l) for l in log.getvalue().splitlines()]
        assert len(records) == 4
        by_path = {r["path"]: r for r in records}
        assert by_path["/presets"]["status"] == 200
        assert by_path["/presets"]["method"] == "GET"
        assert by_path["/nope"]["status"] == 404
        assert by_path["/jobs"]["method"] == "POST"
        assert all(r["duration_ms"] >= 0.0 for r in records)
        # job-scoped requests carry the job digest; others don't
        assert by_path[f"/jobs/{job_id}"]["job"] == job_id
        assert "job" not in by_path["/presets"]

    def test_no_access_log_by_default(self, server, done_job):
        # the module fixture's server has none; just assert the attribute
        assert server["server"]._access_log is None


class TestJobFailureRecorded:
    def test_failed_job_lands_in_record_not_just_process_log(self, server):
        """A campaign that raises must yield state=failed + the error in
        the job record (and the event log), never a stuck 'running'."""
        port = server["port"]
        # ci_width without the adaptive strategy is rejected at submit;
        # to fail *during* run, use a preset point that raises: sched with
        # an axis value outside the validated domain.
        bad = {
            "preset": "sched",
            "axes": {"u_total": [0.5], "n": [0], "rep": [0]},
            "workers": 1,
        }
        status, _h, body = _request(port, "/jobs", method="POST", body=bad)
        if status != 202:
            pytest.skip("submit-time validation caught it first")
        job_id = json.loads(body)["job"]
        events = _stream_events(port, job_id)
        assert events[-1]["type"] == "failed"
        _s, _h, record = _get_json(port, f"/jobs/{job_id}")
        assert record["state"] == "failed"
        assert record["error"]
        # a failed job still serves its telemetry manifest, error included
        _s, _h, manifest = _get_json(port, f"/jobs/{job_id}/telemetry")
        assert manifest["state"] == "failed"
        assert manifest["error"] == record["error"]
