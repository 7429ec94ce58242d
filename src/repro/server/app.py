"""The ``repro serve`` application: routes, cache, delta streaming.

Endpoints (all responses canonical JSON unless noted):

====== ================================ =======================================
Method Path                             Answer
====== ================================ =======================================
GET    ``/``                            service banner + endpoint index
GET    ``/presets``                     every registered preset + capabilities
POST   ``/jobs``                        submit (or reuse) a campaign job
GET    ``/jobs``                        all jobs with state + stats
GET    ``/jobs/{id}``                   one job's state + stats
GET    ``/jobs/{id}/deltas[?since=N]``  chunked NDJSON event stream
GET    ``/jobs/{id}/snapshot``          the job's snapshot file, exact bytes
GET    ``/jobs/{id}/report``            rendered report (text/plain)
GET    ``/jobs/{id}/query/{kind}``      typed query (curve/summary/...)
POST   ``/snapshots?preset=P``          upload a snapshot for querying
GET    ``/snapshots/{digest}/report``   rendered report of an upload
GET    ``/snapshots/{digest}/query/..`` typed query over an upload
GET    ``/stats``                       job counts + query-cache hit rates
GET    ``/metrics``                     uptime, request/status counters, and
                                        the jobs' run counters summed
GET    ``/jobs/{id}/telemetry``         the job's run manifest (phases,
                                        stats, cache/kernel ratios)
====== ================================ =======================================

Query and report responses are memoized in a
:class:`~repro.reporting.query.QueryCache` keyed by the aggregate's
*content digest* — the ``X-Cache: hit|miss`` response header is the
observable contract (and what the benchmark measures). A job still
folding changes its digest at every delta, so the cache can never serve a
stale in-flight answer.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, TextIO

from repro.reporting import QueryCache, QueryError, SnapshotQuery
from repro.runner.presets import get_preset, preset_names
from repro.runner.stream import DELTA_COUNTERS
from repro.server.http import (
    ChunkedWriter,
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    response,
)
from repro.server.jobs import Job, JobError, JobManager

#: How often a delta stream re-checks the event log for news. Cadence is a
#: liveness knob only — events are sequenced, so no polling rate can drop
#: or reorder one.
_POLL_SECONDS = 0.05

_QUERY_KINDS = ("summary", "metrics", "report", "curve", "categorical")


class _StatusSniffer:
    """A pass-through writer that remembers the response status line.

    The router writes complete response byte-strings; the first write of a
    response always begins ``HTTP/1.1 NNN``, so observing writes is enough
    to attribute a status to the request without restructuring every
    handler to return one.
    """

    __slots__ = ("_writer", "status")

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self.status: "int | None" = None

    def write(self, data: bytes) -> None:
        if self.status is None and data[:9] == b"HTTP/1.1 ":
            try:
                self.status = int(data[9:12])
            except ValueError:
                pass
        self._writer.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._writer, name)


class ReproServer:
    """One server instance: job manager + uploaded snapshots + query cache."""

    def __init__(
        self,
        *,
        workers: "int | None" = None,
        spool_dir: "str | None" = None,
        access_log: "TextIO | None" = None,
    ):
        self.jobs = JobManager(spool_dir=spool_dir, default_workers=workers)
        self.cache = QueryCache()
        self._snapshots: dict[str, SnapshotQuery] = {}
        self._snapshots_lock = threading.Lock()
        self._access_log = access_log
        self._http_lock = threading.Lock()
        self._started = time.monotonic()
        self._request_total = 0
        self._route_counts: dict[str, int] = {}
        self._status_counts: dict[str, int] = {}

    # -- connection handling ----------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        began = time.perf_counter()
        sniffer = _StatusSniffer(writer)
        request: "Request | None" = None
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, sniffer)
            except asyncio.CancelledError:
                return  # server shutting down mid-request; just close
            except HttpError as exc:
                sniffer.write(error_response(exc.status, str(exc)))
                await writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # client went away mid-stream; nothing to answer
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                try:
                    sniffer.write(
                        error_response(500, f"{type(exc).__name__}: {exc}")
                    )
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                pass
            if request is not None or sniffer.status is not None:
                self._account(
                    request, sniffer.status, time.perf_counter() - began
                )

    def _account(
        self,
        request: "Request | None",
        status: "int | None",
        duration: float,
    ) -> None:
        """Count the request and append one NDJSON access-log record."""
        if request is not None:
            route = "/" + (request.parts[0] if request.parts else "")
        else:
            route = "-"  # the request head never parsed
        with self._http_lock:
            self._request_total += 1
            self._route_counts[route] = self._route_counts.get(route, 0) + 1
            status_key = str(status) if status is not None else "aborted"
            self._status_counts[status_key] = (
                self._status_counts.get(status_key, 0) + 1
            )
        if self._access_log is None:
            return
        record: dict[str, Any] = {
            "type": "access",
            "time": round(time.time(), 3),
            "method": request.method if request is not None else "-",
            "path": request.path if request is not None else "-",
            "status": status,
            "duration_ms": round(duration * 1000.0, 3),
        }
        if request is not None and request.job is not None:
            record["job"] = request.job
        self._log(record)

    def _log(self, record: dict[str, Any]) -> None:
        if self._access_log is None:
            return
        try:
            with self._http_lock:
                self._access_log.write(
                    json.dumps(record, sort_keys=True) + "\n"
                )
                self._access_log.flush()
        except (OSError, ValueError):
            pass  # a dead log stream must never take a response down

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        parts = request.parts
        if not parts:
            writer.write(self._index(request))
        elif parts == ["presets"]:
            writer.write(self._presets(request))
        elif parts == ["stats"]:
            writer.write(self._stats(request))
        elif parts == ["metrics"]:
            writer.write(self._metrics(request))
        elif parts == ["jobs"]:
            if request.method == "POST":
                writer.write(self._submit(request))
            elif request.method == "GET":
                writer.write(json_response(200, {"jobs": self.jobs.list()}))
            else:
                raise HttpError(405, f"{request.method} not allowed on /jobs")
        elif parts[0] == "jobs":
            await self._job_routes(request, parts[1:], writer)
        elif parts[0] == "snapshots":
            writer.write(self._snapshot_routes(request, parts[1:]))
        else:
            raise HttpError(404, f"no such endpoint: {request.path}")
        await writer.drain()

    # -- flat endpoints ----------------------------------------------------

    def _index(self, request: Request) -> bytes:
        self._need(request, "GET")
        return json_response(
            200,
            {
                "service": "repro serve",
                "presets": list(preset_names()),
                "endpoints": [
                    "GET /presets",
                    "POST /jobs",
                    "GET /jobs",
                    "GET /jobs/{id}",
                    "GET /jobs/{id}/deltas?since=N",
                    "GET /jobs/{id}/snapshot",
                    "GET /jobs/{id}/report",
                    "GET /jobs/{id}/query/{kind}",
                    "GET /jobs/{id}/telemetry",
                    "POST /snapshots?preset=P",
                    "GET /snapshots/{digest}/report",
                    "GET /snapshots/{digest}/query/{kind}",
                    "GET /stats",
                    "GET /metrics",
                ],
            },
        )

    def _presets(self, request: Request) -> bytes:
        self._need(request, "GET")
        records = []
        for name in preset_names():
            preset = get_preset(name)
            records.append(
                {
                    "name": preset.name,
                    "description": preset.description,
                    "axis_overridable": preset.axis_overridable,
                    "adaptive": preset.adaptive,
                    "store_errors": preset.store_errors,
                    "scenario_axis": preset.scenario_axis,
                    "row_rendered": preset.row_rendered,
                    "curve_metrics": sorted(preset.curve_axes),
                }
            )
        return json_response(200, {"presets": records})

    def _stats(self, request: Request) -> bytes:
        self._need(request, "GET")
        jobs = self.jobs.list()
        by_state: dict[str, int] = {}
        for job in jobs:
            by_state[job["state"]] = by_state.get(job["state"], 0) + 1
        with self._snapshots_lock:
            uploads = len(self._snapshots)
        return json_response(
            200,
            {
                "jobs": {"total": len(jobs), "by_state": by_state},
                "snapshots": uploads,
                "query_cache": self.cache.stats(),
            },
        )

    def _metrics(self, request: Request) -> bytes:
        """Operational counters: HTTP traffic, job states, query cache,
        and every job's run record (:meth:`Job.counters`) summed."""
        self._need(request, "GET")
        jobs = self.jobs.all()
        by_state: dict[str, int] = {}
        counters = dict.fromkeys(DELTA_COUNTERS, 0)
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
            for name, value in (job.counters() or {}).items():
                counters[name] += value
        with self._http_lock:
            requests = {
                "total": self._request_total,
                "by_route": dict(sorted(self._route_counts.items())),
                "by_status": dict(sorted(self._status_counts.items())),
            }
        return json_response(
            200,
            {
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "requests": requests,
                "jobs": {"total": len(jobs), "by_state": by_state},
                "query_cache": self.cache.stats(),
                "counters": counters,
            },
        )

    def _submit(self, request: Request) -> bytes:
        try:
            job, reused = self.jobs.submit(request.json())
        except JobError as exc:
            raise HttpError(400, str(exc))
        return json_response(
            202 if not reused else 200,
            {"job": job.id, "reused": reused, "state": job.state},
        )

    # -- job endpoints -----------------------------------------------------

    async def _job_routes(
        self, request: Request, rest: list[str], writer: asyncio.StreamWriter
    ) -> None:
        if not rest:
            raise HttpError(404, "missing job id")
        job = self.jobs.get(rest[0])
        if job is None:
            raise HttpError(404, f"no such job: {rest[0]!r}")
        request.job = job.id  # attribute the access-log record
        sub = rest[1:]
        if not sub:
            self._need(request, "GET")
            writer.write(json_response(200, job.describe()))
        elif sub == ["deltas"]:
            self._need(request, "GET")
            await self._stream_deltas(request, job, writer)
        elif sub == ["snapshot"]:
            self._need(request, "GET")
            writer.write(self._job_snapshot(job))
        elif sub == ["report"]:
            self._need(request, "GET")
            writer.write(self._answer(job.query(), "report"))
        elif sub == ["telemetry"]:
            self._need(request, "GET")
            manifest = job.telemetry_manifest()
            if manifest is None:
                raise HttpError(
                    409,
                    f"job {job.id[:16]} is {job.state}; no telemetry yet",
                )
            writer.write(json_response(200, manifest))
        elif len(sub) == 2 and sub[0] == "query":
            self._need(request, "GET")
            writer.write(
                self._answer(
                    job.query(),
                    sub[1],
                    metric=request.query.get("metric"),
                    axis=request.query.get("axis"),
                )
            )
        else:
            raise HttpError(404, f"no such endpoint: {request.path}")

    async def _stream_deltas(
        self, request: Request, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """Replayable NDJSON event stream: every event from ``since`` on,
        then live events until the job's terminal event, then EOF."""
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            raise HttpError(400, f"bad since={request.query['since']!r}")
        stream = ChunkedWriter(writer)
        await stream.start()
        next_seq = since
        while True:
            events = job.events_since(next_seq)
            for event in events:
                await stream.send(event)
                next_seq = event["seq"] + 1
                if event["type"] in ("complete", "failed"):
                    await stream.finish()
                    return
            if job.finished and not job.events_since(next_seq):
                # Terminal event was before `since`; close instead of
                # waiting forever for events that will never come.
                await stream.finish()
                return
            await asyncio.sleep(_POLL_SECONDS)

    def _job_snapshot(self, job: Job) -> bytes:
        if job.state_path is None:
            raise HttpError(
                404,
                f"job {job.id[:16]} has no snapshot (server started "
                f"without --spool-dir)",
            )
        if not job.finished:
            raise HttpError(
                409, f"job {job.id[:16]} is {job.state}; snapshot not final"
            )
        try:
            body = job.state_path.read_bytes()
        except OSError:
            raise HttpError(404, f"job {job.id[:16]} wrote no snapshot")
        return response(200, body, "application/json")

    # -- uploaded snapshots ------------------------------------------------

    def _snapshot_routes(self, request: Request, rest: list[str]) -> bytes:
        if not rest:
            self._need(request, "POST")
            return self._upload(request)
        with self._snapshots_lock:
            query = self._snapshots.get(rest[0])
            if query is None:
                matches = [
                    q
                    for d, q in self._snapshots.items()
                    if d.startswith(rest[0])
                ]
                query = matches[0] if len(matches) == 1 else None
        if query is None:
            raise HttpError(404, f"no such snapshot: {rest[0]!r}")
        sub = rest[1:]
        self._need(request, "GET")
        if sub == ["report"]:
            return self._answer(query, "report")
        if len(sub) == 2 and sub[0] == "query":
            return self._answer(
                query,
                sub[1],
                metric=request.query.get("metric"),
                axis=request.query.get("axis"),
            )
        raise HttpError(404, f"no such endpoint: {request.path}")

    def _upload(self, request: Request) -> bytes:
        preset = request.query.get("preset")
        if not preset:
            raise HttpError(400, "upload needs ?preset=<name>")
        try:
            query = SnapshotQuery.from_snapshot(
                request.json(), preset, where="uploaded snapshot"
            )
        except (QueryError, ValueError) as exc:
            raise HttpError(400, str(exc))
        digest = query.content_digest
        with self._snapshots_lock:
            reused = digest in self._snapshots
            self._snapshots[digest] = query
        return json_response(
            200 if reused else 202,
            {"snapshot": digest, "preset": preset, "reused": reused},
        )

    # -- shared query answering -------------------------------------------

    def _answer(self, query: SnapshotQuery, kind: str, **params: Any) -> bytes:
        """Answer one typed query, through the content-addressed cache."""
        if kind not in _QUERY_KINDS:
            raise HttpError(
                404, f"unknown query kind {kind!r}; known: "
                f"{'/'.join(_QUERY_KINDS)}"
            )
        key = QueryCache.key(query.content_digest, kind, **params)
        cached = self.cache.get(key)
        if cached is not None:
            return self._wrap(kind, cached, "hit")
        try:
            answer = query.query(kind, **params)
        except QueryError as exc:
            raise HttpError(400, str(exc))
        if kind == "report":
            body = (answer + "\n").encode("utf-8")
        else:
            from repro.runner.spec import canonical_json

            body = (canonical_json(answer) + "\n").encode("utf-8")
        self.cache.put(key, body)
        return self._wrap(kind, body, "miss")

    @staticmethod
    def _wrap(kind: str, body: bytes, cache_state: str) -> bytes:
        content_type = (
            "text/plain; charset=utf-8" if kind == "report"
            else "application/json"
        )
        return response(
            200, body, content_type, extra_headers={"X-Cache": cache_state}
        )

    @staticmethod
    def _need(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.method} not allowed on {request.path}"
            )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        return await asyncio.start_server(self.handle, host, port)

    async def serve_forever(self, host: str, port: int) -> None:
        server = await self.start(host, port)
        addr = server.sockets[0].getsockname()
        url = f"http://{addr[0]}:{addr[1]}"
        print(f"[serve] listening on {url}", flush=True)
        self._log(
            {
                "type": "listening",
                "time": round(time.time(), 3),
                "host": addr[0],
                "port": addr[1],
                "url": url,
            }
        )
        async with server:
            await server.serve_forever()

    def start_in_thread(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int, "Any"]:
        """Run the event loop on a daemon thread (tests, benchmarks).

        Returns ``(host, port, stop)`` with the *bound* port (``port=0``
        picks a free one) and an idempotent ``stop()``.
        """
        loop = asyncio.new_event_loop()
        started = threading.Event()
        bound: dict[str, Any] = {}

        async def _run() -> None:
            server = await self.start(host, port)
            bound["server"] = server
            bound["addr"] = server.sockets[0].getsockname()
            started.set()
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass

        def _main() -> None:
            asyncio.set_event_loop(loop)
            task = loop.create_task(_run())
            bound["task"] = task
            try:
                loop.run_forever()
            finally:
                loop.close()

        thread = threading.Thread(
            target=_main, name="repro-serve", daemon=True
        )
        thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("server failed to start within 10s")
        stopped = threading.Event()

        def stop() -> None:
            if stopped.is_set():
                return
            stopped.set()

            async def _shutdown() -> None:
                bound["server"].close()
                await bound["server"].wait_closed()
                tasks = [
                    t
                    for t in asyncio.all_tasks(loop)
                    if t is not asyncio.current_task()
                ]
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                loop.stop()

            loop.call_soon_threadsafe(
                lambda: loop.create_task(_shutdown())
            )
            thread.join(timeout=10)

        addr = bound["addr"]
        return addr[0], addr[1], stop


__all__ = ["ReproServer"]
