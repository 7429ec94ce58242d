"""Campaign jobs for ``repro serve``: submit, dedupe, run, observe.

A job is one campaign request — preset, axes, scenario, seed, strategy,
worker count — normalized into a :class:`JobConfig` whose canonical-JSON
digest *is* the job id. Submitting an identical request therefore never
runs twice: the manager hands back the existing job (finished or still
folding), which is the server-side twin of the CLI's result cache and
snapshot resume.

The campaign itself runs through the unchanged deterministic engine
(:func:`repro.runner.stream.stream_campaign`) on a worker thread; the
``on_delta`` hook publishes monotonically sequenced progress events and a
consistent copy of the aggregate state, so any number of HTTP clients can
replay the event log from any sequence number and query the in-flight
aggregate without racing the folding thread.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Any, Mapping

from repro import telemetry
from repro.reporting import SnapshotQuery
from repro.runner.presets import PresetError, PresetSpec, get_preset
from repro.runner.spec import canonical_json
from repro.runner.stream import DELTA_COUNTERS, stream_campaign
from repro.telemetry import Telemetry, build_manifest


class JobError(ValueError):
    """A job request the server refuses (unknown preset, bad parameters)."""


_STRATEGIES = ("grid", "adaptive")


class JobConfig:
    """One normalized campaign request; its digest is the job identity."""

    def __init__(
        self,
        preset: str,
        *,
        seed: int = 0,
        axes: "Mapping[str, Any] | None" = None,
        scenario: "str | None" = None,
        strategy: str = "grid",
        ci_width: "float | None" = None,
        max_points: "int | None" = None,
        workers: "int | None" = None,
        batch: "int | None" = None,
    ):
        self.preset = preset
        self.seed = int(seed)
        self.axes = dict(axes) if axes else {}
        self.scenario = scenario
        self.strategy = strategy
        self.ci_width = ci_width
        self.max_points = max_points
        self.workers = workers
        self.batch = batch

    @classmethod
    def from_request(cls, payload: Any) -> "JobConfig":
        """Validate a POST /jobs body into a config (400-able errors)."""
        if not isinstance(payload, Mapping):
            raise JobError("job request must be a JSON object")
        known = {
            "preset",
            "seed",
            "axes",
            "scenario",
            "strategy",
            "ci_width",
            "max_points",
            "workers",
            "batch",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobError(
                f"unknown job field(s) {', '.join(map(repr, unknown))}; "
                f"known: {'/'.join(sorted(known))}"
            )
        preset = payload.get("preset")
        if not isinstance(preset, str):
            raise JobError("job request needs a 'preset' name")
        axes = payload.get("axes")
        if axes is not None and not isinstance(axes, Mapping):
            raise JobError("'axes' must be a {name: [values...]} object")
        strategy = payload.get("strategy", "grid")
        if strategy not in _STRATEGIES:
            raise JobError(
                f"unknown strategy {strategy!r}; known: {'/'.join(_STRATEGIES)}"
            )
        for name in ("workers", "batch"):
            value = payload.get(name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise JobError(
                    f"'{name}' must be a positive integer or null: got {value!r}"
                )
        try:
            return cls(
                preset,
                seed=payload.get("seed", 0),
                axes=axes,
                scenario=payload.get("scenario"),
                strategy=strategy,
                ci_width=payload.get("ci_width"),
                max_points=payload.get("max_points"),
                workers=payload.get("workers"),
                batch=payload.get("batch"),
            )
        except (TypeError, ValueError) as exc:
            raise JobError(f"malformed job request: {exc}") from None

    def to_dict(self) -> dict[str, Any]:
        """Canonical payload: defaults omitted, so logically equal requests
        digest identically however sparsely they were spelled."""
        out: dict[str, Any] = {"preset": self.preset, "seed": self.seed}
        if self.axes:
            out["axes"] = self.axes
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.strategy != "grid":
            out["strategy"] = self.strategy
        if self.ci_width is not None:
            out["ci_width"] = self.ci_width
        if self.max_points is not None:
            out["max_points"] = self.max_points
        if self.batch is not None:
            out["batch"] = self.batch
        # workers is deliberately NOT part of the identity: the engine
        # contract makes results bit-identical for any worker count, so two
        # requests differing only in workers are the same campaign.
        return out

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()

    def resolve(self) -> PresetSpec:
        """The preset record, with capability validation (raises JobError)."""
        try:
            preset = get_preset(self.preset)
            preset.check_axes(bool(self.axes))
            preset.check_scenario(self.scenario is not None)
            if self.strategy == "adaptive":
                preset.check_adaptive()
            elif self.ci_width is not None or self.max_points is not None:
                raise JobError(
                    "ci_width/max_points require the adaptive strategy"
                )
        except PresetError as exc:
            raise JobError(str(exc)) from None
        return preset


class Job:
    """One submitted campaign and its observable event log."""

    def __init__(self, config: JobConfig, state_path: "Path | None" = None):
        self.config = config
        self.id = config.digest
        self.state_path = state_path
        self._preset = config.resolve()
        self._aggregator = self._preset.aggregator()
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self.state = "queued"
        self.error: "str | None" = None
        self.stats: "dict[str, Any] | None" = None
        self._latest_state: "dict[str, Any] | None" = None
        self._latest_delta: "Mapping[str, Any] | None" = None
        #: Per-job telemetry recorder, created when the worker thread
        #: starts so wall-clock measures the run, not the queue wait.
        self.recorder: "Telemetry | None" = None
        self._emit({"type": "state", "state": "queued"})

    # -- event log ---------------------------------------------------------

    def _emit(self, event: dict[str, Any]) -> None:
        with self._lock:
            event = {"seq": len(self._events), **event}
            self._events.append(event)

    def events_since(self, since: int = 0) -> list[dict[str, Any]]:
        """Events with ``seq >= since`` (replayable from 0 forever)."""
        with self._lock:
            return list(self._events[max(0, since):])

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    # -- execution (worker thread) ----------------------------------------

    def run(self, default_workers: "int | None" = None) -> None:
        """Execute the campaign; every outcome lands in the event log.

        The *whole* body runs inside the try/except: an exception after
        the campaign itself (stats serialization, aggregate publication)
        must still mark the job ``failed`` in the record instead of
        leaving it stuck "running" with the traceback only in the
        process log.
        """
        config = self.config
        recorder = Telemetry()
        self.recorder = recorder
        previous = telemetry.activate(recorder)
        try:
            source = self._preset.source(
                config.strategy,
                config.axes or None,
                config.scenario,
                ci_width=config.ci_width,
                max_points=config.max_points,
            )
            self.state = "running"
            self._emit({"type": "state", "state": "running"})
            if self.state_path is not None:
                self.state_path.parent.mkdir(parents=True, exist_ok=True)
            streamed = stream_campaign(
                source,
                self._aggregator,
                workers=(
                    config.workers
                    if config.workers is not None
                    else default_workers
                ),
                master_seed=config.seed,
                state_path=self.state_path,
                collect=False,
                on_error=self._preset.on_error,
                batch_size=config.batch,
                on_delta=self._on_delta,
            )
            self.stats = streamed.stats.to_dict()
            with self._lock:
                self._latest_state = self._aggregator.state_dict()
            self.state = "done"
            self._emit({"type": "complete", "stats": self.stats})
        except Exception as exc:  # noqa: BLE001 - the log IS the error channel
            self.error = f"{type(exc).__name__}: {exc}"
            self.state = "failed"
            self._emit({"type": "failed", "error": self.error})
        finally:
            telemetry.activate(previous)

    def _on_delta(self, delta: Mapping[str, Any]) -> None:
        # Runs on the folding thread, between folds, so reading the
        # aggregate here is race-free; queries served from other threads
        # only ever see these published copies.
        state = self._aggregator.state_dict()
        with self._lock:
            self._latest_state = state
            self._latest_delta = delta
        self._emit({"type": "delta", **delta})

    # -- queries (any thread) ---------------------------------------------

    def query(self) -> SnapshotQuery:
        """A query view of the newest consistent aggregate state."""
        if self.state == "done":
            return SnapshotQuery.from_aggregator(self._preset, self._aggregator)
        with self._lock:
            latest = self._latest_state
        aggregator = self._preset.aggregator()
        if latest is not None:
            aggregator.load_state(latest)
        return SnapshotQuery.from_aggregator(self._preset, aggregator)

    def counters(self) -> "dict[str, int] | None":
        """This job's run record: its final stats once it has them, else
        its latest delta (None before the first delta)."""
        with self._lock:
            record = self.stats if self.stats is not None else self._latest_delta
        if record is None:
            return None
        return {key: record[key] for key in DELTA_COUNTERS}

    def telemetry_manifest(self) -> "dict[str, Any] | None":
        """A run-manifest view of this job (None before the run starts)."""
        recorder = self.recorder
        if recorder is None:
            return None
        manifest = build_manifest(
            recorder,
            stats=self.stats,
            config={"job": self.id, **self.config.to_dict()},
            error=self.error,
        )
        manifest["state"] = self.state
        return manifest

    def describe(self) -> dict[str, Any]:
        with self._lock:
            events = len(self._events)
        out: dict[str, Any] = {
            "job": self.id,
            "preset": self.config.preset,
            "config": self.config.to_dict(),
            "state": self.state,
            "events": events,
        }
        if self.stats is not None:
            out["stats"] = self.stats
        if self.error is not None:
            out["error"] = self.error
        return out


class JobManager:
    """Submit-or-reuse job registry running campaigns on worker threads."""

    def __init__(
        self,
        *,
        spool_dir: "str | Path | None" = None,
        default_workers: "int | None" = None,
    ):
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.default_workers = default_workers
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}

    def submit(self, payload: Any) -> tuple[Job, bool]:
        """Create (or reuse) the job for a request; returns (job, reused)."""
        config = JobConfig.from_request(payload)
        config.resolve()  # validate before taking the registry lock
        with self._lock:
            existing = self._jobs.get(config.digest)
            if existing is not None:
                return existing, True
            state_path = None
            if self.spool_dir is not None:
                state_path = (
                    self.spool_dir / "jobs" / f"{config.digest[:16]}.json"
                )
            job = Job(config, state_path)
            self._jobs[job.id] = job
        thread = threading.Thread(
            target=job.run,
            args=(self.default_workers,),
            name=f"repro-job-{job.id[:8]}",
            daemon=True,
        )
        thread.start()
        return job, False

    def get(self, job_id: str) -> "Job | None":
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            # Accept unambiguous id prefixes (the spool files use 16 chars).
            matches = [
                j for d, j in self._jobs.items() if d.startswith(job_id)
            ]
            return matches[0] if len(matches) == 1 else None

    def all(self) -> list[Job]:
        """Every registered job object, newest submission last."""
        with self._lock:
            return list(self._jobs.values())

    def list(self) -> list[dict[str, Any]]:
        return [job.describe() for job in self.all()]


__all__ = ["Job", "JobConfig", "JobError", "JobManager"]
