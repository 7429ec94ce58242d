"""The campaign benchmark: preset points/sec end to end, and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload design-sweep --seed 2007 --seconds 25 --trace 0
    python3 perfbench/run.py              # every workload, one process each

Each workload drives a preset of :mod:`repro.runner.presets` (its specs,
aggregator and render) through :func:`repro.runner.stream.stream_campaign`
in this process with ``workers=1``, so the numbers describe the program
rather than the process pool. ``--seed`` is the campaign master seed: the
same seed gives the same task sets, arrivals and faults.

A run sets up once (imports, preset resolution, spec build and a warm-up
on a slice of the grid), then repeats the campaign until ``--seconds``
have elapsed. A pass is timed from the ``stream_campaign`` call to the end
of the preset's ``render``; ``points_per_s`` is the median over passes.
Every pass keeps its results, so each failed point's message is
classified as expected infeasibility (``PartitionError``/``DesignError``)
or a crash, and every pass must reproduce the first pass's aggregate
sha256, error count and report; a pass that does not counts its points as
failed.

Time metrics are scaled to a reference host speed. The host is shared, and
other tenants slow the program by up to ~1.7x for seconds at a time; a
short :func:`probe` that runs no program code samples that slowdown before
and during every pass (from the campaign's ``on_delta`` progress hook, its
own time taken off the pass), and each pass's wall time is divided by the
mean slowdown it saw. The unscaled figures are printed alongside.

``--trace 1`` alternates untraced passes with passes under a
:class:`layers.LayerTimer`, which wraps the layers' entry points from this
file and restores them afterwards, and reports per-layer calls and self
time instead of the end-to-end metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it name every metric with its
unit, including ``failed_ratio`` and ``crash_ratio``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from layers import LayerTimer, Target

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 2007
DEFAULT_SECONDS = 25

#: Error prefixes of expected infeasibility: a result, not a crash.
INFEASIBLE_PREFIXES = ("PartitionError:", "DesignError:")

#: A known defect: FeasibleRegion cannot bracket the region of a task set
#: whose tasks all drew one mode. When the first pass's only crashes are
#: this one, their points are dropped from the grid, so that every measured
#: pass runs crash-free. Any other crash fails the run.
KNOWN_CRASH = "RuntimeError: could not bracket the feasible region"

#: A traced run fails when the top-level layer spans explain less than
#: this share of the traced pass wall time.
MIN_COVERAGE = 0.8

#: Untraced passes per run at least, whatever ``--seconds`` says.
MIN_PASSES = 2

#: Per-point latency samples a traced run collects at least, so that its
#: p95 has ten samples beyond it.
MIN_POINT_SAMPLES = 200

#: Grid points the set-up warm-up evaluates.
WARMUP_POINTS = 16

#: While a pass runs, :func:`probe` samples host speed at most this often,
#: from the campaign's progress hook (after the scan and each batch).
PROBE_GAP_S = 0.25

#: What :func:`probe` takes on the reference host (2-core x86-64 VM,
#: CPython 3.11, NumPy 1.x); time metrics are scaled to that host speed.
PROBE_REFERENCE_S = 0.007

#: Cheap set-up steps (preset resolution, spec build) repeat this often;
#: their median enters ``setup_s``.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    preset: str
    axes: Mapping[str, Any]
    #: Each pass gets a new empty result cache and writes its aggregate
    #: snapshot there, as ``repro campaign --cache-dir`` does.
    cache: bool = False


WORKLOADS: dict[str, Workload] = {
    "design-sweep": Workload("weighted", {"rep": list(range(40))}, cache=True),
    "fault-sim": Workload(
        "faultspace",
        {"u_total": [0.8], "cycles": [100], "rep": list(range(15))},
    ),
    "online-admit": Workload("online", {"rep": list(range(14))}),
}


def _admitted(decision: Any) -> bool:
    return bool(decision.admitted)


def _hit(result: Any) -> bool:
    return result is not None


#: The layers' public entry points. Module functions are patched in the
#: namespace that calls them (bound there at import).
TARGETS = (
    Target("generators.generate", "repro.runner.points", "generate_mixed_taskset"),
    Target("partition.partition_by_modes", "repro.runner.points", "partition_by_modes"),
    Target("core.design_platform", "repro.runner.points", "design_platform"),
    Target("core.region.init", "repro.core.region:FeasibleRegion", "__init__"),
    Target("core.minq.curve_build", "repro.core.minq:QuantumCurve", "__init__"),
    Target("core.minq.evaluate", "repro.core.minq:QuantumCurve", "evaluate"),
    Target(
        "core.admission.try_admit",
        "repro.core.admission:AdmissionController",
        "try_admit",
        outcome=_admitted,
    ),
    Target("core.admission.remove", "repro.core.admission:AdmissionController", "remove"),
    Target("sim.online.run", "repro.sim.online:OnlineSim", "run"),
    Target("sim.multicore.run", "repro.sim.multicore:MulticoreSim", "run"),
    Target("sim.uniproc.simulate", "repro.sim.multicore", "simulate_uniproc"),
    Target("runner.cache.get", "repro.runner.cache:ResultCache", "get", outcome=_hit),
    Target("runner.cache.put_many", "repro.runner.cache:ResultCache", "put_many"),
    Target("runner.aggregate.fold", "repro.runner.aggregate:Aggregator", "fold"),
    Target("runner.stream.save_snapshot", "repro.runner.stream", "save_snapshot"),
    Target("runner.point", "repro.runner.engine", "evaluate_point", sample=True),
)

#: Per-layer metrics each traced pass reports: (layer, stat fields).
LAYER_FIELDS = (
    ("generators.generate", ("calls", "self_s")),
    ("partition.partition_by_modes", ("calls", "self_s")),
    ("core.design_platform", ("calls", "self_s", "incl_s")),
    ("core.region.init", ("calls", "self_s")),
    ("core.minq.curve_build", ("calls", "self_s")),
    ("core.minq.evaluate", ("calls", "self_s")),
    ("core.admission.try_admit", ("calls", "self_s", "incl_s")),
    ("core.admission.remove", ("calls", "incl_s")),
    ("sim.online.run", ("calls", "self_s", "incl_s")),
    ("sim.multicore.run", ("calls", "self_s", "incl_s")),
    ("sim.uniproc.simulate", ("calls", "self_s")),
    ("runner.cache.get", ("calls", "self_s")),
    ("runner.cache.put_many", ("calls", "self_s")),
    ("runner.aggregate.fold", ("calls", "self_s")),
    ("runner.stream.save_snapshot", ("calls", "self_s")),
    ("reporting.render", ("self_s",)),
)
RENDER_LAYER = "reporting.render"



# -- host speed ----------------------------------------------------------------


def probe() -> float:
    """Seconds a fixed slice of interpreter and NumPy work takes (~7 ms).

    It runs no program code, so a change to the program cannot move it,
    and it slows down with the host.
    """
    import numpy as np

    # Buffers are allocated before timing: a large temporary would make
    # the probe's speed depend on the allocator's state in this process.
    points = np.linspace(1.0, 50.0, 400)[:, None]
    periods = np.linspace(0.5, 5.0, 64)[None, :]
    grid = np.empty((400, 64))
    best = np.empty(64)
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(24000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    for _ in range(60):
        np.subtract(points, periods, out=grid)
        np.maximum(grid, 0.0, out=grid)
        grid.max(axis=0, out=best)
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples taken just before and during one pass.

    :meth:`during` is the pass's ``stream_campaign(on_delta=...)`` observer;
    the probe time spent there (:attr:`spent`) is taken off the pass wall.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -float("inf")

    def take(self) -> float:
        seconds = probe()
        self.samples.append(seconds)
        self._last = time.perf_counter()
        return seconds

    def during(self, _counters: Mapping[str, Any]) -> None:
        if time.perf_counter() - self._last >= PROBE_GAP_S:
            self.spent += self.take()

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this pass ran."""
        return statistics.fmean(self.samples) / PROBE_REFERENCE_S


# -- set-up --------------------------------------------------------------------


def import_program() -> float:
    """Import the program from ``src``; returns the seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro.runner.presets  # noqa: F401
    import repro.runner.stream  # noqa: F401

    return time.perf_counter() - start


@dataclass
class Setup:
    workload: Workload
    work: Path
    preset: Any
    specs: list
    points: int
    master_seed: int
    #: Unscaled set-up seconds: imports, preset resolution, spec build
    #: and warm-up.
    seconds: float
    #: Passes run so far; names each pass's scratch directory.
    passes: int = 0


@dataclass
class Pass:
    #: Seconds of the pass, probe time excluded.
    wall: float
    #: Host slowdown against the reference host while the pass ran.
    slowdown: float
    digest: str
    errors: int
    #: Point digest -> message of every failure that is not infeasibility.
    crashes: dict[str, str]
    report: str
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-point evaluation times of a traced pass, in seconds.
    samples: list[float] = field(default_factory=list)

    def same_output(self, other: "Pass") -> bool:
        return (self.digest, self.errors, self.report) == (
            other.digest, other.errors, other.report
        )


def _classify(results: list, specs: list) -> tuple[int, dict[str, str]]:
    """(failed points, crashes by point digest) of a collected pass."""
    errors: dict[str, str] = {}
    for spec, result in zip(specs, results):
        if isinstance(result, dict) and "error" in result:
            errors[spec.digest] = str(result["error"])
    crashes = {
        digest: error
        for digest, error in errors.items()
        if not error.startswith(INFEASIBLE_PREFIXES)
    }
    return len(errors), crashes


def set_up(workload: Workload, work: Path, seed: int) -> Setup:
    import_s = import_program()
    from repro.runner.presets import get_preset
    from repro.runner.stream import stream_campaign

    resolve_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        preset = get_preset(workload.preset)
        specs = preset.specs(workload.axes)
        preset.aggregator()
        resolve_s.append(time.perf_counter() - start)

    # Lazy imports, first NumPy calls and the render path, on a slice of
    # the grid under another master seed (no measured result is reused).
    start = time.perf_counter()
    aggregator = preset.aggregator()
    stream_campaign(
        specs[:WARMUP_POINTS],
        aggregator,
        workers=1,
        master_seed=seed + 1,
        on_error="store",
    )
    preset.render(aggregator)
    warm_up_s = time.perf_counter() - start
    return Setup(
        workload=workload,
        work=work,
        preset=preset,
        specs=specs,
        points=len({spec.digest for spec in specs}),
        master_seed=seed,
        seconds=import_s + statistics.median(resolve_s) + warm_up_s,
    )


def reference_pass(setup: Setup) -> Pass:
    """The first measured pass; every later pass must reproduce its output."""
    reference = run_pass(setup)
    known = {d for d, e in reference.crashes.items() if e.startswith(KNOWN_CRASH)}
    if known and len(known) == len(reference.crashes):
        print(
            f"  note: {len(known)} point(s) dropped, they hit a known defect: "
            f"{next(iter(reference.crashes.values()))}"
        )
        setup.specs = [spec for spec in setup.specs if spec.digest not in known]
        setup.points -= len(known)
        reference = run_pass(setup)
    return reference


# -- passes --------------------------------------------------------------------


def run_pass(setup: Setup, timer: "LayerTimer | None" = None) -> Pass:
    """One timed campaign: ``stream_campaign`` plus the preset's render."""
    from repro.runner.stream import stream_campaign

    setup.passes += 1
    cache_dir = state_path = None
    if setup.workload.cache:
        cache_dir = setup.work / f"cache-{setup.passes}"
        state_path = cache_dir / "aggregates" / "snapshot.json"
    preset = setup.preset
    aggregator = preset.aggregator()
    gc.collect()
    host = HostSpeed()
    host.take()
    start = time.perf_counter()
    streamed = stream_campaign(
        setup.specs,
        aggregator,
        workers=1,
        master_seed=setup.master_seed,
        cache_dir=cache_dir,
        state_path=state_path,
        collect=True,
        on_error=preset.on_error,
        on_delta=host.during,
    )
    if timer is None:
        report = preset.render(aggregator) or ""
    else:
        with timer.span(RENDER_LAYER):
            report = preset.render(aggregator) or ""
    wall = time.perf_counter() - start - host.spent
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
    errors, crashes = _classify(streamed.results, streamed.specs)
    digest = hashlib.sha256(streamed.aggregate_json().encode("utf-8")).hexdigest()
    return Pass(wall, host.slowdown, digest, errors, crashes, report)


def traced_pass(setup: Setup) -> Pass:
    from repro.analysis import kernels

    timer = LayerTimer(TARGETS)
    before = kernels.kernel_counters()
    with timer:
        result = run_pass(setup, timer)
    kdelta = kernels.counters_delta(before)
    result.metrics = {
        key: value / result.slowdown if _unit(key) == "s" else value
        for key, value in layer_metrics(timer, kdelta, result.wall).items()
    }
    result.samples = [s / result.slowdown for s in timer.samples["runner.point"]]
    return result


def layer_metrics(
    timer: LayerTimer, kernel_delta: Mapping[str, int], wall: float
) -> dict[str, float]:
    """One traced pass's per-layer numbers (keys are metric names)."""
    stats = timer.stats
    out: dict[str, float] = {}
    for layer, fields in LAYER_FIELDS:
        for name in fields:
            out[f"{layer}.{name}"] = getattr(stats[layer], name)
    admit, remove = stats["core.admission.try_admit"], stats["core.admission.remove"]
    decisions = admit.calls + remove.calls
    in_admission = (
        timer.within["core.admission.try_admit", "core.minq.curve_build"]
        + timer.within["core.admission.remove", "core.minq.curve_build"]
    )
    gets = stats["runner.cache.get"]
    selections = sum(kernel_delta.values())
    out["core.admission.accept_ratio"] = admit.ok / admit.calls if admit.calls else 0.0
    out["core.admission.curves_per_decision"] = (
        in_admission / decisions if decisions else 0.0
    )
    out["analysis.kernels.fast_share"] = (
        kernel_delta.get("fast", 0) / selections if selections else 0.0
    )
    out["runner.cache.hit_ratio"] = gets.ok / gets.calls if gets.calls else 0.0
    out["trace.coverage"] = timer.top_s / wall
    return out


# -- a run ---------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _unit(name: str) -> str:
    """Unit of a traced per-pass metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": "count",
        "self_s": "s",
        "incl_s": "s",
        "curves_per_decision": "curves/decision",
    }.get(suffix, "ratio")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = set_up(workload, work, seed)
        reference = reference_pass(setup)
        plain = [reference]
        traced: list[Pass] = []
        last = reference
        deadline = time.perf_counter() + seconds - reference.wall
        while True:
            if trace:
                enough = sum(len(p.samples) for p in traced) >= MIN_POINT_SAMPLES
            else:
                enough = len(plain) >= MIN_PASSES
            # Stop once another pass would end past the deadline by more
            # than half its length.
            if enough and time.perf_counter() + last.wall / 2 >= deadline:
                break
            if trace and len(traced) < len(plain):
                last = traced_pass(setup)
                traced.append(last)
            else:
                last = run_pass(setup)
                plain.append(last)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return report(name, seed, setup, reference, plain, traced, trace)


def report(
    name: str,
    seed: int,
    setup: Setup,
    reference: Pass,
    plain: list[Pass],
    traced: list[Pass],
    trace: bool,
) -> dict[str, Any]:
    points = setup.points
    passes = plain + traced
    mismatched = [p for p in passes if not p.same_output(reference)]
    attempted = points * len(passes)
    failed = min(
        attempted,
        sum(len(p.crashes) for p in passes) + points * len(mismatched),
    )
    problems = [f"{len(mismatched)} pass(es) differ from the reference"] if mismatched else []
    if reference.crashes:
        problems.append(
            f"{len(reference.crashes)} point(s) crashed: "
            f"{next(iter(reference.crashes.values()))}"
        )
    if not reference.report:
        problems.append("the preset rendered an empty report")

    raw_pps = statistics.median(points / p.wall for p in plain)
    pps = statistics.median(points * p.slowdown / p.wall for p in plain)
    slowdown = statistics.median(p.slowdown for p in passes)
    print(
        f"{name}: seed={seed} points={points} "
        f"passes={len(plain)}+{len(traced)} traced "
        f"aggregate_sha256={reference.digest}"
    )
    print(
        f"  host slowdown {slowdown:.4f}; unscaled points_per_s {raw_pps:.6g}, "
        f"setup_s {setup.seconds:.6g}"
    )
    failed_ratio = reference.errors / points
    crash_ratio = len(reference.crashes) / points
    summary = {
        "points_per_s": (pps, "points/s"),
        "setup_s": (setup.seconds / slowdown, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    shown = {
        **summary,
        "failed_ratio": (failed_ratio, "fraction"),
        "crash_ratio": (crash_ratio, "fraction"),
    }
    if trace:
        metrics, trace_problems = traced_report(plain, traced)
        problems += trace_problems
        metrics["campaign.failed_ratio"] = {"value": failed_ratio, "unit": "fraction"}
        metrics["campaign.crash_ratio"] = {"value": crash_ratio, "unit": "fraction"}
        shown.update((k, (m["value"], m["unit"])) for k, m in metrics.items())
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
    for key, (value, unit) in shown.items():
        print(f"  {key} = {value:.6g} {unit}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_report(
    plain: list[Pass], traced: list[Pass]
) -> tuple[dict[str, dict[str, Any]], list[str]]:
    problems: list[str] = []
    samples = [s for p in traced for s in p.samples]
    exact = [
        key for key in traced[0].metrics
        if _unit(key) != "s" and key != "trace.coverage"
    ]
    for key in exact:
        values = {p.metrics[key] for p in traced}
        if len(values) > 1:
            problems.append(f"{key} differs between traced passes: {sorted(values)}")
    metrics: dict[str, dict[str, Any]] = {}
    for key in traced[0].metrics:
        values = [p.metrics[key] for p in traced]
        value = values[0] if key in exact else statistics.median(values)
        metrics[key] = {"value": value, "unit": _unit(key)}
    coverage = metrics["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        problems.append(f"trace.coverage {coverage:.3f} is below {MIN_COVERAGE}")
    metrics["runner.point.p50_ms"] = {"value": 1e3 * _quantile(samples, 0.5), "unit": "ms"}
    metrics["runner.point.p95_ms"] = {"value": 1e3 * _quantile(samples, 0.95), "unit": "ms"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(p.wall / p.slowdown for p in traced)
        / statistics.median(p.wall / p.slowdown for p in plain),
        "unit": "ratio",
    }
    return metrics, problems


# -- entry point ---------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # One process per workload keeps import time and peak memory apart.
        status = 0
        for name in WORKLOADS:
            child = subprocess.run(
                [
                    sys.executable, __file__, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                check=False,
            )
            status = status or child.returncode
        return status

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
