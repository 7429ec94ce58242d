"""Telemetry overhead and byte-identity: the recorder must be free when off
and cheap when on.

Runs the same schedulability sweep repeatedly with telemetry off and on
(with a trace sink attached, interleaved so machine drift hits both sides
equally) and checks the contract the subsystem is built around:

* **byte identity**: the aggregate JSON with telemetry on is bit-identical
  to the runs with it off (exit 2 on divergence — never acceptable);
* **overhead**: the recorder's work in one telemetry-on sweep is within
  ``--max-overhead`` (default 3%) of the fastest timed sweep, off or on
  (the least disturbed run; an on sweep only adds the recorder's work).
  That work is priced, not timed: one extra sweep counts the recorder's
  calls by kind (:data:`KINDS`), and a tight loop over the real recorder
  prices one call of each kind (the best of several blocks). Calls repeat
  exactly and loop minima barely move, where a ratio of two 0.1 s
  wall-clock sweeps moved by tens of percent on a shared host. The
  disabled path's own cost (a thread-local read per call) is not
  subtracted, so the estimate errs high. Work a caller does only to feed
  the recorder is outside the model; the wall-clock ratio, printed next
  to it, is not gated;
* **coverage**: the recorded trace's root span covers >= 95% of measured
  wall time, so ``repro profile`` output is trustworthy.

Standalone on purpose (no pytest-benchmark dependency), so CI can run it
as a smoke step:

    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke

The sweep runs inline (``workers=1``) because that is the worst case for
recorder overhead: every span lands on the measured thread, with no pool
IPC to hide behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path

from repro import telemetry
from repro.runner import Aggregator, grid_specs, mean_metric, stream_campaign
from repro.telemetry import Telemetry, TraceSink, load_trace

from bench_util import write_bench_json

#: A representative point: one schedulability evaluation (generate,
#: partition, slot design) — the workload real campaigns spend their time
#: on, so the measured overhead is the overhead users actually pay.
SCHED_AXES = {"u_total": [0.6, 1.2], "n": [6]}


def run_once(points: int) -> tuple[float, str]:
    """One inline sweep; returns (elapsed seconds, aggregate bytes)."""
    reps = max(1, points // len(SCHED_AXES["u_total"]))
    specs = grid_specs(
        "schedulability", {**SCHED_AXES, "rep": list(range(reps))}
    )
    aggregator = Aggregator([mean_metric("feasible", "feasible")])
    start = time.perf_counter()
    result = stream_campaign(specs, aggregator, workers=1)
    elapsed = time.perf_counter() - start
    return elapsed, result.aggregate_json()


#: What one recorder call of each kind is: spans into the trace sink and
#: into a per-batch collector, the engine's per-point collector swap, and a
#: collector's creation, export and absorption.
KINDS = ("sink_span", "span", "activate", "new", "export", "absorb")

CALLS: Counter = Counter()


class CountingTelemetry(Telemetry):
    """A recorder that tallies its own calls in :data:`CALLS`."""

    #: What the sweep's last per-batch collector exported.
    last_export: "dict | None" = None

    def __init__(self, sink: "TraceSink | None" = None):
        super().__init__(sink)
        CALLS["new"] += 1

    def _finish(self, path, started, duration, attrs) -> None:
        CALLS["span" if self._sink is None else "sink_span"] += 1
        super()._finish(path, started, duration, attrs)

    def export(self):
        CALLS["export"] += 1
        delta = super().export()
        if self._sink is None:
            CountingTelemetry.last_export = delta
        return delta

    def absorb(self, delta, prefix: str = "worker") -> None:
        CALLS["absorb"] += 1
        super().absorb(delta, prefix)


def count_recorder_calls(points: int) -> tuple[Counter, dict]:
    """One telemetry-on sweep's recorder calls by kind, and what one of its
    per-batch collectors exported (to price export and absorption with).

    The engine builds its collectors and swaps them in through the
    ``repro.telemetry`` namespace, so both are counted there.
    """
    real_class, real_activate = telemetry.Telemetry, telemetry.activate

    def counting_activate(recorder):
        CALLS["activate"] += 1
        return real_activate(recorder)

    CALLS.clear()
    sink = TraceSink(os.devnull)
    recorder = CountingTelemetry(sink)
    telemetry.Telemetry, telemetry.activate = CountingTelemetry, counting_activate
    previous = real_activate(recorder)
    try:
        run_once(points)
    finally:
        real_activate(previous)
        telemetry.Telemetry, telemetry.activate = real_class, real_activate
        sink.close()
    assert CountingTelemetry.last_export is not None
    return Counter(CALLS), CountingTelemetry.last_export


def seconds_per_call(op, calls: int = 2000, blocks: int = 5) -> float:
    """The best of ``blocks`` timed loops of ``calls`` calls, per call."""
    best = float("inf")
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(calls):
            op()
        best = min(best, time.perf_counter() - start)
    return best / calls


def one_span() -> None:
    with telemetry.span("point"):
        pass


def price_calls(delta: dict, trace_path: Path) -> dict[str, float]:
    """Seconds per call of each kind in :data:`KINDS`, on the real recorder.

    Export and absorption are priced on a collector holding ``delta``.
    """
    collector, target = Telemetry(), Telemetry()
    collector.absorb(delta, prefix="")
    prices = {
        "new": seconds_per_call(Telemetry),
        "export": seconds_per_call(collector.export),
        "absorb": seconds_per_call(lambda: target.absorb(delta)),
    }
    scratch = Telemetry()
    previous = telemetry.activate(scratch)
    try:
        prices["span"] = seconds_per_call(one_span)
        prices["activate"] = seconds_per_call(lambda: telemetry.activate(scratch))
        sink = TraceSink(trace_path)
        telemetry.activate(Telemetry(sink))
        prices["sink_span"] = seconds_per_call(one_span)
        sink.close()
    finally:
        telemetry.activate(previous)
    trace_path.unlink()
    return prices


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points", type=int, default=300,
        help="points per sweep (default: 300)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N repeats per configuration (default: 3)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast run for CI logs (80 points)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.03, metavar="X",
        help="fail when the priced recorder calls of a telemetry-on sweep "
             "exceed this fraction of the fastest sweep (default: 0.03)",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="keep the recorded trace here (default: a temp dir)",
    )
    args = parser.parse_args(argv)
    points = 80 if args.smoke else args.points

    import tempfile

    trace_dir = (
        Path(args.trace_dir)
        if args.trace_dir
        else Path(tempfile.mkdtemp(prefix="bench_telemetry_"))
    )
    trace_path = trace_dir / "trace.ndjson"

    print(
        f"telemetry overhead — {points} schedulability points, "
        f"inline, best of {args.repeats}"
    )

    # untimed warm-up: imports, numpy caches and allocator pools all land
    # on this run instead of skewing the first measured off-run
    run_once(points)

    off_times: list[float] = []
    on_times: list[float] = []
    baseline_agg: str | None = None
    traced_agg: str | None = None
    for rep in range(args.repeats):
        # interleave off/on so machine drift hits both sides equally
        elapsed, agg = run_once(points)
        off_times.append(elapsed)
        if baseline_agg is None:
            baseline_agg = agg
        elif agg != baseline_agg:
            print("FATAL: telemetry-off reruns diverged (broken determinism)")
            return 2

        sink = TraceSink(trace_path, bench="telemetry", points=points)
        recorder = Telemetry(sink)
        previous = telemetry.activate(recorder)
        try:
            elapsed, agg = run_once(points)
        finally:
            telemetry.activate(previous)
            sink.close(recorder)
        on_times.append(elapsed)
        traced_agg = agg
        if agg != baseline_agg:
            print("FATAL: telemetry changed the aggregate bytes")
            return 2
        print(
            f"  rep {rep}: off {off_times[-1]:.3f}s / on {on_times[-1]:.3f}s"
        )

    best_off, best_on = min(off_times), min(on_times)
    wall_overhead = best_on / best_off - 1.0
    print(
        f"best off {best_off:.3f}s, best on {best_on:.3f}s "
        f"-> wall clock {wall_overhead * 100:+.2f}% (not gated)"
    )
    print("aggregates bit-identical with telemetry on and off")

    calls, delta = count_recorder_calls(points)
    prices = price_calls(delta, trace_dir / "priced.ndjson")
    print("recorder calls in one telemetry-on sweep, priced per call:")
    for kind in KINDS:
        print(f"  {kind:>9} {calls[kind]:>6} x {prices[kind] * 1e9:>7.0f} ns")
    fastest = min(best_off, best_on)
    overhead = sum(calls[k] * prices[k] for k in KINDS) / fastest
    print(f"priced recorder overhead {overhead * 100:+.2f}% of a {fastest:.3f}s sweep")

    profile = load_trace(trace_path)
    coverage = profile.coverage()
    coverage_str = "n/a" if coverage is None else f"{coverage * 100:.1f}%"
    print(f"trace coverage of root span: {coverage_str}")

    write_bench_json(
        "telemetry",
        config={"points": points, "repeats": args.repeats},
        best_off_seconds=round(best_off, 4),
        best_on_seconds=round(best_on, 4),
        wall_overhead_fraction=round(wall_overhead, 4),
        recorder_calls={k: calls[k] for k in KINDS},
        ns_per_call={k: round(prices[k] * 1e9, 1) for k in KINDS},
        overhead_fraction=round(overhead, 4),
        coverage=None if coverage is None else round(coverage, 4),
        aggregates_identical=traced_agg == baseline_agg,
    )

    if coverage is None or coverage < 0.95:
        print(f"FAIL: trace coverage {coverage_str} below 95%")
        return 1
    if overhead > args.max_overhead:
        print(
            f"FAIL: telemetry overhead {overhead * 100:.2f}% exceeds "
            f"{args.max_overhead * 100:.1f}%"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
