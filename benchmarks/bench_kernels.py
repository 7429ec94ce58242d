"""Fast-kernel analysis throughput: integer kernels vs the float path.

The integer kernels (``repro.analysis.kernels``) rescale a task set to an
exact integer timebase and run demand and minQ analysis in vectorised int64
arithmetic instead of scalar float loops. This script measures the analysis
throughput they buy on weighted-preset-shaped task sets (mixed modes,
hyperperiod-limited periods): per set one full pass of

* ``edf_schedulable_dedicated`` (Theorem-2 walk over the deadline set),
* ``QuantumCurve(ts, "EDF").evaluate`` over a 4001-point period grid
  (the Figure-4 style minQ sweep),

timed once with the kernels forced on and once forced off. The exactness
gate runs unconditionally: every verdict, every ``points_checked`` count
and every minQ curve must be *bit-identical* between the two passes, or the
script exits non-zero — the kernels are only allowed to be faster, never
different.

Standalone on purpose (no pytest-benchmark dependency), so CI can run it as
a smoke step and the throughput table lands in the job log:

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke

``--smoke`` additionally streams a shrunk ``weighted`` campaign with the
kernels on and off, asserting byte-identical campaign JSON and a fast-path
share of at least 90% of computed points. The speedup gate is opt-in
because wall-clock ratios flake on loaded shared runners; run it locally
(``--min-speedup 10`` is the acceptance bar) rather than in CI.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.analysis import edf_schedulable_dedicated, kernels
from repro.core import QuantumCurve
from repro.experiments.weighted import weighted_aggregator, weighted_specs
from repro.generators import generate_mixed_taskset
from repro.runner import stream_campaign

from bench_util import write_bench_json

#: minQ period grid of the per-set pass (Figure-4 style sweep).
PERIOD_GRID = np.linspace(0.5, 200.0, 4001)

#: Shrunk weighted-preset axes for the --smoke campaign comparison.
SMOKE_SCHED_AXES = {
    "u_total": [0.4, 1.2, 2.0],
    "n": [8],
    "period_hyperperiod": [3600.0],
    "rep": [0, 1],
}
SMOKE_FAULT_AXES = {"rate": [0.02], "u_total": [0.8], "rep": [0, 1]}


def make_tasksets(count: int, seed: int):
    """Weighted-preset-shaped sets: n=8, U=0.9, hyperperiod-limited 3600."""
    rng = np.random.default_rng(seed)
    return [
        generate_mixed_taskset(
            8,
            0.9,
            rng,
            period_method="hyperperiod-limited",
            period_hyperperiod=3600.0,
        )
        for _ in range(count)
    ]


def analysis_pass(tasksets) -> tuple[float, list[tuple]]:
    """One timed pass over every set; returns (elapsed, comparable results)."""
    results = []
    start = time.perf_counter()
    for ts in tasksets:
        edf = edf_schedulable_dedicated(ts)
        curve = np.asarray(QuantumCurve(ts, "EDF").evaluate(PERIOD_GRID))
        results.append((edf.schedulable, edf.points_checked, curve.tobytes()))
    return time.perf_counter() - start, results


def bench_analysis(count: int, seed: int) -> tuple[float, float, bool]:
    """Returns (fast sets/sec, slow sets/sec, results identical)."""
    tasksets = make_tasksets(count, seed)
    with kernels.kernels_forced(True):
        before = kernels.kernel_counters()
        fast_elapsed, fast_results = analysis_pass(tasksets)
        delta = kernels.counters_delta(before)
    with kernels.kernels_forced(False):
        slow_elapsed, slow_results = analysis_pass(tasksets)
    if delta["fast"] == 0:
        print("FATAL: the fast pass never selected the integer kernels")
        return 0.0, 0.0, False
    return (
        count / fast_elapsed,
        count / slow_elapsed,
        fast_results == slow_results,
    )


def smoke_campaign() -> int:
    """Shrunk weighted campaign, kernels on vs off: bytes + fast share."""
    specs = weighted_specs(SMOKE_SCHED_AXES, SMOKE_FAULT_AXES)
    runs = {}
    for enabled in (True, False):
        with kernels.kernels_forced(enabled):
            runs[enabled] = stream_campaign(
                specs, weighted_aggregator(), collect=True, on_error="store"
            )
    fast, slow = runs[True], runs[False]
    if fast.to_json() != slow.to_json():
        print("FATAL: weighted smoke campaign JSON differs with kernels on")
        return 2
    selections = fast.stats.kernel_fast + fast.stats.kernel_fallback
    share = fast.stats.kernel_fast / selections if selections else 0.0
    print(
        f"weighted smoke campaign: {len(specs)} points, byte-identical JSON; "
        f"fast share {100.0 * share:.1f}% "
        f"({fast.stats.kernel_fast}/{selections})"
    )
    if share < 0.9:
        print("FAIL: fast-path share below 90% on the weighted smoke preset")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sets", type=int, default=40,
        help="task sets per analysis pass (default: 40)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast run for CI logs (8 sets + weighted campaign check)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail unless fast sets/sec >= X * float sets/sec",
    )
    args = parser.parse_args(argv)
    count = 8 if args.smoke else args.sets

    print(
        f"fast-kernel analysis throughput — {count} generated sets "
        f"(n=8, U=0.9, hyperperiod 3600), "
        f"{len(PERIOD_GRID)}-period minQ grid per set"
    )
    fast_rate, slow_rate, identical = bench_analysis(count, args.seed)
    if not identical:
        print("FATAL: fast and float analysis results diverge")
        return 2
    print(f"{'kernels':>8}  {'sets/sec':>9}")
    print(f"{'on':>8}  {fast_rate:>9.1f}")
    print(f"{'off':>8}  {slow_rate:>9.1f}")
    speedup = fast_rate / slow_rate
    print(f"speedup: {speedup:.1f}x; results bit-identical")
    write_bench_json(
        "kernels",
        config={"sets": count, "seed": args.seed, "smoke": args.smoke},
        sets_per_sec_fast=round(fast_rate, 2),
        sets_per_sec_float=round(slow_rate, 2),
        speedup=round(speedup, 3),
        results_identical=True,
    )

    if args.smoke:
        status = smoke_campaign()
        if status:
            return status
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.1f}x below required "
            f"{args.min_speedup:.1f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
