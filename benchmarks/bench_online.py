"""Admission throughput: live admission decisions/sec and online points/sec.

An ``online`` campaign point spends most of its time deciding arrivals
and departures in :class:`repro.core.admission.AdmissionController`. On
perfbench's ``online-admit`` workload (seed 2007, one traced pass) that is
~57% of a point; the simulation loop around it takes ~8%, and its event
queue alone ~2% (cProfile). This benchmark times that layer directly and
end to end:

* **decisions/sec** — a seeded arrival stream shaped like the ``online``
  preset's (NF-skewed modes, periods on the 3600 divisor lattice, 2-8%
  utilization, exponential lifetimes) is replayed against max-slack designs
  of generated task sets: every arrival is one ``try_admit``, every
  departure of an admitted task one ``remove``;
* **points/sec** — a small ``online`` grid through ``stream_campaign`` with
  one worker.

Determinism gates: two replays of the arrival stream must give identical
decision lists, a third replay with the fast kernels off must decide the
same (the float fallback against the integer-grid trials), and two runs
of the grid must fold byte-identical aggregates.

Standalone on purpose (no pytest-benchmark dependency), so CI can run it
as a smoke step and the table lands in the job log:

    PYTHONPATH=src python benchmarks/bench_online.py --smoke

Exit code is non-zero when a determinism gate fails. No wall-clock gate:
shared-runner timing is too noisy to fail CI on.
"""

from __future__ import annotations

import argparse
import heapq
import sys
import time

import numpy as np

from repro.analysis import kernels
from repro.core import AdmissionController, DesignError, Overheads, design_platform
from repro.experiments.online import online_aggregator, online_specs
from repro.generators import generate_mixed_taskset
from repro.generators.periods import hyperperiod_limited_periods
from repro.model import Mode, Task
from repro.partition import PartitionError, partition_by_modes
from repro.runner import stream_campaign

from bench_util import write_bench_json


def deployments(count: int, seed: int) -> list:
    """``count`` max-slack designs of generated n=6 sets, as online points
    build them. Infeasible draws are skipped, and so are the sets whose
    feasible region cannot be bracketed (a known design defect)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        ts = generate_mixed_taskset(
            6, float(rng.choice([0.5, 1.0])), rng,
            period_method="hyperperiod-limited", period_hyperperiod=3600.0,
        )
        try:
            part = partition_by_modes(ts, heuristic="worst-fit")
            config = design_platform(
                part, "EDF", Overheads.uniform(0.05), "max-slack"
            )
        except (PartitionError, DesignError, RuntimeError):
            continue
        out.append((config, part))
    return out


def arrival_stream(count: int, horizon: float, rng: np.random.Generator):
    """``count`` (time, task, lifetime) arrivals over ``[0, horizon)``."""
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    stream = []
    for i, t in enumerate(times):
        draw = rng.random()
        mode = Mode.NF if draw < 0.5 else (Mode.FS if draw < 0.8 else Mode.FT)
        period = float(hyperperiod_limited_periods(1, rng, hyperperiod=3600.0)[0])
        wcet = period * float(rng.uniform(0.02, 0.08))
        lifetime = float(rng.exponential(horizon / 4.0))
        stream.append((float(t), Task(f"dyn{i}", wcet, period, mode=mode), lifetime))
    return stream


def replay(workload) -> tuple[float, list]:
    """Every decision of the workload; (seconds, decision list)."""
    decisions: list = []
    start = time.perf_counter()
    for config, part, stream in workload:
        ctrl = AdmissionController(config, part)
        departures: list[tuple[float, str]] = []
        for t, task, lifetime in stream:
            while departures and departures[0][0] <= t:
                _, name = heapq.heappop(departures)
                decisions.append(("remove", name, ctrl.remove(name)))
            decision = ctrl.try_admit(task)
            decisions.append(("admit", task.name, decision))
            if decision.admitted:
                heapq.heappush(departures, (t + lifetime, task.name))
    return time.perf_counter() - start, decisions


def grid_run(axes) -> tuple[float, int, str]:
    """One online campaign; (seconds, points, aggregate bytes)."""
    specs = online_specs(axes)
    start = time.perf_counter()
    result = stream_campaign(
        specs, online_aggregator(), workers=1, master_seed=5, on_error="store"
    )
    return time.perf_counter() - start, len(specs), result.aggregate_json()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sets", type=int, default=24,
        help="deployed designs the arrival streams run against (default: 24)",
    )
    parser.add_argument(
        "--arrivals", type=int, default=60,
        help="arrivals offered to each design (default: 60)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 6 designs and a 16-point grid",
    )
    args = parser.parse_args(argv)
    sets = 6 if args.smoke else args.sets
    arrivals = args.arrivals
    axes = {
        "arrival_rate": [1.0, 2.0],
        "u_total": [0.5, 1.0],
        "scenario": ["poisson", "permanent"],
        "rep": list(range(2 if args.smoke else 4)),
        "n": [6],
        "cycles": [15],
    }

    rng = np.random.default_rng(11)
    workload = [
        (config, part, arrival_stream(arrivals, config.period * 30, rng))
        for config, part in deployments(sets, seed=7)
    ]
    failed = False
    elapsed_a, first = replay(workload)
    elapsed_b, second = replay(workload)
    if first != second:
        print("FAIL: two replays of the arrival stream decided differently")
        failed = True
    with kernels.kernels_forced(False):
        _, fallback = replay(workload)
    if fallback != first:
        print("FAIL: the arrival stream decided differently with the fast kernels off")
        failed = True
    count = len(first)
    admits = sum(1 for kind, _, d in first if kind == "admit" and d.admitted)
    offered = sum(1 for kind, _, _ in first if kind == "admit")
    best = min(elapsed_a, elapsed_b)
    print(f"admission decisions ({sets} designs x {arrivals} arrivals)")
    print(
        f"  {count} decisions ({offered} offered, {admits} admitted, "
        f"{count - offered} removed): {count / best:.0f} decisions/sec"
    )

    runs = [grid_run(axes) for _ in range(2)]
    if runs[0][2] != runs[1][2]:
        print("FAIL: two runs of the online grid folded different aggregates")
        failed = True
    seconds = min(r[0] for r in runs)
    points = runs[0][1]
    print(f"online grid: {points} points, {points / seconds:.2f} points/sec")

    write_bench_json(
        "online",
        config={"sets": sets, "arrivals": arrivals, "smoke": args.smoke,
                "grid": axes},
        decisions=count,
        decisions_offered=offered,
        decisions_admitted=admits,
        decisions_per_sec=round(count / best, 1),
        grid_points=points,
        points_per_sec=round(points / seconds, 3),
        deterministic=not failed,
    )
    if failed:
        print("FAIL: determinism gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
