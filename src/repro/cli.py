"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze <taskset.json>``
    Per-mode utilizations and a dedicated-processor schedulability check of
    each automatic partition bin.
``design <taskset.json> [--otot X] [--alg EDF|RM] [--goal ...]``
    Partition + slot-schedule design; prints the configuration (optionally
    as JSON for machine consumption).
``region <taskset.json> [--alg ...] [--p-max X]``
    ASCII feasible-period region (the Figure 4 view) with its key points.
``simulate <taskset.json> [--cycles N] [--fault-rate R] [--seed S]``
    Design, then run the multicore simulation with optional Poisson fault
    injection; prints miss/fault statistics.
``paper``
    Reproduce the paper's evaluation (Figure 4 points + Table 2) in one go.
``campaign <preset> [--workers N] [--seed S] [--cache-dir D] [--axis k=v,..]``
    Run an experiment campaign through the parallel runner
    (:mod:`repro.runner`). Presets: ``table2``, ``figure4``, ``ablations``
    (the paper artifacts as campaign points), ``sched`` (synthetic
    schedulability grid), ``faults`` (fault-injection grid), ``weighted``
    (the weighted-schedulability sweep over the generator parameter space)
    and ``faultspace`` (the dependability sweep over u_total x fault rate x
    fault scenario, with outcome-taxonomy curves and Wilson confidence
    intervals; ``--scenario X`` narrows the scenario axis).
    Every preset streams into a mergeable aggregate
    (:mod:`repro.runner.aggregate`): results and aggregates are
    bit-identical for any ``--workers`` value; with ``--cache-dir`` a re-run
    recomputes nothing and resumes aggregation from a snapshot under
    ``<cache-dir>/aggregates`` (override with ``--state``); ``--out`` writes
    the canonical spec/result JSON and ``--agg-out`` the canonical aggregate
    state. ``--shard i/N`` runs one deterministic digest-keyed shard of the
    grid (multi-host fan-out); its snapshot carries a shard manifest for
    ``repro merge``. ``--batch N`` packs N points into each worker task
    (default: auto-sized) — batching cuts IPC overhead on cheap-point
    sweeps without changing a single output byte. ``--telemetry DIR`` records a span trace
    (``trace.ndjson``) and run manifest (``run-manifest.json``) for
    ``repro profile`` — observation only, snapshots stay byte-identical.
    See docs/campaigns.md.
``merge <snapshot>... [--out F] [--preset P] [--allow-partial]``
    Fold shard snapshots (:mod:`repro.runner.shard`) into the canonical
    full-campaign aggregate snapshot — byte-identical to an unsharded run.
    Mismatched configs/seeds/grids and missing, overlapping or incomplete
    shards are refused with a report instead of producing partial curves;
    ``--allow-partial`` downgrades *only* the completeness refusals to a
    preview snapshot explicitly marked ``"partial": true`` with the
    missing-shard list. ``--preset`` additionally renders the merged
    aggregate with that preset's renderer (e.g. the weighted curve tables
    + ASCII plot) through the snapshot query layer (:mod:`repro.reporting`)
    — byte-identical to what ``repro campaign`` prints for the same
    aggregate state.
``serve [--host H] [--port N] [--workers N] [--spool-dir D]``
    Serve campaigns over HTTP (:mod:`repro.server`, stdlib asyncio, no new
    dependencies): ``POST /jobs`` runs a preset campaign through the same
    deterministic engine, ``GET /jobs/{id}/deltas`` streams sequenced
    aggregate deltas while points fold in, ``GET /jobs/{id}/snapshot``
    serves the exact snapshot bytes, and the query endpoints answer
    curve/taxonomy/summary questions through a content-addressed cache.
    Identical job submissions are deduplicated (the job id is the
    canonical request digest). ``--access-log FILE`` writes one NDJSON
    record per request (``-`` for stderr); ``GET /metrics`` sums the
    jobs' run counters and ``GET /jobs/{id}/telemetry`` serves a job's
    run manifest. See docs/campaigns.md.
``profile <trace-dir-or-file> [--top N] [--min-coverage X]``
    Render a ``--telemetry`` trace as an ascii phase tree with the
    sibling run-manifest summary; ``--min-coverage`` gates (exit 1) when
    the root span's direct children explain less than the given fraction
    of its wall time — CI's guard that instrumentation keeps up with the
    pipeline.

Task-set JSON is the :mod:`repro.model.serialization` format::

    {"schema": 1, "tasks": [
        {"name": "ctrl", "wcet": 1, "period": 10, "mode": "FT"},
        ...
    ]}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from repro import telemetry
from repro.analysis import edf_schedulable_dedicated, fp_schedulable_dedicated
from repro.dependability import scenario_names
from repro.core import (
    DesignError,
    FeasibleRegion,
    MaxSlackGoal,
    MinOverheadBandwidthGoal,
    Overheads,
    design_platform,
)
from repro.faults import FaultCampaign
from repro.model import MODE_ORDER, Mode, TaskSet, taskset_from_json
from repro.partition import PartitionError, partition_by_modes
from repro.sim import MulticoreSim
from repro.runner.presets import preset_names
from repro.viz import format_table, render_region


def _load_taskset(args: argparse.Namespace) -> TaskSet:
    """The command's task set; a file that cannot be read or parsed exits
    with one line naming the command, the file and the reason."""
    try:
        return taskset_from_json(Path(args.taskset).read_text())
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except KeyError as exc:
        reason = f"missing field {exc}"
    except (ValueError, TypeError) as exc:
        reason = str(exc)
    raise SystemExit(f"{args.command}: {args.taskset}: {reason}")


def _bounded(convert, check, bound: str):
    """An argparse ``type=`` that rejects a converted value outside ``bound``."""

    def parse(text: str):
        value = convert(text)
        if not check(value):
            raise argparse.ArgumentTypeError(f"must be {bound}: got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" wording
    return parse


_positive_int = _bounded(int, lambda v: v >= 1, ">= 1")
_sweep_points = _bounded(int, lambda v: v >= 2, ">= 2")
_positive = _bounded(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_nonneg = _bounded(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_port = _bounded(int, lambda v: 0 <= v <= 65535, "in 0..65535")


def _partition(ts: TaskSet, heuristic: str):
    return partition_by_modes(ts, heuristic=heuristic, admission="utilization")


def cmd_analyze(args: argparse.Namespace) -> int:
    ts = _load_taskset(args)
    print(ts.summary())
    print()
    try:
        part = _partition(ts, args.heuristic)
    except PartitionError as exc:
        print(f"partitioning failed: {exc}")
        return 1
    rows = []
    for mode in MODE_ORDER:
        for i, b in enumerate(part.bins(mode)):
            if not len(b):
                continue
            if args.alg.upper() == "EDF":
                ok = edf_schedulable_dedicated(b).schedulable
            else:
                ok = fp_schedulable_dedicated(b, args.alg.upper()).schedulable
            rows.append(
                [f"{mode}[{i}]", ", ".join(b.names), b.utilization, ok]
            )
    print(format_table(["processor", "tasks", "U", "schedulable (dedicated)"], rows))
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    ts = _load_taskset(args)
    goal = {
        "min-overhead": MinOverheadBandwidthGoal(),
        "max-slack": MaxSlackGoal(),
    }[args.goal]
    try:
        part = _partition(ts, args.heuristic)
        config = design_platform(
            part, args.alg, Overheads.uniform(args.otot), goal
        )
    except (PartitionError, DesignError) as exc:
        print(f"design failed: {exc}")
        return 1
    if args.json:
        out = {
            "period": config.period,
            "algorithm": config.algorithm,
            "goal": config.goal,
            "slack": config.slack,
            "quanta": {
                str(m): config.schedule.quantum(m) for m in Mode
            },
            "usable": {
                str(m): config.schedule.usable(m) for m in Mode
            },
            "overheads": {
                str(m): config.schedule.overheads.of(m) for m in Mode
            },
        }
        print(json.dumps(out, indent=2))
    else:
        print(config.summary())
        print()
        print(config.schedule.table())
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    ts = _load_taskset(args)
    try:
        part = _partition(ts, args.heuristic)
    except PartitionError as exc:
        print(f"partitioning failed: {exc}")
        return 1
    region = FeasibleRegion(part, args.alg, p_max=args.p_max)
    ps, g = region.sweep(n=args.n)
    print(render_region(ps, {args.alg.upper(): g}, otot=args.otot, width=args.width))
    print()
    try:
        print(f"max feasible P (Otot=0)        : {region.max_feasible_period(0.0):.4f}")
    except ValueError as exc:
        print(f"no feasible period at Otot=0   : {exc}")
        return 1
    peak = region.max_admissible_overhead()
    print(f"max admissible Otot            : {peak.lhs:.4f} (at P={peak.period:.4f})")
    if args.otot:
        try:
            print(
                f"max feasible P (Otot={args.otot:g})   : "
                f"{region.max_feasible_period(args.otot):.4f}"
            )
        except ValueError:
            print(f"infeasible at Otot={args.otot:g}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    ts = _load_taskset(args)
    try:
        part = _partition(ts, args.heuristic)
        config = design_platform(
            part, args.alg, Overheads.uniform(args.otot)
        )
    except (PartitionError, DesignError) as exc:
        print(f"design failed: {exc}")
        return 1
    print(config.summary())
    print()
    horizon = config.period * args.cycles
    if args.fault_rate > 0:
        campaign = FaultCampaign(part, config, rate=args.fault_rate)
        result = campaign.run(horizon=horizon, seed=args.seed)
        print(result.summary())
        return 0 if result.ft_misses == 0 else 1
    result = MulticoreSim(part, config).run(horizon)
    print(
        f"simulated {result.horizon:.1f} time units ({args.cycles} cycles): "
        f"{result.miss_count} deadline misses"
    )
    if result.miss_count:
        print(f"misses by task: {result.misses_by_task()}")
    return 0 if result.miss_count == 0 else 1


def _write_run_telemetry(
    recorder,
    sink,
    directory: Path,
    config: dict | None,
    *,
    stats: dict | None = None,
    aggregate_json: str | None = None,
    error: str | None = None,
) -> None:
    """Finalize one ``--telemetry`` run: close the trace, write the manifest."""
    from repro.telemetry import build_manifest, write_manifest

    sink.close(recorder)
    manifest = build_manifest(
        recorder,
        stats=stats,
        config=config,
        aggregate_json=aggregate_json,
        error=error,
    )
    write_manifest(directory / "run-manifest.json", manifest)
    print(
        f"[telemetry] trace {sink.path} + manifest "
        f"{directory / 'run-manifest.json'}",
        file=sys.stderr,
    )


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.runner import (
        CampaignError,
        SnapshotError,
        parse_shard,
        stream_campaign,
    )
    from repro.runner.presets import PresetError, adaptive_message, get_preset

    args.preset = args.preset_flag or args.preset_pos
    if args.preset_pos and args.preset_flag and args.preset_pos != args.preset_flag:
        raise SystemExit(
            f"conflicting presets: {args.preset_pos!r} vs --preset "
            f"{args.preset_flag!r}"
        )
    if args.preset is None:
        raise SystemExit("campaign: a preset is required (see --help)")
    preset = get_preset(args.preset)
    adaptive = args.strategy == "adaptive"
    if not adaptive:
        if args.ci_width is not None:
            raise SystemExit("campaign: --ci-width requires --strategy adaptive")
        if args.max_points is not None:
            raise SystemExit(
                "campaign: --max-points requires --strategy adaptive"
            )
    elif not preset.adaptive:
        raise SystemExit(f"campaign: {adaptive_message()}")
    shard = (0, 1)
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            raise SystemExit(f"campaign: {exc}")
    aggregator = preset.aggregator()
    try:
        source = preset.source(
            args.strategy,
            args.axis,
            args.scenario,
            ci_width=args.ci_width,
            max_points=args.max_points,
        )
    except PresetError as exc:
        raise SystemExit(str(exc))
    except ValueError as exc:
        print(f"campaign failed: {exc}")
        return 1
    shard_tag = ""
    if args.shard is not None:
        if args.state is None and args.cache_dir is None:
            raise SystemExit(
                "campaign: --shard needs --state or --cache-dir — the "
                "manifest-tagged snapshot is the shard's whole output"
            )
        shard_tag = f"-shard{shard[0]}of{shard[1]}"
    state_path = args.state
    if state_path is None and args.cache_dir is not None:
        # The default snapshot is fingerprinted by the point source too: a
        # grid by its full spec set (so a different --axis grid never
        # resumes into bins folded by another, and shards sit next to the
        # full run), an adaptive source by its config (axes, ci target,
        # budget), since the point set it emits is an outcome, not an
        # input. Deliberately extending a sweep uses an explicit --state.
        state_path = (
            Path(args.cache_dir)
            / "aggregates"
            / f"{args.preset}-s{args.seed}"
            f"-{aggregator.config_digest[:16]}"
            f"-{source.strategy[0]}{source.config_digest[:16]}{shard_tag}.json"
        )
    # The per-point renderings (and --out/--json) need materialized rows;
    # the aggregate-rendered presets stream in O(accumulators) memory.
    # Shard runs never render rows, so they stay streaming-only, which
    # also keeps the snapshot's skip-outright resume shortcut active.
    collect = bool(args.out or args.json) or (
        args.shard is None and preset.row_rendered
    )
    show_progress = (
        args.progress
        if args.progress is not None
        else sys.stderr.isatty()
    )
    recorder = sink = None
    telemetry_dir: Path | None = None
    telemetry_config: dict | None = None
    if args.telemetry is not None:
        from repro.telemetry import Telemetry, TraceSink

        telemetry_dir = Path(args.telemetry)
        telemetry_config = {
            "preset": args.preset,
            "seed": args.seed,
            "strategy": args.strategy,
            "workers": args.workers,
            "batch": args.batch,
            "shard": args.shard,
            "config_digest": aggregator.config_digest,
        }
        sink = TraceSink(
            telemetry_dir / "trace.ndjson",
            preset=args.preset,
            seed=args.seed,
            strategy=args.strategy,
        )
        recorder = Telemetry(sink)
    previous = telemetry.activate(recorder) if recorder is not None else None
    try:
        streamed = stream_campaign(
            source,
            aggregator,
            workers=args.workers,
            master_seed=args.seed,
            cache_dir=args.cache_dir,
            state_path=state_path,
            collect=collect,
            progress=show_progress,
            # The weighted/faultspace sweeps span infeasible corners of the
            # generator space (a generated set may not even partition);
            # those points are recorded as errors and excluded.
            on_error=preset.on_error,
            shard=shard,
            batch_size=args.batch,
        )
    except (CampaignError, SnapshotError, OSError) as exc:
        if recorder is not None:
            # A failed run still leaves a trace and a manifest (with the
            # error recorded) — that is when the phase breakdown matters
            # most.
            _write_run_telemetry(
                recorder, sink, telemetry_dir, telemetry_config, error=str(exc)
            )
        print(f"campaign failed: {exc}")
        return 1
    finally:
        if recorder is not None:
            telemetry.activate(previous)
    if recorder is not None:
        _write_run_telemetry(
            recorder,
            sink,
            telemetry_dir,
            telemetry_config,
            stats=streamed.stats.to_dict(),
            aggregate_json=streamed.aggregate_json(),
        )
    if args.out:
        Path(args.out).write_text(streamed.to_json())
    if args.agg_out:
        Path(args.agg_out).write_text(streamed.aggregate_json())
    if args.json:
        print(streamed.to_json())
    elif args.shard is not None:
        # A shard's aggregate is deliberately partial; rendering it would
        # show misleading curves (and the table2/figure4 renderers require
        # the full point set). The snapshot is the product — merge all
        # shards with `repro merge` to render the campaign.
        print(
            f"shard {shard[0]}/{shard[1]} snapshot written; render "
            f"the full campaign with: repro merge <all shard snapshots> "
            f"--preset {args.preset}"
        )
    else:
        from repro.reporting import SnapshotQuery
        from repro.runner.presets import render_rows

        query = SnapshotQuery.from_aggregator(preset, streamed.aggregator)
        if preset.row_rendered:
            print(render_rows(streamed))
            if preset.render_fn is not None:
                print()
                print(query.report())
        else:
            print(query.report())
    s = streamed.stats
    extra = f", {s.errors} failed" if s.errors else ""
    shard_info = (
        f"shard {shard[0]}/{shard[1]}: " if args.shard is not None else ""
    )
    round_info = ""
    if adaptive:
        sizes = "+".join(str(n) for n in s.round_sizes) or "0"
        open_info = (
            f", {s.open_bins} bin(s) short of the ci target"
            if s.open_bins
            else ""
        )
        planning_info = (
            f", {s.planning_points} planning point(s) for other shards"
            if s.planning_points
            else ""
        )
        round_info = (
            f"; adaptive: {s.rounds} round(s) "
            f"[{sizes}]{open_info}{planning_info}"
        )
    kernel_info = ""
    kernel_total = s.kernel_fast + s.kernel_fallback
    if kernel_total:
        kernel_info = (
            f"; kernels: {100.0 * s.kernel_fast / kernel_total:.1f}% fast "
            f"({s.kernel_fast}/{kernel_total})"
        )
    print(
        f"[campaign] {shard_info}{s.total} points ({s.unique} unique): "
        f"{s.computed} computed, {s.cached} cached in {s.elapsed:.2f}s "
        f"with {s.workers} worker(s) x batch {s.batch_size}; "
        f"aggregate: {s.folded} folded, {s.skipped} resumed{extra}"
        f"{round_info}{kernel_info}",
        file=sys.stderr,
    )
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    from repro.runner import (
        MergeError,
        atomic_write_text,
        canonical_json,
        merge_snapshot_files,
    )

    try:
        merged = merge_snapshot_files(
            args.snapshots, allow_partial=args.allow_partial
        )
    except MergeError as exc:
        print(f"merge failed: {exc}")
        return 1
    text = canonical_json(merged)
    query = None
    if args.preset:
        from repro.reporting import QueryError, SnapshotQuery

        # Validate before writing --out: a failed merge invocation must not
        # leave a plausible-looking merged snapshot behind.
        try:
            query = SnapshotQuery.from_snapshot(
                merged, args.preset, where="merged snapshot"
            )
        except QueryError as exc:
            print(f"merge failed: {exc}")
            return 1
    if args.out:
        atomic_write_text(Path(args.out), text)
    if query is not None:
        print(query.report())
    elif not args.out:
        print(text)
    manifest = merged["shard"]
    partial_tag = ""
    if merged.get("partial"):
        reason = (
            f"missing shards {merged['missing_shards']}"
            if merged["missing_shards"]
            else "incomplete shard(s) — some covered points not yet folded"
        )
        partial_tag = (
            f" — PARTIAL PREVIEW ({reason}), not mergeable or resumable"
        )
    print(
        f"[merge] {len(args.snapshots)} shard snapshot(s): "
        f"{len(merged['folded'])} folded, {len(merged['failed'])} failed "
        f"over {len(manifest['points'])} points{partial_tag}",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import ReproServer

    access_log = None
    if args.access_log is not None:
        access_log = (
            sys.stderr if args.access_log == "-" else open(args.access_log, "a")
        )
    server = ReproServer(
        workers=args.workers, spool_dir=args.spool_dir, access_log=access_log
    )
    try:
        asyncio.run(server.serve_forever(args.host, args.port))
    except KeyboardInterrupt:
        print("[serve] stopped", file=sys.stderr)
    finally:
        if access_log is not None and access_log is not sys.stderr:
            access_log.close()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry.profile import (
        load_trace,
        manifest_summary,
        render_profile,
    )

    target = Path(args.trace)
    try:
        profile = load_trace(target)
    except OSError as exc:
        print(f"profile failed: {exc}", file=sys.stderr)
        return 1
    print(render_profile(profile, top=args.top))
    manifest_dir = target if target.is_dir() else target.parent
    manifest_path = manifest_dir / "run-manifest.json"
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError:
            manifest = None
        if isinstance(manifest, dict):
            summary = manifest_summary(manifest)
            if summary:
                print()
                print(f"manifest: {summary}")
    if args.min_coverage is not None:
        coverage = profile.coverage()
        if coverage is None or coverage < args.min_coverage:
            have = "n/a" if coverage is None else f"{coverage * 100:.1f}%"
            print(
                f"profile: phase coverage {have} is below the required "
                f"{args.min_coverage * 100:.1f}%",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    from repro.experiments import compute_figure4_points, compute_table2
    from repro.runner.presets import format_figure4

    print(format_figure4(compute_figure4_points()))
    print()
    print("Table 2:")
    print(compute_table2().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Flexible fault-tolerant multiprocessor scheduling "
            "(Cirinei et al., IPPS 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_taskset: bool = True) -> None:
        if with_taskset:
            p.add_argument("taskset", help="task-set JSON file")
        p.add_argument("--alg", default="EDF", choices=["EDF", "RM", "DM", "edf", "rm", "dm"])
        p.add_argument(
            "--heuristic", default="worst-fit",
            choices=["worst-fit", "first-fit", "best-fit", "next-fit"],
            help="automatic partitioning heuristic",
        )

    p = sub.add_parser("analyze", help="utilization + dedicated schedulability per bin")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("design", help="derive P and the slot quanta")
    common(p)
    p.add_argument("--otot", type=_nonneg, default=0.0, help="total switch overhead")
    p.add_argument("--goal", default="min-overhead", choices=["min-overhead", "max-slack"])
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("region", help="feasible-period region (Figure 4 view)")
    common(p)
    p.add_argument("--otot", type=_nonneg, default=0.0)
    p.add_argument("--p-max", type=_positive, default=None)
    p.add_argument("--n", type=_sweep_points, default=301)
    p.add_argument("--width", type=_positive_int, default=78)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="design then simulate (optional faults)")
    common(p)
    p.add_argument("--otot", type=_nonneg, default=0.0)
    p.add_argument("--cycles", type=_positive_int, default=100)
    p.add_argument("--fault-rate", type=_nonneg, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("paper", help="reproduce the paper's evaluation")
    p.set_defaults(func=cmd_paper)

    p = sub.add_parser(
        "campaign",
        help="run an experiment campaign through the parallel runner",
    )
    p.add_argument(
        "preset_pos",
        nargs="?",
        metavar="preset",
        choices=list(preset_names()),
        help="which campaign to run",
    )
    p.add_argument(
        "--preset", dest="preset_flag", choices=list(preset_names()), default=None,
        help="flag form of the positional preset",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help="process-pool size (default: cores - 1; results are identical "
             "for any value)",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign master seed")
    p.add_argument(
        "--strategy", choices=("grid", "adaptive"), default="grid",
        help="point supply: 'grid' sweeps the exhaustive cartesian grid "
             "(default, byte-identical to previous releases); 'adaptive' "
             "refines weighted/faultspace curve bins until each Wilson 95%% "
             "interval is narrower than --ci-width",
    )
    p.add_argument(
        "--ci-width", type=float, default=None, metavar="W",
        help="adaptive convergence target: maximum Wilson 95%% interval "
             "width per curve bin (default 0.05; requires --strategy "
             "adaptive)",
    )
    p.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="adaptive point budget: stop refining after emitting N points "
             "(requires --strategy adaptive)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="on-disk result cache; re-runs recompute only new points",
    )
    p.add_argument(
        "--axis", action="append", metavar="KEY=V1,V2,...",
        help="override/add a grid axis (sched/faults/weighted/faultspace "
             "presets; repeatable)",
    )
    p.add_argument(
        "--scenario", default=None, choices=scenario_names(),
        help="narrow the faultspace preset to one fault scenario",
    )
    p.add_argument(
        "--out", default=None,
        help="write canonical spec/result JSON to this file",
    )
    p.add_argument(
        "--agg-out", default=None,
        help="write the canonical aggregate-state JSON to this file",
    )
    p.add_argument(
        "--state", default=None,
        help="aggregate snapshot for incremental resume (default: under "
             "--cache-dir/aggregates)",
    )
    p.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only shard I of N of the grid (digest-keyed, deterministic"
             "); the snapshot records a manifest for 'repro merge'",
    )
    p.add_argument(
        "--batch", type=_positive_int, default=None, metavar="N",
        help="points per worker task (default: auto-sized; results are "
             "bit-identical for any value)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON instead of tables",
    )
    p.add_argument(
        "--progress", action="store_true", default=None,
        help="force progress/ETA reporting on stderr (default: only on a tty)",
    )
    p.add_argument(
        "--no-progress", action="store_false", dest="progress",
        help="disable progress reporting",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="record run telemetry: an NDJSON span trace (DIR/trace.ndjson) "
             "and a run manifest (DIR/run-manifest.json); campaign results "
             "are byte-identical with or without it",
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "profile",
        help="render the phase breakdown of a --telemetry trace",
    )
    p.add_argument(
        "trace",
        help="trace.ndjson file (or the --telemetry directory holding one)",
    )
    p.add_argument(
        "--min-coverage", type=float, default=None, metavar="FRACTION",
        help="exit nonzero unless the root span's direct children cover at "
             "least this fraction of its wall time (e.g. 0.95)",
    )
    p.add_argument(
        "--top", type=int, default=40, metavar="N",
        help="show at most N phases outside the root span (default 40)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "merge",
        help="merge shard snapshots into the full-campaign aggregate",
    )
    p.add_argument(
        "snapshots", nargs="+",
        help="shard snapshot files (--state / --cache-dir outputs)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the merged snapshot JSON here (default: stdout unless "
             "--preset renders)",
    )
    p.add_argument(
        "--preset", choices=list(preset_names()), default=None,
        help="also render the merged aggregate with this preset's renderer",
    )
    p.add_argument(
        "--allow-partial", action="store_true",
        help="preview an incomplete shard set: the merged snapshot is "
             "marked 'partial' with the missing-shard list instead of "
             "being refused (previews cannot be merged or resumed)",
    )
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser(
        "serve",
        help="serve campaigns over HTTP (jobs, delta streams, queries)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 exposes the server)",
    )
    p.add_argument(
        "--port", type=_port, default=8765,
        help="bind port (0 picks a free one; default 8765)",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help="default process-pool size per job (jobs may override)",
    )
    p.add_argument(
        "--spool-dir", default=None,
        help="directory for job snapshots (enables GET /jobs/{id}/snapshot)",
    )
    p.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="append one NDJSON record per request (method, path, status, "
             "duration, job digest) to FILE; '-' logs to stderr",
    )
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro profile | head`); point
        # the fd at devnull so the interpreter's shutdown flush can't
        # raise again, and exit with the conventional SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
