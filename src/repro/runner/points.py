"""The campaign experiment registry: one picklable function per point kind.

Every experiment function has the signature ``fn(params, seed) -> result``
where ``params`` is the JSON parameter mapping of a
:class:`~repro.runner.spec.PointSpec`, ``seed`` is the point's
:class:`numpy.random.SeedSequence` (see :func:`repro.runner.spec.point_seed`)
and ``result`` is a JSON-serializable dict. Functions are module-level so
:class:`concurrent.futures.ProcessPoolExecutor` workers can unpickle the
dispatch payload; deterministic experiments simply ignore ``seed``.

The registry powers both the paper's artifacts (Table 2, Figure 4, the
ablations — migrated from their former ad-hoc serial loops) and the
open-ended synthetic sweeps (``schedulability``, ``fault-injection``) that
scale the evaluation beyond the worked example.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from repro import telemetry
from repro.core import (
    DesignError,
    FeasibleRegion,
    Overheads,
    design_platform,
    min_quantum,
    min_quantum_exact,
)
from repro.experiments.paper import paper_partition, paper_taskset
from repro.faults import FaultCampaign, FaultOutcome
from repro.generators import generate_mixed_taskset
from repro.model import Mode, PartitionedTaskSet, TaskSet
from repro.model.partitioned import partition_from_names
from repro.model.serialization import taskset_from_dict, taskset_to_dict
from repro.partition import PartitionError, partition_by_modes
from repro.supply import PeriodicSlotSupply
from repro.supply.slots import evenly_split_slots

ExperimentFn = Callable[[Mapping[str, Any], np.random.SeedSequence], dict]

_REGISTRY: dict[str, ExperimentFn] = {}


def experiment(name: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Register ``fn`` under ``name`` (decorator)."""

    def register(fn: ExperimentFn) -> ExperimentFn:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    return register


def get_experiment(name: str) -> ExperimentFn:
    """Look up a registered experiment function."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def experiments() -> list[str]:
    """Names of all registered experiments."""
    return sorted(_REGISTRY)


# -- spec <-> model plumbing ---------------------------------------------------


def taskset_params(taskset: TaskSet | None) -> dict[str, Any]:
    """Spec params pinning ``taskset`` (empty: points use the paper's)."""
    if taskset is None:
        return {}
    return {"taskset": taskset_to_dict(taskset)}


def partition_params(partition: PartitionedTaskSet | None) -> dict[str, Any]:
    """Spec params pinning an explicit partition (empty: the paper's)."""
    if partition is None:
        return {}
    return {
        "taskset": taskset_to_dict(partition.all_tasks()),
        "partition": {
            str(mode): [list(ts.names) for ts in partition.bins(mode)]
            for mode in Mode
        },
    }


def _resolve_taskset(params: Mapping[str, Any]) -> TaskSet:
    if "taskset" in params:
        return taskset_from_dict(params["taskset"])
    return paper_taskset()


def _resolve_partition(params: Mapping[str, Any]) -> PartitionedTaskSet:
    if "partition" in params:
        return partition_from_names(
            _resolve_taskset(params),
            {
                Mode(mode): [list(names) for names in bins]
                for mode, bins in params["partition"].items()
            },
        )
    if "taskset" in params:
        return partition_by_modes(
            _resolve_taskset(params),
            heuristic=params.get("heuristic", "worst-fit"),
            admission="utilization",
        )
    return paper_partition()


@lru_cache(maxsize=8)
def _paper_region(
    algorithm: str, p_max: float | None, grid: int
) -> FeasibleRegion:
    """Per-process cache of the (expensive) paper-partition region sweep."""
    return FeasibleRegion(
        paper_partition(), algorithm, p_max=p_max, grid=grid
    )


def _region(params: Mapping[str, Any]) -> FeasibleRegion:
    p_max = params.get("p_max")
    grid = int(params.get("grid", 4001))
    if "partition" in params or "taskset" in params:
        return FeasibleRegion(
            _resolve_partition(params),
            params["algorithm"],
            p_max=p_max,
            grid=grid,
        )
    return _paper_region(params["algorithm"], p_max, grid)


# -- paper artifacts -----------------------------------------------------------


@experiment("table2-required")
def table2_required(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """Table 2 row (a): required per-mode utilizations ``max_i U(T_k^i)``."""
    partition = _resolve_partition(params)
    return {str(m): partition.max_bin_utilization(m) for m in Mode}


@experiment("table2-row")
def table2_row(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """One Table 2 design row: run a design goal end-to-end."""
    partition = _resolve_partition(params)
    config = design_platform(
        partition,
        params["algorithm"],
        Overheads.uniform(params["otot"]),
        params["goal"],
        region=_region(params),
    )
    s = config.schedule
    return {
        "period": s.period,
        "otot": s.overheads.total,
        "q_ft": s.usable(Mode.FT),
        "q_fs": s.usable(Mode.FS),
        "q_nf": s.usable(Mode.NF),
        "alloc_ft": s.alpha(Mode.FT),
        "alloc_fs": s.alpha(Mode.FS),
        "alloc_nf": s.alpha(Mode.NF),
        "slack": config.slack,
        "slack_ratio": config.slack_ratio,
        "overhead_bandwidth": s.overheads.total / s.period,
    }


@experiment("figure4-point")
def figure4_point(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """One annotated Figure 4 point (max feasible period or max overhead)."""
    region = _region(params)
    query = params["query"]
    if query == "max-period":
        value = region.max_feasible_period(params["otot"])
    elif query == "max-overhead":
        value = region.max_admissible_overhead().lhs
    else:
        raise ValueError(f"unknown figure4 query {query!r}")
    return {"value": value}


# -- ablations -----------------------------------------------------------------


@experiment("ablate-minq-gap")
def ablate_minq_gap(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """minQ under the linear bound vs the exact Lemma-1 supply, one bin."""
    partition = _resolve_partition(params)
    ts = partition.bin(Mode(params["mode"]), params["bin"])
    period = params["period"]
    return {
        "minq_linear": min_quantum(ts, params["algorithm"], period),
        "minq_exact": min_quantum_exact(ts, params["algorithm"], period),
    }


@experiment("ablate-region")
def ablate_region(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """Feasible-region key figures for one scheduling algorithm."""
    region = _region(params)
    return {
        "max_period_zero_overhead": region.max_feasible_period(0.0),
        "max_admissible_overhead": region.max_admissible_overhead().lhs,
    }


@experiment("ablate-partitioning")
def ablate_partitioning(
    params: Mapping[str, Any], seed: np.random.SeedSequence
) -> dict:
    """Region quality achieved by one partitioning strategy."""
    strategy = params["strategy"]
    if strategy == "manual (paper)":
        part = paper_partition()
    else:
        part = partition_by_modes(
            _resolve_taskset(params),
            heuristic=strategy,
            admission="utilization",
        )
    region = FeasibleRegion(part, params["algorithm"])
    try:
        max_p = region.max_feasible_period(0.0)
    except ValueError:
        max_p = None  # the partition admits no feasible period
    return {
        "max_period_zero_overhead": max_p,
        "max_admissible_overhead": region.max_admissible_overhead().lhs,
        "max_bin_utilization": {
            str(m): part.max_bin_utilization(m) for m in Mode
        },
    }


@experiment("ablate-overhead")
def ablate_overhead(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """Max feasible period (or None) at one total-overhead level."""
    region = _region(params)
    try:
        max_p = region.max_feasible_period(params["otot"])
    except ValueError:
        max_p = None
    return {"max_period": max_p}


@experiment("ablate-slot-split")
def ablate_slot_split(
    params: Mapping[str, Any], seed: np.random.SeedSequence
) -> dict:
    """Supply improvement from splitting a mode's quantum into k pieces."""
    period, budget, pieces = params["period"], params["budget"], params["pieces"]
    supply = (
        PeriodicSlotSupply(period, budget)
        if pieces == 1
        else evenly_split_slots(period, budget, pieces)
    )
    return {
        "delay": supply.delta,
        "supply_at_half_period": supply.supply(period / 2),
    }


# -- synthetic sweeps ----------------------------------------------------------


def _generate(
    params: Mapping[str, Any], rng: np.random.Generator
) -> TaskSet:
    shares = params.get("mode_shares")
    # Campaign points default to hyperperiod-limited periods: free integer
    # periods make per-bin hyperperiods (and so the exact EDF dlSet behind
    # the region sweeps) explode, turning single points into minute-long
    # computations. Divisor-limited periods keep the analysis exact *and*
    # bounded; pass period_method explicitly to opt back out.
    return generate_mixed_taskset(
        params["n"],
        params["u_total"],
        rng,
        mode_shares=(
            {Mode(m): s for m, s in shares.items()} if shares else None
        ),
        period_low=params.get("period_low", 10.0),
        period_high=params.get("period_high", 1000.0),
        u_max=params.get("u_max", 1.0),
        deadline_factor=params.get("deadline_factor", 1.0),
        utilization_method=params.get("utilization_method", "uunifast-discard"),
        period_method=params.get("period_method", "hyperperiod-limited"),
        period_hyperperiod=params.get("period_hyperperiod", 3600.0),
    )


@experiment("schedulability")
def schedulability(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """One synthetic acceptance point: generate, partition, design.

    The grid axes (``u_total``, ``n``, ``otot``, heuristic, generator
    params, plus a free ``rep`` replication index) reproduce the classic
    weighted-schedulability sweep; the result records where the pipeline
    stopped (partitioning vs slot design) so acceptance ratios can be split
    by failure cause.
    """
    rng = np.random.default_rng(seed.spawn(1)[0])
    with telemetry.span("generate"):
        ts = _generate(params, rng)
    out: dict[str, Any] = {
        "utilization": ts.utilization,
        "partitioned": False,
        "feasible": False,
        "period": None,
        "slack_ratio": None,
    }
    try:
        with telemetry.span("partition"):
            part = partition_by_modes(
                ts,
                heuristic=params.get("heuristic", "worst-fit"),
                admission="utilization",
            )
    except PartitionError:
        return out
    out["partitioned"] = True
    try:
        with telemetry.span("design"):
            config = design_platform(
                part,
                params.get("algorithm", "EDF"),
                Overheads.uniform(params.get("otot", 0.0)),
                params.get("goal", "min-overhead-bandwidth"),
            )
    except DesignError:
        return out
    out["feasible"] = True
    out["period"] = config.period
    out["slack_ratio"] = config.slack_ratio
    return out


@experiment("fault-injection")
def fault_injection(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """One fault-injection campaign point (paper design or synthetic).

    Two child streams are spawned — task-set generation and the Poisson
    fault process — so e.g. extending the fault-rate axis never perturbs
    the generated task sets.
    """
    gen_seed, fault_seed = seed.spawn(2)
    with telemetry.span("generate"):
        if params.get("source", "paper") == "generated":
            ts = _generate(params, np.random.default_rng(gen_seed))
            part = partition_by_modes(
                ts,
                heuristic=params.get("heuristic", "worst-fit"),
                admission="utilization",
            )
        else:
            part = _resolve_partition(params)
    with telemetry.span("design"):
        config = design_platform(
            part,
            params.get("algorithm", "EDF"),
            Overheads.uniform(params.get("otot", 0.05)),
            params.get("goal", "min-overhead-bandwidth"),
        )
    campaign = FaultCampaign(
        part,
        config,
        rate=params["rate"],
        min_separation=params.get("min_separation"),
    )
    with telemetry.span("simulate"):
        result = campaign.run(
            horizon=config.period * params.get("cycles", 50), seed=fault_seed
        )
    return {
        "injected": result.injected,
        "outcomes": {
            str(o): result.outcomes.get(o, 0) for o in FaultOutcome
        },
        # None (not 0.0) when nothing was injected: an empty campaign has
        # no outcome rates and must not read as a perfect one.
        "outcome_rates": {
            str(o): result.rate(o) for o in FaultOutcome
        },
        "corrupted_jobs": len(result.corrupted_jobs),
        "aborted_jobs": len(result.aborted_jobs),
        "ft_misses": result.ft_misses,
        "total_misses": result.total_misses,
    }


@experiment("online")
def online(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """One online-simulation point: runtime arrivals under a live scenario.

    A max-slack platform is designed for a generated initial task set, then
    :class:`repro.sim.online.OnlineSim` replays a seed-spawned stream of
    dynamic arrivals (``params["arrival_rate"]`` expected arrivals per
    major cycle, each with an exponential lifetime) against the admission
    controller while the fault scenario strikes. A ``permanent`` scenario
    is mapped to a core-death event at its onset — the dead core's tasks
    are orphaned and re-assigned to surviving channels — while transient
    scenarios inject their fault stream unchanged.

    Three child streams are spawned (task-set generation, arrival process,
    fault scenario), so extending any one axis never perturbs the others.
    """
    from repro.dependability import PermanentScenario, scenario_from_params
    from repro.model import Task
    from repro.sim.online import OnlineArrival, OnlineSim

    scenario = scenario_from_params(params)  # fail before any expensive work
    gen_seed, arrival_seed, fault_seed = seed.spawn(3)
    with telemetry.span("generate"):
        ts = _generate(params, np.random.default_rng(gen_seed))
        part = partition_by_modes(
            ts,
            heuristic=params.get("heuristic", "worst-fit"),
            admission="utilization",
        )
    with telemetry.span("design"):
        config = design_platform(
            part,
            params.get("algorithm", "EDF"),
            Overheads.uniform(params.get("otot", 0.05)),
            params.get("goal", "max-slack"),
        )
    horizon = config.period * params.get("cycles", 30)

    rng = np.random.default_rng(arrival_seed)
    rate = float(params.get("arrival_rate", 1.0))
    arrivals: list[OnlineArrival] = []
    if rate > 0.0:
        from repro.generators.periods import hyperperiod_limited_periods

        t = float(rng.exponential(config.period / rate))
        i = 0
        while t < horizon:
            # Draw the arriving task's shape from the same stream: mode mix
            # skewed toward NF (half the arrivals), periods on the same
            # hyperperiod-divisor lattice as the generated initial tasks —
            # free continuous periods would make every admission check's
            # exact EDF deadline set (and so the whole point) explode.
            draw = rng.random()
            mode = Mode.NF if draw < 0.5 else (Mode.FS if draw < 0.8 else Mode.FT)
            period = float(
                hyperperiod_limited_periods(
                    1,
                    rng,
                    low=params.get("period_low", 10.0),
                    high=params.get("period_high", 1000.0),
                    hyperperiod=params.get("period_hyperperiod", 3600.0),
                )[0]
            )
            wcet = period * float(rng.uniform(0.02, 0.08))
            lifetime = float(rng.exponential(horizon / 4.0))
            arrivals.append(
                OnlineArrival(
                    t,
                    Task(f"dyn{i}", wcet, period, mode=mode),
                    lifetime=lifetime,
                )
            )
            i += 1
            t += float(rng.exponential(config.period / rate))

    faults = scenario.generate(
        horizon,
        np.random.default_rng(fault_seed),
        core_count=config.core_count,
    )
    core_deaths: list[tuple[float, int]] = []
    if isinstance(scenario, PermanentScenario):
        # The permanent stream is one dead core's strike cadence; the
        # online engine models the death itself, so the first strike
        # becomes the core-death event and the rest are dropped.
        if faults:
            core_deaths = [(faults[0].time, faults[0].core)]
        faults = []

    with telemetry.span("simulate"):
        result = OnlineSim(config, part).run(
            horizon,
            arrivals=arrivals,
            core_deaths=core_deaths,
            faults=faults,
        )
    record = result.to_record()
    record["utilization"] = ts.utilization
    record["arrivals_generated"] = len(arrivals)
    record["period"] = config.period
    record["slack_initial"] = config.slack
    return record


@experiment("dependability")
def dependability(params: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """One dependability point: a scenario-driven fault campaign.

    Like ``fault-injection`` but the fault stream comes from the scenario
    library (:mod:`repro.dependability.scenarios`) — ``params["scenario"]``
    names the arrival process, ``params["rate"]`` (and the scenario's own
    knobs) parameterize it — and the result is the full outcome-taxonomy
    record of :func:`repro.dependability.taxonomy.dependability_record`.
    Two child streams are spawned (task-set generation, fault scenario), so
    extending the scenario axis never perturbs the generated task sets.
    """
    from repro.dependability import (
        PoissonScenario,
        dependability_record,
        scenario_from_params,
    )

    scenario = scenario_from_params(params)  # fail before any expensive work
    gen_seed, fault_seed = seed.spawn(2)
    with telemetry.span("generate"):
        if params.get("source", "paper") == "generated":
            ts = _generate(params, np.random.default_rng(gen_seed))
            part = partition_by_modes(
                ts,
                heuristic=params.get("heuristic", "worst-fit"),
                admission="utilization",
            )
        else:
            part = _resolve_partition(params)
    with telemetry.span("design"):
        config = design_platform(
            part,
            params.get("algorithm", "EDF"),
            Overheads.uniform(params.get("otot", 0.05)),
            params.get("goal", "min-overhead-bandwidth"),
        )
    if isinstance(scenario, PoissonScenario) and "min_separation" not in params:
        # The poisson scenario is the paper baseline: keep its single-fault
        # assumption (one platform period between transients, matching the
        # ``fault-injection`` experiment) unless the spec overrides it, so
        # faultspace poisson rows stay comparable to the faults preset.
        scenario = PoissonScenario(
            scenario.rate, min_separation=config.period
        )
    horizon = config.period * params.get("cycles", 50)
    faults = scenario.generate(
        horizon,
        np.random.default_rng(fault_seed),
        core_count=config.core_count,
    )
    with telemetry.span("simulate"):
        result = FaultCampaign(part, config).run(horizon=horizon, faults=faults)
    record = dependability_record(result)
    record["utilization"] = part.all_tasks().utilization
    return record
