"""Ablation studies: the ``ablate-*`` points of the ``ablations`` preset.

Each function returns plain data (dataclasses / dicts) consumed by the
benchmark harness and tests:

* :func:`exact_vs_linear_gap` — how much quantum the paper's linear supply
  bound gives away versus the exact Lemma-1 analysis it calls "tedious";
* :func:`edf_vs_rm_regions` — scheduler impact on the feasible region
  (max period, max admissible overhead);
* :func:`partitioning_comparison` — the manual Section 4 partition versus
  automatic bin-packing heuristics;
* :func:`overhead_sensitivity` — max feasible period as the switching
  overhead grows (degenerating to infeasible at the Fig. 4 apex);
* :func:`slot_splitting_gain` — the future-work idea of serving a mode with
  several smaller quanta per period (supply-delay improvement).

All five are campaign grids: the former ad-hoc serial loops expand into
``ablate-*`` point specs streamed through
:func:`repro.runner.stream_campaign`, so every study inherits the runner's
parallelism, caching and per-point determinism and folds into the shared
:func:`ablation_aggregator` summary. Pass ``workers``/``cache_dir`` to fan
a study out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.experiments.paper import paper_partition
from repro.model import Mode, PartitionedTaskSet, TaskSet
from repro.runner import (
    Aggregator,
    PointSpec,
    StreamResult,
    curve_metric,
    grid_specs,
    mean_metric,
    partition_params,
    slot_metric,
    stream_campaign,
    taskset_params,
)


def ablation_aggregator() -> Aggregator:
    """Streaming summary of the ablation studies.

    Every driver folds its points through these metrics (each filtered to
    its own experiment, so partial spec lists fold cleanly): the mean
    linear-vs-exact quantum over-allocation, the max-period-vs-overhead
    curve, the per-pieces slot-splitting delay curve, and named slots for
    the per-algorithm region figures and per-strategy partitioning quality.
    """

    def gap_ratio(params: dict, result: Any) -> float | None:
        exact = result["minq_exact"]
        if exact <= 0:
            return None
        return (result["minq_linear"] - exact) / exact

    return Aggregator(
        [
            mean_metric(
                "minq_gap_ratio", gap_ratio, experiment="ablate-minq-gap"
            ),
            curve_metric(
                "overhead_curve", "otot", "max_period",
                experiment="ablate-overhead",
            ),
            curve_metric(
                "slot_split_delay", "pieces", "delay",
                experiment="ablate-slot-split",
            ),
            slot_metric(
                "regions",
                lambda spec: spec.params["algorithm"],
                experiment="ablate-region",
            ),
            slot_metric(
                "partitioning",
                lambda spec: spec.params["strategy"],
                experiment="ablate-partitioning",
            ),
        ]
    )


def ablation_summary(
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
    state_path: str | os.PathLike | None = None,
) -> Aggregator:
    """Stream every default ablation point into the summary aggregate.

    The O(accumulators) companion to the per-row drivers below: no point
    results are materialized, and with ``state_path`` the fold resumes
    incrementally (this is also what the CLI ``ablations`` preset folds).
    """
    return stream_campaign(
        ablation_specs(),
        ablation_aggregator(),
        workers=workers,
        cache_dir=cache_dir,
        state_path=state_path,
    ).aggregator


def _stream(
    specs: list[PointSpec],
    workers: int | None,
    cache_dir: str | os.PathLike | None,
) -> StreamResult:
    """Run one ablation campaign, materializing its rows.

    The drivers' public API is per-row dataclasses, so they collect; the
    aggregator is empty here — aggregate consumers go through
    :func:`ablation_summary` instead of paying for folds nobody reads.
    """
    return stream_campaign(
        specs,
        Aggregator([]),
        workers=workers,
        cache_dir=cache_dir,
        collect=True,
    )


@dataclass(frozen=True)
class ExactVsLinearRow:
    """minQ under the linear bound vs the exact supply, for one subset."""

    label: str
    period: float
    minq_linear: float
    minq_exact: float

    @property
    def gap(self) -> float:
        """Absolute quantum over-allocation of the linear bound."""
        return self.minq_linear - self.minq_exact

    @property
    def gap_ratio(self) -> float:
        """Relative over-allocation (0 when the exact value is 0)."""
        if self.minq_exact <= 0:
            return 0.0
        return self.gap / self.minq_exact


def exact_vs_linear_specs(
    partition: PartitionedTaskSet | None = None,
    periods: Sequence[float] = (0.5, 1.0, 2.0, 2.966),
    algorithm: str = "EDF",
) -> list[PointSpec]:
    """One ``ablate-minq-gap`` point per (period, non-empty mode bin)."""
    resolved = partition or paper_partition()
    base = {"algorithm": algorithm, **partition_params(partition)}
    return [
        PointSpec(
            "ablate-minq-gap",
            {**base, "period": period, "mode": str(mode), "bin": idx},
        )
        for period in periods
        for mode in Mode
        for idx, ts in enumerate(resolved.bins(mode))
        if len(ts) > 0
    ]


def exact_vs_linear_gap(
    partition: PartitionedTaskSet | None = None,
    periods: Sequence[float] = (0.5, 1.0, 2.0, 2.966),
    algorithm: str = "EDF",
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
) -> list[ExactVsLinearRow]:
    """Per-mode minQ gap between linear-bound and exact supply analysis."""
    campaign = _stream(exact_vs_linear_specs(partition, periods, algorithm), workers, cache_dir)
    return [
        ExactVsLinearRow(
            label=(
                f"{spec.params['mode']}[{spec.params['bin']}]"
                f"@P={spec.params['period']:g}"
            ),
            period=spec.params["period"],
            minq_linear=result["minq_linear"],
            minq_exact=result["minq_exact"],
        )
        for spec, result in campaign.rows()
    ]


@dataclass(frozen=True)
class RegionComparison:
    """Feasible-region key figures for one scheduling algorithm."""

    algorithm: str
    max_period_zero_overhead: float
    max_admissible_overhead: float


def edf_vs_rm_specs(
    partition: PartitionedTaskSet | None = None,
) -> list[PointSpec]:
    """One ``ablate-region`` point per scheduling algorithm."""
    return grid_specs(
        "ablate-region",
        {"algorithm": ["EDF", "RM"]},
        base_params=partition_params(partition),
    )


def edf_vs_rm_regions(
    partition: PartitionedTaskSet | None = None,
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
) -> list[RegionComparison]:
    """EDF vs RM on the same partition (EDF must dominate, cf. Fig. 4)."""
    campaign = _stream(edf_vs_rm_specs(partition), workers, cache_dir)
    return [
        RegionComparison(algorithm=spec.params["algorithm"], **result)
        for spec, result in campaign.rows()
    ]


@dataclass(frozen=True)
class PartitionComparison:
    """Region quality achieved by one partitioning strategy.

    ``max_period_zero_overhead`` is None when the strategy's partition is so
    imbalanced that Eq. 15 has no feasible period at all — a real outcome
    for greedy heuristics (first/best-fit) that concentrate load: the summed
    per-mode demand ratios can exceed 1 even as ``P → 0``.
    """

    strategy: str
    max_period_zero_overhead: float | None
    max_admissible_overhead: float
    max_bin_utilization: Mapping[str, float]

    @property
    def feasible(self) -> bool:
        """Whether the partition admits any feasible period."""
        return self.max_period_zero_overhead is not None


def partitioning_specs(
    taskset: TaskSet | None = None,
    algorithm: str = "EDF",
    heuristics: Sequence[str] = ("worst-fit", "first-fit", "best-fit"),
) -> list[PointSpec]:
    """One ``ablate-partitioning`` point per strategy (manual + heuristics)."""
    return grid_specs(
        "ablate-partitioning",
        {"strategy": ["manual (paper)", *heuristics]},
        base_params={"algorithm": algorithm, **taskset_params(taskset)},
    )


def partitioning_comparison(
    taskset: TaskSet | None = None,
    algorithm: str = "EDF",
    heuristics: Sequence[str] = ("worst-fit", "first-fit", "best-fit"),
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
) -> list[PartitionComparison]:
    """Manual Section-4 partition vs automatic bin-packing heuristics."""
    campaign = _stream(partitioning_specs(taskset, algorithm, heuristics), workers, cache_dir)
    return [
        PartitionComparison(strategy=spec.params["strategy"], **result)
        for spec, result in campaign.rows()
    ]


@dataclass(frozen=True)
class OverheadPoint:
    """Max feasible period (or None) at one total-overhead level."""

    otot: float
    max_period: float | None


def overhead_specs(
    partition: PartitionedTaskSet | None = None,
    algorithm: str = "EDF",
    otots: Sequence[float] = (0.0, 0.025, 0.05, 0.1, 0.15, 0.2, 0.25),
) -> list[PointSpec]:
    """One ``ablate-overhead`` point per total-overhead level."""
    return grid_specs(
        "ablate-overhead",
        {"otot": list(otots)},
        base_params={"algorithm": algorithm, **partition_params(partition)},
    )


def overhead_sensitivity(
    partition: PartitionedTaskSet | None = None,
    algorithm: str = "EDF",
    otots: Sequence[float] = (0.0, 0.025, 0.05, 0.1, 0.15, 0.2, 0.25),
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
) -> list[OverheadPoint]:
    """Max feasible period as switching overhead grows (None = infeasible)."""
    campaign = _stream(overhead_specs(partition, algorithm, otots), workers, cache_dir)
    return [
        OverheadPoint(spec.params["otot"], result["max_period"])
        for spec, result in campaign.rows()
    ]


@dataclass(frozen=True)
class SlotSplitRow:
    """Supply improvement from splitting a mode's quantum into k pieces."""

    pieces: int
    delay: float
    supply_at_half_period: float


def slot_splitting_gain(
    period: float = 3.0,
    budget: float = 1.0,
    pieces_list: Sequence[int] = (1, 2, 3, 4),
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
) -> list[SlotSplitRow]:
    """The future-work multi-quantum extension: delay shrinks with splitting.

    With ``k`` evenly spread pieces the worst-case starvation drops from
    ``P − Q̃`` towards ``(P − Q̃)/k``, enlarging the feasible space for
    short-deadline tasks.
    """
    campaign = _stream(slot_split_specs(period, budget, pieces_list), workers, cache_dir)
    return [
        SlotSplitRow(pieces=spec.params["pieces"], **result)
        for spec, result in campaign.rows()
    ]


def slot_split_specs(
    period: float = 3.0,
    budget: float = 1.0,
    pieces_list: Sequence[int] = (1, 2, 3, 4),
) -> list[PointSpec]:
    """One ``ablate-slot-split`` point per piece count."""
    return grid_specs(
        "ablate-slot-split",
        {"pieces": list(pieces_list)},
        base_params={"period": period, "budget": budget},
    )


def ablation_specs() -> list[PointSpec]:
    """Every default ablation point — the ``repro campaign ablations`` preset."""
    return [
        *exact_vs_linear_specs(),
        *edf_vs_rm_specs(),
        *partitioning_specs(),
        *overhead_specs(),
        *slot_split_specs(),
    ]
