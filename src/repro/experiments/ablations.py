"""Ablation studies: the ``ablate-*`` points of the ``ablations`` preset.

Each ``*_specs`` function expands one study into campaign point specs,
and :func:`ablation_specs` lists them all for ``repro campaign
ablations``:

* :func:`exact_vs_linear_specs` — how much quantum the paper's linear
  supply bound gives away versus the exact Lemma-1 analysis it calls
  "tedious";
* :func:`edf_vs_rm_specs` — scheduler impact on the feasible region
  (max period, max admissible overhead);
* :func:`partitioning_specs` — the manual Section 4 partition versus
  automatic bin-packing heuristics;
* :func:`overhead_specs` — max feasible period as the switching overhead
  grows (degenerating to infeasible at the Fig. 4 apex);
* :func:`slot_split_specs` — the future-work idea of serving a mode with
  several smaller quanta per period (supply-delay improvement).

The points run through :func:`repro.runner.stream_campaign` and fold into
the shared :func:`ablation_aggregator` summary; pass ``collect=True`` to
read the per-point result dicts.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.paper import paper_partition
from repro.model import Mode, PartitionedTaskSet, TaskSet
from repro.runner import (
    Aggregator,
    PointSpec,
    curve_metric,
    grid_specs,
    mean_metric,
    partition_params,
    slot_metric,
    taskset_params,
)


def ablation_aggregator() -> Aggregator:
    """Streaming summary of the ablation studies.

    Every study folds its points through these metrics (each filtered to
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


def edf_vs_rm_specs(
    partition: PartitionedTaskSet | None = None,
) -> list[PointSpec]:
    """One ``ablate-region`` point per scheduling algorithm."""
    return grid_specs(
        "ablate-region",
        {"algorithm": ["EDF", "RM"]},
        base_params=partition_params(partition),
    )


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
