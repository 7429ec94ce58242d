"""Figure 4: the feasible-period region for EDF and RM.

Regenerates the two curves (Eq. 15 LHS vs. ``P``) and the five annotated
points of the figure. The five points are evaluated as ``figure4-point``
campaign specs through :func:`repro.runner.stream_campaign`, which folds
them into named slots (:func:`figure4_aggregator`); the plotted series
stays a single vectorised region sweep — there is no per-point loop to fan
out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core import FeasibleRegion
from repro.experiments.paper import PAPER_OTOT, paper_partition
from repro.model import PartitionedTaskSet
from repro.runner import (
    Aggregator,
    PointSpec,
    partition_params,
    slot_metric,
    stream_campaign,
)

#: Sweep parameters used by the paper's figure (and the annotated points).
_P_MAX = 3.5
_GRID = 4001


@dataclass(frozen=True)
class Figure4Points:
    """The five annotated points of Figure 4 (computed, not quoted).

    Points 1/2: max feasible period with zero overhead (EDF / RM).
    Points 3/4: max admissible total overhead (EDF / RM).
    Point 5: max feasible period at ``O_tot = 0.05`` under EDF.
    """

    point1_max_period_edf: float
    point2_max_period_rm: float
    point3_max_overhead_edf: float
    point4_max_overhead_rm: float
    point5_max_period_edf_otot: float
    otot: float = PAPER_OTOT


def figure4_series(
    partition: PartitionedTaskSet | None = None,
    *,
    p_max: float = _P_MAX,
    n: int = 1401,
) -> dict[str, np.ndarray]:
    """The plotted series: ``P`` grid plus ``G(P)`` for EDF and RM."""
    partition = partition or paper_partition()
    edf = FeasibleRegion(partition, "EDF", p_max=p_max, grid=_GRID)
    rm = FeasibleRegion(partition, "RM", p_max=p_max, grid=_GRID)
    ps, g_edf = edf.sweep(p_min=p_max / n, p_max=p_max, n=n)
    _, g_rm = rm.sweep(p_min=p_max / n, p_max=p_max, n=n)
    return {"P": ps, "EDF": g_edf, "RM": g_rm}


def figure4_specs(
    partition: PartitionedTaskSet | None = None,
    otot: float = PAPER_OTOT,
) -> list[PointSpec]:
    """The five campaign points behind :func:`compute_figure4_points`."""
    base = {"p_max": _P_MAX, "grid": _GRID, **partition_params(partition)}
    return [
        PointSpec(
            "figure4-point",
            {**base, "query": "max-period", "algorithm": "EDF", "otot": 0.0},
        ),
        PointSpec(
            "figure4-point",
            {**base, "query": "max-period", "algorithm": "RM", "otot": 0.0},
        ),
        PointSpec(
            "figure4-point", {**base, "query": "max-overhead", "algorithm": "EDF"}
        ),
        PointSpec(
            "figure4-point", {**base, "query": "max-overhead", "algorithm": "RM"}
        ),
        PointSpec(
            "figure4-point",
            {**base, "query": "max-period", "algorithm": "EDF", "otot": otot},
        ),
    ]


def _slot_key(spec: PointSpec) -> str:
    p = spec.params
    return f"{p['query']}/{p['algorithm']}/otot={p.get('otot', 'peak')}"


def figure4_aggregator() -> Aggregator:
    """Streaming aggregate of the figure: one named slot per point."""
    return Aggregator([slot_metric("points", _slot_key)])


def figure4_points_from_aggregate(
    aggregator: Aggregator, otot: float = PAPER_OTOT
) -> Figure4Points:
    """Rebuild the five points from a folded :func:`figure4_aggregator`."""
    points = aggregator["points"]
    order = [
        "max-period/EDF/otot=0.0",
        "max-period/RM/otot=0.0",
        "max-overhead/EDF/otot=peak",
        "max-overhead/RM/otot=peak",
        f"max-period/EDF/otot={otot}",
    ]
    return Figure4Points(*(points[k]["value"] for k in order), otot=otot)


def compute_figure4_points(
    partition: PartitionedTaskSet | None = None,
    otot: float = PAPER_OTOT,
    *,
    workers: int | None = 1,
    cache_dir: str | os.PathLike | None = None,
) -> Figure4Points:
    """Compute the five annotated points of Figure 4.

    Streams through the aggregation layer (named point slots), identical
    results to the former materialized campaign.
    """
    streamed = stream_campaign(
        figure4_specs(partition, otot),
        figure4_aggregator(),
        workers=workers,
        cache_dir=cache_dir,
    )
    return figure4_points_from_aggregate(streamed.aggregator, otot=otot)
