"""Table 2: the paper's three design rows for the Table 1 task set.

Row (a) lists the *required* per-mode utilizations
``max_i U(T_k^i)``; rows (b) and (c) are the two EDF designs at
``O_tot = 0.05`` produced by the min-overhead-bandwidth and max-slack goals.

The rows are evaluated as campaign points (``table2-required`` /
``table2-row``) through :func:`repro.runner.stream_campaign`, so the table
shares the runner's caching and parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.paper import PAPER_OTOT
from repro.model import PartitionedTaskSet
from repro.runner import (
    Aggregator,
    PointSpec,
    partition_params,
    slot_metric,
    stream_campaign,
)


@dataclass(frozen=True)
class Table2Row:
    """One row group of Table 2 (lengths + allocated utilizations)."""

    label: str
    period: float
    otot: float
    q_ft: float
    q_fs: float
    q_nf: float
    alloc_ft: float
    alloc_fs: float
    alloc_nf: float
    slack: float
    slack_ratio: float
    overhead_bandwidth: float


@dataclass(frozen=True)
class Table2:
    """The full reproduced table: required utilizations + both designs."""

    req_util_ft: float
    req_util_fs: float
    req_util_nf: float
    row_b: Table2Row
    row_c: Table2Row

    def render(self) -> str:
        """Paper-style text rendering of the table."""
        hdr = (
            f"{'':<16}{'P':>8}{'Otot':>8}{'Q~FT':>8}{'Q~FS':>8}{'Q~NF':>8}"
            f"{'slack':>8}"
        )
        lines = [hdr]
        lines.append(
            f"{'(a) req. util.':<16}{'':>8}{'':>8}"
            f"{self.req_util_ft:>8.3f}{self.req_util_fs:>8.3f}{self.req_util_nf:>8.3f}{'':>8}"
        )
        for row in (self.row_b, self.row_c):
            lines.append(
                f"{row.label + ' length':<16}{row.period:>8.3f}{row.otot:>8.3f}"
                f"{row.q_ft:>8.3f}{row.q_fs:>8.3f}{row.q_nf:>8.3f}{row.slack:>8.3f}"
            )
            lines.append(
                f"{row.label + ' alloc.':<16}{1.0:>8.3f}{row.overhead_bandwidth:>8.3f}"
                f"{row.alloc_ft:>8.3f}{row.alloc_fs:>8.3f}{row.alloc_nf:>8.3f}"
                f"{row.slack_ratio:>8.3f}"
            )
        return "\n".join(lines)


def table2_specs(
    partition: PartitionedTaskSet | None = None,
    otot: float = PAPER_OTOT,
    algorithm: str = "EDF",
) -> list[PointSpec]:
    """The three campaign points behind :func:`compute_table2`."""
    base = {"algorithm": algorithm, "otot": otot, **partition_params(partition)}
    return [
        PointSpec("table2-required", {k: v for k, v in base.items() if k != "otot"}),
        PointSpec("table2-row", {**base, "goal": "min-overhead-bandwidth"}),
        PointSpec("table2-row", {**base, "goal": "max-slack"}),
    ]


def table2_from_results(results: list[dict]) -> Table2:
    """Rebuild the table from the :func:`table2_specs` campaign results."""
    req, row_b, row_c = results
    return Table2(
        req_util_ft=req["FT"],
        req_util_fs=req["FS"],
        req_util_nf=req["NF"],
        row_b=Table2Row(label="(b)", **row_b),
        row_c=Table2Row(label="(c)", **row_c),
    )


def _slot_key(spec: PointSpec) -> str:
    if spec.experiment == "table2-required":
        return "required"
    return spec.params["goal"]


def table2_aggregator() -> Aggregator:
    """Streaming aggregate of the table: one named slot per row group."""
    return Aggregator([slot_metric("rows", _slot_key)])


def table2_from_aggregate(aggregator: Aggregator) -> Table2:
    """Rebuild the table from a folded :func:`table2_aggregator`."""
    rows = aggregator["rows"]
    return table2_from_results(
        [rows["required"], rows["min-overhead-bandwidth"], rows["max-slack"]]
    )


def compute_table2(
    partition: PartitionedTaskSet | None = None,
    otot: float = PAPER_OTOT,
    algorithm: str = "EDF",
) -> Table2:
    """Reproduce Table 2 for the given partition (default: the paper's).

    Streams through the aggregation layer: the campaign folds into the
    three named row slots as points complete, exactly as a million-point
    sweep would — results are identical to the former materialized path.
    """
    streamed = stream_campaign(
        table2_specs(partition, otot, algorithm), table2_aggregator()
    )
    return table2_from_aggregate(streamed.aggregator)
