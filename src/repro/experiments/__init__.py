"""The paper's evaluation artifacts wired end-to-end.

* :mod:`repro.experiments.paper` — the Table 1 task set, the manual
  partition of Section 4, and the paper's reference numbers;
* :mod:`repro.experiments.figure4` — the Figure 4 series and points 1–5;
* :mod:`repro.experiments.table2` — the three Table 2 rows;
* :mod:`repro.experiments.ablations` — the extra studies (exact supply vs
  linear bound, EDF vs RM, partitioning heuristics, overhead sensitivity,
  slot splitting), listed under "Registered experiments" in
  ``docs/campaigns.md``;
* :mod:`repro.experiments.weighted` — the weighted-schedulability sweep
  over the generator parameter space, streamed through the aggregation
  layer (:mod:`repro.runner.aggregate`);
* :mod:`repro.experiments.faultspace` — the dependability sweep over
  utilization x fault rate x fault scenario
  (:mod:`repro.dependability`), streamed into exact outcome-taxonomy
  curves with Wilson confidence intervals.

Examples, tests and benchmarks all call into this package so the numbers
reported anywhere in the repository come from a single implementation.
"""

from repro.experiments.paper import (
    PAPER_OTOT,
    PaperReference,
    paper_partition,
    paper_reference,
    paper_taskset,
)
from repro.experiments.figure4 import (
    Figure4Points,
    compute_figure4_points,
    figure4_aggregator,
    figure4_points_from_aggregate,
    figure4_series,
    figure4_specs,
)
from repro.experiments.table2 import (
    Table2,
    Table2Row,
    compute_table2,
    table2_aggregator,
    table2_from_aggregate,
    table2_from_results,
    table2_specs,
)
from repro.experiments.faultspace import (
    FAULTSPACE_AXES,
    faultspace_adaptive_source,
    faultspace_aggregator,
    faultspace_specs,
    render_faultspace,
)
from repro.experiments.weighted import (
    weighted_adaptive_source,
    weighted_aggregator,
    weighted_curve_rows,
    weighted_specs,
)

__all__ = [
    "paper_taskset",
    "paper_partition",
    "paper_reference",
    "PaperReference",
    "PAPER_OTOT",
    "figure4_series",
    "figure4_specs",
    "figure4_aggregator",
    "figure4_points_from_aggregate",
    "compute_figure4_points",
    "Figure4Points",
    "compute_table2",
    "table2_aggregator",
    "table2_from_aggregate",
    "table2_specs",
    "table2_from_results",
    "Table2",
    "Table2Row",
    "weighted_adaptive_source",
    "weighted_aggregator",
    "weighted_curve_rows",
    "weighted_specs",
    "FAULTSPACE_AXES",
    "faultspace_adaptive_source",
    "faultspace_aggregator",
    "faultspace_specs",
    "render_faultspace",
]
