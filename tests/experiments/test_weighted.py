"""Weighted-schedulability preset tests (specs, aggregation, rendering)."""

import json

import pytest

from repro.experiments.weighted import (
    WEIGHTED_FAULT_AXES,
    WEIGHTED_SCHED_AXES,
    weighted_aggregator,
    weighted_curve_rows,
    weighted_specs,
)
from repro.runner import PointSpec, stream_campaign
from repro.viz import format_curve_pivot

TINY_SCHED = {
    "u_total": [0.6, 1.8],
    "n": [6],
    "period_hyperperiod": [720.0],
    "rep": [0, 1],
}
TINY_FAULT = {"rate": [0.05], "u_total": [0.8], "rep": [0]}


def run_weighted(sched_axes, fault_axes, **kwargs):
    """The sweep as the ``weighted`` preset runs it: failing points stored."""
    return stream_campaign(
        weighted_specs(sched_axes, fault_axes), weighted_aggregator(),
        workers=1, master_seed=3, on_error="store", **kwargs,
    ).aggregator


class TestSpecs:
    def test_default_grid_shape(self):
        specs = weighted_specs()
        sched = [s for s in specs if s.experiment == "schedulability"]
        fault = [s for s in specs if s.experiment == "fault-injection"]
        assert len(sched) == (
            len(WEIGHTED_SCHED_AXES["u_total"])
            * len(WEIGHTED_SCHED_AXES["n"])
            * len(WEIGHTED_SCHED_AXES["period_hyperperiod"])
            * len(WEIGHTED_SCHED_AXES["rep"])
        )
        assert len(fault) == (
            len(WEIGHTED_FAULT_AXES["rate"])
            * len(WEIGHTED_FAULT_AXES["u_total"])
            * len(WEIGHTED_FAULT_AXES["rep"])
        )
        assert all(s.params["source"] == "generated" for s in fault)

    def test_axis_overrides(self):
        specs = weighted_specs(TINY_SCHED, TINY_FAULT)
        assert len(specs) == 4 + 1


class TestAggregation:
    def test_weighted_mean_is_utilization_weighted(self):
        agg = weighted_aggregator()
        mk = lambda u, feas, util: (  # noqa: E731
            PointSpec(
                "schedulability",
                {"u_total": u, "n": 6, "period_hyperperiod": 720.0, "rep": util},
            ),
            {
                "utilization": util,
                "feasible": feas,
                "partitioned": True,
                "period": 1.0,
                "slack_ratio": 0.5,
            },
        )
        agg.fold(*mk(1.0, True, 0.75))
        agg.fold(*mk(1.0, False, 0.25))
        curve = agg["weighted_feasible"]
        acc = curve.bin([1.0, 6, 720.0])
        assert acc.mean == pytest.approx(0.75)
        # the unweighted ratio disagrees, proving the weights matter
        assert agg["feasible_ratio"].mean == pytest.approx(0.5)

    def test_compute_weighted_end_to_end(self, tmp_path):
        agg = run_weighted(
            TINY_SCHED, TINY_FAULT,
            cache_dir=tmp_path / "cache", state_path=tmp_path / "agg.json",
        )
        summary = agg.summary()
        assert summary["feasible_ratio"]["count"] == 4
        assert summary["fault_coverage"]
        snap = json.loads((tmp_path / "agg.json").read_text())
        assert len(snap["folded"]) == 5

    def test_errors_are_excluded_not_fatal(self):
        # an impossible generated fault point: u_total far beyond feasibility
        agg = run_weighted(
            {"u_total": [0.6], "n": [6], "period_hyperperiod": [720.0], "rep": [0]},
            {"rate": [0.05], "u_total": [9.0], "rep": [0]},
        )
        assert agg["fault_coverage"].points == {}
        assert agg["feasible_ratio"].count == 1


class TestRendering:
    def test_curve_rows_and_pivot(self):
        agg = run_weighted(TINY_SCHED, TINY_FAULT)
        headers, rows = weighted_curve_rows(
            agg, "weighted_feasible", ["u_total", "n", "H"]
        )
        assert headers[:3] == ["u_total", "n", "H"]
        assert len(rows) == 2  # two u_total bins
        assert rows[0][0] < rows[1][0]  # numerically sorted
        table = format_curve_pivot(headers, rows, x="u_total")
        assert "u_total" in table.splitlines()[0]
        assert "n=6" in table.splitlines()[0]
