"""Faultspace preset tests: specs, aggregation, rendering, shard merges."""

import json

import pytest

from repro.experiments.faultspace import (
    FAULTSPACE_AXES,
    faultspace_aggregator,
    faultspace_specs,
    ft_miss_rows,
    outcome_rate_rows,
    render_faultspace,
)
from repro.runner import (
    PointSpec,
    merge_snapshots,
    stream_campaign,
)

#: Small but real grid: 3 scenarios x 2 rates, cheap generated sets.
TINY_AXES = {
    "u_total": [0.8],
    "rate": [0.02, 0.05],
    "scenario": ["poisson", "bursty", "permanent"],
    "rep": [0, 1],
    "n": [6],
    "cycles": [10],
}


@pytest.fixture(scope="module")
def tiny_run():
    return stream_campaign(
        faultspace_specs(TINY_AXES),
        faultspace_aggregator(),
        workers=1,
        master_seed=5,
        on_error="store",
    )


class TestSpecs:
    def test_default_grid_shape(self):
        specs = faultspace_specs()
        assert len(specs) == (
            len(FAULTSPACE_AXES["u_total"])
            * len(FAULTSPACE_AXES["rate"])
            * len(FAULTSPACE_AXES["scenario"])
            * len(FAULTSPACE_AXES["rep"])
        )
        assert all(s.experiment == "dependability" for s in specs)
        assert all(s.params["source"] == "generated" for s in specs)

    def test_scenario_narrowing(self):
        specs = faultspace_specs(TINY_AXES, scenario="permanent")
        assert specs and {s.params["scenario"] for s in specs} == {"permanent"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            faultspace_specs(scenario="cosmic")

    def test_axes_may_override_base_params(self):
        specs = faultspace_specs({"n": [6], "cycles": [5]})
        assert all(s.params["n"] == 6 and s.params["cycles"] == 5 for s in specs)


class TestAggregation:
    def test_synthetic_fold(self):
        agg = faultspace_aggregator()
        spec = PointSpec(
            "dependability",
            {"scenario": "poisson", "rate": 0.05, "u_total": 0.8, "rep": 0},
        )
        agg.fold(
            spec,
            {
                "injected": 4,
                "outcomes": {"masked": 3, "corrupted": 1},
                "outcomes_by_mode": {"FT/masked": 3, "NF/corrupted": 1},
                "ft_miss": False,
                "any_corruption": True,
                "corrupted_jobs": 1,
                "utilization": 0.8,
            },
        )
        outcomes = agg["outcomes"].bin(["poisson", 0.05])
        assert outcomes.total == 4
        assert outcomes.rate("masked") == pytest.approx(0.75)
        assert agg["ft_miss"].bin(["poisson", 0.05]).mean == 0.0
        assert agg["any_corruption"].bin(["poisson", 0.05]).mean == 1.0
        assert agg["injected"].mean == pytest.approx(4.0)

    def test_end_to_end_covers_every_scenario(self, tiny_run):
        curves = tiny_run.aggregator["outcomes"]
        scenarios = {key[0] for key, _ in curves.items()}
        assert scenarios == {"poisson", "bursty", "permanent"}
        # per-mode taxonomy streamed too
        by_mode = tiny_run.aggregator["outcomes_by_mode"]
        assert any(acc.total for _, acc in by_mode.items())


class TestRendering:
    def test_tables_and_plot(self, tiny_run):
        text = render_faultspace(tiny_run.aggregator)
        assert "fault outcome shares" in text
        assert "Wilson 95%" in text
        assert "FT-miss" in text
        for scenario in ("poisson", "bursty", "permanent"):
            assert scenario in text
        assert "corrupted share vs fault rate" in text
        assert "summary: campaigns=12" in text

    def test_outcome_rows_have_ci_columns(self, tiny_run):
        headers, rows = outcome_rate_rows(tiny_run.aggregator)
        assert "masked_ci95" in headers and "corrupted_ci95" in headers
        assert len(rows) == 6  # 3 scenarios x 2 rates
        ci = rows[0][headers.index("masked_ci95")]
        assert ci == "n/a" or ci.startswith("[")

    def test_ft_miss_rows_probabilities_bounded(self, tiny_run):
        headers, rows = ft_miss_rows(tiny_run.aggregator)
        p = headers.index("p_ft_miss")
        assert rows and all(0.0 <= r[p] <= 1.0 for r in rows)

    def test_empty_aggregator_renders(self):
        text = render_faultspace(faultspace_aggregator())
        assert "summary: campaigns=0" in text

    def test_integer_rate_axis_addresses_the_same_bins(self):
        """An int rate axis value must hit the same (scenario, rate) bin in
        every curve — a float-coerced lookup key would miss it — and
        rendering must never create empty bins in the live aggregate."""
        from repro.runner import canonical_json

        agg = faultspace_aggregator()
        spec = PointSpec(
            "dependability", {"scenario": "poisson", "rate": 1, "rep": 0}
        )
        agg.fold(
            spec,
            {
                "injected": 2,
                "outcomes": {"corrupted": 2},
                "outcomes_by_mode": {"NF/corrupted": 2},
                "ft_miss": True,
                "any_corruption": True,
                "corrupted_jobs": 2,
                "utilization": 0.8,
            },
        )
        before = canonical_json(agg.state_dict())
        headers, rows = ft_miss_rows(agg)
        assert rows[0][headers.index("p_corruption")] == 1.0
        render_faultspace(agg)
        assert canonical_json(agg.state_dict()) == before


class TestShardMerge:
    def test_two_shards_merge_to_the_unsharded_aggregate(
        self, tmp_path, tiny_run
    ):
        from repro.runner import canonical_json

        specs = faultspace_specs(TINY_AXES)
        shard_snaps = []
        for i in range(2):
            result = stream_campaign(
                specs,
                faultspace_aggregator(),
                workers=1,
                master_seed=5,
                on_error="store",
                shard=(i, 2),
                state_path=tmp_path / f"shard-{i}.json",
            )
            assert result.stats.errors == 0
            shard_snaps.append(
                json.loads((tmp_path / f"shard-{i}.json").read_text())
            )
        merged = merge_snapshots(shard_snaps)
        assert canonical_json(merged["aggregate"]) == canonical_json(
            tiny_run.aggregator.state_dict()
        )
        assert sorted(merged["folded"]) == sorted(
            {s.digest for s in specs}
        )
