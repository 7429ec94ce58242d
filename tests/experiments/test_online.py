"""Online preset tests: specs, exact aggregation, rendering, shard merges."""

import json

import pytest

from repro.experiments.online import (
    ONLINE_AXES,
    acceptance_rows,
    online_aggregator,
    online_specs,
    reassignment_rows,
    render_online,
)
from repro.runner import (
    PointSpec,
    canonical_json,
    merge_snapshots,
    stream_campaign,
)

#: Small but real grid: both scenarios, two arrival rates, tiny task sets.
TINY_AXES = {
    "arrival_rate": [1.0, 2.0],
    "u_total": [0.5],
    "scenario": ["poisson", "permanent"],
    "rep": [0, 1],
    "n": [4],
    "cycles": [10],
}


@pytest.fixture(scope="module")
def tiny_run():
    return stream_campaign(
        online_specs(TINY_AXES),
        online_aggregator(),
        workers=1,
        master_seed=5,
        on_error="store",
    )


class TestSpecs:
    def test_default_grid_shape(self):
        specs = online_specs()
        assert len(specs) == (
            len(ONLINE_AXES["arrival_rate"])
            * len(ONLINE_AXES["u_total"])
            * len(ONLINE_AXES["scenario"])
            * len(ONLINE_AXES["rep"])
        )
        assert all(s.experiment == "online" for s in specs)
        assert all(s.params["source"] == "generated" for s in specs)
        # the fault rate is fixed; the arrival process has its own axis
        assert all(s.params["rate"] == 0.05 for s in specs)

    def test_scenario_narrowing(self):
        specs = online_specs(TINY_AXES, scenario="permanent")
        assert specs and {s.params["scenario"] for s in specs} == {"permanent"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            online_specs(scenario="cosmic")

    def test_axes_may_override_base_params(self):
        specs = online_specs({"n": [4], "cycles": [5]})
        assert all(s.params["n"] == 4 and s.params["cycles"] == 5 for s in specs)


class TestAggregation:
    def test_synthetic_fold_keeps_exact_acceptance_counts(self):
        """Acceptance bins fold through the multiplicity form — ``accepted``
        successes out of ``offered`` trials — so the bin mean is the exact
        ratio and pooling over shards is exact integer arithmetic."""
        agg = online_aggregator()
        spec = PointSpec(
            "online",
            {"scenario": "permanent", "arrival_rate": 1.0, "rep": 0},
        )
        agg.fold(
            spec,
            {
                "acceptance_bins": [[0, 4, 3], [2, 2, 2]],
                "offered": 6,
                "admitted": 5,
                "orphaned": 2,
                "reassigned": 1,
                "reassign_latencies": [1.25],
                "lost": 1,
                "miss_windows": [1.25, 40.0],
                "post_failure_misses": 4,
                "slack_final": 0.25,
            },
        )
        bin0 = agg["acceptance"].bin(["permanent", 1.0, 0])
        assert (bin0.count, int(bin0.total)) == (4, 3)
        assert agg["acceptance"].bin(["permanent", 1.0, 2]).mean == 1.0
        assert agg["reassign_latency"].bin(["permanent", 1.0]).mean == 1.25
        assert agg["miss_window"].bin(["permanent", 1.0]).count == 2
        assert agg["orphaned"].bin(["permanent", 1.0]).mean == 2.0
        assert agg["post_failure_misses"].mean == pytest.approx(4.0)

    def test_empty_cycles_never_fold(self):
        agg = online_aggregator()
        spec = PointSpec("online", {"scenario": "poisson", "arrival_rate": 0.5})
        agg.fold(
            spec,
            {
                "acceptance_bins": [[0, 0, 0], [1, 2, 1]],
                "offered": 2,
                "admitted": 1,
                "orphaned": 0,
                "reassigned": 0,
                "reassign_latencies": [],
                "lost": 0,
                "miss_windows": [],
                "post_failure_misses": 0,
                "slack_final": 0.1,
            },
        )
        keys = {tuple(k) for k, _ in agg["acceptance"].items()}
        assert keys == {("poisson", 0.5, 1)}

    def test_foreign_experiment_results_skipped(self):
        agg = online_aggregator()
        agg.fold(
            PointSpec("dependability", {"scenario": "poisson", "rate": 0.1}),
            {"acceptance_bins": [[0, 1, 1]], "offered": 1},
        )
        assert not list(agg["acceptance"].items())
        assert agg["offered"].count == 0

    def test_end_to_end_covers_every_series(self, tiny_run):
        keys = {
            tuple(key[:2])
            for key, _ in tiny_run.aggregator["acceptance"].items()
        }
        assert keys == {
            (scenario, rate)
            for scenario in ("poisson", "permanent")
            for rate in (1.0, 2.0)
        }

    def test_permanent_deaths_trigger_reassignment(self, tiny_run):
        """The tentpole signal: permanent scenarios kill a core, orphaning
        tasks; poisson (transient-only) campaigns never do."""
        orphan_by_scenario = {}
        for key, acc in tiny_run.aggregator["orphaned"].items():
            orphan_by_scenario.setdefault(key[0], 0)
            orphan_by_scenario[key[0]] += int(acc.total)
        assert orphan_by_scenario["poisson"] == 0
        assert orphan_by_scenario["permanent"] > 0
        latencies = list(tiny_run.aggregator["reassign_latency"].items())
        assert latencies and all(key[0] == "permanent" for key, _ in latencies)


class TestRendering:
    def test_tables_and_plot(self, tiny_run):
        text = render_online(tiny_run.aggregator)
        assert "online acceptance (pooled over cycles, Wilson 95% CIs):" in text
        assert "acceptance ratio vs major cycle:" in text
        assert "re-assignment after permanent core failure:" in text
        for scenario in ("poisson", "permanent"):
            assert scenario in text
        assert "summary: campaigns=8" in text

    def test_acceptance_rows_pool_cycles(self, tiny_run):
        headers, rows = acceptance_rows(tiny_run.aggregator)
        assert headers[:2] == ["scenario", "arrival_rate"]
        assert len(rows) == 4  # 2 scenarios x 2 rates
        off, acc = headers.index("offered"), headers.index("accepted")
        assert all(0 < r[acc] <= r[off] for r in rows)
        ci = rows[0][headers.index("ci95")]
        assert ci == "n/a" or ci.startswith("[")

    def test_reassignment_rows_quiet_for_transients(self, tiny_run):
        headers, rows = reassignment_rows(tiny_run.aggregator)
        orphans = headers.index("orphans/pt")
        latency = headers.index("mean_latency")
        by_scenario = {r[0]: r for r in rows if r[0] == "poisson"}
        assert by_scenario["poisson"][orphans] == 0.0
        assert by_scenario["poisson"][latency] is None
        assert any(r[0] == "permanent" and r[orphans] > 0 for r in rows)

    def test_empty_aggregator_renders(self):
        text = render_online(online_aggregator())
        assert "summary: campaigns=0" in text

    def test_rendering_never_mutates_the_aggregate(self, tiny_run):
        before = canonical_json(tiny_run.aggregator.state_dict())
        render_online(tiny_run.aggregator)
        acceptance_rows(tiny_run.aggregator)
        reassignment_rows(tiny_run.aggregator)
        assert canonical_json(tiny_run.aggregator.state_dict()) == before


class TestQueryLayer:
    def test_curves_served_with_registered_axes(self, tiny_run):
        from repro.reporting import SnapshotQuery

        query = SnapshotQuery.from_aggregator("online", tiny_run.aggregator)
        names = {m["name"] for m in query.metrics()}
        assert {"acceptance", "reassign_latency", "miss_window"} <= names
        curve = query.curve("acceptance")
        keys = curve["points"][0]["key"]
        assert set(keys) == {"scenario", "arrival_rate", "cycle"}

    def test_acceptance_pivots_over_cycle(self, tiny_run):
        from repro.reporting import SnapshotQuery

        query = SnapshotQuery.from_aggregator("online", tiny_run.aggregator)
        curve = query.curve("acceptance", axis="cycle")
        assert curve["axis"] == "cycle"
        assert len(curve["series"]) == 4
        for series in curve["series"]:
            assert set(series["key"]) == {"scenario", "arrival_rate"}


class TestShardMerge:
    def test_two_shards_merge_to_the_unsharded_aggregate(
        self, tmp_path, tiny_run
    ):
        specs = online_specs(TINY_AXES)
        shard_snaps = []
        for i in range(2):
            result = stream_campaign(
                specs,
                online_aggregator(),
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
        assert sorted(merged["folded"]) == sorted({s.digest for s in specs})

    def test_worker_count_does_not_change_the_aggregate(self, tiny_run):
        parallel = stream_campaign(
            online_specs(TINY_AXES),
            online_aggregator(),
            workers=2,
            master_seed=5,
            on_error="store",
        )
        assert canonical_json(parallel.aggregator.state_dict()) == (
            canonical_json(tiny_run.aggregator.state_dict())
        )
