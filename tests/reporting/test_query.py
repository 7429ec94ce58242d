"""Query-layer tests: validation, typed queries, identity, caching.

The layer's whole value is the shared-bytes contract — campaign, merge
and the HTTP server must render one snapshot identically — plus refusal
of snapshots a preset did not build, and tolerance (warn, not refuse) of
snapshots from a newer minor schema revision.
"""

import json
import warnings

import pytest

from repro.reporting import QueryCache, QueryError, SnapshotQuery, render_summary
from repro.runner import (
    SnapshotCompatWarning,
    get_preset,
    save_snapshot,
    stream_campaign,
)

SCHED_AXES = {"u_total": [0.5, 1.0], "n": [4], "rep": [0, 1]}


@pytest.fixture(scope="module")
def sched_run():
    preset = get_preset("sched")
    aggregator = preset.aggregator()
    stream_campaign(preset.specs(SCHED_AXES), aggregator, workers=1)
    return preset, aggregator


@pytest.fixture()
def sched_snapshot(sched_run, tmp_path):
    _preset, aggregator = sched_run
    path = tmp_path / "sched.json"
    save_snapshot(path, aggregator, 0, {"d" * 64})
    return json.loads(path.read_text()), path


class TestValidation:
    def test_from_snapshot_roundtrip(self, sched_run, sched_snapshot):
        _preset, aggregator = sched_run
        snap, _path = sched_snapshot
        query = SnapshotQuery.from_snapshot(snap, "sched")
        assert query.aggregator.state_dict() == aggregator.state_dict()

    def test_wrong_preset_refused_with_merge_message(self, sched_snapshot):
        snap, _path = sched_snapshot
        with pytest.raises(
            QueryError,
            match=(
                r"snapshots were not built by the 'weighted' preset's "
                r"aggregate \(config digest mismatch\)"
            ),
        ):
            SnapshotQuery.from_snapshot(snap, "weighted")

    def test_wrong_major_schema_refused(self, sched_snapshot):
        snap, _path = sched_snapshot
        snap = {**snap, "schema": 99}
        with pytest.raises(QueryError, match="has schema 99"):
            SnapshotQuery.from_snapshot(snap, "sched")

    def test_newer_minor_schema_warns_and_proceeds(self, sched_snapshot):
        snap, _path = sched_snapshot
        snap = {**snap, "schema_minor": 7}
        with pytest.warns(SnapshotCompatWarning, match="schema minor 7"):
            query = SnapshotQuery.from_snapshot(snap, "sched")
        assert query.summary()

    def test_unknown_top_level_keys_warn_and_proceed(self, sched_snapshot):
        snap, _path = sched_snapshot
        snap = {**snap, "future_extension": {"x": 1}}
        with pytest.warns(SnapshotCompatWarning, match="future_extension"):
            query = SnapshotQuery.from_snapshot(snap, "sched")
        assert query.summary()

    def test_malformed_aggregate_refused(self, sched_snapshot):
        snap, _path = sched_snapshot
        snap = {**snap, "aggregate": {"bogus": {"kind": "mean"}}}
        with pytest.raises(QueryError, match="malformed aggregate state"):
            SnapshotQuery.from_snapshot(snap, "sched")

    def test_non_object_snapshot_refused(self):
        with pytest.raises(QueryError, match="not a snapshot object"):
            SnapshotQuery.from_snapshot([1, 2], "sched")


class TestQueries:
    def test_metrics(self, sched_run):
        preset, aggregator = sched_run
        query = SnapshotQuery.from_aggregator(preset, aggregator)
        assert query.metrics() == [
            {"name": "acceptance_partitioned", "kind": "curve"},
            {"name": "acceptance_feasible", "kind": "curve"},
            {"name": "weighted_feasible", "kind": "curve"},
        ]

    def test_curve_pair_keys_become_axis_mappings(self, sched_run):
        query = SnapshotQuery.from_aggregator(*sched_run)
        curve = query.curve("acceptance_feasible")
        assert curve["metric"] == "acceptance_feasible"
        keys = [pt["key"] for pt in curve["points"]]
        assert keys == [
            {"n": 4, "u_total": 0.5},
            {"n": 4, "u_total": 1.0},
        ]
        for pt in curve["points"]:
            assert set(pt["value"]) == {"count", "sum", "mean"}

    def test_curve_pivot_over_axis(self, sched_run):
        query = SnapshotQuery.from_aggregator(*sched_run)
        curve = query.curve("acceptance_feasible", axis="u_total")
        assert curve["axis"] == "u_total"
        (series,) = curve["series"]
        assert series["key"] == {"n": 4}
        assert [x for x, _v in series["points"]] == [0.5, 1.0]

    def test_curve_unknown_axis_refused(self, sched_run):
        query = SnapshotQuery.from_aggregator(*sched_run)
        with pytest.raises(QueryError, match="has no axis 'nope'"):
            query.curve("acceptance_feasible", axis="nope")

    def test_curve_unknown_metric_refused(self, sched_run):
        query = SnapshotQuery.from_aggregator(*sched_run)
        with pytest.raises(QueryError, match="unknown metric 'nope'"):
            query.curve("nope")

    def test_curve_on_non_curve_metric_refused(self):
        preset = get_preset("weighted")
        query = SnapshotQuery.from_aggregator(preset, preset.aggregator())
        with pytest.raises(QueryError, match="not a curve"):
            query.curve("feasible_ratio")

    def test_curve_positional_keys_use_declared_axes(self):
        preset = get_preset("weighted")
        aggregator = preset.aggregator()
        aggregator["weighted_feasible"].fold([0.8, 8, 720.0], 1.0, weight=0.8)
        query = SnapshotQuery.from_aggregator(preset, aggregator)
        curve = query.curve("weighted_feasible")
        assert curve["points"][0]["key"] == {
            "u_total": 0.8,
            "n": 8,
            "period_hyperperiod": 720.0,
        }

    def test_categorical_curve_taxonomy_with_wilson_ci(self):
        preset = get_preset("faultspace")
        aggregator = preset.aggregator()
        acc = aggregator["outcomes"]
        acc.fold(["poisson", 0.05], {"masked": 8, "ft_miss": 2})
        query = SnapshotQuery.from_aggregator(preset, aggregator)
        result = query.categorical("outcomes")
        (bin_,) = result["bins"]
        assert bin_["key"] == {"scenario": "poisson", "rate": 0.05}
        tax = bin_["taxonomy"]
        assert tax["total"] == 10
        assert tax["categories"]["masked"]["count"] == 8
        assert tax["categories"]["masked"]["rate"] == 0.8
        lo, hi = tax["categories"]["masked"]["ci95"]
        assert lo < 0.8 < hi

    def test_categorical_on_numeric_metric_refused(self, sched_run):
        query = SnapshotQuery.from_aggregator(*sched_run)
        with pytest.raises(QueryError, match="not categorical"):
            query.categorical("acceptance_feasible")

    def test_summary_matches_aggregator(self, sched_run):
        _preset, aggregator = sched_run
        query = SnapshotQuery.from_aggregator("sched", aggregator)
        assert query.summary() == aggregator.summary()

    def test_query_dispatch(self, sched_run):
        query = SnapshotQuery.from_aggregator(*sched_run)
        assert query.query("summary") == query.summary()
        assert query.query("report") == query.report()
        assert query.query("metrics") == query.metrics()
        assert query.query("curve", metric="acceptance_feasible") == (
            query.curve("acceptance_feasible")
        )
        with pytest.raises(QueryError, match="needs a 'metric'"):
            query.query("curve")
        with pytest.raises(QueryError, match="unknown query kind"):
            query.query("plot")


class TestReport:
    def test_report_matches_preset_renderer(self, sched_run):
        preset, aggregator = sched_run
        query = SnapshotQuery.from_aggregator(preset, aggregator)
        assert query.report() == preset.render(aggregator)
        assert query.report().startswith("acceptance ratios (over reps):")

    def test_row_rendered_preset_falls_back_to_summary(self):
        preset = get_preset("faults")
        aggregator = preset.aggregator()
        query = SnapshotQuery.from_aggregator(preset, aggregator)
        report = query.report()
        assert report == render_summary(aggregator)
        assert report.splitlines()[0] == "aggregate summary:"
        assert any(
            line.strip().startswith("coverage =")
            for line in report.splitlines()
        )


class TestContentDigest:
    def test_digest_is_state_addressed(self, sched_run):
        preset, aggregator = sched_run
        a = SnapshotQuery.from_aggregator(preset, aggregator).content_digest
        # same state loaded a second way -> same digest
        twin = preset.aggregator()
        twin.load_state(aggregator.state_dict())
        b = SnapshotQuery.from_aggregator(preset, twin).content_digest
        assert a == b
        # empty state -> different digest
        c = SnapshotQuery.from_aggregator(
            preset, preset.aggregator()
        ).content_digest
        assert a != c


class TestQueryCache:
    def test_hit_miss_accounting(self):
        cache = QueryCache()
        key = QueryCache.key("d" * 64, "curve", metric="m", axis=None)
        assert cache.get(key) is None
        cache.put(key, b"body")
        assert cache.get(key) == b"body"
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_none_params_do_not_split_keys(self):
        a = QueryCache.key("d" * 64, "curve", metric="m", axis=None)
        b = QueryCache.key("d" * 64, "curve", metric="m")
        assert a == b

    def test_bounded_entries(self):
        cache = QueryCache(max_entries=2)
        for i in range(4):
            cache.put((f"{i}", "q"), b"x")
        assert cache.stats()["entries"] == 2
