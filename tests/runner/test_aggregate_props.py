"""Property-based tests of the accumulator merge contract.

The streaming aggregation layer is only deterministic if every accumulator
is associative, commutative, identity-preserving and exactly serializable —
these properties are what makes ``workers=4`` bit-identical to
``workers=1`` for *any* fold order. Hypothesis drives randomized fold
sequences, chunkings and permutations against all accumulator kinds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    Aggregator,
    CurveAccumulator,
    ExtremaAccumulator,
    HistogramSketch,
    MeanAccumulator,
    PointSpec,
    SlotAccumulator,
    WeightedMeanAccumulator,
    accumulator_from_state,
    canonical_json,
    curve_metric,
    mean_metric,
)

# Finite 64-bit floats plus bools/ints — everything a result field can hold.
values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
weights = st.one_of(
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
keys = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.4, 0.8, 1.2, "EDF", "RM"]),
)

#: One fold input rich enough for every accumulator kind.
folds = st.lists(st.tuples(keys, values, weights), max_size=40)


def build(kind, seq):
    """Fold ``seq`` into a fresh accumulator of ``kind``."""
    if kind == "mean":
        acc = MeanAccumulator()
        for _, v, _ in seq:
            acc.fold(v)
    elif kind == "wmean":
        acc = WeightedMeanAccumulator()
        for _, v, w in seq:
            acc.fold(v, w)
    elif kind == "extrema":
        acc = ExtremaAccumulator()
        for _, v, _ in seq:
            acc.fold(v)
    elif kind == "histogram":
        acc = HistogramSketch(-100.0, 100.0, bins=13)
        for _, v, _ in seq:
            acc.fold(v)
    elif kind == "curve":
        acc = CurveAccumulator(WeightedMeanAccumulator())
        for k, v, w in seq:
            acc.fold(k, v, w)
    else:
        raise ValueError(kind)
    return acc


def empty(kind):
    return build(kind, [])


def state(acc):
    """Canonical bytes of the accumulator state (what snapshots persist)."""
    return canonical_json(acc.state_dict())


KINDS = ["mean", "wmean", "extrema", "histogram", "curve"]
kinds = st.sampled_from(KINDS)


class TestMergeContract:
    @given(kinds, folds, folds, folds)
    @settings(max_examples=120, deadline=None)
    def test_merge_is_associative(self, kind, xs, ys, zs):
        a, b, c = build(kind, xs), build(kind, ys), build(kind, zs)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert state(left) == state(right)

    @given(kinds, folds, folds)
    @settings(max_examples=120, deadline=None)
    def test_merge_is_commutative(self, kind, xs, ys):
        a, b = build(kind, xs), build(kind, ys)
        assert state(a.merge(b)) == state(b.merge(a))

    @given(kinds, folds)
    @settings(max_examples=80, deadline=None)
    def test_empty_accumulator_is_merge_identity(self, kind, xs):
        a = build(kind, xs)
        assert state(a.merge(empty(kind))) == state(a)
        assert state(empty(kind).merge(a)) == state(a)

    @given(kinds, folds, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_fold_order_is_irrelevant(self, kind, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert state(build(kind, xs)) == state(build(kind, shuffled))

    @given(kinds, folds, st.integers(min_value=1, max_value=7))
    @settings(max_examples=80, deadline=None)
    def test_worker_sharding_matches_sequential_fold(self, kind, xs, workers):
        # Round-robin the folds over `workers` shards (how a pool would
        # interleave completions), merge the shards: must equal one
        # sequential fold bit-for-bit.
        shards = [build(kind, xs[w::workers]) for w in range(workers)]
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert state(merged) == state(build(kind, xs))

    @given(
        kinds,
        folds,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_worker_sharding_matches_sequential_fold(
        self, kind, xs, workers, batch
    ):
        # The batched engine's fold shape: chunk the stream into batches
        # (sizes that don't divide the count leave a short tail), deal the
        # batches round-robin to workers, fold each worker's batches in
        # arrival order, merge the workers. Must equal one sequential fold
        # bit-for-bit — this is what makes `--batch N` output-invisible.
        batches = [xs[i : i + batch] for i in range(0, len(xs), batch)]
        shards = [
            build(kind, [f for b in batches[w::workers] for f in b])
            for w in range(workers)
        ]
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert state(merged) == state(build(kind, xs))

    @given(kinds, folds)
    @settings(max_examples=80, deadline=None)
    def test_serialization_round_trip(self, kind, xs):
        a = build(kind, xs)
        restored = accumulator_from_state(json.loads(state(a)))
        assert restored == a
        assert state(restored) == state(a)
        # summaries (the rendered values) survive the round-trip too; plain
        # json.dumps because exact sums may finalize to ±inf (saturation)
        assert json.dumps(restored.summary(), sort_keys=True) == json.dumps(
            a.summary(), sort_keys=True
        )


class TestSlots:
    def test_merge_unions_and_rejects_conflicts(self):
        a, b = SlotAccumulator(), SlotAccumulator()
        a.fold("x", {"v": 1})
        b.fold("y", {"v": 2})
        merged = a.merge(b)
        assert merged["x"] == {"v": 1} and merged["y"] == {"v": 2}
        c = SlotAccumulator()
        c.fold("x", {"v": 3})
        try:
            a.merge(c)
        except ValueError:
            pass
        else:
            raise AssertionError("conflicting slot merge must raise")

    def test_round_trip(self):
        a = SlotAccumulator()
        a.fold("row", {"period": 2.966})
        assert accumulator_from_state(a.state_dict()) == a


class TestAggregator:
    def _aggs(self):
        return Aggregator(
            [
                mean_metric("ratio", "feasible"),
                curve_metric("curve", "u", "feasible", weight="util"),
            ]
        )

    def _point(self, u, feasible, util):
        spec = PointSpec("schedulability", {"u": u, "rep": util})
        return spec, {"feasible": feasible, "util": util}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 1.5]),
                st.booleans(),
                st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
            ),
            max_size=30,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_aggregators_merge_to_sequential(self, points, workers):
        sequential = self._aggs()
        for u, f, util in points:
            sequential.fold(*self._point(u, f, util))
        shards = [self._aggs() for _ in range(workers)]
        for i, (u, f, util) in enumerate(points):
            shards[i % workers].fold(*self._point(u, f, util))
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert canonical_json(merged.state_dict()) == canonical_json(
            sequential.state_dict()
        )

    def test_merge_pairs_metrics_by_name_not_position(self):
        # same metrics, different declaration order: config digests match,
        # so a positional merge would silently cross-contaminate
        a = Aggregator([mean_metric("x", "x"), mean_metric("y", "y")])
        b = Aggregator([mean_metric("y", "y"), mean_metric("x", "x")])
        spec = PointSpec("e", {})
        a.fold(spec, {"x": 1.0, "y": 100.0})
        b.fold(spec, {"x": 3.0, "y": 300.0})
        merged = a.merge(b)
        assert merged["x"].mean == pytest.approx(2.0)
        assert merged["y"].mean == pytest.approx(200.0)

    def test_state_round_trip_and_config_guard(self):
        agg = self._aggs()
        agg.fold(*self._point(0.5, True, 0.49))
        fresh = self._aggs()
        fresh.load_state(json.loads(canonical_json(agg.state_dict())))
        assert canonical_json(fresh.state_dict()) == canonical_json(
            agg.state_dict()
        )
        other = Aggregator([mean_metric("other", "feasible")])
        assert other.config_digest != agg.config_digest

    def test_empty_twin_folds_like_a_fresh_aggregator(self):
        """The planning view of a sharded adaptive run: same shape and fold
        rules as its source aggregator, none of its folds."""
        agg = self._aggs()
        agg.fold(*self._point(0.5, True, 0.49))
        twin = agg.empty()
        assert twin.config_digest == agg.config_digest
        assert twin.state_dict() == self._aggs().state_dict()
        fresh = self._aggs()
        for aggregator in (twin, fresh):
            aggregator.fold(*self._point(1.0, False, 0.7))
        assert canonical_json(twin.state_dict()) == canonical_json(
            fresh.state_dict()
        )
        assert agg["ratio"].count == 1
