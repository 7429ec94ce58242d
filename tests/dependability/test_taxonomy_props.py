"""Property tests: the categorical-count merge contract.

The dependability curves only merge bit-identically across shards, batch
sizes and resumes if :class:`CategoricalCountAccumulator` (alone and as a
curve sub-accumulator) is associative, commutative, identity-preserving,
fold-order-insensitive and exactly serializable — the same contract the
numeric accumulators satisfy in ``tests/runner/test_aggregate_props.py``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependability import outcome_curve_metric
from repro.runner import (
    Aggregator,
    CategoricalCountAccumulator,
    CurveAccumulator,
    PointSpec,
    accumulator_from_state,
    canonical_json,
    merge_states,
)

categories = st.sampled_from(
    ["masked", "silenced", "corrupted", "harmless", "FT/masked", "NF/corrupted"]
)
counts = st.integers(min_value=0, max_value=50)
#: One fold input: a single category or a whole {category: count} record.
fold_inputs = st.one_of(
    categories,
    st.dictionaries(categories, counts, max_size=6),
)
keys = st.sampled_from(
    [["poisson", 0.05], ["bursty", 0.1], ["permanent", 0.05], 0.02]
)
folds = st.lists(st.tuples(keys, fold_inputs), max_size=40)


def build(kind, seq):
    if kind == "catcount":
        acc = CategoricalCountAccumulator()
        for _, v in seq:
            acc.fold(v)
    else:
        acc = CurveAccumulator(CategoricalCountAccumulator())
        for k, v in seq:
            acc.fold(k, v)
    return acc


def empty(kind):
    return build(kind, [])


def state(acc):
    return canonical_json(acc.state_dict())


kinds = st.sampled_from(["catcount", "catcount-curve"])


class TestCategoricalMergeContract:
    @given(kinds, folds, folds, folds)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_associative(self, kind, xs, ys, zs):
        a, b, c = build(kind, xs), build(kind, ys), build(kind, zs)
        assert state(a.merge(b).merge(c)) == state(a.merge(b.merge(c)))

    @given(kinds, folds, folds)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative(self, kind, xs, ys):
        a, b = build(kind, xs), build(kind, ys)
        assert state(a.merge(b)) == state(b.merge(a))

    @given(kinds, folds)
    @settings(max_examples=60, deadline=None)
    def test_empty_accumulator_is_merge_identity(self, kind, xs):
        a = build(kind, xs)
        assert state(a.merge(empty(kind))) == state(a)
        assert state(empty(kind).merge(a)) == state(a)

    @given(kinds, folds, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_fold_order_is_irrelevant(self, kind, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert state(build(kind, xs)) == state(build(kind, shuffled))

    @given(
        kinds,
        folds,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_worker_sharding_matches_sequential_fold(
        self, kind, xs, workers, batch
    ):
        # The engine's fold shape: chunk into batches (non-dividing sizes
        # leave a short tail), deal batches round-robin to workers, merge
        # the workers — must equal one sequential fold bit-for-bit.
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
    @settings(max_examples=60, deadline=None)
    def test_serialization_round_trip(self, kind, xs):
        a = build(kind, xs)
        restored = accumulator_from_state(json.loads(state(a)))
        assert restored == a
        assert state(restored) == state(a)
        assert json.dumps(restored.summary(), sort_keys=True) == json.dumps(
            a.summary(), sort_keys=True
        )

    @given(folds, folds)
    @settings(max_examples=40, deadline=None)
    def test_merge_states_cross_process_path(self, xs, ys):
        # shard snapshots merge via serialized states, no fold rules
        def agg(seq):
            a = Aggregator([outcome_curve_metric("outcomes", "bin", "outcomes")])
            for i, (k, v) in enumerate(seq):
                a.fold(
                    PointSpec("dependability", {"rep": i, "bin": k}),
                    {"outcomes": v},
                )
            return a

        left, right = agg(xs), agg(ys)
        via_states = merge_states(left.state_dict(), right.state_dict())
        direct = left.merge(right).state_dict()
        assert canonical_json(via_states) == canonical_json(direct)

    @given(folds)
    @settings(max_examples=40, deadline=None)
    def test_zero_counts_never_reach_the_state(self, xs):
        a = build("catcount", xs)
        assert all(n > 0 for n in a.counts.values())
        assert a.total == sum(a.counts.values())
