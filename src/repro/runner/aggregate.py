"""Mergeable streaming accumulators for campaign aggregation.

Campaign sweeps at paper scale (millions of points) cannot materialize every
point result; they need results *folded* into constant-size aggregates as
points complete. The accumulators here obey a strict merge contract that
makes streaming aggregation deterministic:

* **Exactness** — numeric accumulation is carried in
  :class:`fractions.Fraction`. Every IEEE-754 float is a dyadic rational, so
  sums and weighted sums are exact; exact arithmetic is associative and
  commutative, which makes every accumulator *order-insensitive*:
  ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` and any fold order —
  any worker count, any completion order — produces **bit-identical** state.
* **Identity** — a freshly constructed accumulator is the merge identity.
* **Serialization** — ``state_dict()`` / :func:`accumulator_from_state`
  round-trip through canonical JSON, so partial aggregates persist next to
  the point cache and extended sweeps resume aggregation incrementally
  (see :mod:`repro.runner.stream`).

The zoo: :class:`MeanAccumulator` (count / sum / mean — a ratio when fed
booleans), :class:`WeightedMeanAccumulator` (weighted schedulability with
per-point utilization weights), :class:`ExtremaAccumulator` (min/max),
:class:`HistogramSketch` (fixed-bin counts with deterministic percentile
queries), :class:`CategoricalCountAccumulator` (exact per-category integer
counts — the fault-outcome taxonomy), :class:`CurveAccumulator` (binned
curves: one sub-accumulator per x-key) and :class:`SlotAccumulator` (a
fixed set of named results — how the paper artifacts stream).
:class:`Aggregator` bundles named accumulators with fold rules over
``(spec, result)`` pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from repro.runner.spec import PointSpec, canonical_json

#: Registry of accumulator kinds (filled by ``_register``).
_KINDS: dict[str, type["Accumulator"]] = {}


def _register(cls: type["Accumulator"]) -> type["Accumulator"]:
    if cls.kind in _KINDS:
        raise ValueError(f"accumulator kind {cls.kind!r} registered twice")
    _KINDS[cls.kind] = cls
    return cls


def accumulator_from_state(state: Mapping[str, Any]) -> "Accumulator":
    """Rebuild any accumulator from its ``state_dict()`` form."""
    try:
        cls = _KINDS[state["kind"]]
    except KeyError:
        raise ValueError(f"unknown accumulator kind in state: {state!r}") from None
    return cls.from_state(state)


def _exact(value: Any, what: str = "value") -> Fraction:
    """Exact rational form of a fold input (bool/int/float), rejecting NaN/inf."""
    if isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot fold non-finite {what}: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot fold {what} of type {type(value).__name__}: {value!r}")


def _as_float(f: Fraction) -> float:
    """Correctly rounded float of ``f``, saturating to ±inf out of range.

    Exact sums can exceed the float range (two near-``sys.float_info.max``
    folds) even though every summand was finite; the exact state is kept,
    only the *finalized* view saturates.
    """
    try:
        return float(f)
    except OverflowError:
        return math.inf if f > 0 else -math.inf


def _fraction_state(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _fraction_from_state(pair: Sequence[int]) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


class Accumulator:
    """Base class: a mergeable, serializable streaming aggregate."""

    kind: str = ""

    # -- merge contract --------------------------------------------------

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Pure merge: a new accumulator holding both sides' folds."""
        self._check_mergeable(other)
        return self._merged(other)

    def _check_mergeable(self, other: "Accumulator") -> None:
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.config_dict() != other.config_dict():
            raise ValueError(
                f"cannot merge {self.kind} accumulators with different "
                f"configs: {self.config_dict()} vs {other.config_dict()}"
            )

    def _merged(self, other: "Accumulator") -> "Accumulator":
        raise NotImplementedError

    # -- serialization ---------------------------------------------------

    def config_dict(self) -> dict[str, Any]:
        """Structural identity (kind + shape params, no folded data)."""
        return {"kind": self.kind}

    def state_dict(self) -> dict[str, Any]:
        """Full JSON-serializable state (canonical: equal folds, equal bytes)."""
        raise NotImplementedError

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Accumulator":
        raise NotImplementedError

    def summary(self) -> dict[str, Any]:
        """Finalized values (floats) for rendering and ``--agg-out``."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Accumulator):
            return NotImplemented
        return type(self) is type(other) and self.state_dict() == other.state_dict()

    def __hash__(self) -> int:  # states are mutable; identity hash is fine
        return id(self)


@_register
class MeanAccumulator(Accumulator):
    """Exact count/sum/mean. Fed booleans it is a ratio accumulator."""

    kind = "mean"

    def __init__(self) -> None:
        self.count = 0
        self.total = Fraction(0)

    def fold(self, value: Any, count: int = 1) -> None:
        """Fold ``value`` into the running sum.

        With ``count > 1``, ``value`` is the *sum* over ``count``
        observations folded at once — the exact multiplicity form used by
        pre-binned curve data (e.g. an online acceptance bin carrying
        ``accepted`` admissions out of ``offered`` arrivals). The state
        shape is unchanged, so the merge contract is unaffected.
        """
        if isinstance(count, bool) or not isinstance(count, int):
            raise TypeError(f"count must be an int: got {count!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1: got {count}")
        self.total += _exact(value)
        self.count += count

    def _merged(self, other: "MeanAccumulator") -> "MeanAccumulator":
        out = MeanAccumulator()
        out.count = self.count + other.count
        out.total = self.total + other.total
        return out

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": _fraction_state(self.total),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MeanAccumulator":
        out = cls()
        out.count = int(state["count"])
        out.total = _fraction_from_state(state["total"])
        return out

    @property
    def mean(self) -> float | None:
        """Correctly rounded exact mean (None before any fold)."""
        if self.count == 0:
            return None
        return _as_float(self.total / self.count)

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": _as_float(self.total),
            "mean": self.mean,
        }


@_register
class WeightedMeanAccumulator(Accumulator):
    """Exact weighted mean — e.g. utilization-weighted schedulability."""

    kind = "wmean"

    def __init__(self) -> None:
        self.count = 0
        self.weight = Fraction(0)
        self.weighted_total = Fraction(0)

    def fold(self, value: Any, weight: Any = 1) -> None:
        w = _exact(weight, "weight")
        if w < 0:
            raise ValueError(f"weights must be >= 0: got {weight!r}")
        self.weighted_total += w * _exact(value)
        self.weight += w
        self.count += 1

    def _merged(self, other: "WeightedMeanAccumulator") -> "WeightedMeanAccumulator":
        out = WeightedMeanAccumulator()
        out.count = self.count + other.count
        out.weight = self.weight + other.weight
        out.weighted_total = self.weighted_total + other.weighted_total
        return out

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "weight": _fraction_state(self.weight),
            "weighted_total": _fraction_state(self.weighted_total),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WeightedMeanAccumulator":
        out = cls()
        out.count = int(state["count"])
        out.weight = _fraction_from_state(state["weight"])
        out.weighted_total = _fraction_from_state(state["weighted_total"])
        return out

    @property
    def mean(self) -> float | None:
        """Weighted mean (None while the total weight is zero)."""
        if self.weight == 0:
            return None
        return _as_float(self.weighted_total / self.weight)

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "weight": _as_float(self.weight),
            "mean": self.mean,
        }


@_register
class ExtremaAccumulator(Accumulator):
    """Exact running min/max (floats compare exactly; order-insensitive)."""

    kind = "extrema"

    def __init__(self) -> None:
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def fold(self, value: Any) -> None:
        v = float(_exact(value))
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        self.count += 1

    def _merged(self, other: "ExtremaAccumulator") -> "ExtremaAccumulator":
        out = ExtremaAccumulator()
        out.count = self.count + other.count
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        out.min = min(mins) if mins else None
        out.max = max(maxs) if maxs else None
        return out

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ExtremaAccumulator":
        out = cls()
        out.count = int(state["count"])
        out.min = state["min"]
        out.max = state["max"]
        return out

    def summary(self) -> dict[str, Any]:
        return {"count": self.count, "min": self.min, "max": self.max}


@_register
class HistogramSketch(Accumulator):
    """Fixed-bin histogram with deterministic percentile queries.

    Exact order statistics over a stream need O(points) memory; the sketch
    keeps ``bins`` integer counts over ``[lo, hi)`` plus exact min/max and
    answers percentiles by linear interpolation inside the covering bin —
    a deterministic, mergeable approximation with error bounded by the bin
    width. Out-of-range folds land in the underflow/overflow counters.
    """

    kind = "histogram"

    def __init__(self, lo: float, hi: float, bins: int = 32) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ValueError(f"need finite lo < hi: got [{lo}, {hi})")
        if bins < 1:
            raise ValueError(f"bins must be >= 1: got {bins}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = [0] * self.bins
        self.underflow = 0
        self.overflow = 0
        self.extrema = ExtremaAccumulator()
        self._lo_exact = Fraction(self.lo)
        self._span_exact = Fraction(self.hi) - self._lo_exact

    def fold(self, value: Any) -> None:
        exact = _exact(value)
        v = float(exact)
        self.extrema.fold(v)
        if v < self.lo:
            self.underflow += 1
        elif v >= self.hi:
            self.overflow += 1
        else:
            # Index from exact rationals: float((v-lo)/(hi-lo))*bins can
            # round across a bin edge, which would break order-insensitivity
            # between platforms; integer floor of the exact ratio cannot.
            idx = int((exact - self._lo_exact) * self.bins // self._span_exact)
            self.counts[min(idx, self.bins - 1)] += 1

    @property
    def count(self) -> int:
        return self.extrema.count

    def _merged(self, other: "HistogramSketch") -> "HistogramSketch":
        out = HistogramSketch(self.lo, self.hi, self.bins)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.underflow = self.underflow + other.underflow
        out.overflow = self.overflow + other.overflow
        out.extrema = self.extrema.merge(other.extrema)
        return out

    def percentile(self, q: float) -> float | None:
        """Approximate q-quantile (``0 <= q <= 1``), None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1]: got {q}")
        n = self.count
        if n == 0:
            return None
        assert self.extrema.min is not None and self.extrema.max is not None
        rank = q * n
        seen = float(self.underflow)
        if rank <= seen:
            return self.extrema.min
        width = (self.hi - self.lo) / self.bins
        for i, c in enumerate(self.counts):
            if c and rank <= seen + c:
                frac = (rank - seen) / c
                approx = self.lo + (i + frac) * width
                return min(max(approx, self.extrema.min), self.extrema.max)
            seen += c
        return self.extrema.max

    def config_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi, "bins": self.bins}

    def state_dict(self) -> dict[str, Any]:
        return {
            **self.config_dict(),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "extrema": self.extrema.state_dict(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "HistogramSketch":
        out = cls(state["lo"], state["hi"], state["bins"])
        out.counts = [int(c) for c in state["counts"]]
        out.underflow = int(state["underflow"])
        out.overflow = int(state["overflow"])
        extrema = accumulator_from_state(state["extrema"])
        assert isinstance(extrema, ExtremaAccumulator)
        out.extrema = extrema
        return out

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "min": self.extrema.min,
            "max": self.extrema.max,
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }


@_register
class CategoricalCountAccumulator(Accumulator):
    """Exact integer counts per category — the outcome-taxonomy aggregate.

    Folds one category name, or a whole ``{category: count}`` mapping (the
    shape of a per-point dependability record: outcome counts by kind or by
    ``mode/outcome``). Merge is per-category integer addition — trivially
    associative and commutative with the fresh accumulator as identity — so
    outcome curves built on this accumulator shard, batch and resume
    bit-identically under the same contract as the numeric accumulators.
    Zero counts fold to nothing: a category exists in the state only once a
    positive count arrived, keeping the canonical bytes independent of
    which all-zero records a shard happened to see.
    """

    kind = "catcount"

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def fold(self, value: Any, count: int = 1) -> None:
        if isinstance(value, Mapping):
            if count != 1:
                raise ValueError(
                    "count applies to single-category folds, not mappings"
                )
            for category, n in value.items():
                self._add(str(category), n)
        else:
            self._add(str(value), count)

    def _add(self, category: str, n: Any) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(
                f"category counts must be ints: got {n!r} for {category!r}"
            )
        if n < 0:
            raise ValueError(
                f"category counts must be >= 0: got {n} for {category!r}"
            )
        if n:
            self.counts[category] = self.counts.get(category, 0) + n

    @property
    def total(self) -> int:
        """Total count over every category."""
        return sum(self.counts.values())

    def rate(self, category: str) -> float | None:
        """Exact share of ``category`` (None while nothing was counted)."""
        total = self.total
        if total == 0:
            return None
        return _as_float(Fraction(self.counts.get(category, 0), total))

    def rates(self) -> dict[str, float]:
        """Per-category shares, sorted by category (empty when empty)."""
        total = self.total
        if total == 0:
            return {}
        return {
            k: _as_float(Fraction(self.counts[k], total))
            for k in sorted(self.counts)
        }

    def _merged(
        self, other: "CategoricalCountAccumulator"
    ) -> "CategoricalCountAccumulator":
        out = CategoricalCountAccumulator()
        out.counts = dict(self.counts)
        for k, n in other.counts.items():
            out.counts[k] = out.counts.get(k, 0) + n
        return out

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "CategoricalCountAccumulator":
        out = cls()
        for k, n in state["counts"].items():
            out._add(str(k), int(n))
        return out

    def summary(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "counts": self.state_dict()["counts"],
            "rates": self.rates(),
        }


@_register
class CurveAccumulator(Accumulator):
    """A binned curve: one sub-accumulator per x-key.

    Keys are arbitrary JSON values (scalars or ``[u_total, n, ...]`` tuples
    for multi-series curves), canonicalized to their JSON text so logically
    equal keys always share a bin. This is what weighted-schedulability
    curves stream into: key = the swept parameters, sub-accumulator = a
    :class:`WeightedMeanAccumulator`.
    """

    kind = "curve"

    def __init__(self, sub: Accumulator | None = None) -> None:
        self._prototype = sub if sub is not None else WeightedMeanAccumulator()
        if self._prototype.state_dict() != type(self._prototype)(
            **_config_kwargs(self._prototype)
        ).state_dict():
            raise ValueError("curve prototype accumulator must be empty")
        self.points: dict[str, Accumulator] = {}

    def _fresh(self) -> Accumulator:
        return type(self._prototype)(**_config_kwargs(self._prototype))

    def bin(self, key: Any) -> Accumulator:
        """The sub-accumulator of ``key`` (created empty on first use)."""
        k = canonical_json(key)
        acc = self.points.get(k)
        if acc is None:
            acc = self.points[k] = self._fresh()
        return acc

    def fold(self, key: Any, *args: Any, **kwargs: Any) -> None:
        self.bin(key).fold(*args, **kwargs)  # type: ignore[attr-defined]

    def _merged(self, other: "CurveAccumulator") -> "CurveAccumulator":
        out = CurveAccumulator(self._fresh())
        for k, acc in self.points.items():
            out.points[k] = acc.merge(self._fresh())
        for k, acc in other.points.items():
            if k in out.points:
                out.points[k] = out.points[k].merge(acc)
            else:
                out.points[k] = acc.merge(self._fresh())
        return out

    def items(self) -> list[tuple[Any, Accumulator]]:
        """``(parsed key, sub-accumulator)`` pairs, deterministically ordered."""
        return [
            (json.loads(k), acc) for k, acc in sorted(self.points.items())
        ]

    def config_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "sub": self._prototype.config_dict()}

    def state_dict(self) -> dict[str, Any]:
        return {
            **self.config_dict(),
            "points": {
                k: acc.state_dict() for k, acc in sorted(self.points.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "CurveAccumulator":
        out = cls(_accumulator_from_config(state["sub"]))
        out.points = {
            k: accumulator_from_state(s) for k, s in state["points"].items()
        }
        return out

    def summary(self) -> dict[str, Any]:
        return {canonical_json(k): acc.summary() for k, acc in self.items()}


@_register
class SlotAccumulator(Accumulator):
    """A fixed set of named results (the paper-artifact aggregate).

    Each slot is written at most once per campaign (specs are deduplicated),
    so merge is a union; a conflicting double-write — two different values
    for one slot — violates the determinism contract and raises.
    """

    kind = "slots"

    def __init__(self) -> None:
        self.slots: dict[str, Any] = {}

    def fold(self, key: str, value: Any) -> None:
        self._set(str(key), value)

    def _set(self, key: str, value: Any) -> None:
        if key in self.slots and canonical_json(self.slots[key]) != canonical_json(value):
            raise ValueError(f"conflicting values for slot {key!r}")
        self.slots[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.slots[key]

    def _merged(self, other: "SlotAccumulator") -> "SlotAccumulator":
        out = SlotAccumulator()
        for k, v in self.slots.items():
            out._set(k, v)
        for k, v in other.slots.items():
            out._set(k, v)
        return out

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "slots": {k: self.slots[k] for k in sorted(self.slots)},
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SlotAccumulator":
        out = cls()
        out.slots = dict(state["slots"])
        return out

    def summary(self) -> dict[str, Any]:
        return {"count": len(self.slots), "slots": self.state_dict()["slots"]}


def _config_kwargs(acc: Accumulator) -> dict[str, Any]:
    """Constructor kwargs recovering an *empty* clone of ``acc``'s shape."""
    config = dict(acc.config_dict())
    config.pop("kind")
    if isinstance(acc, CurveAccumulator):
        return {"sub": _accumulator_from_config(config["sub"])}
    return config


def _accumulator_from_config(config: Mapping[str, Any]) -> Accumulator:
    """Build an empty accumulator from a ``config_dict()``."""
    cls = _KINDS[config["kind"]]
    kwargs = dict(config)
    kwargs.pop("kind")
    if cls is CurveAccumulator:
        return CurveAccumulator(_accumulator_from_config(kwargs["sub"]))
    return cls(**kwargs)


def merge_states(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, Any]:
    """Merge two ``Aggregator.state_dict()`` mappings metric-by-metric.

    This is the cross-process merge path: shard snapshots carry serialized
    accumulator states but no fold rules, so the merge works purely on
    states — rebuild each side, merge (which validates kind and config
    compatibility), serialize back. Exactness makes the result independent
    of merge order and byte-identical to single-process folding.
    """
    if set(a) != set(b):
        raise ValueError(
            f"cannot merge aggregate states with different metrics: "
            f"{sorted(a)} vs {sorted(b)}"
        )
    return {
        name: accumulator_from_state(a[name])
        .merge(accumulator_from_state(b[name]))
        .state_dict()
        for name in a
    }


# -- named-aggregate bundles ---------------------------------------------------


class Metric:
    """One named aggregate: an accumulator plus its fold rule.

    ``fold_fn(acc, spec, result)`` extracts whatever the metric measures
    from a finished point and folds it (or does nothing to skip the point).
    """

    def __init__(
        self,
        name: str,
        acc: Accumulator,
        fold_fn: Callable[[Accumulator, PointSpec, Any], None],
    ):
        self.name = name
        self.acc = acc
        self.fold = fold_fn


class Aggregator:
    """Named accumulators folding ``(spec, result)`` streams.

    The engine-facing bundle: :meth:`fold` consumes completed points,
    :meth:`merge` combines shards, :meth:`state_dict`/:meth:`load_state`
    round-trip the accumulator states for snapshot persistence, and
    :attr:`config_digest` fingerprints the aggregate's *shape* so a stale
    snapshot (different metrics or accumulator configs) is never silently
    resumed into.
    """

    def __init__(self, metrics: Sequence[Metric]):
        names = [m.name for m in metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric names: {names}")
        self.metrics = list(metrics)

    def __getitem__(self, name: str) -> Accumulator:
        for m in self.metrics:
            if m.name == name:
                return m.acc
        raise KeyError(name)

    def empty(self) -> "Aggregator":
        """A twin with the same metrics and fold rules and nothing folded."""
        return Aggregator(
            [
                Metric(m.name, _accumulator_from_config(m.acc.config_dict()), m.fold)
                for m in self.metrics
            ]
        )

    def fold(self, spec: PointSpec, result: Any) -> None:
        """Fold one finished point into every metric."""
        for m in self.metrics:
            m.fold(m.acc, spec, result)

    def merge(self, other: "Aggregator") -> "Aggregator":
        """Pure metric-wise merge (both sides need the same shape).

        Metrics pair by *name*, not position — independently constructed
        shards (the cross-process merge case) may list equal metrics in a
        different order, and equal kinds would merge silently wrong if
        paired positionally.
        """
        if self.config_digest != other.config_digest:
            raise ValueError("cannot merge aggregators with different configs")
        theirs = {m.name: m.acc for m in other.metrics}
        return Aggregator(
            [
                Metric(m.name, m.acc.merge(theirs[m.name]), m.fold)
                for m in self.metrics
            ]
        )

    @property
    def config_digest(self) -> str:
        """SHA-256 over the canonical metric-name → accumulator-config map."""
        shape = {m.name: m.acc.config_dict() for m in self.metrics}
        return hashlib.sha256(canonical_json(shape).encode("utf-8")).hexdigest()

    def state_dict(self) -> dict[str, Any]:
        return {m.name: m.acc.state_dict() for m in self.metrics}

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Replace accumulator states with a persisted snapshot's."""
        if set(state) != {m.name for m in self.metrics}:
            raise ValueError(
                f"snapshot metrics {sorted(state)} do not match aggregator "
                f"metrics {sorted(m.name for m in self.metrics)}"
            )
        for m in self.metrics:
            acc = accumulator_from_state(state[m.name])
            if acc.config_dict() != m.acc.config_dict():
                raise ValueError(
                    f"snapshot config for metric {m.name!r} does not match"
                )
            m.acc = acc

    def summary(self) -> dict[str, Any]:
        return {m.name: m.acc.summary() for m in self.metrics}


# -- metric constructors -------------------------------------------------------

Extractor = Callable[[Mapping[str, Any], Any], Any]


def _extractor(how: str | Extractor | None) -> Extractor:
    """Normalize a value spec: result key (str), callable, or whole result."""
    if how is None:
        return lambda params, result: result
    if isinstance(how, str):
        return lambda params, result: (
            result.get(how) if isinstance(result, Mapping) else None
        )
    return how


def _param(name: str) -> Extractor:
    return lambda params, result: params.get(name)


def _guarded(
    experiment: str | None, extract: Extractor
) -> Callable[[PointSpec, Any], Any]:
    def pull(spec: PointSpec, result: Any) -> Any:
        if experiment is not None and spec.experiment != experiment:
            return None
        if isinstance(result, Mapping) and "error" in result:
            return None
        return extract(spec.params, result)

    return pull


def mean_metric(
    name: str,
    value: str | Extractor,
    *,
    experiment: str | None = None,
) -> Metric:
    """Exact mean/ratio of ``value`` over points (None values are skipped)."""
    pull = _guarded(experiment, _extractor(value))

    def fold(acc: Accumulator, spec: PointSpec, result: Any) -> None:
        v = pull(spec, result)
        if v is not None:
            acc.fold(v)  # type: ignore[attr-defined]

    return Metric(name, MeanAccumulator(), fold)


def extrema_metric(
    name: str,
    value: str | Extractor,
    *,
    experiment: str | None = None,
) -> Metric:
    """Running min/max of ``value`` over points."""
    pull = _guarded(experiment, _extractor(value))

    def fold(acc: Accumulator, spec: PointSpec, result: Any) -> None:
        v = pull(spec, result)
        if v is not None:
            acc.fold(v)  # type: ignore[attr-defined]

    return Metric(name, ExtremaAccumulator(), fold)


def histogram_metric(
    name: str,
    value: str | Extractor,
    *,
    lo: float,
    hi: float,
    bins: int = 32,
    experiment: str | None = None,
) -> Metric:
    """Percentile sketch of ``value`` over ``[lo, hi)``."""
    pull = _guarded(experiment, _extractor(value))

    def fold(acc: Accumulator, spec: PointSpec, result: Any) -> None:
        v = pull(spec, result)
        if v is not None:
            acc.fold(v)  # type: ignore[attr-defined]

    return Metric(name, HistogramSketch(lo, hi, bins), fold)


def curve_metric(
    name: str,
    key: str | Sequence[str] | Extractor,
    value: str | Extractor,
    *,
    weight: str | Extractor | None = None,
    experiment: str | None = None,
    sub: Accumulator | None = None,
) -> Metric:
    """A binned curve of ``value`` over the ``key`` parameter(s).

    ``key`` names one spec parameter, a list of them (multi-series curves),
    or a callable. With ``weight`` (a *result* key or callable — e.g. the
    generated task set's utilization) each bin is a
    :class:`WeightedMeanAccumulator`, which is exactly the
    weighted-schedulability construction; without it, a plain mean.
    ``sub`` overrides the per-bin accumulator entirely (e.g. an empty
    :class:`CategoricalCountAccumulator` for outcome-taxonomy curves) and
    is mutually exclusive with ``weight``.
    """
    if isinstance(key, str):
        key_fn: Extractor = _param(key)
    elif callable(key):
        key_fn = key
    else:
        names = list(key)
        key_fn = lambda params, result: [params.get(k) for k in names]  # noqa: E731
    pull = _guarded(experiment, _extractor(value))
    weigh = None if weight is None else _extractor(weight)
    if sub is None:
        sub = MeanAccumulator() if weight is None else WeightedMeanAccumulator()
    elif weight is not None:
        raise ValueError("curve_metric: pass either weight or sub, not both")

    def fold(acc: Accumulator, spec: PointSpec, result: Any) -> None:
        v = pull(spec, result)
        if v is None:
            return
        k = key_fn(spec.params, result)
        if weigh is None:
            acc.fold(k, v)  # type: ignore[attr-defined]
        else:
            w = weigh(spec.params, result)
            if w is None:
                return
            acc.fold(k, v, w)  # type: ignore[attr-defined]

    return Metric(name, CurveAccumulator(sub), fold)


def slot_metric(
    name: str,
    key: Callable[[PointSpec], str],
    value: str | Extractor | None = None,
    *,
    experiment: str | None = None,
) -> Metric:
    """Collect a fixed, named set of point results (paper artifacts)."""
    pull = _guarded(experiment, _extractor(value))

    def fold(acc: Accumulator, spec: PointSpec, result: Any) -> None:
        v = pull(spec, result)
        if v is not None:
            acc.fold(key(spec), v)  # type: ignore[attr-defined]

    return Metric(name, SlotAccumulator(), fold)


__all__ = [
    "Accumulator",
    "Aggregator",
    "CategoricalCountAccumulator",
    "CurveAccumulator",
    "ExtremaAccumulator",
    "HistogramSketch",
    "MeanAccumulator",
    "Metric",
    "SlotAccumulator",
    "WeightedMeanAccumulator",
    "accumulator_from_state",
    "curve_metric",
    "extrema_metric",
    "histogram_metric",
    "mean_metric",
    "merge_states",
    "slot_metric",
]
