"""Campaign point supply as a pluggable *strategy*.

Every campaign used to materialize one exhaustive cartesian grid up
front. This module turns the point supply into a strategy behind the
:class:`PointSource` protocol: a source emits successive **rounds** of
:class:`~repro.runner.spec.PointSpec` lists, and
:func:`~repro.runner.stream.stream_campaign` fully executes and folds
each round before asking for the next. Two strategies ship:

* :class:`GridSource` — the exhaustive grid, bit-for-bit today's
  behavior: one round containing every point.
* :class:`AdaptiveRefinementSource` — deterministic design-space
  exploration. Between rounds it reads the live aggregate, finds every
  curve bin whose Wilson 95% interval is still wider than the target
  ``ci_width``, grows that bin's replication count toward the
  sample size the current estimate implies, and bisects the refinement
  axis between adjacent bins whose means disagree by more than the
  target width. It terminates when every bin meets the target (or went
  dead — every sample failed), a point budget is exhausted, or a round
  cap is hit.

Determinism contract
--------------------
A source is a pure function of its configuration and the folded
aggregate it observes at each round boundary. Aggregates are exact and
order-insensitive, so the observed state at a boundary — and therefore
every planning decision — is identical for any ``(workers, batch,
shard)`` combination. Point seeds stay content-keyed
(:func:`~repro.runner.spec.point_seed`), so the source needs no RNG of
its own: same strategy + seed + config ⇒ byte-identical snapshots.

Resumability
------------
:meth:`PointSource.state_dict` is persisted inside the campaign
snapshot. The adaptive state records per-bin emission counts, which
fully determine the set of points emitted so far: a resumed run
re-emits that set as one catch-up round (already-folded points are
skipped outright by the stream layer), reaches the round boundary with
the exact same aggregate, and plans every subsequent round identically
— converging on the same final snapshot bytes as an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.runner.aggregate import Aggregator
from repro.runner.grid import axis_values, expand_grid
from repro.runner.shard import grid_digest
from repro.runner.spec import PointSpec, canonical_json


class SnapshotError(RuntimeError):
    """A snapshot exists but cannot be resumed into this campaign."""


#: z for the 95% Wilson score interval (matches
#: :func:`repro.dependability.taxonomy.wilson_interval`; duplicated here
#: because the runner layer must not import the dependability layer).
_Z95 = 1.959963984540054


def wilson_width(p: float, n: int) -> float:
    """Width of the Wilson 95% score interval at proportion ``p``, size ``n``.

    ``inf`` for an empty bin — an unsampled bin is maximally uncertain.
    The interval is clamped to ``[0, 1]`` exactly like the rendering-side
    :func:`repro.dependability.taxonomy.wilson_interval`, so "converged"
    here means the same thing the rendered CI columns show.
    """
    if n <= 0:
        return math.inf
    p = min(1.0, max(0.0, float(p)))
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return min(1.0, center + half) - max(0.0, center - half)


def reps_for_width(p: float, width: float, cap: int = 1 << 20) -> int:
    """Smallest sample size whose Wilson 95% width is <= ``width`` at ``p``.

    The width is monotonically decreasing in ``n`` for a fixed proportion,
    so a doubling search plus bisection is exact and deterministic.
    """
    if width <= 0:
        raise ValueError(f"width must be > 0: got {width}")
    if wilson_width(p, 1) <= width:
        return 1
    hi = 2
    while hi < cap and wilson_width(p, hi) > width:
        hi *= 2
    hi = min(hi, cap)
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if wilson_width(p, mid) > width:
            lo = mid
        else:
            hi = mid
    return hi


class PointSource:
    """Strategy protocol: where a campaign's points come from.

    Subclasses emit rounds via :meth:`rounds`; the stream layer folds a
    whole round before advancing the generator, so :meth:`rounds` may
    read the ``view`` aggregate between yields to decide what comes
    next. ``needs_feedback`` declares whether it actually does — a
    feedback-free source (the grid) lets sharded runs skip evaluating
    the other shards' points entirely.
    """

    strategy: str = "?"
    #: True when round planning reads the folded aggregate between rounds.
    needs_feedback: bool = False
    #: Bins still short of the convergence target after the final round
    #: (None for sources without a convergence notion).
    open_bins: int | None = None

    @property
    def config_digest(self) -> str:
        """Fingerprint of the source's full configuration (snapshot key)."""
        raise NotImplementedError

    @property
    def is_complete(self) -> bool:
        """True once the source will emit no further rounds."""
        return False

    def upfront_specs(self) -> list[PointSpec] | None:
        """The full spec list when it is known before any round runs
        (grid sources), else None (adaptive sources)."""
        return None

    def rounds(self, view: Aggregator | None = None) -> Iterator[list[PointSpec]]:
        """Yield successive rounds; the caller folds each before advancing."""
        raise NotImplementedError

    def state_dict(self) -> dict[str, Any] | None:
        """Resumable source state for the snapshot (None: nothing to save,
        and the snapshot bytes stay identical to a plain grid run's)."""
        return None

    def load_state(self, state: Mapping[str, Any] | None) -> None:
        """Adopt a snapshot's source state; raise :class:`SnapshotError`
        when the state belongs to a different strategy or configuration."""
        if state is not None:
            raise SnapshotError(
                f"snapshot was written by a {state.get('strategy', '?')!r} "
                f"point source; a {self.strategy!r} campaign cannot resume it"
            )


class GridSource(PointSource):
    """Today's exhaustive grid as a (single-round) point source."""

    strategy = "grid"
    needs_feedback = False

    def __init__(self, specs: Iterable[PointSpec]):
        self.specs = list(specs)

    @property
    def config_digest(self) -> str:
        # Exactly the grid digest of the spec set, so e.g. default
        # snapshot filenames keyed on it match the pre-strategy layout.
        return grid_digest(s.digest for s in self.specs)

    def upfront_specs(self) -> list[PointSpec]:
        return list(self.specs)

    def rounds(self, view: Aggregator | None = None) -> Iterator[list[PointSpec]]:
        if self.specs:
            yield list(self.specs)


class AdaptiveRefinementSource(PointSource):
    """Seeded, resumable adaptive refinement of a curve metric.

    ``key_axes`` (ordered) must name exactly the parameters the watched
    curve ``metric`` is keyed on, in the same order — the source
    addresses aggregate bins by the canonical JSON of the key-value
    list. ``refine_axis`` names the numeric key axis that bisection
    subdivides. ``extra_axes`` are swept for every bin sample but are
    not part of the bin key (their folds pool into the bin); the
    ``rep_axis`` replication index grows without bound as a bin demands
    more samples.

    Round 0 emits ``static_specs`` (a fixed companion grid that rides
    along unrefined) plus ``initial_reps`` replication units for every
    initial bin. Each later round, per bin:

    * converged (Wilson 95% width <= ``ci_width``) — nothing;
    * dead (samples were emitted but none ever folded — the experiment
      fails there) — abandoned;
    * open — grow toward :func:`reps_for_width` of the current estimate,
      at most ``max_round_reps`` units per round (the estimate moves as
      samples arrive; capping bounds overshoot);

    and between each pair of refine-axis-adjacent bins of a series whose
    means differ by more than ``ci_width``, a midpoint bin is inserted
    (down to ``max_depth`` halvings of the smallest initial gap).
    Termination: no requests, ``max_points`` exhausted, or
    ``max_rounds`` reached.
    """

    strategy = "adaptive"
    needs_feedback = True

    def __init__(
        self,
        experiment: str,
        *,
        metric: str,
        key_axes: Mapping[str, Any],
        refine_axis: str,
        ci_width: float,
        extra_axes: Mapping[str, Any] | None = None,
        base_params: Mapping[str, Any] | None = None,
        rep_axis: str = "rep",
        initial_reps: int = 4,
        max_points: int | None = None,
        max_rounds: int = 64,
        max_round_reps: int = 256,
        max_depth: int = 3,
        static_specs: Sequence[PointSpec] | None = None,
    ):
        if not experiment:
            raise ValueError("experiment name must be non-empty")
        if not (isinstance(ci_width, (int, float)) and 0 < ci_width < 1):
            raise ValueError(f"ci_width must be in (0, 1): got {ci_width!r}")
        if initial_reps < 1:
            raise ValueError(f"initial_reps must be >= 1: got {initial_reps}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1: got {max_rounds}")
        if max_round_reps < 1:
            raise ValueError(f"max_round_reps must be >= 1: got {max_round_reps}")
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0: got {max_depth}")
        if max_points is not None and max_points < 1:
            raise ValueError(f"max_points must be >= 1: got {max_points}")
        if not key_axes:
            raise ValueError("key_axes must name at least one axis")
        self.experiment = experiment
        self.metric = metric
        self.key_axes = {
            name: axis_values(value, name=name) for name, value in key_axes.items()
        }
        if refine_axis not in self.key_axes:
            raise ValueError(
                f"refine_axis {refine_axis!r} is not a key axis "
                f"{list(self.key_axes)}"
            )
        for v in self.key_axes[refine_axis]:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(
                    f"refine axis {refine_axis!r} values must be numbers: "
                    f"got {v!r}"
                )
        self.refine_axis = refine_axis
        self.extra_axes = {
            name: axis_values(value, name=name)
            for name, value in dict(extra_axes or {}).items()
        }
        self.base_params = dict(base_params or {})
        self.rep_axis = rep_axis
        names = list(self.key_axes) + list(self.extra_axes) + [rep_axis]
        clashes = {n for n in names if names.count(n) > 1} | (
            set(names) & set(self.base_params)
        )
        if clashes:
            raise ValueError(f"parameter names collide: {sorted(clashes)}")
        self.ci_width = float(ci_width)
        self.initial_reps = int(initial_reps)
        self.max_points = max_points
        self.max_rounds = int(max_rounds)
        self.max_round_reps = int(max_round_reps)
        self.max_depth = int(max_depth)
        self.static_specs = list(static_specs or [])

        #: One sample *unit* = one rep index swept over every extra combo.
        self._extras = expand_grid(self.extra_axes) if self.extra_axes else [{}]
        self._unit = len(self._extras)
        self._key_names = list(self.key_axes)
        self._refine_pos = self._key_names.index(refine_axis)
        refine_sorted = sorted(float(v) for v in self.key_axes[refine_axis])
        gaps = [b - a for a, b in zip(refine_sorted, refine_sorted[1:]) if b > a]
        #: Bisection floor: the smallest initial gap halved max_depth times.
        self._min_gap = min(gaps) / (2 ** self.max_depth) if gaps else None

        #: Canonical bin key -> replication units emitted. Insertion order
        #: is the deterministic planning/emission order; midpoint bins
        #: append as they are created.
        self._bins: dict[str, int] = {
            canonical_json(list(combo)): 0
            for combo in itertools.product(
                *(self.key_axes[n] for n in self._key_names)
            )
        }
        self._static_emitted = 0
        self._emitted = 0
        self._round = 0
        self._round_specs: list[PointSpec] | None = None
        self._budget_hit = False
        self._complete = False
        self._resumed_midflight = False
        self._digest: str | None = None

    # -- identity ---------------------------------------------------------

    @property
    def config_digest(self) -> str:
        if self._digest is None:
            cfg = {
                "strategy": self.strategy,
                "experiment": self.experiment,
                "metric": self.metric,
                "key_axes": self.key_axes,
                "refine_axis": self.refine_axis,
                "extra_axes": self.extra_axes,
                "base_params": self.base_params,
                "rep_axis": self.rep_axis,
                "initial_reps": self.initial_reps,
                "ci_width": self.ci_width,
                "max_points": self.max_points,
                "max_rounds": self.max_rounds,
                "max_round_reps": self.max_round_reps,
                "max_depth": self.max_depth,
                "static_grid": (
                    grid_digest(s.digest for s in self.static_specs)
                    if self.static_specs
                    else None
                ),
            }
            self._digest = hashlib.sha256(
                canonical_json(cfg).encode("utf-8")
            ).hexdigest()
        return self._digest

    @property
    def is_complete(self) -> bool:
        return self._complete

    # -- emission ---------------------------------------------------------

    def _bin_specs(self, key_c: str, rep: int) -> list[PointSpec]:
        """One replication unit of the bin: rep index x every extra combo."""
        bin_params = dict(zip(self._key_names, json.loads(key_c)))
        return [
            PointSpec(
                self.experiment,
                {**self.base_params, **bin_params, **extra, self.rep_axis: rep},
            )
            for extra in self._extras
        ]

    def _budget_left(self) -> int | None:
        if self.max_points is None:
            return None
        return self.max_points - self._emitted

    def _emit_static(self) -> list[PointSpec]:
        out: list[PointSpec] = []
        for spec in self.static_specs:
            left = self._budget_left()
            if left is not None and left < 1:
                self._budget_hit = True
                break
            out.append(spec)
            self._static_emitted += 1
            self._emitted += 1
        return out

    def _emit(self, requests: Sequence[tuple[str, int]]) -> list[PointSpec]:
        """Emit whole replication units per request, stopping at the budget."""
        out: list[PointSpec] = []
        for key_c, units in requests:
            start = self._bins[key_c]
            for offset in range(units):
                left = self._budget_left()
                if left is not None and left < self._unit:
                    self._budget_hit = True
                    return out
                block = self._bin_specs(key_c, start + offset)
                out.extend(block)
                self._bins[key_c] = start + offset + 1
                self._emitted += len(block)
        return out

    def _reconstruct_emitted(self) -> list[PointSpec]:
        """Every spec emitted so far, rebuilt from the per-bin counters.

        The resume catch-up round: already-folded points are skipped
        outright downstream, so re-emitting the full set is cheap and
        restores the exact aggregate at the next round boundary.
        """
        out = list(self.static_specs[: self._static_emitted])
        for key_c, units in self._bins.items():
            for rep in range(units):
                out.extend(self._bin_specs(key_c, rep))
        return out

    # -- planning ---------------------------------------------------------

    def _bin_stats(self, curve: Any, key_c: str) -> tuple[float | None, int]:
        acc = curve.points.get(key_c)
        if acc is None:
            return None, 0
        count = getattr(acc, "count", 0)
        if not count:
            return None, 0
        mean = acc.mean
        if mean is None:
            return None, count
        return float(mean), count

    def _bisect(self, curve: Any) -> list[str]:
        """Insert midpoint bins where adjacent series bins disagree."""
        if self._min_gap is None:
            return []
        series: dict[str, list[tuple[float, str]]] = {}
        for key_c in self._bins:
            key_vals = json.loads(key_c)
            position = float(key_vals[self._refine_pos])
            rest = list(key_vals)
            rest[self._refine_pos] = None
            series.setdefault(canonical_json(rest), []).append((position, key_c))
        created: list[str] = []
        for series_key in sorted(series):
            bins = sorted(series[series_key])
            for (va, ka), (vb, kb) in zip(bins, bins[1:]):
                if vb - va <= self._min_gap * (1 + 1e-9):
                    continue  # depth floor reached
                pa, na = self._bin_stats(curve, ka)
                pb, nb = self._bin_stats(curve, kb)
                if pa is None or pb is None or not na or not nb:
                    continue
                if abs(pa - pb) <= self.ci_width:
                    continue  # curve is flat here at the target resolution
                key_vals = json.loads(ka)
                key_vals[self._refine_pos] = (va + vb) / 2.0
                key_c = canonical_json(key_vals)
                if key_c not in self._bins:
                    self._bins[key_c] = 0
                    created.append(key_c)
        return created

    def _plan(self, view: Aggregator) -> list[PointSpec]:
        if self._budget_hit:
            return []
        if self.max_points is not None and self._emitted >= self.max_points:
            self._budget_hit = True
            return []
        if self._round >= self.max_rounds:
            return []
        curve = view[self.metric]
        requests: list[tuple[str, int]] = []
        for key_c, emitted_units in self._bins.items():
            p, n = self._bin_stats(curve, key_c)
            if p is None:
                # Never sampled (budget starvation is handled above) or
                # every sample failed: a dead bin cannot converge.
                continue
            if wilson_width(p, n) <= self.ci_width:
                continue
            deficit = reps_for_width(p, self.ci_width) - n
            units = max(1, min(self.max_round_reps, -(-deficit // self._unit)))
            requests.append((key_c, units))
        for key_c in self._bisect(curve):
            requests.append((key_c, self.initial_reps))
        return self._emit(requests)

    def _finalize(self, view: Aggregator) -> None:
        curve = view[self.metric]
        open_bins = 0
        for key_c, emitted_units in self._bins.items():
            if emitted_units == 0:
                open_bins += 1  # budget ran out before it was ever sampled
                continue
            p, n = self._bin_stats(curve, key_c)
            if p is None:
                continue  # dead bin: abandoned, not open
            if wilson_width(p, n) > self.ci_width:
                open_bins += 1
        self.open_bins = open_bins

    def rounds(self, view: Aggregator | None = None) -> Iterator[list[PointSpec]]:
        if self._complete:
            return
        if view is None:
            raise ValueError(
                "AdaptiveRefinementSource.rounds() needs the live aggregate"
            )
        if self._resumed_midflight:
            self._resumed_midflight = False
            specs = self._reconstruct_emitted()
        else:
            specs = self._emit_static() + self._emit(
                [(key_c, self.initial_reps) for key_c in self._bins]
            )
        while specs:
            self._round_specs = specs
            yield list(specs)
            self._round += 1
            self._round_specs = None
            specs = self._plan(view)
        self._complete = True
        self._finalize(view)

    # -- persistence ------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        state: dict[str, Any] = {
            "strategy": self.strategy,
            "config": self.config_digest,
            "round": self._round,
            "emitted": self._emitted,
            "complete": self._complete,
        }
        if not self._complete:
            # Bins are an ordered list of [key, units] pairs: insertion
            # order IS the planning order, and canonical JSON would sort
            # an object's keys.
            state["budget_hit"] = self._budget_hit
            state["static_emitted"] = self._static_emitted
            state["bins"] = [[k, u] for k, u in self._bins.items()]
        return state

    def load_state(self, state: Mapping[str, Any] | None) -> None:
        if state is None:
            raise SnapshotError(
                "snapshot has folded points but no adaptive source state; "
                "it was not written by an adaptive campaign"
            )
        if state.get("strategy") != self.strategy:
            raise SnapshotError(
                f"snapshot was written by a {state.get('strategy')!r} point "
                f"source, not an adaptive campaign"
            )
        if state.get("config") != self.config_digest:
            raise SnapshotError(
                "snapshot belongs to a different adaptive configuration "
                "(source config digest mismatch)"
            )
        try:
            self._round = int(state["round"])
            self._emitted = int(state["emitted"])
            if state.get("complete"):
                self._complete = True
                return
            self._budget_hit = bool(state["budget_hit"])
            self._static_emitted = int(state["static_emitted"])
            bins = state["bins"]
            self._bins = {str(k): int(u) for k, u in bins}
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot's adaptive source state is malformed: {exc}"
            ) from None
        self._resumed_midflight = True


__all__ = [
    "AdaptiveRefinementSource",
    "GridSource",
    "PointSource",
    "SnapshotError",
    "reps_for_width",
    "wilson_width",
]
