"""The weighted-schedulability sweep over the generator parameter space.

The paper's evaluation (and the weighted acceptance-ratio methodology of
the follow-up literature, e.g. Bastoni et al.'s weighted schedulability)
scores an analysis not by a plain acceptance count but by the
utilization-weighted ratio

    W(p) = sum_i U_i * sched_i / sum_i U_i

over large random task-set populations, so hard (high-utilization) sets
count proportionally more. This module defines the ``weighted`` campaign
preset: a grid over the full generator parameter space —

* total utilization (``u_total``),
* task count (``n``),
* the period generator (hyperperiod-limited at two different hyperperiods;
  free log-uniform periods make the exact EDF ``dlSet`` analysis explode,
  see docs/campaigns.md),
* and, through a companion ``fault-injection`` grid over generated task
  sets, the Poisson fault rate —

streamed into :class:`~repro.runner.aggregate.CurveAccumulator` bins of
:class:`~repro.runner.aggregate.WeightedMeanAccumulator`, which is exactly
the W(p) construction. The aggregate is O(bins) regardless of how many
replications the grid sweeps.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.runner import (
    AdaptiveRefinementSource,
    Aggregator,
    PointSpec,
    axis_values,
    curve_metric,
    extrema_metric,
    grid_specs,
    histogram_metric,
    mean_metric,
)

#: Default schedulability grid: utilization x n x period generator x reps.
WEIGHTED_SCHED_AXES: dict[str, Any] = {
    "u_total": [0.4, 0.8, 1.2, 1.6, 2.0, 2.4],
    "n": [8, 16],
    "period_hyperperiod": [720.0, 3600.0],
    "rep": list(range(10)),
}

#: Default fault grid: Poisson rate x utilization x reps on generated sets.
WEIGHTED_FAULT_AXES: dict[str, Any] = {
    "rate": [0.01, 0.02, 0.05, 0.1],
    "u_total": [0.8, 1.2],
    "rep": list(range(5)),
}

#: Fixed parameters of the fault-injection half of the preset.
_FAULT_BASE: dict[str, Any] = {"source": "generated", "n": 8, "cycles": 20}


def weighted_specs(
    sched_axes: Mapping[str, Any] | None = None,
    fault_axes: Mapping[str, Any] | None = None,
) -> list[PointSpec]:
    """The full ``weighted`` preset: schedulability grid + fault grid.

    ``sched_axes``/``fault_axes`` override individual default axes (the CLI
    routes ``--axis`` here); pass an empty list to drop a whole sub-grid —
    e.g. ``fault_axes={"rate": []}`` is rejected by the grid expander, so
    instead shrink with single-value axes.
    """
    sched = {**WEIGHTED_SCHED_AXES, **dict(sched_axes or {})}
    fault = {**WEIGHTED_FAULT_AXES, **dict(fault_axes or {})}
    return [
        *grid_specs("schedulability", sched),
        *grid_specs("fault-injection", fault, base_params=_FAULT_BASE),
    ]


def weighted_adaptive_source(
    axes: Mapping[str, Any] | None = None,
    *,
    ci_width: float = 0.05,
    max_points: int | None = None,
) -> AdaptiveRefinementSource:
    """Adaptive point source for the ``weighted`` preset.

    Refines the ``weighted_feasible`` curve: every
    ``(u_total, n, period_hyperperiod)`` bin is sampled until its Wilson
    95% interval is no wider than ``ci_width``, and the ``u_total`` axis
    is bisected wherever adjacent bins of a curve disagree by more than
    the target width. The default ``rep`` axis length becomes the
    per-bin seed replication count; the companion fault-injection grid
    rides along unrefined as the source's static prefix (its
    ``fault_coverage`` curve keeps the exhaustive default).

    ``axes`` overrides individual default axes exactly like
    :func:`weighted_specs` (the CLI routes ``--axis`` here): overrides
    named in :data:`WEIGHTED_FAULT_AXES` apply to the fault grid, all
    non-``rate`` overrides apply to the schedulability sweep.
    """
    overrides = dict(axes or {})
    sched = {
        **WEIGHTED_SCHED_AXES,
        **{k: v for k, v in overrides.items() if k != "rate"},
    }
    fault = {
        **WEIGHTED_FAULT_AXES,
        **{k: v for k, v in overrides.items() if k in WEIGHTED_FAULT_AXES},
    }
    initial_reps = len(axis_values(sched.pop("rep"), name="rep"))
    # Key order must match the weighted_feasible curve's key parameter
    # order — the source addresses aggregate bins by it.
    key_axes = {
        name: sched.pop(name)
        for name in ("u_total", "n", "period_hyperperiod")
    }
    return AdaptiveRefinementSource(
        "schedulability",
        metric="weighted_feasible",
        key_axes=key_axes,
        refine_axis="u_total",
        ci_width=ci_width,
        extra_axes=sched,
        initial_reps=initial_reps,
        max_points=max_points,
        static_specs=grid_specs(
            "fault-injection", fault, base_params=_FAULT_BASE
        ),
    )


def weighted_aggregator() -> Aggregator:
    """The streaming aggregate behind the weighted preset.

    Curves (all keyed on the swept parameters, weighted by each generated
    set's actual utilization):

    * ``weighted_feasible`` — W(u_total, n, H) for end-to-end feasibility;
    * ``weighted_partitioned`` — same but for the partitioning stage only,
      so the curves separate "no partition" from "no slot design";
    * ``fault_coverage`` — W(rate, u_total) of zero-FT-miss campaigns;
    * plain ratios, a slack-ratio percentile sketch and period extrema as
      scalar cross-checks.
    """
    return Aggregator(
        [
            curve_metric(
                "weighted_feasible",
                ["u_total", "n", "period_hyperperiod"],
                "feasible",
                weight="utilization",
                experiment="schedulability",
            ),
            curve_metric(
                "weighted_partitioned",
                ["u_total", "n", "period_hyperperiod"],
                "partitioned",
                weight="utilization",
                experiment="schedulability",
            ),
            curve_metric(
                "fault_coverage",
                ["rate", "u_total"],
                lambda params, result: result["ft_misses"] == 0,
                weight=lambda params, result: params.get("u_total"),
                experiment="fault-injection",
            ),
            mean_metric(
                "feasible_ratio", "feasible", experiment="schedulability"
            ),
            mean_metric(
                "partitioned_ratio", "partitioned", experiment="schedulability"
            ),
            histogram_metric(
                "slack_ratio",
                "slack_ratio",
                lo=0.0,
                hi=1.0,
                bins=50,
                experiment="schedulability",
            ),
            extrema_metric("period", "period", experiment="schedulability"),
        ]
    )


def weighted_curve_rows(
    aggregator: Aggregator, metric: str, axes: Sequence[str]
) -> tuple[list[str], list[list[Any]]]:
    """Flatten one curve metric into ``(headers, rows)`` for tabulation.

    ``axes`` names the key components (the curve was keyed on a parameter
    list in that order); rows come out sorted by key, one per bin, with the
    bin's total weight, fold count and weighted ratio.
    """
    from repro.viz import axis_sort_token

    curve = aggregator[metric]
    rows = []
    for key, acc in curve.items():  # type: ignore[attr-defined]
        parts = list(key) if isinstance(key, list) else [key]
        s = acc.summary()
        rows.append([*parts, s["count"], s.get("weight"), s["mean"]])
    rows.sort(key=lambda r: [axis_sort_token(x) for x in r[: len(axes)]])
    return [*axes, "points", "weight", "ratio"], rows


def render_weighted_ascii(
    aggregator: Aggregator,
    metric: str = "weighted_feasible",
    axes: Sequence[str] = ("u_total", "n", "period_hyperperiod"),
    *,
    width: int = 72,
    height: int = 16,
) -> str:
    """ASCII plot of one weighted curve metric: ratio vs. the first axis.

    Each combination of the remaining axes becomes its own series (markers
    cycle, so any number of series renders), which is how the merged
    full-campaign curves are eyeballed without matplotlib. Returns an empty
    string when the metric has no bins (e.g. a shard that drew no
    schedulability points).
    """
    from repro.viz import ascii_plot

    curve = aggregator[metric]
    series: dict[str, tuple[list[float], list[float]]] = {}
    for key, acc in curve.items():  # type: ignore[attr-defined]
        parts = list(key) if isinstance(key, list) else [key]
        mean = acc.summary().get("mean")
        if mean is None:
            continue
        name = (
            ", ".join(f"{a}={p:g}" if isinstance(p, float) else f"{a}={p}"
                      for a, p in zip(axes[1:], parts[1:]))
            or metric
        )
        xs, ys = series.setdefault(name, ([], []))
        xs.append(float(parts[0]))
        ys.append(float(mean))
    if not series:
        return ""
    return ascii_plot(
        series,
        width=width,
        height=height,
        x_label=axes[0],
        y_label="weighted ratio",
    )


__all__ = [
    "WEIGHTED_FAULT_AXES",
    "WEIGHTED_SCHED_AXES",
    "render_weighted_ascii",
    "weighted_adaptive_source",
    "weighted_aggregator",
    "weighted_curve_rows",
    "weighted_specs",
]
