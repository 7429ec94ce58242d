"""The ``online`` campaign preset: event-driven runtime admission.

Where the offline presets answer "does a *fixed* task set fit the designed
platform?", this preset exercises the Section-4 dynamic scenario end to
end: a max-slack design is deployed, tasks arrive and leave at run time
(:class:`repro.sim.online.OnlineSim` decides each arrival live through the
:class:`repro.core.admission.AdmissionController`), and fault scenarios
strike while the workload churns — a ``permanent`` scenario kills its core
outright, orphaning that processor's tasks and triggering re-assignment to
the surviving channels.

The grid sweeps arrival rate x total utilization x fault scenario, and the
streamed aggregate folds

* an **acceptance-ratio curve over time** — per major cycle, exact
  accepted/offered counts keyed ``(scenario, arrival_rate, cycle)``;
* **re-assignment latency** and **post-failure miss window** means per
  ``(scenario, arrival_rate)``;
* orphan / re-assigned / lost counts per campaign,

all through the runner's exact accumulators: counts (not rates) stream, so
sharded, batched and resumed online campaigns merge bit-identically, and
rates plus Wilson 95% intervals are derived at render time.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.dependability import format_interval, scenario_names, wilson_interval
from repro.experiments.faultspace import _curve_bins
from repro.runner import (
    Aggregator,
    CurveAccumulator,
    MeanAccumulator,
    Metric,
    PointSpec,
    curve_metric,
    grid_specs,
    mean_metric,
)

#: Default grid: arrival rate (expected dynamic arrivals per major cycle)
#: x initial total utilization x fault scenario x reps.
ONLINE_AXES: dict[str, Any] = {
    "arrival_rate": [0.5, 1.0, 2.0],
    "u_total": [0.5, 1.0],
    "scenario": ["poisson", "permanent"],
    "rep": list(range(4)),
}

#: Fixed parameters of every online point. ``rate`` is the *fault* rate
#: consumed by the scenario library (the arrival process has its own axis).
_ONLINE_BASE: dict[str, Any] = {
    "source": "generated",
    "n": 6,
    "cycles": 30,
    "otot": 0.05,
    "rate": 0.05,
}


def online_specs(
    axes: Mapping[str, Any] | None = None,
    *,
    scenario: str | None = None,
) -> list[PointSpec]:
    """The online grid (``axes`` override defaults; CLI ``--axis``).

    ``scenario`` narrows the scenario axis to one named scenario (the CLI's
    ``--scenario`` flag); unknown names are rejected against the registry.
    """
    merged = {**ONLINE_AXES, **dict(axes or {})}
    if scenario is not None:
        if scenario not in scenario_names():
            raise ValueError(
                f"unknown fault scenario {scenario!r}; "
                f"known: {scenario_names()}"
            )
        merged["scenario"] = [scenario]
    base = {k: v for k, v in _ONLINE_BASE.items() if k not in merged}
    return grid_specs("online", merged, base_params=base)


def _series_key(params: Mapping[str, Any]) -> list[Any]:
    return [params.get("scenario"), params.get("arrival_rate")]


def _skip(spec: PointSpec, result: Any) -> bool:
    if spec.experiment != "online":
        return True
    return isinstance(result, Mapping) and "error" in result


def _acceptance_metric() -> Metric:
    """Acceptance-ratio-over-time curve, keyed ``(scenario, rate, cycle)``.

    Each per-point acceptance bin carries exact ``(offered, accepted)``
    integer counts for one major cycle; they fold through the
    :class:`MeanAccumulator` multiplicity form (``accepted`` successes out
    of ``offered`` trials), so the bin mean *is* the acceptance ratio and
    the fold stays exact under any shard/batch split.
    """

    def fold(acc: CurveAccumulator, spec: PointSpec, result: Any) -> None:
        if _skip(spec, result):
            return
        series = _series_key(spec.params)
        for cycle, offered, accepted in result.get("acceptance_bins", ()):
            if offered:
                acc.fold([*series, cycle], accepted, count=offered)

    return Metric("acceptance", CurveAccumulator(MeanAccumulator()), fold)


def _list_curve_metric(name: str, result_key: str) -> Metric:
    """Mean over a per-point *list* of samples, keyed ``(scenario, rate)``."""

    def fold(acc: CurveAccumulator, spec: PointSpec, result: Any) -> None:
        if _skip(spec, result):
            return
        series = _series_key(spec.params)
        for value in result.get(result_key, ()):
            acc.fold(series, value)

    return Metric(name, CurveAccumulator(MeanAccumulator()), fold)


def online_aggregator() -> Aggregator:
    """The streaming aggregate behind the online preset.

    Curves:

    * ``acceptance`` — exact acceptance ratio per
      ``(scenario, arrival_rate, cycle)``;
    * ``reassign_latency`` — mean re-assignment latency (death →
      successful re-admission) per ``(scenario, arrival_rate)``;
    * ``miss_window`` — mean post-failure miss window per orphan;
    * ``orphaned`` / ``reassigned`` / ``lost`` — per-campaign counts;

    plus scalar cross-checks (offered/admitted totals, final slack, misses
    attributable to the failure).
    """
    key = ["scenario", "arrival_rate"]
    return Aggregator(
        [
            _acceptance_metric(),
            _list_curve_metric("reassign_latency", "reassign_latencies"),
            _list_curve_metric("miss_window", "miss_windows"),
            curve_metric("orphaned", key, "orphaned", experiment="online"),
            curve_metric("reassigned", key, "reassigned", experiment="online"),
            curve_metric("lost", key, "lost", experiment="online"),
            mean_metric("offered", "offered", experiment="online"),
            mean_metric("admitted", "admitted", experiment="online"),
            mean_metric("slack_final", "slack_final", experiment="online"),
            mean_metric(
                "post_failure_misses", "post_failure_misses", experiment="online"
            ),
        ]
    )


def acceptance_rows(
    aggregator: Aggregator,
) -> tuple[list[str], list[list[Any]]]:
    """Acceptance ratios pooled over cycles, with Wilson 95% intervals.

    One row per ``(scenario, arrival_rate)`` series: offered arrivals,
    accepted admissions (the exact curve totals summed over cycles), the
    pooled ratio and its Wilson interval.
    """
    pooled: dict[tuple[str, Any], list[int]] = {}
    for bin_key, acc in aggregator["acceptance"].items():  # type: ignore[attr-defined]
        scenario, rate, _cycle = bin_key
        entry = pooled.setdefault((scenario, rate), [0, 0])
        entry[0] += acc.count
        entry[1] += int(acc.total)
    headers = ["scenario", "arrival_rate", "offered", "accepted", "ratio", "ci95"]
    rows: list[list[Any]] = []
    for (scenario, rate), (offered, accepted) in sorted(
        pooled.items(), key=lambda item: (item[0][0], float(item[0][1]))
    ):
        ratio = accepted / offered if offered else None
        rows.append(
            [
                scenario,
                rate,
                offered,
                accepted,
                ratio,
                format_interval(wilson_interval(accepted, offered)),
            ]
        )
    return headers, rows


def reassignment_rows(
    aggregator: Aggregator,
) -> tuple[list[str], list[list[Any]]]:
    """Per-series re-assignment outcomes after permanent core failures.

    ``campaigns`` is the folded point count; orphan/re-assigned/lost are
    per-campaign means; latency and miss window average over the individual
    orphans that were re-assigned (resp. all orphans).
    """
    latencies = {
        tuple(k): acc
        for k, acc in aggregator["reassign_latency"].items()  # type: ignore[attr-defined]
    }
    windows = {
        tuple(k): acc
        for k, acc in aggregator["miss_window"].items()  # type: ignore[attr-defined]
    }
    reassigned = {
        tuple(k): acc
        for k, acc in aggregator["reassigned"].items()  # type: ignore[attr-defined]
    }
    lost = {
        tuple(k): acc
        for k, acc in aggregator["lost"].items()  # type: ignore[attr-defined]
    }
    empty = MeanAccumulator()
    headers = [
        "scenario", "arrival_rate", "campaigns",
        "orphans/pt", "reassigned/pt", "lost/pt",
        "mean_latency", "mean_miss_window",
    ]
    rows: list[list[Any]] = []
    for scenario, rate, acc in _curve_bins(aggregator, "orphaned"):
        k = (scenario, rate)
        rows.append(
            [
                scenario,
                rate,
                acc.count,
                acc.mean,
                reassigned.get(k, empty).mean,
                lost.get(k, empty).mean,
                latencies.get(k, empty).mean,
                windows.get(k, empty).mean,
            ]
        )
    return headers, rows


def render_online_ascii(
    aggregator: Aggregator,
    *,
    width: int = 72,
    height: int = 14,
) -> str:
    """ASCII plot of the acceptance ratio vs major cycle, one series per
    ``(scenario, arrival_rate)``. Empty string before any fold."""
    from repro.viz import ascii_plot

    series: dict[str, tuple[list[float], list[float]]] = {}
    for bin_key, acc in aggregator["acceptance"].items():  # type: ignore[attr-defined]
        scenario, rate, cycle = bin_key
        mean = acc.mean
        if mean is None:
            continue
        xs, ys = series.setdefault(f"{scenario}@{rate}", ([], []))
        xs.append(float(cycle))
        ys.append(mean)
    for xs, ys in series.values():
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs[:], ys[:] = [xs[i] for i in order], [ys[i] for i in order]
    if not series:
        return ""
    return ascii_plot(
        series,
        width=width,
        height=height,
        x_label="major cycle",
        y_label="acceptance",
    )


def render_online(aggregator: Aggregator) -> str:
    """The online preset's full rendering (tables + ASCII curve)."""
    from repro.viz import format_table

    blocks = []
    headers, rows = acceptance_rows(aggregator)
    if rows:
        blocks.append(
            "online acceptance (pooled over cycles, Wilson 95% CIs):\n"
            + format_table(headers, rows)
        )
    plot = render_online_ascii(aggregator)
    if plot:
        blocks.append("acceptance ratio vs major cycle:\n" + plot)
    headers, rows = reassignment_rows(aggregator)
    if rows:
        blocks.append(
            "re-assignment after permanent core failure:\n"
            + format_table(headers, rows)
        )
    offered = aggregator["offered"].summary()
    admitted = aggregator["admitted"].summary()
    misses = aggregator["post_failure_misses"].summary()
    blocks.append(
        f"summary: campaigns={offered['count']}  "
        f"arrivals_offered={offered['sum']:g}  "
        f"arrivals_admitted={admitted['sum']:g}  "
        f"post_failure_misses={misses['sum']:g}"
    )
    return "\n\n".join(blocks)


__all__ = [
    "ONLINE_AXES",
    "acceptance_rows",
    "online_aggregator",
    "online_specs",
    "reassignment_rows",
    "render_online",
    "render_online_ascii",
]
