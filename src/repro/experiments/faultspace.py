"""The ``faultspace`` campaign preset: dependability over a scenario space.

Where the ``faults`` preset answers "does the designed platform survive
Poisson transients?", this preset maps the platform's *dependability
surface*: a grid over total utilization x fault rate x fault scenario
(Poisson / bursty / correlated / intermittent / permanent — see
:mod:`repro.dependability.scenarios`), each point a full fault-injection
campaign on a freshly generated task set, streamed into

* exact categorical-count curves of the outcome taxonomy
  (masked/silenced/corrupted/harmless, flat and per platform mode),
* FT-miss probability curves vs fault rate, and
* mean silent-corruption exposure,

all keyed on ``(scenario, rate)`` so every scenario renders as its own
series. Counts (not rates) are what stream, so sharded, batched and
resumed campaigns merge the curves bit-identically under the runner's
exact-accumulator contract; rates and Wilson 95% intervals are derived at
render time.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.dependability import (
    OUTCOME_CATEGORIES,
    format_interval,
    outcome_curve_metric,
    scenario_names,
    wilson_interval,
)
from repro.runner import (
    AdaptiveRefinementSource,
    Aggregator,
    MeanAccumulator,
    PointSpec,
    axis_values,
    curve_metric,
    grid_specs,
    mean_metric,
)

#: Default grid: utilization x fault rate x scenario x reps.
FAULTSPACE_AXES: dict[str, Any] = {
    "u_total": [0.8, 1.6],
    "rate": [0.01, 0.02, 0.05, 0.1],
    "scenario": ["poisson", "bursty", "correlated", "intermittent", "permanent"],
    "rep": list(range(5)),
}

#: Fixed parameters of every faultspace point.
_FAULTSPACE_BASE: dict[str, Any] = {"source": "generated", "n": 8, "cycles": 20}


def faultspace_specs(
    axes: Mapping[str, Any] | None = None,
    *,
    scenario: str | None = None,
) -> list[PointSpec]:
    """The faultspace grid (``axes`` override defaults; CLI ``--axis``).

    ``scenario`` narrows the scenario axis to one named scenario (the CLI's
    ``--scenario`` flag); unknown names are rejected against the registry.
    """
    merged = {**FAULTSPACE_AXES, **dict(axes or {})}
    if scenario is not None:
        if scenario not in scenario_names():
            raise ValueError(
                f"unknown fault scenario {scenario!r}; "
                f"known: {scenario_names()}"
            )
        merged["scenario"] = [scenario]
    # An axis may override a fixed base param (e.g. --axis n=6 on the CLI);
    # it then sweeps as a regular — possibly degenerate — axis instead.
    base = {k: v for k, v in _FAULTSPACE_BASE.items() if k not in merged}
    return grid_specs("dependability", merged, base_params=base)


def faultspace_adaptive_source(
    axes: Mapping[str, Any] | None = None,
    *,
    scenario: str | None = None,
    ci_width: float = 0.05,
    max_points: int | None = None,
) -> AdaptiveRefinementSource:
    """Adaptive point source for the ``faultspace`` preset.

    Refines the ``ft_miss`` curve: every ``(scenario, rate)`` bin is
    sampled until its Wilson 95% interval is no wider than ``ci_width``,
    bisecting the *rate* axis wherever a scenario's adjacent bins
    disagree by more than the target width (the faultspace curves are
    keyed on ``(scenario, rate)``, so rate — not utilization — is this
    preset's refinement axis). Non-key axes (``u_total``) sweep inside
    every bin sample. ``axes``/``scenario`` behave exactly like
    :func:`faultspace_specs`.
    """
    merged = {**FAULTSPACE_AXES, **dict(axes or {})}
    if scenario is not None:
        if scenario not in scenario_names():
            raise ValueError(
                f"unknown fault scenario {scenario!r}; "
                f"known: {scenario_names()}"
            )
        merged["scenario"] = [scenario]
    base = {k: v for k, v in _FAULTSPACE_BASE.items() if k not in merged}
    initial_reps = len(axis_values(merged.pop("rep"), name="rep"))
    # Key order must match the ft_miss curve's (scenario, rate) key order.
    key_axes = {name: merged.pop(name) for name in ("scenario", "rate")}
    return AdaptiveRefinementSource(
        "dependability",
        metric="ft_miss",
        key_axes=key_axes,
        refine_axis="rate",
        ci_width=ci_width,
        extra_axes=merged,
        base_params=base,
        initial_reps=initial_reps,
        max_points=max_points,
    )


def faultspace_aggregator() -> Aggregator:
    """The streaming aggregate behind the faultspace preset.

    Curves, all keyed on ``(scenario, rate)``:

    * ``outcomes`` — exact counts of the flat outcome taxonomy;
    * ``outcomes_by_mode`` — the same counts keyed ``mode/outcome`` (the
      Section 2.2 contract: FT masks, FS silences, NF corrupts);
    * ``ft_miss`` — share of campaigns with >= 1 FT deadline miss;
    * ``any_corruption`` — share of campaigns with >= 1 silent corruption;
    * ``corrupted_jobs`` — mean corrupted job outputs per campaign;

    plus the mean injected-fault count as a scalar cross-check.
    """
    key = ["scenario", "rate"]
    return Aggregator(
        [
            outcome_curve_metric(
                "outcomes", key, "outcomes", experiment="dependability"
            ),
            outcome_curve_metric(
                "outcomes_by_mode",
                key,
                "outcomes_by_mode",
                experiment="dependability",
            ),
            curve_metric("ft_miss", key, "ft_miss", experiment="dependability"),
            curve_metric(
                "any_corruption",
                key,
                "any_corruption",
                experiment="dependability",
            ),
            curve_metric(
                "corrupted_jobs",
                key,
                "corrupted_jobs",
                experiment="dependability",
            ),
            mean_metric("injected", "injected", experiment="dependability"),
        ]
    )


def _curve_bins(aggregator: Aggregator, metric: str) -> list[tuple[str, Any, Any]]:
    """``(scenario, rate, accumulator)`` rows of a ``(scenario, rate)``-keyed
    curve (a fault rate here, an arrival rate in the ``online`` views),
    sorted by scenario then rate.

    The rate keeps its folded type (an int rate axis stays int): the value
    is reused to address sibling curves' bins, where ``0.1`` and a folded
    ``1`` canonicalize to different keys.
    """
    rows = []
    for bin_key, acc in aggregator[metric].items():  # type: ignore[attr-defined]
        scenario, rate = bin_key
        rows.append((scenario, rate, acc))
    rows.sort(key=lambda r: (r[0], float(r[1])))
    return rows


def outcome_rate_rows(
    aggregator: Aggregator,
) -> tuple[list[str], list[list[Any]]]:
    """Outcome shares + Wilson 95% CIs per ``(scenario, rate)`` bin.

    One row per bin: total faults, then for each outcome category its share
    and the Wilson interval of that share (the categorical counts are
    binomial per category against the bin total).
    """
    headers = ["scenario", "rate", "faults"]
    for cat in OUTCOME_CATEGORIES:
        headers += [cat, f"{cat}_ci95"]
    rows: list[list[Any]] = []
    for scenario, rate, acc in _curve_bins(aggregator, "outcomes"):
        total = acc.total
        row: list[Any] = [scenario, rate, total]
        for cat in OUTCOME_CATEGORIES:
            row.append(acc.rate(cat))
            row.append(
                format_interval(
                    wilson_interval(acc.counts.get(cat, 0), total)
                )
            )
        rows.append(row)
    return headers, rows


def ft_miss_rows(
    aggregator: Aggregator,
) -> tuple[list[str], list[list[Any]]]:
    """FT-miss and silent-corruption probabilities with Wilson 95% CIs."""
    # items() (not bin()) so rendering never creates empty bins in the
    # live aggregate that a later snapshot save would then persist.
    corruption = {
        tuple(key): acc
        for key, acc in aggregator["any_corruption"].items()  # type: ignore[attr-defined]
    }
    headers = [
        "scenario", "rate", "campaigns",
        "p_ft_miss", "ft_miss_ci95", "p_corruption", "corruption_ci95",
    ]
    rows: list[list[Any]] = []
    empty = MeanAccumulator()
    for scenario, rate, acc in _curve_bins(aggregator, "ft_miss"):
        corr = corruption.get((scenario, rate), empty)
        rows.append(
            [
                scenario,
                rate,
                acc.count,
                acc.mean,
                format_interval(wilson_interval(int(acc.total), acc.count)),
                corr.mean,
                format_interval(
                    wilson_interval(int(corr.total), corr.count)
                ),
            ]
        )
    return headers, rows


def render_faultspace_ascii(
    aggregator: Aggregator,
    *,
    width: int = 72,
    height: int = 14,
) -> str:
    """ASCII plot of the silent-corruption rate vs fault rate, per scenario.

    The corrupted share is the dependability headline — masked/silenced
    faults are the platform doing its job; corrupted ones are the exposure.
    Returns an empty string when no bins have folded yet.
    """
    from repro.viz import ascii_plot

    series: dict[str, tuple[list[float], list[float]]] = {}
    for scenario, rate, acc in _curve_bins(aggregator, "outcomes"):
        share = acc.rate("corrupted")
        if share is None:
            continue
        xs, ys = series.setdefault(scenario, ([], []))
        xs.append(float(rate))
        ys.append(share)
    if not series:
        return ""
    return ascii_plot(
        series,
        width=width,
        height=height,
        x_label="fault rate",
        y_label="corrupted share",
    )


def mode_taxonomy_rows(
    aggregator: Aggregator,
) -> tuple[list[str], list[list[Any]]]:
    """Per-mode outcome taxonomy pooled over fault rates, one table row per
    ``(scenario, mode/outcome)`` — the Section 2.2 contract at a glance."""
    pooled: dict[str, Any] = {}
    for scenario, _rate, acc in _curve_bins(aggregator, "outcomes_by_mode"):
        pooled[scenario] = acc if scenario not in pooled else pooled[scenario].merge(acc)
    rows = []
    for scenario in sorted(pooled):
        acc = pooled[scenario]
        for category in sorted(acc.counts):
            rows.append(
                [scenario, category, acc.counts[category], acc.rate(category)]
            )
    return ["scenario", "mode/outcome", "faults", "share"], rows


def render_faultspace(aggregator: Aggregator) -> str:
    """The faultspace preset's full rendering (tables + ASCII curves)."""
    from repro.viz import format_table

    blocks = []
    headers, rows = outcome_rate_rows(aggregator)
    if rows:
        blocks.append(
            "fault outcome shares (Wilson 95% CIs):\n"
            + format_table(headers, rows)
        )
    headers, rows = ft_miss_rows(aggregator)
    if rows:
        blocks.append(
            "FT-miss / silent-corruption probability per campaign:\n"
            + format_table(headers, rows)
        )
    plot = render_faultspace_ascii(aggregator)
    if plot:
        blocks.append("corrupted share vs fault rate:\n" + plot)
    headers, rows = mode_taxonomy_rows(aggregator)
    if rows:
        blocks.append(
            "per-mode outcome taxonomy (pooled over rates):\n"
            + format_table(headers, rows)
        )
    injected = aggregator["injected"].summary()
    blocks.append(
        f"summary: campaigns={injected['count']}  "
        f"faults_injected={injected['sum']:g}  "
        f"mean_injected={injected['mean'] if injected['mean'] is None else round(injected['mean'], 3)}"
    )
    return "\n\n".join(blocks)


__all__ = [
    "FAULTSPACE_AXES",
    "faultspace_adaptive_source",
    "faultspace_aggregator",
    "faultspace_specs",
    "ft_miss_rows",
    "mode_taxonomy_rows",
    "outcome_rate_rows",
    "render_faultspace",
    "render_faultspace_ascii",
]
