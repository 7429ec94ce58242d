"""Parallel, deterministic, cache-aware experiment campaign engine.

This package is the subsystem behind ``repro campaign``: it fans a grid of
experiment points — utilization x task count x fault rate x generator
parameters, or the paper's own artifacts — out over a process pool while
keeping the results exactly reproducible.

Determinism contract
--------------------
* Every point is a :class:`PointSpec` (experiment name + JSON params) with
  a canonical serialization and SHA-256 digest.
* The point's random streams come from
  ``SeedSequence(entropy=master_seed, spawn_key=digest_words)`` — the
  ``spawn_key`` mechanism of :meth:`numpy.random.SeedSequence.spawn`, keyed
  by spec *content* instead of spawn order. Points needing several
  independent streams ``spawn()`` children from their own sequence.
* Consequently ``--workers 1``, ``--workers 4``, shuffled submission order
  and extended grids all yield bit-identical per-point results.

Caching contract
----------------
* With a cache directory, each finished point is stored as one JSON file
  keyed by ``(spec digest, master seed)`` with the full spec embedded
  (collisions and stale layouts read as misses).
* A re-run — or a grown sweep that shares old points — recomputes only the
  points that are not on disk; everything else is served from cache.

See ``docs/campaigns.md`` for the user-facing guide.
"""

from repro.runner.aggregate import (
    Accumulator,
    Aggregator,
    CategoricalCountAccumulator,
    CurveAccumulator,
    ExtremaAccumulator,
    HistogramSketch,
    MeanAccumulator,
    Metric,
    SlotAccumulator,
    WeightedMeanAccumulator,
    accumulator_from_state,
    curve_metric,
    extrema_metric,
    histogram_metric,
    mean_metric,
    merge_states,
    slot_metric,
)
from repro.runner.cache import ResultCache, atomic_write_text
from repro.runner.engine import (
    MAX_AUTO_BATCH,
    CampaignError,
    CampaignResult,
    auto_batch_size,
    default_workers,
    evaluate_batch,
    evaluate_point,
    execute_points,
    run_campaign,
    sweep,
)
from repro.runner.grid import (
    axis_values,
    expand_grid,
    grid_specs,
    parse_axes,
    parse_axis,
)
from repro.runner.points import (
    experiment,
    experiments,
    get_experiment,
    partition_params,
    taskset_params,
)
from repro.runner.presets import (
    PresetError,
    PresetSpec,
    adaptive_preset_names,
    axis_preset_names,
    get_preset,
    preset_names,
    register_preset,
    scenario_preset_names,
)
from repro.runner.progress import ProgressReporter
from repro.runner.shard import (
    MergeError,
    ShardManifest,
    grid_digest,
    merge_snapshot_files,
    merge_snapshots,
    parse_shard,
    shard_of,
)
from repro.runner.source import (
    AdaptiveRefinementSource,
    GridSource,
    PointSource,
    reps_for_width,
    wilson_width,
)
from repro.runner.spec import PointSpec, canonical_json, point_seed
from repro.runner.stream import (
    SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA_MINOR,
    SnapshotCompatWarning,
    SnapshotError,
    StreamResult,
    StreamStats,
    check_snapshot_compat,
    save_snapshot,
    snapshot_dict,
    stream_campaign,
)

__all__ = [
    "MAX_AUTO_BATCH",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_SCHEMA_MINOR",
    "Accumulator",
    "AdaptiveRefinementSource",
    "Aggregator",
    "CampaignError",
    "CampaignResult",
    "CategoricalCountAccumulator",
    "CurveAccumulator",
    "ExtremaAccumulator",
    "GridSource",
    "HistogramSketch",
    "MeanAccumulator",
    "MergeError",
    "Metric",
    "PointSource",
    "PointSpec",
    "PresetError",
    "PresetSpec",
    "ProgressReporter",
    "ResultCache",
    "ShardManifest",
    "SlotAccumulator",
    "SnapshotCompatWarning",
    "SnapshotError",
    "StreamResult",
    "StreamStats",
    "WeightedMeanAccumulator",
    "accumulator_from_state",
    "adaptive_preset_names",
    "atomic_write_text",
    "auto_batch_size",
    "axis_preset_names",
    "axis_values",
    "canonical_json",
    "check_snapshot_compat",
    "curve_metric",
    "default_workers",
    "evaluate_batch",
    "evaluate_point",
    "execute_points",
    "expand_grid",
    "experiment",
    "experiments",
    "extrema_metric",
    "get_experiment",
    "get_preset",
    "grid_digest",
    "grid_specs",
    "histogram_metric",
    "mean_metric",
    "merge_snapshot_files",
    "merge_snapshots",
    "merge_states",
    "parse_axes",
    "parse_axis",
    "parse_shard",
    "partition_params",
    "point_seed",
    "preset_names",
    "register_preset",
    "reps_for_width",
    "run_campaign",
    "save_snapshot",
    "scenario_preset_names",
    "shard_of",
    "slot_metric",
    "snapshot_dict",
    "stream_campaign",
    "sweep",
    "taskset_params",
    "wilson_width",
]
