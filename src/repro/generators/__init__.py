"""Synthetic workload generation for sweeps and ablations.

The paper evaluates one hand-built task set (Table 1); the benchmark
ablations additionally sweep over synthetic task sets produced here:

* utilization vectors: :func:`uunifast`, :func:`uunifast_discard`,
  :func:`randfixedsum` (Stafford's algorithm, the standard unbiased
  generator of Emberson et al.);
* periods: :func:`uniform_periods`, :func:`loguniform_periods`,
  :func:`hyperperiod_limited_periods`;
* mode mixes: :func:`assign_modes_by_share`;
* one-call task-set factories: :func:`generate_taskset`,
  :func:`generate_mixed_taskset`.
"""

from repro.generators.modes import assign_modes_by_share
from repro.generators.periods import (
    hyperperiod_limited_periods,
    loguniform_periods,
    uniform_periods,
)
from repro.generators.randfixedsum import randfixedsum
from repro.generators.taskset_gen import generate_mixed_taskset, generate_taskset
from repro.generators.uunifast import uunifast, uunifast_discard

__all__ = [
    "uunifast",
    "uunifast_discard",
    "randfixedsum",
    "uniform_periods",
    "loguniform_periods",
    "hyperperiod_limited_periods",
    "assign_modes_by_share",
    "generate_taskset",
    "generate_mixed_taskset",
]
