"""Uniprocessor schedulability analysis (dedicated and supply-aware).

Implements the analytic machinery the paper builds on:

* fixed-priority workload ``W_i(t)`` (Eq. 5) and the Bini–Buttazzo
  scheduling-point set ``schedP_i`` — :mod:`repro.analysis.points`;
* FP feasibility under a supply function (Theorem 1), classic FP point
  tests and response-time analysis — :mod:`repro.analysis.fp`;
* EDF demand ``W(t)`` (Eq. 9), ``dlSet``, the supply-aware EDF test
  (Theorem 2) and the dedicated processor-demand criterion —
  :mod:`repro.analysis.edf`;
* priority orders (RM, DM) — :mod:`repro.analysis.priorities`.
"""

from repro.analysis.edf import (
    deadline_set,
    demand_bound_function,
    edf_demand_points,
    edf_schedulable_dedicated,
    edf_schedulable_supply,
)
from repro.analysis.fp import (
    fp_response_time,
    fp_response_time_supply,
    fp_schedulable_dedicated,
    fp_schedulable_supply,
)
from repro.analysis.points import scheduling_points
from repro.analysis.priorities import (
    deadline_monotonic,
    priority_order,
    rate_monotonic,
)
from repro.analysis.results import EDFAnalysis, FPAnalysis, TaskVerdict
from repro.analysis.workload import fp_workload, fp_workload_array

__all__ = [
    "scheduling_points",
    "fp_workload",
    "fp_workload_array",
    "fp_schedulable_supply",
    "fp_schedulable_dedicated",
    "fp_response_time",
    "fp_response_time_supply",
    "deadline_set",
    "demand_bound_function",
    "edf_demand_points",
    "edf_schedulable_supply",
    "edf_schedulable_dedicated",
    "rate_monotonic",
    "deadline_monotonic",
    "priority_order",
    "FPAnalysis",
    "EDFAnalysis",
    "TaskVerdict",
]
