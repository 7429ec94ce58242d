"""Soft-error fault modelling and injection (Section 2.1).

The paper's fault model: transient single faults (alpha particles and
similar) that hit exactly one core, separated widely enough that at most one
fault is active at a time. This package provides:

* :mod:`repro.faults.model` — :class:`Fault` events, outcome taxonomy, and
  generators (deterministic lists and Poisson processes with a minimum
  separation enforcing the single-fault assumption);
* :mod:`repro.faults.injection` — campaign driver running the multicore
  simulator under injected faults and aggregating per-mode outcome
  statistics.
"""

from repro.faults.injection import FaultCampaign, FaultCampaignResult
from repro.faults.model import (
    Fault,
    FaultOutcome,
    FaultRecord,
    PoissonFaultGenerator,
)

__all__ = [
    "Fault",
    "FaultOutcome",
    "FaultRecord",
    "PoissonFaultGenerator",
    "FaultCampaign",
    "FaultCampaignResult",
]
