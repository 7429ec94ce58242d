"""The paper's primary contribution: flexible FT/FS/NF time-partition design.

Pipeline:

1. :mod:`repro.core.minq` — invert the schedulability conditions into the
   minimum usable quantum ``minQ(T, alg, P)`` (Eqs. 6 and 11), including the
   exact-supply variant the paper leaves as "tedious";
2. :mod:`repro.core.integration` — combine modes (Eqs. 12–14) into the
   feasible-period condition ``G(P) >= O_tot`` (Eq. 15);
3. :mod:`repro.core.region` — sweep/boundary analysis of ``G`` (Figure 4);
4. :mod:`repro.core.design` — design goals (min overhead bandwidth /
   max slack, Table 2) producing a :class:`repro.core.config.PlatformConfig`;
5. :mod:`repro.core.admission` — run-time slack redistribution for
   dynamically arriving tasks (the flexibility scenario of Section 4).
"""

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.config import Overheads, PlatformConfig, SlotSchedule
from repro.core.design import (
    DesignError,
    FixedPeriodGoal,
    MaxSlackGoal,
    MinOverheadBandwidthGoal,
    design_platform,
)
from repro.core.integration import SystemCurve, mode_quantum_bounds, quanta_feasible
from repro.core.minq import (
    MinQResult,
    QuantumCurve,
    min_quantum,
    min_quantum_detailed,
    min_quantum_edf,
    min_quantum_exact,
    min_quantum_fp,
)
from repro.core.region import FeasibleRegion

__all__ = [
    "min_quantum",
    "min_quantum_detailed",
    "min_quantum_fp",
    "min_quantum_edf",
    "min_quantum_exact",
    "MinQResult",
    "QuantumCurve",
    "SystemCurve",
    "mode_quantum_bounds",
    "quanta_feasible",
    "FeasibleRegion",
    "Overheads",
    "SlotSchedule",
    "PlatformConfig",
    "design_platform",
    "DesignError",
    "MinOverheadBandwidthGoal",
    "MaxSlackGoal",
    "FixedPeriodGoal",
    "AdmissionController",
    "AdmissionDecision",
]
