"""Supply functions for hierarchical scheduling (Section 3.1).

A supply function ``Z(t)`` gives the minimum amount of processor time a time
partition provides in *any* window of length ``t`` (Definition 1). This
package implements:

* :class:`PeriodicSlotSupply` — the exact supply of a statically positioned
  slot of usable length ``Q̃`` inside a cycle of period ``P`` (Lemma 1);
* :class:`LinearSupply` — the bounded-delay lower bound
  ``Z'(t) = max(0, α (t − Δ))`` (Eq. 3), with ``α = Q̃/P``, ``Δ = P − Q̃``
  (Eq. 2);
* :class:`SlotLayoutSupply` — exact supply of an arbitrary static multi-slot
  layout (the paper's future-work item: the same mode served by more than
  one quantum per period);
* :class:`DedicatedSupply` — a full processor (``Z(t) = t``);
* :class:`MeasuredSupply` — empirical supply extracted from simulator
  availability traces, for analysis/simulation cross-validation.
"""

from repro.supply.base import SupplyFunction
from repro.supply.dedicated import DedicatedSupply, NullSupply
from repro.supply.linear import LinearSupply
from repro.supply.measured import MeasuredSupply, availability_to_supply
from repro.supply.periodic import PeriodicSlotSupply
from repro.supply.slots import SlotLayoutSupply

__all__ = [
    "SupplyFunction",
    "DedicatedSupply",
    "NullSupply",
    "LinearSupply",
    "PeriodicSlotSupply",
    "SlotLayoutSupply",
    "MeasuredSupply",
    "availability_to_supply",
]
