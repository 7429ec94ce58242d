"""Fault events, outcomes and generators.

A :class:`Fault` is one transient soft error striking one physical core at
one instant. Outcomes depend on what the platform was doing at that instant
(Section 2.2 / 2.4):

* FT slot → ``MASKED`` (majority vote);
* FS slot → ``SILENCED`` (mismatch detected, channel blocked; the running
  job, if any, is killed — fail-silent);
* NF slot → ``CORRUPTED`` when a job was running (silent data corruption),
  ``HARMLESS`` when the core was idle;
* overhead / idle-reserve time → ``HARMLESS`` (no application output can be
  affected; platform state is re-synchronised at the next switch anyway).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.model import Mode
from repro.util import check_core_count, check_nonneg, check_positive


class FaultOutcome(enum.Enum):
    """Application-level consequence of one injected fault."""

    MASKED = "masked"
    SILENCED = "silenced"
    CORRUPTED = "corrupted"
    HARMLESS = "harmless"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Fault:
    """A transient soft error on one core at one instant.

    ``core_count`` is the platform size the strike is validated against
    (``0 <= core < core_count``); it defaults to the paper's 4-core chip and
    is excluded from equality so fault streams compare by (time, core) only.
    """

    time: float
    core: int
    core_count: int = field(default=4, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_nonneg("fault time", self.time)
        check_core_count(self.core_count)
        if not 0 <= self.core < self.core_count:
            raise ValueError(
                f"core must be 0..{self.core_count - 1}: got {self.core}"
            )


@dataclass(frozen=True)
class FaultRecord:
    """A fault together with its simulated consequence.

    ``victim`` is the job name whose output was corrupted (NF) or which was
    aborted (FS); None when the fault hit idle time.
    """

    fault: Fault
    outcome: FaultOutcome
    mode: Mode | None
    processor: str | None
    victim: str | None = None
    detail: str = ""


class PoissonFaultGenerator:
    """Homogeneous Poisson soft-error arrivals with a minimum separation.

    Parameters
    ----------
    rate:
        Expected faults per unit time (across the whole chip).
    min_separation:
        Faults closer than this to their predecessor are dropped, enforcing
        the paper's single-transient-fault assumption ("time between two
        failures is sufficient to perform simple recovery operations").
    core_count:
        Cores the strikes are drawn over (the platform's actual size;
        default 4 — the paper's chip).
    """

    def __init__(
        self,
        rate: float,
        *,
        min_separation: float = 0.0,
        core_count: int = 4,
    ):
        check_positive("rate", rate)
        check_nonneg("min_separation", min_separation)
        self.rate = float(rate)
        self.min_separation = float(min_separation)
        self.core_count = check_core_count(core_count)

    def generate(
        self, horizon: float, rng: np.random.Generator
    ) -> list[Fault]:
        """Draw the fault arrivals in ``[0, horizon)``.

        Each fault strikes a uniformly random core (a particle strike hits
        one core only — Section 2.1).
        """
        check_positive("horizon", horizon)
        faults: list[Fault] = []
        t = 0.0
        last = -float("inf")
        while True:
            t += rng.exponential(1.0 / self.rate)
            if t >= horizon:
                break
            if t - last < self.min_separation:
                continue
            last = t
            faults.append(
                Fault(t, int(rng.integers(0, self.core_count)), self.core_count)
            )
        return faults
