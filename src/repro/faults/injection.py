"""Fault-injection campaigns over the multicore simulator.

A campaign runs the platform simulation under a stream of injected soft
errors and aggregates what the paper's Section 2.2 promises qualitatively:

* faults landing in FT slots are always masked — FT tasks never miss
  deadlines nor produce wrong results;
* faults landing in FS slots are always detected and silenced — no wrong
  output propagates (jobs may be killed; that is the fail-silent contract);
* faults landing in NF slots may silently corrupt whatever was running;
* faults landing in overhead/idle time are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.config import PlatformConfig
from repro.faults.model import Fault, FaultOutcome, FaultRecord, PoissonFaultGenerator
from repro.model import Mode, PartitionedTaskSet
from repro.util import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports faults.model)
    from repro.dependability.scenarios import FaultScenario
    from repro.sim.multicore import MulticoreResult


@dataclass(frozen=True)
class FaultCampaignResult:
    """Aggregated statistics of one fault-injection campaign."""

    injected: int
    outcomes: dict[FaultOutcome, int]
    outcomes_by_mode: dict[Mode | None, dict[FaultOutcome, int]]
    corrupted_jobs: tuple[str, ...]
    aborted_jobs: tuple[str, ...]
    ft_misses: int
    total_misses: int
    records: tuple[FaultRecord, ...]
    simulation: MulticoreResult

    def rate(self, outcome: FaultOutcome) -> float | None:
        """Fraction of injected faults with the given outcome.

        ``None`` when nothing was injected — an empty campaign has no
        outcome rates, and reporting ``0.0`` would make it look like a
        perfect (fault-free) run.
        """
        if self.injected == 0:
            return None
        return self.outcomes.get(outcome, 0) / self.injected

    def summary(self) -> str:
        """Readable multi-line campaign summary."""
        lines = [f"faults injected : {self.injected}"]
        for outcome in FaultOutcome:
            share = self.rate(outcome)
            lines.append(
                f"  {str(outcome):<10}: {self.outcomes.get(outcome, 0):>5} "
                + (f"({share * 100:5.1f}%)" if share is not None else "(  n/a )")
            )
        lines.append(f"corrupted jobs  : {len(self.corrupted_jobs)}")
        lines.append(f"aborted jobs    : {len(self.aborted_jobs)}")
        lines.append(f"deadline misses : {self.total_misses} (FT: {self.ft_misses})")
        return "\n".join(lines)


@dataclass
class FaultCampaign:
    """A reproducible fault-injection experiment.

    Parameters
    ----------
    partition / config:
        The deployed design to attack.
    rate:
        Poisson fault rate (faults per time unit); ignored when explicit
        ``faults`` are passed to :meth:`run` or a ``scenario`` is set.
    min_separation:
        Single-fault-assumption spacing (defaults to one platform period, a
        conservative reading of "time to perform simple recovery").
    scenario:
        Optional :class:`~repro.dependability.scenarios.FaultScenario`
        generating the fault stream instead of the default Poisson process
        (bursty, correlated, intermittent, permanent — see
        :mod:`repro.dependability`). The scenario draws strikes over the
        config's ``core_count`` cores.
    """

    partition: PartitionedTaskSet
    config: PlatformConfig
    rate: float = 0.01
    min_separation: float | None = None
    scenario: "FaultScenario | None" = None

    def run(
        self,
        *,
        horizon: float | None = None,
        faults: Iterable[Fault] | None = None,
        seed: int | np.random.SeedSequence = 0,
    ) -> FaultCampaignResult:
        """Run the campaign (explicit fault list or Poisson generation).

        ``seed`` is anything :func:`numpy.random.default_rng` accepts — the
        campaign runner passes a spawned :class:`~numpy.random.SeedSequence`
        so fault streams stay deterministic under parallel fan-out.
        """
        from repro.sim.multicore import MulticoreSim  # deferred: cycle guard

        sim = MulticoreSim(self.partition, self.config)
        horizon = horizon if horizon is not None else sim.default_horizon()
        check_positive("horizon", horizon)
        if faults is None:
            rng = np.random.default_rng(seed)
            if self.scenario is not None:
                faults = self.scenario.generate(
                    horizon, rng, core_count=self.config.core_count
                )
            else:
                sep = (
                    self.min_separation
                    if self.min_separation is not None
                    else self.config.period
                )
                gen = PoissonFaultGenerator(
                    self.rate,
                    min_separation=sep,
                    core_count=self.config.core_count,
                )
                faults = gen.generate(horizon, rng)
        # Materialize once: a one-shot iterable would be drained by the sim,
        # leaving the injected count at 0.
        fault_list = list(faults)
        result = sim.run(horizon, faults=fault_list)
        return _aggregate(result, len(fault_list))


def _aggregate(result: MulticoreResult, injected: int) -> FaultCampaignResult:
    outcomes: dict[FaultOutcome, int] = {o: 0 for o in FaultOutcome}
    by_mode: dict[Mode | None, dict[FaultOutcome, int]] = {}
    for rec in result.fault_records:
        outcomes[rec.outcome] += 1
        slot = by_mode.get(rec.mode)
        if slot is None:  # a mode's row is built when the mode is first seen
            slot = by_mode[rec.mode] = {o: 0 for o in FaultOutcome}
        slot[rec.outcome] += 1
    misses = result.misses
    ft_tasks = _ft_tasks(result)
    # A job is named task#index, and a task name may hold a "#".
    ft_misses = sum(1 for e in misses if e.who.rsplit("#", 1)[0] in ft_tasks)
    return FaultCampaignResult(
        injected=injected,
        outcomes=outcomes,
        outcomes_by_mode=by_mode,
        corrupted_jobs=tuple(result.corrupted_jobs()),
        aborted_jobs=tuple(result.aborted_jobs()),
        ft_misses=ft_misses,
        total_misses=len(misses),
        records=tuple(result.fault_records),
        simulation=result,
    )


def _ft_tasks(result: MulticoreResult) -> set[str]:
    """Names of the tasks with a job on an FT processor."""
    names: set[str] = set()
    for key, res in result.processors.items():
        if key.startswith("FT"):
            names.update(task.name for task in res.job_columns.task)
    return names
