"""Byte-identity regression for the event-queue simulation core.

The offline ``MulticoreSim`` loop was refactored through
:class:`repro.sim.events.EventQueue`; these digests were captured from the
pre-refactor fixed-loop implementation on table2-, figure4- and
faultspace-shaped workloads, and the event-driven core must keep every one
of them byte-for-byte. The digest covers the *full* result: every job's
state/release/completion per processor, execution slices, trace events and
fault-classification records (see :mod:`tests.sim.simdigest`).

The ``correlated``, ``intermittent`` and RM ``critical``-offset digests
were captured later, from the simulator before its hot path was rewritten
to walk the cycle template, sort each run's trace once and run a tighter
uniprocessor loop. They pin the paths that rewrite touches: strikes on
several cores at one instant, repeated hits on one silenced channel, and
fixed-priority scheduling with releases aligned to a slot end.
"""

import numpy as np
import pytest

from repro.core import Overheads, design_platform
from repro.dependability import scenario_from_params
from repro.experiments.paper import paper_partition
from repro.generators import generate_mixed_taskset
from repro.partition import partition_by_modes
from repro.sim.multicore import MulticoreSim

from .simdigest import result_digest

TABLE2_SHAPED_DIGEST = (
    "957c699d561ab1a45d3180906182d7b2562d16826e1581e79abae28fe6d8daa7"
)
FIGURE4_SHAPED_DIGEST = (
    "a4bcb25ec2b86a3c5f82c0ce59b1e0a24d28b72b4cad2eb88ce1886008852e53"
)
FAULTSPACE_SHAPED_DIGESTS = {
    "poisson": "6d7b0c186c3e1e24ecb1c0ba7a57b98d10972e1f6c12d3eb5084bf167057f5ce",
    "bursty": "bf7534921a2e9e33632ad9ddb443ee4dfad5d827fd9ea6f636f9f9e9971f07b4",
    "permanent": "57fe387a59d56b0ea1dead7782cbb48e036f7f67ede2738f07caa426fd7bd547",
    "correlated": "99d965f856ffafd913935ba41e292744ed179acbdf305f5b3653af51458f3584",
    "intermittent": "9f1ced0b2bf5c8f3919e420202bab000b856bdbe03df80d25d489859bb11120a",
    "rm-critical": "0974413e6fc263a97cf73732e084989fd052361c45eced717dd44a1b5312a471",
}


def test_table2_shaped_run_unchanged():
    part = paper_partition()
    config = design_platform(
        part, "EDF", Overheads.uniform(0.05), "min-overhead-bandwidth"
    )
    result = MulticoreSim(part, config).run(config.period * 12)
    assert result_digest(result) == TABLE2_SHAPED_DIGEST


def test_figure4_shaped_run_unchanged():
    part = paper_partition()
    config = design_platform(part, "RM", Overheads.uniform(0.0), "max-slack")
    result = MulticoreSim(part, config).run(
        config.period * 12, release_offsets="critical"
    )
    assert result_digest(result) == FIGURE4_SHAPED_DIGEST


def _faultspace_shaped(scenario_params, seed, algorithm="EDF", release_offsets="zero"):
    gen_seed, fault_seed = np.random.SeedSequence(seed).spawn(2)
    ts = generate_mixed_taskset(
        8, 0.8, np.random.default_rng(gen_seed),
        period_method="hyperperiod-limited", period_hyperperiod=3600.0,
    )
    part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
    config = design_platform(
        part, algorithm, Overheads.uniform(0.05), "min-overhead-bandwidth"
    )
    horizon = config.period * 20
    scenario = scenario_from_params(scenario_params)
    faults = scenario.generate(
        horizon, np.random.default_rng(fault_seed), core_count=config.core_count
    )
    return MulticoreSim(part, config).run(
        horizon, faults=faults, release_offsets=release_offsets
    )


@pytest.mark.parametrize(
    "scenario_params, seed",
    [
        ({"scenario": "poisson", "rate": 0.05}, 7),
        ({"scenario": "bursty", "rate": 0.05}, 11),
        ({"scenario": "permanent", "rate": 0.1, "onset_fraction": 0.5}, 13),
        ({"scenario": "correlated", "rate": 0.05}, 17),
        ({"scenario": "intermittent", "rate": 0.05}, 19),
    ],
    ids=["poisson", "bursty", "permanent", "correlated", "intermittent"],
)
def test_faultspace_shaped_run_unchanged(scenario_params, seed):
    result = _faultspace_shaped(scenario_params, seed)
    expected = FAULTSPACE_SHAPED_DIGESTS[scenario_params["scenario"]]
    assert result_digest(result) == expected


def test_rm_critical_offset_run_unchanged():
    result = _faultspace_shaped(
        {"scenario": "poisson", "rate": 0.05}, 7,
        algorithm="RM", release_offsets="critical",
    )
    assert result_digest(result) == FAULTSPACE_SHAPED_DIGESTS["rm-critical"]
