"""Shared fixtures for the test suite.

Hypothesis runs derandomized by default, so every run of the suite draws
the same examples. ``HYPOTHESIS_PROFILE=randomized`` selects fresh random
draws (and 200 examples where a test does not pin its own count), for
hunting new counterexamples.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core import FeasibleRegion, Overheads, design_platform
from repro.experiments import paper_partition, paper_taskset
from repro.model import Mode, Task, TaskSet

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("randomized", max_examples=200, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(scope="session")
def paper_ts() -> TaskSet:
    """The Table 1 task set."""
    return paper_taskset()


@pytest.fixture(scope="session")
def paper_part():
    """The Section 4 manual partition."""
    return paper_partition()


@pytest.fixture(scope="session")
def paper_region_edf(paper_part) -> FeasibleRegion:
    """EDF feasible region of the paper example (expensive; share it)."""
    return FeasibleRegion(paper_part, "EDF")


@pytest.fixture(scope="session")
def paper_region_rm(paper_part) -> FeasibleRegion:
    """RM feasible region of the paper example."""
    return FeasibleRegion(paper_part, "RM")


@pytest.fixture(scope="session")
def paper_config_b(paper_part, paper_region_edf):
    """Table 2 row (b): min-overhead-bandwidth design."""
    return design_platform(
        paper_part, "EDF", Overheads.uniform(0.05),
        "min-overhead-bandwidth", region=paper_region_edf,
    )


@pytest.fixture(scope="session")
def paper_config_c(paper_part, paper_region_edf):
    """Table 2 row (c): max-slack design."""
    return design_platform(
        paper_part, "EDF", Overheads.uniform(0.05),
        "max-slack", region=paper_region_edf,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for generator tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def simple_nf_taskset() -> TaskSet:
    """Three light NF tasks with an integer hyperperiod of 24."""
    return TaskSet(
        [
            Task("a", wcet=1, period=4, mode=Mode.NF),
            Task("b", wcet=1, period=6, mode=Mode.NF),
            Task("c", wcet=2, period=12, mode=Mode.NF),
        ]
    )


@pytest.fixture
def tight_taskset() -> TaskSet:
    """Full-utilization pair (U = 1.0) — schedulable by EDF, not by RM."""
    return TaskSet(
        [
            Task("x", wcet=2, period=4),
            Task("y", wcet=4, period=8),
        ]
    )
