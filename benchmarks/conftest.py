"""Shared fixtures and reporting for the benchmark harness.

The pytest-benchmark modules time the comparison baselines and the
analysis/simulation cross-check on the paper's task set. Their numbers are

* asserted against the paper's claims (reproduction guard),
* attached to the benchmark record via ``benchmark.extra_info``,
* printed through :func:`report` — which writes to the *real* stdout so the
  paper-style tables survive pytest's capture and land in
  ``bench_output.txt`` when run from ``benchmarks/`` as
  ``pytest bench_*.py --benchmark-only | tee bench_output.txt``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import pytest

from repro.core import FeasibleRegion, Overheads, design_platform
from repro.experiments import paper_partition, paper_taskset

from bench_util import emit_reports, write_bench_json


def _emit_bench_json(config) -> list[Path]:
    """One ``BENCH_<module>.json`` per pytest-benchmark module.

    The standalone scripts write their own files from ``main()``; this
    hook covers the pytest-benchmark modules so *every* ``bench_*.py``
    leaves a machine-readable result behind.
    """
    session = getattr(config, "_benchmarksession", None)
    benchmarks = getattr(session, "benchmarks", None) if session else None
    if not benchmarks:
        return []
    by_module: dict[str, dict[str, Any]] = {}
    for bench in benchmarks:
        fullname = getattr(bench, "fullname", "") or ""
        stem = Path(fullname.split("::", 1)[0]).stem
        name = stem[len("bench_"):] if stem.startswith("bench_") else stem
        if not name:
            continue
        stats = getattr(bench, "stats", None)
        record: dict[str, Any] = {}
        for field in ("min", "max", "mean", "stddev", "median", "rounds"):
            value = getattr(stats, field, None)
            if isinstance(value, (int, float)):
                record[field] = value
        extra = getattr(bench, "extra_info", None)
        if extra:
            record["extra_info"] = dict(extra)
        test = getattr(bench, "name", None) or fullname
        by_module.setdefault(name, {})[test] = record
    return [
        write_bench_json(name, **tests)
        for name, tests in sorted(by_module.items())
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Flush the regenerated paper artifacts after capture has ended."""
    emit_reports(terminalreporter.write_line)
    try:
        written = _emit_bench_json(config)
    except Exception as exc:  # noqa: BLE001 - reporting must not fail the run
        terminalreporter.write_line(f"[bench-json] emit failed: {exc}")
        return
    for path in written:
        terminalreporter.write_line(f"[bench-json] wrote {path}")


@pytest.fixture(scope="session")
def paper_ts():
    return paper_taskset()


@pytest.fixture(scope="session")
def paper_part():
    return paper_partition()


@pytest.fixture(scope="session")
def region_edf(paper_part):
    return FeasibleRegion(paper_part, "EDF")


@pytest.fixture(scope="session")
def config_b(paper_part, region_edf):
    return design_platform(
        paper_part, "EDF", Overheads.uniform(0.05),
        "min-overhead-bandwidth", region=region_edf,
    )


@pytest.fixture(scope="session")
def config_c(paper_part, region_edf):
    return design_platform(
        paper_part, "EDF", Overheads.uniform(0.05),
        "max-slack", region=region_edf,
    )
