"""The invariance contract: how a campaign is run never moves its bytes.

Every registered preset has a smoke row here, and each preset with an
adaptive point source has a second, adaptive row. A row runs once as its
reference: in process, one worker, batch 1, fast kernels, no telemetry, a
cold start and no shards. Each cell re-runs the row with one knob changed
and must write the reference's snapshot bytes, and the reference's
``--out`` rows where it runs one unsharded campaign. Every run's counters
must agree with what it wrote, and its run manifest and ``/metrics`` with
its stats.
"""

import contextlib
import io
import json
import re
import urllib.request

import pytest

from repro.analysis import kernels
from repro.cli import main
from repro.runner.presets import get_preset, preset_names
from repro.server import ReproServer

WEIGHTED_AXES = {
    "u_total": [0.6, 1.8], "n": [6], "period_hyperperiod": [720.0],
    "rep": [0, 1], "rate": [0.05],
}
FAULTSPACE_AXES = {
    "u_total": [0.8], "rate": [0.02, 0.05],
    "scenario": [
        "poisson", "bursty", "correlated", "intermittent", "permanent",
    ],
    "rep": [0, 1], "n": [6], "cycles": [10],
}

#: One smoke grid per row: preset, axis overrides, seed and, on an adaptive
#: row, the convergence target.
ROWS = {
    "table2": {"preset": "table2"},
    "figure4": {"preset": "figure4"},
    "ablations": {"preset": "ablations"},
    "sched": {
        "preset": "sched", "seed": 7,
        "axes": {"u_total": [0.5, 1.5, 2.5], "n": [8], "rep": [0, 1]},
    },
    "faults": {
        "preset": "faults",
        "axes": {"rate": [0.02, 0.05], "cycles": [10], "rep": [0, 1]},
    },
    "weighted": {"preset": "weighted", "seed": 3, "axes": WEIGHTED_AXES},
    "faultspace": {"preset": "faultspace", "seed": 5, "axes": FAULTSPACE_AXES},
    # This grid reaches admission rejections.
    "online": {
        "preset": "online", "seed": 5,
        "axes": {
            "arrival_rate": [1.0, 2.0], "u_total": [0.5, 1.0],
            "scenario": ["poisson", "permanent"], "rep": [0, 1, 2],
            "n": [6], "cycles": [15],
        },
    },
    "weighted-adaptive": {
        "preset": "weighted", "seed": 3, "ci_width": 0.4,
        "axes": {**WEIGHTED_AXES, "u_total": [0.8, 2.4], "rep": [0, 1, 2],
                 "rate": [0.02]},
    },
    "faultspace-adaptive": {
        "preset": "faultspace", "seed": 5, "ci_width": 0.4,
        "axes": FAULTSPACE_AXES,
    },
}

STATS_LINE = re.compile(
    r"\[campaign\] .*: (?P<computed>\d+) computed, (?P<cached>\d+) cached "
    r".*aggregate: (?P<folded>\d+) folded, (?P<resumed>\d+) resumed"
    r"(?:, (?P<failed>\d+) failed)?"
)


#: The run-record counters ``/metrics`` sums over jobs.
METRIC_COUNTERS = ("batches", "cached", "computed", "errors", "rounds")


def ratio(part, whole):
    return part / whole if whole else None


def check_manifest(manifest, stats):
    """A run manifest holds the run's ``stats`` and computes its cache hit
    ratio and kernel fast share from them."""
    assert manifest["schema"] == 2 and "campaign" in manifest["phases"]
    assert manifest["wall_seconds"] > 0
    assert manifest["stats"] == stats
    cached, fast = stats["cached"], stats["kernel_fast"]
    assert manifest["cache"] == {
        "hit_ratio": ratio(cached, cached + stats["computed"])
    }
    assert manifest["kernels"] == {
        "fast_share": ratio(fast, fast + stats["kernel_fallback"])
    }


def run_cli(*argv):
    """``repro argv`` in process: its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([str(a) for a in argv])
    return status, out.getvalue(), err.getvalue()


def axis_args(axes):
    return [
        arg
        for key, values in axes.items()
        for arg in ("--axis", f"{key}={','.join(map(str, values))}")
    ]


def campaign(row, *extra, axes=None, state):
    """Run one campaign of ``row`` into ``state``, check its counters, and
    return its stats line's counts."""
    spec = ROWS[row]
    adaptive = (
        ["--strategy", "adaptive", "--ci-width", spec["ci_width"]]
        if spec.get("ci_width") else []
    )
    status, _out, err = run_cli(
        "campaign", spec["preset"],
        *axis_args(spec.get("axes", {}) if axes is None else axes),
        "--seed", spec.get("seed", 0), *adaptive, "--no-progress", *extra,
        *(["--state", state] if state else []),
    )
    assert status == 0, err
    counts = STATS_LINE.search(err).groupdict()
    stats = {key: int(value or 0) for key, value in counts.items()}
    if state:
        snapshot = json.loads(state.read_text())
        assert stats["failed"] == len(snapshot["failed"]), stats
    if not stats["resumed"]:
        assert stats["computed"] + stats["cached"] == stats["folded"], stats
    return stats


class Reference:
    """A row's reference run: its snapshot bytes and its ``--out`` rows."""

    def __init__(self, row, directory):
        self.row = row
        state, out = directory / "state.json", directory / "out.json"
        with kernels.kernels_forced(True):
            campaign(row, "--workers", 1, "--batch", 1, "--out", out,
                     state=state)
        self.state, self.out = state.read_bytes(), out.read_bytes()

    def single(self, tmp_path, *extra):
        """One unsharded campaign must write the reference's bytes."""
        state, out = tmp_path / "state.json", tmp_path / "out.json"
        stats = campaign(self.row, *extra, "--out", out, state=state)
        assert state.read_bytes() == self.state
        assert out.read_bytes() == self.out
        return stats


def workers_2(ref, tmp_path):
    ref.single(tmp_path, "--workers", 2)


def batch_64(ref, tmp_path):
    ref.single(tmp_path, "--workers", 2, "--batch", 64)


def shards_3_merged(ref, tmp_path):
    shards = [tmp_path / f"shard-{i}.json" for i in range(3)]
    for i, state in enumerate(shards):
        campaign(ref.row, "--shard", f"{i}/3", "--workers", 2, "--batch", 64,
                 state=state)
    merged = tmp_path / "merged.json"
    preset = ROWS[ref.row]["preset"]
    status, _out, err = run_cli("merge", *shards, "--out", merged,
                                "--preset", preset)
    assert status == 0, err
    assert merged.read_bytes() == ref.state
    assert run_cli("merge", *shards[:2], "--out", tmp_path / "m.json")[0] == 1


def kernels_off(ref, tmp_path):
    with kernels.kernels_forced(False):
        ref.single(tmp_path, "--workers", 2)


def telemetry_on(ref, tmp_path):
    # Two workers: the phase coverage of a one-worker table2 run (8 ms) is
    # at the mercy of the host.
    trace = tmp_path / "telemetry"
    line = ref.single(tmp_path, "--workers", 2, "--telemetry", trace)
    manifest = json.loads((trace / "run-manifest.json").read_text())
    stats = manifest["stats"]
    assert line == {
        "computed": stats["computed"], "cached": stats["cached"],
        "folded": stats["folded"], "resumed": stats["skipped"],
        "failed": stats["errors"],
    }, (line, stats)
    check_manifest(manifest, stats)
    status, _out, err = run_cli("profile", trace, "--min-coverage", 0.95)
    assert status == 0, err


def resumed(ref, tmp_path):
    spec = ROWS[ref.row]
    if spec.get("ci_width") or "rep" not in spec.get("axes", {}):
        pytest.skip("no rep axis to grow: fixed or adaptive point set")
    state = tmp_path / "state.json"
    campaign(ref.row, "--workers", 1, axes={**spec["axes"], "rep": [0]},
             state=state)
    assert campaign(ref.row, "--workers", 1, state=state)["resumed"] > 0
    assert state.read_bytes() == ref.state


def warm_cache(ref, tmp_path):
    args = ("--workers", 1, "--cache-dir", tmp_path / "cache")
    first = campaign(ref.row, *args, state=None)
    (snapshot,) = (tmp_path / "cache" / "aggregates").glob("*.json")
    assert snapshot.read_bytes() == ref.state
    warm = campaign(ref.row, *args, state=None)
    assert (warm["computed"], warm["folded"]) == (0, 0), warm
    failed = len(json.loads(snapshot.read_text())["failed"])
    assert first["failed"] == warm["failed"] == failed, (first, warm)
    # Row-rendered presets re-read every point from the result cache and
    # re-evaluate its failures; the others skip the snapshot's points
    # outright.
    rows = get_preset(ROWS[ref.row]["preset"]).row_rendered
    assert warm["cached"] == (first["computed"] if rows else 0), warm
    assert warm["resumed"] == first["folded"] + (0 if rows else failed), warm
    assert snapshot.read_bytes() == ref.state


def served(ref, tmp_path):
    spec = ROWS[ref.row]
    job = {"preset": spec["preset"], "seed": spec.get("seed", 0)}
    if spec.get("axes"):
        job["axes"] = spec["axes"]
    if spec.get("ci_width"):
        job.update(strategy="adaptive", ci_width=spec["ci_width"])
    server = ReproServer(workers=2, spool_dir=tmp_path / "spool")
    _host, port, stop = server.start_in_thread()
    base = f"http://127.0.0.1:{port}"
    try:
        request = urllib.request.Request(
            f"{base}/jobs", data=json.dumps(job).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            job_id = json.load(resp)["job"]
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/deltas",
                                    timeout=120) as resp:
            events = [json.loads(line) for line in resp if line.strip()]
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/snapshot",
                                    timeout=60) as resp:
            snapshot = resp.read()
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/telemetry",
                                    timeout=60) as resp:
            manifest = json.load(resp)
        with urllib.request.urlopen(f"{base}/metrics", timeout=60) as resp:
            metrics = json.load(resp)
    finally:
        stop()
    assert events[-1]["type"] == "complete", events[-1]
    deltas = [e for e in events if e["type"] == "delta"]
    for delta in deltas:
        assert delta["computed"] + delta["cached"] == delta["folded"], delta
        assert delta["errors"] == delta["failed"], delta
    stats = events[-1]["stats"]
    for key in ("computed", "cached", "errors", "batches"):
        assert deltas[-1][key] == stats[key], (key, deltas[-1], stats)
    assert stats["errors"] == len(json.loads(snapshot)["failed"])
    check_manifest(manifest, stats)
    assert metrics["counters"] == {key: stats[key] for key in METRIC_COUNTERS}
    assert snapshot == ref.state


CELLS = {
    "workers-2": workers_2,
    "batch-64": batch_64,
    "shards-3-merged": shards_3_merged,
    "kernels-off": kernels_off,
    "telemetry-on": telemetry_on,
    "resumed": resumed,
    "warm-cache": warm_cache,
    "served": served,
}


@pytest.fixture(scope="module", params=ROWS)
def reference(request, tmp_path_factory):
    return Reference(request.param, tmp_path_factory.mktemp(request.param))


def test_rows_cover_every_registered_preset():
    assert {spec["preset"] for spec in ROWS.values()} == set(preset_names())


@pytest.mark.parametrize("cell", CELLS)
def test_cell_reproduces_the_reference(reference, cell, tmp_path):
    CELLS[cell](reference, tmp_path)
