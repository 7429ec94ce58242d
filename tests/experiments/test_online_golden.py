"""Byte-identity regression for online campaigns through live admission.

The invariance matrix (``tests/invariance/test_matrix.py``) runs this grid
as its ``online`` row, but it compares the code with itself, so it cannot
notice an admission change that moves the bytes. The grid offers 513
arrivals, admits 475 and has one infeasible point, so it reaches the
admission controller's rejection path. Its ``--state`` snapshot was
captured before the controller kept per-bin ``minQ`` values between
decisions, with the fast kernels on and off and with 2 workers; admission
changes must keep it byte-for-byte.
"""

import hashlib
import json

import pytest

from repro.analysis import kernels
from repro.cli import main

ONLINE_REJECTING_ARGS = [
    "campaign", "online",
    "--axis", "arrival_rate=1.0,2.0",
    "--axis", "u_total=0.5,1.0",
    "--axis", "scenario=poisson,permanent",
    "--axis", "rep=0,1,2",
    "--axis", "n=6",
    "--axis", "cycles=15",
    "--seed", "5", "--workers", "1", "--no-progress",
]
ONLINE_REJECTING_DIGEST = (
    "a7d76cf69f5f46462c9ee48cfdd412fa6d899725fcdf69a76c1aba535d8f4b0f"
)


@pytest.mark.parametrize("fast", [True, False], ids=["kernels", "float"])
def test_online_rejecting_grid_unchanged(tmp_path, capsys, fast):
    state = tmp_path / "online.json"
    with kernels.kernels_forced(fast):
        assert main([*ONLINE_REJECTING_ARGS, "--state", str(state)]) == 0
    # Every admission trial counts its kernel selections: two per EDF build.
    stats = capsys.readouterr().err
    if fast:
        assert "kernels: 100.0% fast (3156/3156)" in stats
    else:
        assert "kernels:" not in stats
    snapshot = json.loads(state.read_text())
    assert snapshot["aggregate"]["offered"]["total"] == [513, 1]
    assert snapshot["aggregate"]["admitted"]["total"] == [475, 1]
    assert len(snapshot["failed"]) == 1
    assert hashlib.sha256(state.read_bytes()).hexdigest() == ONLINE_REJECTING_DIGEST
