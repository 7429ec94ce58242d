"""Byte-identity regression for faultspace campaigns over all five scenarios.

The invariance matrix (``tests/invariance/test_matrix.py``) compares a
faultspace run against the same grid run another way, and both come from
the same code, so it cannot notice a simulator change that moves the bytes. The grid below injects 681 faults
over all five fault scenarios and produces all four outcomes. Its
``--state`` snapshot was captured, with the fast kernels on and off, before
the simulator's hot path was rewritten (template-walk windows, one trace
sort per run, a tighter uniprocessor loop); simulator changes must keep it
byte-for-byte.
"""

import hashlib
import json

import pytest

from repro.analysis import kernels
from repro.cli import main

FAULTSPACE_ALL_SCENARIOS_ARGS = [
    "campaign", "faultspace",
    "--axis", "u_total=0.8",
    "--axis", "rate=0.02,0.05",
    "--axis", "scenario=poisson,bursty,correlated,intermittent,permanent",
    "--axis", "rep=0,1,2",
    "--axis", "n=6",
    "--axis", "cycles=30",
    "--seed", "5", "--workers", "1", "--no-progress",
]
FAULTSPACE_ALL_SCENARIOS_DIGEST = (
    "104d0c2e351f788c2a1098606120e26c0a9729c910944bb6054f04ff96a76674"
)


@pytest.mark.parametrize("fast", [True, False], ids=["kernels", "float"])
def test_faultspace_all_scenarios_grid_unchanged(tmp_path, capsys, fast):
    state = tmp_path / "faultspace.json"
    with kernels.kernels_forced(fast):
        assert main([*FAULTSPACE_ALL_SCENARIOS_ARGS, "--state", str(state)]) == 0
    capsys.readouterr()
    snapshot = json.loads(state.read_text())
    assert snapshot["failed"] == []
    assert snapshot["aggregate"]["injected"]["total"] == [681, 1]
    outcomes = snapshot["aggregate"]["outcomes"]["points"]
    assert {json.loads(k)[0] for k in outcomes} == {
        "poisson", "bursty", "correlated", "intermittent", "permanent",
    }
    seen = {o for p in outcomes.values() for o, c in p["counts"].items() if c}
    assert seen == {"masked", "silenced", "corrupted", "harmless"}
    digest = hashlib.sha256(state.read_bytes()).hexdigest()
    assert digest == FAULTSPACE_ALL_SCENARIOS_DIGEST
