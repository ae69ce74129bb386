"""The example scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["encoder_demo.py"], "checks: word reproduces the encoder"),
        # a maximal span contains the all-ones vector: the ancilla path
        (["encoder_demo.py", "--n", "3", "--r", "3"], "added an ancilla pair"),
        (["frame_potential_scan.py", "--max-t", "2"], "Haar N=2"),
        (["mc_convergence.py", "--dim", "4"], "z="),
    ],
)
def test_script_exits_zero(argv, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
