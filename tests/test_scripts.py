"""The example scripts run to completion, and the README's library
example prints what its comments say."""

import os
import re
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


def test_readme_library_example_prints_its_comments(capsys):
    """The python block under "Library example" in README.md, run as it
    stands: its first three prints show their comments, the last a 4 x 4
    bit matrix."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert comments[:3] == out[:3] == ["i^1 1010", "i^0 1010", "-1"]
    assert comments[3:] == ["a 4x4 bit matrix"]
    assert len(out) == 7 and all(re.fullmatch("[01]{4}", row) for row in out[3:])
