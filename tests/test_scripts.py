"""The grid-oracle script in scripts/, run as a user runs it."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parents[1] / "scripts"
FIXTURE = Path(__file__).parent / "fixtures" / "bloch_grid_oracle.json"


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True)


def test_bloch_grid_oracle_reproduces_the_fixture(tmp_path):
    out = tmp_path / "oracle.json"
    proc = run_script("bloch_grid_oracle.py", "--steps", "1000", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == FIXTURE.read_bytes()
