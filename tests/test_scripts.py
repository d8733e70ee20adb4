"""The two scripts in scripts/, run as a user runs them."""

import json
import subprocess
import sys
from pathlib import Path

from moduncert import SEARCH_GAP_TOL, campaign, is_counterexample_candidate

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


def test_conjecture_campaign_records_match_the_library(tmp_path):
    out = tmp_path / "campaign.json"
    proc = run_script("conjecture_campaign.py", "--pairs", "2", "--restarts", "2",
                      "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    expected = []
    for spec, _fa, _fb, result in campaign(2, 2, 2000, 1, 6, 10, 4):
        expected.append({**spec, "mu": result.mu, "bound_value": result.bound_value,
                         "best_gap": result.best_gap,
                         "boundary_grazing": result.boundary_grazing,
                         "converged": result.converged,
                         "candidate": is_counterexample_candidate(result, SEARCH_GAP_TOL)})
    assert json.loads(out.read_text())["records"] == expected
