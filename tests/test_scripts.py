"""The scripts under scripts/ run against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(_ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_reference_run_script_exits_cleanly():
    proc = _run_script("reference_run.py")
    assert proc.returncode == 0, proc.stderr
    assert "effective (filter-adapted) basis" in proc.stdout


def test_ga_vs_svd_script_exits_cleanly(tmp_path):
    proc = _run_script("ga_vs_svd.py", "--modes", "2", "--population", "32", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "mode 2: ga" in proc.stdout
    log = (tmp_path / "ga_convergence.csv").read_text().splitlines()
    assert log[0] == "mode,generation,best_db,mean_db" and len(log) > 2
    assert (tmp_path / "manifest.json").exists()
