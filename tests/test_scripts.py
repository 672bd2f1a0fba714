"""The scripts under scripts/ and the README's quick start run against the current public API."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pdcfilter as pf

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


def test_readme_quick_start_is_run_single():
    # the README's python block, run as written, is the run it names, bit for bit
    readme = (_ROOT / "README.md").read_text()
    block = readme.split("## Quick start (library)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(block, scope)
    report = pf.run_single(pf.RunConfig(n_points=200, n_retained=5))
    assert np.array_equal(scope["cov"].sigma, report.covariance.sigma)
    assert pf.purity(scope["cov"]) == report.purity


def test_all_names_resolve():
    assert [name for name in pf.__all__ if not hasattr(pf, name)] == []
    exec("from pdcfilter import *", {})
