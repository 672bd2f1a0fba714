"""Self-test of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload in smoke mode (tiny grids), traced and untraced, and
checks that each prints exactly the metric names BENCHMARK.json lists.  It
also checks that the output checks reject a perturbed covariance, a non-zero
exit and a reference mismatch, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from pdcfilter import cli  # noqa: E402
from inputs import SMOKE_WORKLOADS, WORKLOADS, InputStream, cli_argv, write_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]


def _smoke_run(tmp_path: Path, name: str) -> tuple[int, Path, Path]:
    workload = SMOKE_WORKLOADS[name]
    config = write_config(InputStream(workload, seed=1).params(0), tmp_path / "op.cfg")
    out = tmp_path / "out"
    rc = cli.main(cli_argv(workload, config, out))
    return rc, out, config


def test_check_accepts_then_rejects_perturbed_covariance(tmp_path, capsys):
    rc, out, _ = _smoke_run(tmp_path, "run_hires")
    assert not checks.check_run(rc, out, ga=False).failed_items
    path = out / "covariance.csv"
    sigma = np.loadtxt(path, delimiter=",")

    np.savetxt(path, 0.9 * sigma, delimiter=",", fmt="%.17g")  # below the vacuum bound
    outcome = checks.check_run(rc, out, ga=False)
    assert outcome.failed_items == 1 and "unphysical" in outcome.errors[0]

    nudged = sigma.copy()
    nudged[0, 0] += 1e-6  # physical, but disagrees with squeezing.csv and the manifest
    np.savetxt(path, nudged, delimiter=",", fmt="%.17g")
    assert checks.check_run(rc, out, ga=False).failed_items == 1


def test_check_rejects_nonzero_exit(tmp_path, capsys):
    rc, out, _ = _smoke_run(tmp_path, "run_hires")
    assert checks.check_run(2, out, ga=False).failed_items == 1
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    rc, out, _ = _smoke_run(sweep_dir, "sweep_grid")
    assert not checks.check_sweep(rc, out, 24).failed_items
    assert checks.check_sweep(1, out, 24).failed_items == 24


def test_check_rejects_missing_artifact(tmp_path, capsys):
    rc, out, _ = _smoke_run(tmp_path, "run_hires")
    (out / "modes.csv").unlink()
    assert checks.check_run(rc, out, ga=False).failed_items == 1


def test_reference_mismatch_is_reported(tmp_path, capsys):
    rc, out, _ = _smoke_run(tmp_path, "run_hires")
    outcome = checks.check_run(rc, out, ga=False)
    pinned = {"first_mode_db": outcome.first_mode_db, "purity": outcome.purity, "covariance": outcome.covariance.tolist()}
    assert checks.reference_errors(outcome, pinned) == []
    pinned["covariance"][1][1] += 2e-9
    assert checks.reference_errors(outcome, pinned)


def test_ga_agreement_is_one_sided():
    assert checks.agreement_error(3.05, 3.0) is None
    assert checks.agreement_error(3.2, 3.0) is None
    assert checks.agreement_error(2.85, 3.0)


def test_inputs_reproducible_and_in_range():
    for workload in WORKLOADS.values():
        a, b, c = InputStream(workload, 7), InputStream(workload, 7), InputStream(workload, 8)
        assert [a.params(i) for i in range(5)] == [b.params(i) for i in range(5)]
        assert a.params(0) != c.params(0)
        for i in range(50):
            p = a.params(i)
            assert 4.0 <= p["sigma_a"] <= 6.0 and 1.5 <= p["sigma_b"] <= 2.5
            assert abs(p["theta"] + math.pi / 4) <= 0.1 + 1e-12 and -1.0 <= p["filter_center"] <= 1.0
            assert "threads" not in p
            widths = p.get("sweep_widths", [p.get("filter_width")])
            dbs = p.get("sweep_target_dbs", [p.get("target_db")])
            assert all(2.0 <= w <= 8.0 for w in widths) and all(3.0 <= d <= 8.0 for d in dbs)
            assert all(x < y for x, y in zip(widths, widths[1:])) and all(x < y for x, y in zip(dbs, dbs[1:]))


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "ga_search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
