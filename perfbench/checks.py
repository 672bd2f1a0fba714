"""Output checks applied to every benchmark operation.

The checks read the artifacts an operation wrote and recompute what they can
without the package: physicality from the symplectic spectrum, purity by two
routes, and first-mode squeezing from the covariance block.  Any miss makes
the operation (or the sweep point) count as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PHYSICALITY_TOL = 1e-9  # min symplectic eigenvalue >= 1/2 - tol
PURITY_TOL = 1e-9  # determinant route vs symplectic route, and vs manifest
REFERENCE_TOL = 1e-9  # pinned outputs of the fixed reference input
# The GA may not fall short of the svd basis's first mode by more than this,
# on the same input.  It may exceed it: the svd basis maximizes the filtered
# amplitude, not the squeezing left after filter loss, and at high gain the
# GA beats it by up to ~0.1 dB on inputs in the benchmark's ranges.
GA_AGREEMENT_DB = 0.1

RUN_ARTIFACTS = ("schmidt.csv", "modes.csv", "covariance.csv", "squeezing.csv", "manifest.json")
SWEEP_ARTIFACTS = ("tradeoff.csv", "manifest.json")


@dataclass
class OpOutcome:
    """What one operation produced and which checks it missed."""

    items: int
    failed_items: int = 0
    errors: list[str] = field(default_factory=list)
    first_mode_db: list[float] = field(default_factory=list)
    purity: list[float] = field(default_factory=list)
    covariance: np.ndarray | None = None

    def fail_all(self, message: str) -> "OpOutcome":
        self.errors.append(message)
        self.failed_items = self.items
        return self


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def _numeric_table(path: Path) -> np.ndarray:
    """All-numeric CSV body (header skipped) as a finite float array."""
    rows = _read_rows(path)
    arr = np.asarray([[float(x) for x in row] for row in rows[1:]])
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{path.name}: empty or non-finite")
    return arr


def covariance_errors(sigma: np.ndarray) -> tuple[list[str], float]:
    """Shape, symmetry, physicality and the two-route purity of a 4N x 4N covariance."""
    n = sigma.shape[0]
    if sigma.ndim != 2 or sigma.shape != (n, n) or n % 4 or not np.all(np.isfinite(sigma)):
        return [f"covariance has shape {sigma.shape} or non-finite entries"], math.nan
    errors = []
    if np.max(np.abs(sigma - sigma.T)) > 1e-12:
        errors.append("covariance not symmetric")
    omega = np.kron(np.eye(n // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nu = np.sort(np.abs(np.linalg.eigvals(omega @ sigma)))[::2]
    if nu.min() < 0.5 - PHYSICALITY_TOL:
        errors.append(f"unphysical: min symplectic eigenvalue {nu.min()!r}")
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return errors + ["covariance determinant not positive"], math.nan
    p_det = math.exp(-(n // 2) * math.log(2.0) - 0.5 * logdet)
    p_symp = float(np.exp(-np.sum(np.log(2.0 * nu))))
    if abs(p_det - p_symp) > PURITY_TOL:
        errors.append(f"purity cross-check: det {p_det!r} vs symplectic {p_symp!r}")
    return errors, p_det


def first_mode_db(sigma: np.ndarray) -> float:
    """Better of the two joint-quadrature squeezings of measured mode 1."""
    a, b, e, f = sigma[0, 0], sigma[2, 2], sigma[0, 2], sigma[2, 0]
    return max(-10.0 * math.log10(a + b - e - f), -10.0 * math.log10(a + b + e + f))


def check_run(rc: int, out: Path, ga: bool) -> OpOutcome:
    """Checks for one ``pdcfilter run``: exit code, artifacts, physics."""
    outcome = OpOutcome(items=1)
    if rc != 0:
        return outcome.fail_all(f"exit code {rc}")
    names = RUN_ARTIFACTS + (("ga_convergence.csv",) if ga else ())
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return outcome.fail_all(f"missing artifacts {missing}")
    try:
        sigma = np.asarray([[float(x) for x in row] for row in _read_rows(out / "covariance.csv")])
        squeezing = _read_rows(out / "squeezing.csv")
        for name in ("schmidt.csv", "modes.csv") + (("ga_convergence.csv",) if ga else ()):
            _numeric_table(out / name)
        results = json.loads((out / "manifest.json").read_text())["results"]
        listed_db = float(squeezing[1][3])
        manifest_db = float(results["first_mode_squeezing_db"])
        manifest_purity = float(results["purity"])
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return outcome.fail_all(f"artifacts do not parse: {exc}")
    errors, purity = covariance_errors(sigma)
    if not errors:
        db = first_mode_db(sigma)
        if abs(purity - manifest_purity) > PURITY_TOL:
            errors.append(f"manifest purity {manifest_purity!r} vs covariance {purity!r}")
        if max(abs(db - listed_db), abs(db - manifest_db)) > REFERENCE_TOL:
            errors.append(f"first-mode dB {listed_db!r}/{manifest_db!r} vs covariance {db!r}")
        outcome.first_mode_db, outcome.purity, outcome.covariance = [db], [purity], sigma
    if errors:
        return outcome.fail_all("; ".join(errors))
    return outcome


def check_sweep(rc: int, out: Path, n_points: int) -> OpOutcome:
    """Checks for one ``pdcfilter sweep``; each table row is one item."""
    outcome = OpOutcome(items=n_points)
    if rc != 0:
        return outcome.fail_all(f"exit code {rc}")
    missing = [name for name in SWEEP_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return outcome.fail_all(f"missing artifacts {missing}")
    try:
        rows = _read_rows(out / "tradeoff.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        header, body = rows[0], rows[1:]
        col = {name: header.index(name) for name in ("first_mode_squeezing_db", "purity", "error")}
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return outcome.fail_all(f"artifacts do not parse: {exc}")
    if len(body) != n_points or manifest.get("n_records") != n_points:
        return outcome.fail_all(f"expected {n_points} sweep points, got {len(body)}")
    for row in body:
        try:
            db = float(row[col["first_mode_squeezing_db"]])
            purity = float(row[col["purity"]])
        except (ValueError, IndexError):
            db = purity = math.nan
        if row[col["error"]] or not math.isfinite(db) or not 0.0 < purity <= 1.0 + PURITY_TOL:
            outcome.failed_items += 1
            outcome.errors.append(f"sweep point failed: {row}")
        else:
            outcome.first_mode_db.append(db)
            outcome.purity.append(purity)
    if manifest.get("n_failed") != outcome.failed_items:
        return outcome.fail_all(f"manifest n_failed {manifest.get('n_failed')} disagrees with the table")
    return outcome


def reference_errors(outcome: OpOutcome, reference: dict) -> list[str]:
    """Compare first-mode dB, purity and (for runs) covariance with pinned values."""
    errors = []
    for key in ("first_mode_db", "purity"):
        got, want = np.asarray(getattr(outcome, key)), np.asarray(reference[key])
        if got.shape != want.shape or np.max(np.abs(got - want)) > REFERENCE_TOL:
            errors.append(f"reference {key}: {got.tolist()} vs {want.tolist()}")
    if "covariance" in reference:
        want = np.asarray(reference["covariance"])
        got = outcome.covariance
        if got is None or got.shape != want.shape or np.max(np.abs(got - want)) > REFERENCE_TOL:
            errors.append("reference covariance differs by more than 1e-9")
    return errors


def agreement_error(ga_db: float, svd_db: float) -> str | None:
    """The paper's optimizer-agreement criterion on one input, one-sided."""
    if ga_db < svd_db - GA_AGREEMENT_DB:
        return f"GA first mode {ga_db:.4f} dB is below svd {svd_db:.4f} dB by > {GA_AGREEMENT_DB} dB"
    return None
