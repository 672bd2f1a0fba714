"""Workload definitions and seeded input generation.

Every operation gets its own input, drawn from a shifted R_d low-discrepancy
sequence (M. Roberts, "The unreasonable effectiveness of quasirandom
sequences", 2018) folded by the tent map u -> 1 - |2u - 1|, which keeps the
coverage and removes the seam at the ends of each range.  The seed fixes the
shift and the GA seeds, so one seed always gives the same inputs, and any
prefix of the sequence covers the input ranges evenly.  That keeps per-run
medians and means steady across seeds although each run sees other inputs.

Only config keys that the planned refactors keep are written:
n_points, sigma_a, sigma_b, theta, target_db, basis, filter_kind,
filter_center, filter_width, sweep_widths, sweep_target_dbs, ga_modes,
rng_seed.  The basis is passed on the command line as ``--basis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Input ranges shared by all workloads.  The extremes pass the JSA
# grid-truncation guard on the default [-10, 10] window.
SIGMA_A = (4.0, 6.0)
SIGMA_B = (1.5, 2.5)
THETA_HALF_SPAN = 0.1  # theta within +-0.1 of -pi/4
CENTER = (-1.0, 1.0)
WIDTH = (2.0, 8.0)
TARGET_DB = (3.0, 8.0)
SWEEP_N_WIDTHS = 8
SWEEP_N_DBS = 3
_DIMS = 6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI verb and basis at a fixed grid size."""

    name: str
    verb: str  # "run" or "sweep"
    basis: str  # "svd" or "ga"
    n_points: int
    ga_modes: int | None = None

    @property
    def items_per_op(self) -> int:
        return SWEEP_N_WIDTHS * SWEEP_N_DBS if self.verb == "sweep" else 1


WORKLOADS = {
    "run_hires": Workload("run_hires", "run", "svd", 1600),
    # n=600, not 400: on a 2-vCPU VM the 2-thread BLAS SVDs at n=400 swung
    # between 0.27 and 0.37 s per op with the load on the sibling core.
    "sweep_grid": Workload("sweep_grid", "sweep", "svd", 600),
    "ga_search": Workload("ga_search", "run", "ga", 100, ga_modes=5),
}

# Tiny sizes for the smoke mode: same code paths, a fraction of the cost.
SMOKE_WORKLOADS = {
    "run_hires": Workload("run_hires", "run", "svd", 120),
    "sweep_grid": Workload("sweep_grid", "sweep", "svd", 80),
    "ga_search": Workload("ga_search", "run", "ga", 60, ga_modes=2),
}


def _rd_alphas(dims: int) -> np.ndarray:
    phi = 2.0
    for _ in range(64):  # fixed point of x = (1 + x)^(1 / (d + 1))
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return (1.0 / phi) ** np.arange(1, dims + 1)


def _lerp(bounds: tuple[float, float], u: float) -> float:
    return float(bounds[0] + (bounds[1] - bounds[0]) * u)


def params_for(workload: Workload, u: np.ndarray, rng_seed: int) -> dict:
    """Map a point of the unit cube to one operation's config keys."""
    params = {
        "n_points": workload.n_points,
        "sigma_a": _lerp(SIGMA_A, u[0]),
        "sigma_b": _lerp(SIGMA_B, u[1]),
        "theta": float(-math.pi / 4 + THETA_HALF_SPAN * (2.0 * u[2] - 1.0)),
        "filter_kind": "rect",
        "filter_center": _lerp(CENTER, u[3]),
    }
    if workload.verb == "sweep":
        # strictly increasing, one per stratum of the range
        w_step = (WIDTH[1] - WIDTH[0]) / SWEEP_N_WIDTHS
        d_step = (TARGET_DB[1] - TARGET_DB[0]) / SWEEP_N_DBS
        params["sweep_widths"] = [float(WIDTH[0] + w_step * (j + u[4])) for j in range(SWEEP_N_WIDTHS)]
        params["sweep_target_dbs"] = [float(TARGET_DB[0] + d_step * (j + u[5])) for j in range(SWEEP_N_DBS)]
    else:
        params["filter_width"] = _lerp(WIDTH, u[4])
        params["target_db"] = _lerp(TARGET_DB, u[5])
    if workload.basis == "ga":
        params["ga_modes"] = workload.ga_modes
        params["rng_seed"] = int(rng_seed)
    return params


class InputStream:
    """Seeded, reproducible per-operation inputs for one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = int(seed)
        rng = np.random.default_rng([0x9DC, self.seed])
        self._shift = rng.random(_DIMS)
        self._alphas = _rd_alphas(_DIMS)

    def params(self, index: int) -> dict:
        u = 1.0 - np.abs(2.0 * np.mod(self._shift + (index + 1) * self._alphas, 1.0) - 1.0)
        ga_seed = np.random.default_rng([0x6A, self.seed, index]).integers(2**31 - 1)
        return params_for(self.workload, u, int(ga_seed))


def reference_params(workload: Workload) -> dict:
    """The fixed input whose outputs are pinned in reference.json: the centre of every range."""
    return params_for(workload, np.full(_DIMS, 0.5), rng_seed=0)


def write_config(params: dict, path: Path) -> Path:
    lines = []
    for key, value in params.items():
        # str() of a Python float is its shortest exact round-trip form
        text = ", ".join(map(str, value)) if isinstance(value, list) else str(value)
        lines.append(f"{key} = {text}")
    path.write_text("\n".join(lines) + "\n")
    return path


def cli_argv(workload: Workload, config: Path, out: Path, basis: str | None = None) -> list[str]:
    return [workload.verb, "--basis", basis or workload.basis, "--config", str(config), "--out", str(out)]
