"""Covariance matrices of the filtered multimode squeezer.

Quadrature ordering is (X_a^1, Y_a^1, X_b^1, Y_b^1, ..., X_a^N, Y_a^N,
X_b^N, Y_b^N): four quadratures per measured mode index, signal arm first.
Vacuum variance is 1/2, so the vacuum covariance matrix is identity/2 and
physical states have every symplectic eigenvalue >= 1/2.

A measured-mode pair (k, l) contributes a 4x4 block whose entries are
quadrature inner products of the six projection-kernel families.  With the
shorthand Gram integrals

    UU_a(k,l) = int u_a^k conj(u_a^l),   RR_a, VV_a, ... analogously,
    W(k,l)    = int u_a^k v_b^l,         M(k,l) = int v_a^k u_b^l,

the block reads (prefactor 1/2 included in the stored entries)

    [[ a,  c,  e,  g],
     [-c,  a,  g, -e],      a = Re(UU_a + RR_a + conj(VV_a))(k,l)
     [ f,  h,  b,  d],      c = -Im(UU_a + RR_a - conj(VV_a))(k,l)
     [ h, -f, -d,  b]] / 2  e = Re(W + M)(k,l),  g = Im(W + M)(k,l)
                            f(k,l) = e(l,k),     h(k,l) = g(l,k)

and b, d mirror a, c with idler-arm Grams.  The numbers here are actual
covariance entries: at r = 0 the diagonal is 1/2 and the difference-quadrature
variance a + b - e - f equals 1 (0 dB), consistent with the dB conversion.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericsError, PhysicalityError
from .filters import ProjectionSet

_ASYMMETRY_WARN = 1e-8
_PHYSICALITY_RAISE = 1e-6
# largest |sigma - sigma^T| entry a covariance may carry
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 4N x 4N covariance matrix of N measured mode pairs.

    Shape and symmetry are checked on construction.  The Williamson spectrum
    is computed on first use, and every physicality and purity check reads it.
    """

    sigma: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.sigma)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 4 or not s.size:
            raise ConfigurationError(
                f"covariance must be a 4N x 4N matrix with N >= 1, got shape {s.shape}"
            )
        dev = float(np.max(np.abs(s - s.T)))
        if dev > _SYMMETRY_TOL:
            raise ConfigurationError(f"covariance not symmetric (max deviation {dev:.3e})")

    @classmethod
    def of(cls, sigma) -> "CovarianceMatrix":
        """``sigma`` itself if it is a ``CovarianceMatrix``, else the array wrapped."""
        return sigma if isinstance(sigma, cls) else cls(np.asarray(sigma, dtype=float))

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 4

    @cached_property
    def symplectic_eigenvalues(self) -> np.ndarray:
        """Williamson eigenvalues, descending (one per bosonic mode), read-only.

        The magnitudes of the paired, purely imaginary spectrum of Omega @ sigma;
        vacuum gives 1/2 for every mode.  A failed eigensolver (for example on
        non-finite entries) raises ``NumericsError``.
        """
        s = self.sigma
        try:
            ev = np.linalg.eigvals(symplectic_form(s.shape[0] // 2) @ s)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                f"symplectic spectrum failed to converge (matrix {s.shape}, "
                f"finite: {bool(np.all(np.isfinite(s)))})"
            ) from exc
        nu = np.sort(np.abs(ev))[::-1][::2]
        nu.flags.writeable = False
        return nu

    def block(self, k: int, l: int | None = None) -> np.ndarray:
        """4x4 block coupling measured modes k and l (1-based; l defaults to k)."""
        if l is None:
            l = k
        if not (1 <= k <= self.n_modes and 1 <= l <= self.n_modes):
            raise ConfigurationError(f"mode indices ({k}, {l}) out of range 1..{self.n_modes}")
        return self.sigma[4 * (k - 1) : 4 * k, 4 * (l - 1) : 4 * l]


def analytic_epr_block(r: float) -> np.ndarray:
    """Covariance of one ideal two-mode squeezed pair with amplitude r."""
    if r < 0:
        raise ConfigurationError(f"squeezing amplitude must be >= 0, got {r}")
    c2, s2 = np.cosh(2 * r), np.sinh(2 * r)
    return 0.5 * np.array(
        [
            [c2, 0.0, s2, 0.0],
            [0.0, c2, 0.0, -s2],
            [s2, 0.0, c2, 0.0],
            [0.0, -s2, 0.0, c2],
        ]
    )


def symplectic_form(n_pairs: int) -> np.ndarray:
    """Block-diagonal form with [[0, 1], [-1, 0]] per (X, Y) pair."""
    return np.kron(np.eye(n_pairs), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """``CovarianceMatrix.symplectic_eigenvalues`` of ``sigma``."""
    return CovarianceMatrix.of(sigma).symplectic_eigenvalues


def check_physicality(sigma, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether all symplectic eigenvalues clear the vacuum bound 1/2 - tol.

    Returns (passed, min_symplectic_eigenvalue); diagnostic only, never raises
    for unphysical input.
    """
    lowest = float(np.min(symplectic_eigenvalues(sigma)))
    return lowest >= 0.5 - tol, lowest


def assemble_covariance(projections: ProjectionSet) -> CovarianceMatrix:
    """Build the 4N x 4N covariance matrix from a projection set.

    All Gram integrals are rectangle-rule quadratures; the result is
    symmetrized (the construction is symmetric up to BLAS rounding, recorded
    as ``asymmetry``) and validated against the bosonic uncertainty bound.

    Raises
    ------
    PhysicalityError
        If the smallest symplectic eigenvalue drops below 1/2 - 1e-6,
        signalling kernel truncation or quadrature failure upstream.
    """
    n = projections.n_modes
    dw = projections.grid.d_omega
    ua, ub = projections.u_signal, projections.u_idler
    va, vb = projections.v_signal, projections.v_idler
    ra, rb = projections.r_signal, projections.r_idler

    uu_a = dw * (ua @ ua.conj().T)
    rr_a = dw * (ra @ ra.conj().T)
    vv_a = dw * (va @ va.conj().T).conj()
    uu_b = dw * (ub @ ub.conj().T)
    rr_b = dw * (rb @ rb.conj().T)
    vv_b = dw * (vb @ vb.conj().T).conj()
    w = dw * (ua @ vb.T)
    m = dw * (va @ ub.T)

    a = np.real(uu_a + rr_a + vv_a)
    c = -np.imag(uu_a + rr_a - vv_a)
    b = np.real(uu_b + rr_b + vv_b)
    d = -np.imag(uu_b + rr_b - vv_b)
    e = np.real(w + m)
    g = np.imag(w + m)

    sigma = np.zeros((4 * n, 4 * n))
    sigma[0::4, 0::4] = a / 2
    sigma[0::4, 1::4] = c / 2
    sigma[0::4, 2::4] = e / 2
    sigma[0::4, 3::4] = g / 2
    sigma[1::4, 0::4] = -c / 2
    sigma[1::4, 1::4] = a / 2
    sigma[1::4, 2::4] = g / 2
    sigma[1::4, 3::4] = -e / 2
    sigma[2::4, 0::4] = e.T / 2
    sigma[2::4, 1::4] = g.T / 2
    sigma[2::4, 2::4] = b / 2
    sigma[2::4, 3::4] = d / 2
    sigma[3::4, 0::4] = g.T / 2
    sigma[3::4, 1::4] = -e.T / 2
    sigma[3::4, 2::4] = -d / 2
    sigma[3::4, 3::4] = b / 2

    asymmetry = float(np.max(np.abs(sigma - sigma.T)))
    if asymmetry > _ASYMMETRY_WARN:
        warnings.warn(
            f"covariance asymmetry {asymmetry:.3e} exceeds {_ASYMMETRY_WARN:.0e}",
            RuntimeWarning,
            stacklevel=2,
        )
    sigma = (sigma + sigma.T) / 2

    cov = CovarianceMatrix(sigma=sigma, asymmetry=asymmetry)
    passed, lowest = check_physicality(cov, tol=_PHYSICALITY_RAISE)
    if not passed:
        raise PhysicalityError(
            f"covariance is unphysical: min symplectic eigenvalue {lowest!r} < "
            f"1/2 - {_PHYSICALITY_RAISE:.0e}",
            min_symplectic_eigenvalue=lowest,
        )
    return cov


def read_covariance_csv(path) -> np.ndarray:
    """The matrix of a ``covariance.csv`` artifact, checked as a ``CovarianceMatrix``."""
    with open(path, newline="") as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    return CovarianceMatrix.of(rows).sigma
