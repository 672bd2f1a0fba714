"""Covariance matrices of the filtered multimode squeezer.

Quadrature ordering is (X_a^1, Y_a^1, X_b^1, Y_b^1, ..., X_a^N, Y_a^N,
X_b^N, Y_b^N): four quadratures per measured mode index, signal arm first.
Vacuum variance is 1/2, so the vacuum covariance matrix is identity/2 and
physical states have every symplectic eigenvalue >= 1/2.

A measured-mode pair (k, l) contributes a 4x4 block.  Each filter is a
beam splitter whose reflected port brings in vacuum, |T|^2 + |R|^2 = 1 at
every frequency, so the passed and the reflected vacuum of a measured mode
add up to the mode's own norm: an orthonormal measurement basis sees
exactly the identity, whatever the filter.  This is the one place that
vacuum term is stated (the genetic search's ``+ 1.0`` is the same identity).
With the overlaps c_a, c_b (N x k) of a ``ProjectionSet``,
S = diag sinh^2 r and C = diag cosh r sinh r, the orthonormality of the
Schmidt modes then reduces every quadrature inner product to

    N_a = 1 + 2 c_a S c_a^H,    P = 2 c_a C c_b^T,

and the block reads (prefactor 1/2 included in the stored entries)

    [[ a,  c,  e,  g],
     [-c,  a,  g, -e],      a = Re N_a(k,l),   c = -Im N_a(k,l)
     [ f,  h,  b,  d],      e = Re P(k,l),     g = Im P(k,l)
     [ h, -f, -d,  b]] / 2  f(k,l) = e(l,k),   h(k,l) = g(l,k)

and b, d mirror a, c with N_b = 1 + 2 c_b S c_b^H.  Built from the Hermitian parts
of N_a and N_b, each block is its mirror's transpose entry for entry, so sigma is
exactly symmetric.  The numbers here are actual
covariance entries: at r = 0 the diagonal is 1/2 and the difference-quadrature
variance a + b - e - f equals 1 (0 dB), consistent with the dB conversion.  A
state that reaches no measured mode (a blocking filter, or r = 0) is
therefore exactly vacuum, identity/2, to the bit.

The Williamson spectrum comes from the Cholesky factor L of 2 sigma: the
antisymmetric A = L^T Omega L has singular values 2 nu_j, each twice, so one
symmetric eigensolve of A^T A gives every nu_j.  Factoring 2 sigma, not sigma,
keeps the vacuum exact: L = I and every nu is 1/2 to the bit.  Every physical
sigma >= i Omega / 2 is positive definite, so one that is not is unphysical
(minimum 0.0); Cholesky does not raise on NaN or inf, so construction refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, NumericsError, PhysicalityError
from .filters import ProjectionSet

_PHYSICALITY_RAISE = 1e-6
# largest |sigma - sigma^T| entry a covariance passed in from outside may carry
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 4N x 4N covariance matrix of N measured mode pairs.

    Shape, finiteness and symmetry are checked on construction.  The Williamson
    spectrum is computed on first use, and every physicality and purity check reads it.
    """

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 4 or not s.size:
            raise ConfigurationError(
                f"covariance must be a 4N x 4N matrix with N >= 1, got shape {s.shape}"
            )
        if not np.all(np.isfinite(s)):
            raise NumericsError(f"covariance has non-finite entries (matrix {s.shape})")
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

        The singular values 2 nu_j of A = L^T Omega L, with L the Cholesky factor
        of 2 sigma, by one ``eigvalsh`` of A^T A; exact on vacuum, where L = I
        (see the module docstring).  A sigma that is not positive definite raises
        ``PhysicalityError`` with a minimum of 0.0.  The Cholesky factor does not
        raise on NaN or inf, which construction has already refused.
        """
        s = self.sigma
        # factor 2 sigma / 4^k: an even power of two scales every step exactly and keeps A^T A in range
        k = (np.frexp(np.max(np.abs(np.diagonal(s))))[1] + 1) // 2
        try:
            chol = np.linalg.cholesky(np.ldexp(s, 1 - 2 * k))
        except np.linalg.LinAlgError as exc:
            msg = "covariance is not positive definite, so no state has it"
            raise PhysicalityError(msg, min_symplectic_eigenvalue=0.0) from exc
        a = chol.T @ symplectic_form(s.shape[0] // 2) @ chol
        nu = np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(a.T @ a)[::-2], 0.0)), 2 * k - 1)
        nu.flags.writeable = False
        return nu

    def block(self, k: int, l: int | None = None) -> np.ndarray:
        """4x4 block coupling measured modes k and l (1-based; l defaults to k)."""
        if l is None:
            l = k
        if not (1 <= k <= self.n_modes and 1 <= l <= self.n_modes):
            raise ConfigurationError(f"mode indices ({k}, {l}) out of range 1..{self.n_modes}")
        return self.sigma[4 * (k - 1) : 4 * k, 4 * (l - 1) : 4 * l]


@cache
def symplectic_form(n_pairs: int) -> np.ndarray:
    """Block-diagonal form with [[0, 1], [-1, 0]] per (X, Y) pair; built once per size, read-only."""
    omega = np.kron(np.eye(n_pairs), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.flags.writeable = False
    return omega


def check_physicality(sigma, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether all symplectic eigenvalues clear the vacuum bound 1/2 - tol.

    Returns (passed, min_symplectic_eigenvalue); diagnostic only, never raises
    for unphysical input.  A covariance that is not positive definite has no
    Williamson spectrum and reads (False, 0.0).
    """
    try:
        lowest = float(np.min(CovarianceMatrix.of(sigma).symplectic_eigenvalues))
    except PhysicalityError as exc:
        return False, exc.min_symplectic_eigenvalue
    return lowest >= 0.5 - tol, lowest


def assemble_covariance(projections: ProjectionSet) -> CovarianceMatrix:
    """Build the 4N x 4N covariance matrix from a projection set.

    The blocks are contractions of the overlaps over the k Schmidt pairs
    (see the module docstring); no product runs over the grid.  The result
    is symmetric by construction and validated against the bosonic
    uncertainty bound.

    Raises
    ------
    PhysicalityError
        If the smallest symplectic eigenvalue drops below 1/2 - 1e-6,
        signalling non-orthonormal modes or quadrature failure upstream.
    """
    p = projections
    n = p.n_modes
    r = p.schmidt.require_gain()
    sq, cs = np.sinh(r) ** 2, np.cosh(r) * np.sinh(r)
    ca, cb = p.overlap_signal, p.overlap_idler
    vacuum = np.eye(n)  # the module docstring's identity
    n_a = vacuum + 2 * (ca * sq) @ ca.conj().T
    n_b = vacuum + 2 * (cb * sq) @ cb.conj().T
    # Hermitian to round-off; their Hermitian parts make sigma symmetric to the bit
    n_a, n_b = (n_a + n_a.conj().T) / 2, (n_b + n_b.conj().T) / 2
    pair = 2 * (ca * cs) @ cb.T
    a, c = np.real(n_a), -np.imag(n_a)
    b, d = np.real(n_b), -np.imag(n_b)
    e, g = np.real(pair), np.imag(pair)

    # the module docstring's 4x4 block of every mode pair (k, l), interleaved
    table = np.array([[a, c, e, g], [-c, a, g, -e], [e.T, g.T, b, d], [g.T, -e.T, -d, b]]) / 2
    # + 0.0 clears the -0.0 that negating a zero entry leaves, so vacuum reads identity/2
    sigma = table.transpose(2, 0, 3, 1).reshape(4 * n, 4 * n) + 0.0

    cov = CovarianceMatrix(sigma=sigma)
    passed, lowest = check_physicality(cov, tol=_PHYSICALITY_RAISE)
    if not passed:
        raise PhysicalityError(
            f"covariance is unphysical: min symplectic eigenvalue {lowest!r} < "
            f"1/2 - {_PHYSICALITY_RAISE:.0e}",
            min_symplectic_eigenvalue=lowest,
        )
    return cov
