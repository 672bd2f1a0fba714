"""EPR squeezing in dB, Gaussian purity, and single-mode character.

Variances refer to the joint quadratures of one measured mode pair:
the (-) combination is Var(X_a - X_b) = Var(Y_a + Y_b), the (+) combination
Var(X_a + X_b) = Var(Y_a - Y_b).  Vacuum gives 1 for both, squeezing pushes
one of them below 1, and which one depends on the relative sign of the
paired mode functions, so the per-mode report always takes the better of the
two combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceMatrix
from .errors import ConfigurationError, NumericsError

_PURITY_XCHECK_TOL = 1e-9


@dataclass(frozen=True)
class SqueezingEntry:
    """Joint-quadrature variances and squeezing of one measured mode."""

    mode_index: int
    delta2_minus: float
    delta2_plus: float
    squeezing_db: float
    combination: str  # "minus" or "plus": which joint quadrature is squeezed


def squeezing_report(sigma) -> list[SqueezingEntry]:
    """Squeezing in dB of every measured mode, maximized over the two joint quadratures.

    The variances are read off sigma's diagonals.  Negative values (no
    squeezing in either combination) are reported as-is, and a vacuum mode
    (both variances exactly 1) as +0.0 dB, not -0.0.
    """
    s = CovarianceMatrix.of(sigma).sigma
    a, b, e, f = np.diagonal(s)[0::4], np.diagonal(s)[2::4], np.diagonal(s, 2)[0::4], np.diagonal(s, -2)[0::4]
    report = []
    for k, (d2m, d2p) in enumerate(zip((a + b - e - f).tolist(), (a + b + e + f).tolist()), start=1):
        if not (d2m > 0 and d2p > 0):
            raise NumericsError(
                f"mode {k}: joint-quadrature variances ({d2m:.3e}, {d2p:.3e}) are not positive"
            )
        # + 0.0 turns -10 log10(1.0) = -0.0 into 0.0 and leaves every other value as it is
        db_minus = -10.0 * math.log10(d2m) + 0.0
        db_plus = -10.0 * math.log10(d2p) + 0.0
        db, combination = (db_minus, "minus") if db_minus >= db_plus else (db_plus, "plus")
        report.append(SqueezingEntry(k, d2m, d2p, db, combination))
    return report


def purity_routes(sigma) -> tuple[float, float]:
    """Purity of the Gaussian state by two routes: the determinant route
    1 / sqrt(det 2 sigma) = 1 / (2^M sqrt(det sigma)) for M = 2N modes, and the
    Williamson route prod 1/(2 nu_j) over the covariance's one symplectic
    spectrum.  Both read 1.0 to the bit on the vacuum, 2 sigma = I; a sigma
    that is not positive definite raises ``PhysicalityError``."""
    cov = CovarianceMatrix.of(sigma)
    p_symp = float(np.exp(-np.sum(np.log(2.0 * cov.symplectic_eigenvalues))))
    sign, logdet = np.linalg.slogdet(2 * cov.sigma)
    if sign <= 0:
        raise NumericsError(f"covariance determinant not positive (sign {sign})")
    p_det = float(np.exp(-0.5 * logdet))
    return p_det, p_symp


def purity(sigma) -> float:
    """Purity of the Gaussian state by the determinant route.

    A disagreement with the Williamson route (see ``purity_routes``) beyond
    1e-9 indicates a numerical failure and raises, as does a gap that is not
    finite: both routes overflow to inf on a covariance far below vacuum.
    """
    p_det, p_symp = purity_routes(sigma)
    if not abs(p_det - p_symp) <= _PURITY_XCHECK_TOL:
        raise NumericsError(
            f"purity cross-check failed: determinant route {p_det!r} vs "
            f"symplectic route {p_symp!r}"
        )
    return p_det


def single_mode_character(reports: list[SqueezingEntry]) -> float:
    """First-mode squeezing divided by the summed squeezing of all others.

    Anti-squeezed higher modes contribute nothing to the denominator (their
    dB values are clamped at zero).  A vanishing denominator yields the
    infinity sentinel: all squeezing sits in the first mode.  A state with no
    squeezing at all, such as the exact vacuum a blocking filter leaves,
    reads the same sentinel; the run manifest writes it as null.
    """
    if not reports:
        raise ConfigurationError("single_mode_character needs at least one mode report")
    first = reports[0].squeezing_db
    rest = sum(max(entry.squeezing_db, 0.0) for entry in reports[1:])
    if rest == 0.0:
        return math.inf
    return first / rest

