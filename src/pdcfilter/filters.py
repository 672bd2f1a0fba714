"""Spectral filters as frequency-dependent beam splitters, and the projection
of the filtered squeezer onto an arbitrary measurement basis.

A filter transmits amplitude T(w) and couples in vacuum with amplitude
R(w), |T|^2 + |R|^2 = 1, so a measured mode sees one unit of vacuum in all
(see :mod:`pdcfilter.covariance`) and R is never needed.  The squeezer
itself is the pair of Bogoliubov kernels U (beam-splitter part, cosh
weights) and V (squeezing part, sinh weights) of the broadband modes Psi
(signal) and Phi (idler):

    U_a = 1 / d_omega + Psi^H diag(cosh r - 1) Psi,   V_a = Psi^H diag(sinh r) Phi^*

and the idler kernels with Psi and Phi exchanged.  They are never formed:
since the Schmidt modes are orthonormal, a measured mode f sees the filtered
squeezer only through its overlaps c = d_omega (conj(T_a) f) Psi^H with the k
Schmidt pairs and through that one unit of vacuum.  Those N x k overlaps
per arm are all the covariance assembly needs, and the genetic search
scores with the same filtered Schmidt rows (:func:`filtered_schmidt_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .spectral import _SIGMA_MAX, _SIGMA_MIN, FrequencyGrid, SchmidtData

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class Filter:
    """Complex transmission amplitude sampled on the grid, with |T| <= 1."""

    transmission: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        t = np.asarray(self.transmission)
        if t.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"transmission shape {t.shape} does not match grid size {self.grid.n_points}"
            )
        if np.max(np.abs(t)) > 1.0 + 1e-12:
            raise ConfigurationError(f"|T| exceeds 1 (max {np.max(np.abs(t)):.6g})")


def make_rect_filter(center: float, width: float, grid: FrequencyGrid) -> Filter:
    """Rectangular passband; samples exactly on the edge transmit."""
    if width < 0:
        raise ConfigurationError(f"width must be >= 0, got {width}")
    t = (np.abs(grid.points - center) <= width / 2).astype(float)
    return Filter(t, grid)


def make_gauss_filter(center: float, fwhm: float, grid: FrequencyGrid) -> Filter:
    """Gaussian amplitude profile with unit peak; fwhm is the amplitude FWHM.

    fwhm takes the amplitude's width range, where fwhm^2 is positive and finite;
    a sample whose exponent overflows transmits 0, its value to double precision.
    """
    if not _SIGMA_MIN <= fwhm <= _SIGMA_MAX:
        raise ConfigurationError(f"fwhm must lie in [{_SIGMA_MIN:.3g}, {_SIGMA_MAX:.3g}], got {fwhm}")
    with np.errstate(over="ignore"):
        t = np.exp(-4 * np.log(2.0) * (grid.points - center) ** 2 / fwhm**2)
    return Filter(t, grid)


def make_identity_filter(grid: FrequencyGrid) -> Filter:
    return Filter(np.ones(grid.n_points), grid)


def make_blocking_filter(grid: FrequencyGrid) -> Filter:
    return Filter(np.zeros(grid.n_points), grid)


def make_flat_filter(amplitude: float, grid: FrequencyGrid) -> Filter:
    """Frequency-independent loss: T = amplitude everywhere (0 <= T <= 1)."""
    if not 0.0 <= amplitude <= 1.0:
        raise ConfigurationError(f"flat transmission amplitude must be in [0, 1], got {amplitude}")
    return Filter(np.full(grid.n_points, float(amplitude)), grid)


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal broadband modes in which the filtered state is measured."""

    signal_fns: np.ndarray
    idler_fns: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        object.__setattr__(self, "signal_fns", np.atleast_2d(np.asarray(self.signal_fns)))
        object.__setattr__(self, "idler_fns", np.atleast_2d(np.asarray(self.idler_fns)))
        for name, fns in (("signal", self.signal_fns), ("idler", self.idler_fns)):
            gram = fns @ fns.conj().T * self.grid.d_omega
            dev = np.max(np.abs(gram - np.eye(fns.shape[0])))
            if dev > _ORTHO_TOL:
                raise ConfigurationError(
                    f"{name} measurement modes not orthonormal (max deviation {dev:.3e})"
                )
        if self.signal_fns.shape != self.idler_fns.shape:
            raise ConfigurationError("signal and idler basis sizes differ")

    @property
    def n_modes(self) -> int:
        return self.signal_fns.shape[0]

    @classmethod
    def from_schmidt(cls, schmidt: SchmidtData, n_modes: int) -> "MeasurementBasis":
        return cls(schmidt.signal_modes[:n_modes], schmidt.idler_modes[:n_modes], schmidt.grid)

    @classmethod
    def from_shared(cls, modes: np.ndarray, grid: FrequencyGrid) -> "MeasurementBasis":
        """One common mode set for signal and idler."""
        m = np.atleast_2d(np.asarray(modes))
        return cls(m, m, grid)


@dataclass(frozen=True)
class ProjectionSet:
    """The filtered squeezer as seen by N measured mode pairs.

    ``overlap_signal`` = d_omega (conj(T_a) f) Psi^H and ``overlap_idler`` =
    d_omega (conj(T_b) g) Phi^H (N x k) are the overlaps of the filtered
    measurement modes with the k Schmidt pairs.  The vacuum the filters pass
    and reflect is the identity on an orthonormal basis (see
    :mod:`pdcfilter.covariance`), so it is not stored.  No array has a grid
    axis.
    """

    overlap_signal: np.ndarray
    overlap_idler: np.ndarray
    schmidt: SchmidtData = field(repr=False)
    basis: MeasurementBasis = field(repr=False)

    @property
    def grid(self) -> FrequencyGrid:
        return self.schmidt.grid

    @property
    def n_modes(self) -> int:
        return self.overlap_signal.shape[0]


def filtered_schmidt_rows(
    schmidt: SchmidtData, filter_signal: Filter, filter_idler: Filter
) -> tuple[np.ndarray, np.ndarray]:
    """The Schmidt rows seen through the filters: P_a = Psi T_a, P_b = Phi T_b.

    A measurement mode f overlaps the filtered signal pairs as
    d_omega f P_a^H, and the idler mode g the filtered idler pairs as
    d_omega g P_b^H.
    """
    grid = schmidt.grid
    if filter_signal.grid != grid or filter_idler.grid != grid:
        raise ConfigurationError("filter grids do not match the decomposition grid")
    return (
        schmidt.signal_modes * filter_signal.transmission,
        schmidt.idler_modes * filter_idler.transmission,
    )


def filtered_projections(
    schmidt: SchmidtData,
    filter_signal: Filter,
    filter_idler: Filter,
    basis: MeasurementBasis,
) -> ProjectionSet:
    """Project the filtered squeezer output onto a measurement basis.

    The overlaps are c_a = d_omega f P_a^H and c_b = d_omega g P_b^H with
    the rows of :func:`filtered_schmidt_rows`.  The measurement modes are
    contracted as written (not conjugated) with the conjugated transmission,
    so a local spectral phase on a filter and the same phase on the
    measurement mode cancel.
    """
    pa, pb = filtered_schmidt_rows(schmidt, filter_signal, filter_idler)
    if basis.grid != schmidt.grid:
        raise ConfigurationError("basis grid does not match the decomposition grid")
    schmidt.require_gain()
    dw = schmidt.grid.d_omega
    return ProjectionSet(
        overlap_signal=dw * (basis.signal_fns @ pa.conj().T),
        overlap_idler=dw * (basis.idler_fns @ pb.conj().T),
        schmidt=schmidt,
        basis=basis,
    )


def commutator_defects(projections: ProjectionSet) -> np.ndarray:
    """Per-mode deviation of the bosonic commutators from one, on both arms.

    A measured signal mode's commutator is

        1 + diag(c_a [ch1 (G_Psi - I) ch1 - sh (conj(G_Phi) - I) sh] c_a^H)

    with c_a the overlaps, ch1 = diag(cosh r - 1), sh = diag(sinh r) and
    G_Psi = d_omega Psi Psi^H, G_Phi = d_omega Phi Phi^H; the idler arm swaps
    Psi and Phi.  The 1 is the vacuum identity of :mod:`pdcfilter.covariance`,
    which holds because ``MeasurementBasis`` refuses a Gram deviation above
    1e-8; so this checks the other orthonormality the covariance formula
    assumes, that of the Schmidt modes.  Returns a (2, N) array of that
    expression minus 1: row 0 the signal arm, row 1 the idler arm.
    """
    p = projections
    r = p.schmidt.require_gain()
    ch1 = 2.0 * np.sinh(r / 2) ** 2  # cosh(r) - 1 without cancellation
    sh = np.sinh(r)
    dw = p.grid.d_omega
    eye = np.eye(len(r))
    dev_psi = dw * (p.schmidt.signal_modes @ p.schmidt.signal_modes.conj().T) - eye
    dev_phi = dw * (p.schmidt.idler_modes @ p.schmidt.idler_modes.conj().T) - eye

    def defect(c, dev_u, dev_v):
        inner = ch1[:, None] * dev_u * ch1 - sh[:, None] * dev_v.conj() * sh
        return np.real(np.einsum("ij,jk,ik->i", c, inner, c.conj()))

    return np.stack(
        [defect(p.overlap_signal, dev_psi, dev_phi), defect(p.overlap_idler, dev_phi, dev_psi)]
    )
