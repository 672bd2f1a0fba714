"""Spectral filters as frequency-dependent beam splitters, and the projection
of the filtered squeezer onto an arbitrary measurement basis.

A filter transmits amplitude T(w) and couples in vacuum with amplitude
R(w) = sqrt(1 - |T(w)|^2).  The squeezer itself is the pair of Bogoliubov
kernels U (beam-splitter part, cosh weights) and V (squeezing part, sinh
weights) of the broadband modes Psi (signal) and Phi (idler):

    U_a = 1 / d_omega + Psi^H diag(cosh r - 1) Psi,   V_a = Psi^H diag(sinh r) Phi^*

and the idler kernels with Psi and Phi exchanged.  They are never formed as
n x n matrices: the identity part is applied exactly and the rest through
the k Schmidt factors, so the cost is O(n k) per measured mode and the
commutators hold exactly for any number k of decomposed modes.

Projecting the filtered output onto measurement modes f_k / g_k yields, per
mode, six one-frequency kernels: the U, V contractions against T_a f_k
(resp. T_b g_k) plus the reflected-vacuum amplitudes f_k R_a and g_k R_b.
Those six families are all the covariance assembly needs.
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

    @property
    def reflection(self) -> np.ndarray:
        """Reflected-vacuum amplitude sqrt(1 - |T|^2), never stored separately."""
        return np.sqrt(np.clip(1.0 - np.abs(self.transmission) ** 2, 0.0, None))


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
    """Per-measurement-mode kernels of the filtered squeezer.

    Rows of ``u_signal``/``v_signal`` are the signal-arm contractions of the
    measurement modes (through the signal filter) against the U and V
    kernels; ``r_signal`` rows are the pointwise products f_k(w) * R_a(w).
    Idler quantities mirror them with g_k and the idler filter.
    """

    u_signal: np.ndarray
    u_idler: np.ndarray
    v_signal: np.ndarray
    v_idler: np.ndarray
    r_signal: np.ndarray
    r_idler: np.ndarray
    grid: FrequencyGrid
    schmidt: SchmidtData = field(repr=False)
    filter_signal: Filter = field(repr=False)
    filter_idler: Filter = field(repr=False)
    basis: MeasurementBasis = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.u_signal.shape[0]


def filtered_projections(
    schmidt: SchmidtData,
    filter_signal: Filter,
    filter_idler: Filter,
    basis: MeasurementBasis,
) -> ProjectionSet:
    """Project the filtered squeezer output onto a measurement basis.

    With c = d_omega (T f) Psi^H the overlaps of the filtered measurement
    modes with the signal Schmidt modes, the signal arm is

        u = T f + (c * (cosh r - 1)) Psi,    v = (c * sinh r) Phi^*

    and the idler arm mirrors it with g, Phi and Psi^*.  The contraction
    integrals use the measurement modes as written (not conjugated); for the
    real-valued reference scenario the distinction is immaterial.
    """
    grid = schmidt.grid
    for obj, name in ((filter_signal, "signal filter"), (filter_idler, "idler filter"), (basis, "basis")):
        if obj.grid != grid:
            raise ConfigurationError(f"{name} grid does not match the decomposition grid")
    r = schmidt.require_gain()
    ch1 = 2.0 * np.sinh(r / 2) ** 2  # cosh(r) - 1 without cancellation
    sh = np.sinh(r)
    psi, phi = schmidt.signal_modes, schmidt.idler_modes

    dw = grid.d_omega
    fa = basis.signal_fns * filter_signal.transmission
    gb = basis.idler_fns * filter_idler.transmission
    ca = dw * (fa @ psi.conj().T)
    cb = dw * (gb @ phi.conj().T)
    return ProjectionSet(
        u_signal=fa + (ca * ch1) @ psi,
        v_signal=(ca * sh) @ phi.conj(),
        u_idler=gb + (cb * ch1) @ phi,
        v_idler=(cb * sh) @ psi.conj(),
        r_signal=basis.signal_fns * filter_signal.reflection,
        r_idler=basis.idler_fns * filter_idler.reflection,
        grid=grid,
        schmidt=schmidt,
        filter_signal=filter_signal,
        filter_idler=filter_idler,
        basis=basis,
    )


def commutator_defects(projections: ProjectionSet) -> np.ndarray:
    """Per-mode deviation of the bosonic commutators from one, on both arms.

    For each measured mode the combination
    integral |u|^2 - integral |v|^2 + integral |r|^2 must equal 1.  Returns a
    (2, N) array of that expression minus 1: row 0 the signal arm, row 1 the
    idler arm.
    """
    p = projections

    def defect(u, v, r):
        u2 = np.sum(np.abs(u) ** 2, axis=1)
        v2 = np.sum(np.abs(v) ** 2, axis=1)
        r2 = np.sum(np.abs(r) ** 2, axis=1)
        return p.grid.d_omega * (u2 - v2 + r2) - 1.0

    return np.stack(
        [
            defect(p.u_signal, p.v_signal, p.r_signal),
            defect(p.u_idler, p.v_idler, p.r_idler),
        ]
    )
