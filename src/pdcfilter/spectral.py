"""Joint spectral amplitudes and their broadband-mode (Schmidt) decompositions.

A pulsed two-mode squeezer is fully characterized by the Schmidt decomposition
of its joint spectral amplitude f(w_s, w_i): orthonormal broadband signal and
idler mode functions paired with non-negative amplitudes whose squares sum to
one.  Multiplying the amplitudes by the optical gain B gives the per-mode
squeezing parameters r_k = B * lambda_k, and r maps to decibels via
squeezing[dB] = -10 log10(exp(-2 r)).

Everything here is discretized on a uniform frequency grid with rectangle-rule
quadrature weight d_omega; mode functions are normalized so that
sum |psi|^2 d_omega = 1.

Only the leading Schmidt triples are computed, on one route for every grid
and rank: adaptive cross approximation (Bebendorf, Numer. Math. 86, 565
(2000)) checked against every sample.  Every decomposition, here or in
``basis_opt``, keeps max(n_retained, #{lambda_k > 1e-14 lambda_1}) pairs;
every mode beyond them has r = 0 to round-off and enters the squeezer only
through the exact identity part of its Bogoliubov transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridTruncationError, NumericsError

_LOG10_E = float(np.log10(np.e))
_LN10 = float(np.log(10.0))

# an amplitude at or below this fraction of lambda_1 is round-off of the SVD; cross
# approximation pivots down to this fraction of the largest sample, as its residual
# rows are exact to about 1e-15 of it and a lower stop pivots on round-off
_NOISE_FLOOR = 1e-14
# n x n float arrays alive at once at the peak of a run, at most: the dense SVD
# of a zero-free filter's effective basis holds its operand, both factors and
# the LAPACK work beside the amplitude, about 9 in all by peak RSS (n = 1500, 2500)
_STATE_ARRAYS = 10
# the widths for which 2 sigma^2, the Gaussians' divisor, is a normal finite float
_SIGMA_MIN = float(np.sqrt(np.finfo(float).tiny / 2))
_SIGMA_MAX = float(np.sqrt(np.finfo(float).max / 2))
# relative magnitude gap below which two samples tie for a mode's peak
_PEAK_TIE = 1e-8
# the first mode's squeezed variance e^(-2r) is a difference of terms of size
# cosh(2r); beyond this r it falls below their round-off eps * cosh(2r)
_R_MAX = 0.25 * float(np.log(2.0 / np.finfo(float).eps))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of the (shared) signal/idler frequency axis.

    Frequencies are dimensionless detunings.  Signal and idler always share
    one grid; asymmetric grids are out of scope.
    """

    n_points: int
    omega_min: float
    omega_max: float

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigurationError(f"n_points must be >= 2, got {self.n_points}")
        if not self.omega_max > self.omega_min:
            raise ConfigurationError(
                f"omega_max must exceed omega_min, got [{self.omega_min}, {self.omega_max}]"
            )
        # the quadrature weight of an amplitude's norm is d_omega^2
        if not self.d_omega * self.d_omega < np.inf:
            raise ConfigurationError(
                f"the window [{self.omega_min}, {self.omega_max}] is too wide: d_omega^2 overflows"
            )

    @property
    def d_omega(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_points)

    def overlap(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Quadrature inner product integral(conj(f) * g) d_omega."""
        return complex(np.sum(np.conjugate(f) * g) * self.d_omega)


def build_frequency_grid(n_points: int, omega_min: float, omega_max: float) -> FrequencyGrid:
    """Validated constructor for :class:`FrequencyGrid`."""
    return FrequencyGrid(int(n_points), float(omega_min), float(omega_max))


def state_working_set_bytes(n_points: int) -> int:
    """Estimated bytes of the n x n arrays a run keeps alive at its peak."""
    return n_points * n_points * 8 * _STATE_ARRAYS


@dataclass(frozen=True)
class GaussianJsaParams:
    """Widths and tilt of the double-Gaussian amplitude.

    sigma_a and sigma_b are the 1/e half-widths of the two principal-axis
    Gaussians, theta the tilt of those axes in the (w_s, w_i) plane.  The
    reference configuration is sigma_a=6, sigma_b=2, theta=-pi/4: an
    anticorrelated ellipse along the -45 degree diagonal.
    """

    sigma_a: float
    sigma_b: float
    theta: float

    def __post_init__(self):
        widths = (self.sigma_a, self.sigma_b)
        if not _SIGMA_MIN <= min(widths) <= max(widths) <= _SIGMA_MAX:
            raise ConfigurationError(
                f"sigma_a and sigma_b must lie in [{_SIGMA_MIN:.3g}, {_SIGMA_MAX:.3g}], "
                f"got {self.sigma_a}, {self.sigma_b}"
            )


@dataclass(frozen=True)
class JsaMatrix:
    """Joint spectral amplitude sampled on grid x grid (rows = signal axis).

    Normalized so that the discrete L2 norm sum |f|^2 d_omega^2 equals one.
    """

    values: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        v = np.asarray(self.values)
        n = self.grid.n_points
        if v.shape != (n, n):
            raise ConfigurationError(f"JSA shape {v.shape} does not match grid size {n}")
        if not abs(self.l2_norm_sq - 1.0) <= 1e-12:
            raise NumericsError(
                f"JSA not normalized: sum|f|^2 d_omega^2 = {self.l2_norm_sq!r}"
            )

    @property
    def l2_norm_sq(self) -> float:
        v = self.values
        return float(np.vdot(v, v).real) * self.grid.d_omega**2


@dataclass(frozen=True)
class SchmidtData:
    """Broadband-mode decomposition of a joint spectral amplitude.

    ``signal_modes`` psi_k / ``idler_modes`` phi_k hold one mode function per
    row, paired with the descending amplitudes ``lambdas`` (the filtered
    lambda'_k for ``svd_effective_basis``) as f(w_s, w_i) = sum_k lambda_k
    psi_k(w_s) phi_k(w_i): the ``n_retained`` reported pairs and the
    ``n_excited`` pairs above the noise floor.  ``tail_weight`` is
    sum_{k > n_retained} lambda_k^2 over the computed spectrum; the squeezing
    parameters ``r_values`` = B * lambda_k exist only after :func:`apply_gain`.
    """

    grid: FrequencyGrid
    signal_modes: np.ndarray
    idler_modes: np.ndarray
    lambdas: np.ndarray
    n_retained: int
    tail_weight: float
    r_values: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        """Number of decomposed modes (the rows of the mode arrays)."""
        return len(self.lambdas)

    @property
    def n_excited(self) -> int:
        """Number of amplitudes above the noise floor: the modes with r > 0."""
        return _excited_count(self.lambdas)

    def require_gain(self) -> np.ndarray:
        if self.r_values is None:
            raise ConfigurationError("SchmidtData has no r_values; call apply_gain first")
        return self.r_values


def _gaussian_in_place(x: np.ndarray, sigma: float) -> np.ndarray:
    """x <- exp(-(x^2) / (2 sigma^2)), elementwise and in place.

    An exponent that overflows to -inf gives exp = 0, the Gaussian's value
    to double precision, so overflow there is not an error.
    """
    with np.errstate(over="ignore"):
        np.square(x, out=x)
        np.negative(x, out=x)
        x /= 2 * sigma**2
    return np.exp(x, out=x)


def build_gaussian_jsa(
    params: GaussianJsaParams,
    grid: FrequencyGrid,
    max_truncated_mass: float = 1e-2,
) -> JsaMatrix:
    """Sample and normalize the tilted double-Gaussian amplitude on the grid.

    Refuses (``GridTruncationError``) when the rectangle-rule |f|^2 mass on
    the grid misses the analytic mass by more than ``max_truncated_mass`` of
    it: short when mass falls outside the grid square (the amplitude would be
    clipped), over when the grid spacing is too coarse for the widths (the
    amplitude is under-resolved).  Either corrupts the normalization and the
    mode spectrum.

    The amplitude is built in place in two n x n buffers with the rounding of
    the rotated-coordinate form exp(-u^2 / (2 sigma_a^2)) exp(-v^2 /
    (2 sigma_b^2)), so its values are those of the meshgrid construction bit
    for bit.  The equivalent single exponential of the quadratic form
    A w_s^2 + 2 B w_s w_i + C w_i^2 would need one buffer and one ``exp``,
    but it rounds differently (by about 1e-16 per sample), so every
    downstream result would move at round-off; it is not used, and runs
    reproduce earlier outputs exactly.

    Parameters
    ----------
    params : GaussianJsaParams
        Widths and tilt.
    grid : FrequencyGrid
        Shared signal/idler axis.
    max_truncated_mass : float
        Largest acceptable deviation of the sampled squared-amplitude mass,
        as a fraction of the analytic mass, in either direction.
    """
    w = grid.points
    cos, sin = np.cos(params.theta), np.sin(params.theta)
    # raw starts as u; v's buffer later holds raw^2 for the mass
    raw = np.add(w[:, None] * cos, w[None, :] * sin)
    v = np.add(-w[:, None] * sin, w[None, :] * cos)
    _gaussian_in_place(raw, params.sigma_a)
    raw *= _gaussian_in_place(v, params.sigma_b)
    grid_mass = float(np.sum(np.square(raw, out=v)) * grid.d_omega**2)
    del v
    analytic_mass = float(np.pi * params.sigma_a * params.sigma_b)
    off_grid = 1.0 - grid_mass / analytic_mass
    # grid_mass > 0 refuses a grid holding no mass also under a tolerance >= 1
    if not (abs(off_grid) <= max_truncated_mass and grid_mass > 0):
        problem = (
            f"the sampled |f|^2 mass exceeds the analytic mass by {-off_grid:.3e}: the amplitude "
            f"is under-resolved at d_omega = {grid.d_omega:.3g}; add grid points or widen the widths"
            if off_grid < 0
            else f"{off_grid:.3e} of the analytic |f|^2 mass lies outside [{grid.omega_min}, "
            f"{grid.omega_max}]; enlarge the grid or shrink the widths"
        )
        raise GridTruncationError(f"{problem} (limit {max_truncated_mass:.1e})")
    raw /= np.sqrt(grid_mass)
    return JsaMatrix(raw, grid)


def _fix_phases(signal: np.ndarray, idler: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rotate each signal mode so its largest-magnitude sample is real positive;
    # the paired idler mode absorbs the compensating phase.  Samples within
    # _PEAK_TIE of the peak count as ties and the highest-frequency one wins,
    # so the two mirror peaks of an odd mode on a symmetric grid fix the same
    # sign whichever SVD routine produced the mode.
    mag = np.abs(signal)[:, ::-1]
    peak = np.max(mag, axis=1, keepdims=True)
    idx = signal.shape[1] - 1 - np.argmax(mag >= peak * (1.0 - _PEAK_TIE), axis=1)
    lead = signal[np.arange(signal.shape[0]), idx]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return signal / phase[:, None], idler * phase[:, None]


def _svd_failure(values: np.ndarray) -> NumericsError:
    v = np.asarray(values)
    return NumericsError(
        f"SVD failed to converge (matrix {v.shape}, max|f|={np.max(np.abs(v)):.3e}, "
        f"any NaN: {bool(np.any(np.isnan(v)))})"
    )


def _excited_count(s: np.ndarray) -> int:
    # s descends, so its first entry (if any) is lambda_1
    return int(np.count_nonzero(s > _NOISE_FLOOR * np.max(s, initial=0.0)))


def _kept_pairs(s: np.ndarray, n_retained: int) -> int:
    """Pairs a decomposition with amplitudes ``s`` keeps: the reported and the excited."""
    return max(int(n_retained), _excited_count(s))


def _schmidt_from_svd(
    grid: FrequencyGrid, u: np.ndarray, s: np.ndarray, vh: np.ndarray, n_retained: int
) -> SchmidtData:
    """The kept pairs of the SVD ``u, s, vh`` of ``values * d_omega`` as quadrature modes.

    ``s`` is the full spectrum, which ``tail_weight`` sums over; ``u`` and
    ``vh`` need hold only the kept columns and rows.  The phase convention
    of :func:`_fix_phases` is applied.
    """
    k = _kept_pairs(s, n_retained)
    sqrt_dw = np.sqrt(grid.d_omega)
    signal, idler = _fix_phases(u[:, :k].T / sqrt_dw, vh[:k] / sqrt_dw)
    return SchmidtData(grid, signal, idler, s[:k], int(n_retained), float(np.sum(s[n_retained:] ** 2)))


def _factored_schmidt(grid: FrequencyGrid, left: np.ndarray, right: np.ndarray, n_retained: int) -> SchmidtData:
    """The kept pairs of the kernel K with K d_omega = left.T @ right, from its k x n factors.

    A QR of each factor and one SVD of the k x k product of their triangles
    give the triples without forming K.  The QRs complete factors of rank
    below k (k >= n_retained) with orthonormal pairs of amplitude 0.
    """
    try:
        qu, ru = np.linalg.qr(left.T)
        qv, rv = np.linalg.qr(right.T)
        w, s, zh = np.linalg.svd(ru @ rv.T)
    except np.linalg.LinAlgError as exc:
        raise _svd_failure(np.concatenate([left, right])) from exc
    return _schmidt_from_svd(grid, qu @ w, s, zh @ qv.T, n_retained)


def _cross_approximation(values: np.ndarray, dw: float, n_retained: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``ut``, ``v`` (k x n) with values * dw = ut.T @ v to the noise floor, k >= n_retained.

    Partial pivoting (a residual row's largest sample is the pivot, the pivot
    column's largest residual on an unvisited row picks the next row) stalls on
    rows it never reads, so each pass starts at the worst residual sample of
    every row block above the floor, worst first.  The first always becomes a
    pivot and the rank is at most n, so this ends; rows past the rank are zero.
    """
    n = values.shape[0]
    rows = max(1, (1 << 16) // n)  # the check reads 2^16 samples at a time
    ut, v = np.zeros((2, max(16, n_retained), n), np.result_type(values.dtype, float))
    k = 0

    def missed_rows(floor):
        # (size, row) of each block's largest residual sample above floor, largest first
        peaks = []
        for start in range(0, n, rows):
            r = (ut[:k, start : start + rows].T / dw) @ v[:k]
            r -= values[start : start + rows]
            mag = np.abs(r, out=r)  # a complex residual holds its magnitude in the real part
            at = int(np.argmax(mag))
            peaks.append((float(mag.flat[at].real) * dw, start + at // n))
        return sorted((p for p in peaks if p[0] > floor), reverse=True)

    missed = missed_rows(0.0)
    floor = _NOISE_FLOOR * missed[0][0]
    while missed and k < n:
        visited, first = np.zeros(n, dtype=bool), k
        for _, i in missed:
            row = values[i] * dw - ut[:k, i] @ v[:k]
            while k < n and (k == first or np.max(np.abs(row)) > floor):
                visited[i] = True
                if k == len(ut):
                    ut, v = np.concatenate([ut, 0 * ut]), np.concatenate([v, 0 * v])
                j = int(np.argmax(np.abs(row)))
                v[k] = row / row[j]
                ut[k] = values[:, j] * dw - ut[:k].T @ v[:k, j]
                k += 1
                i = int(np.argmax(np.where(visited, -1.0, np.abs(ut[k - 1]))))
                row = values[i] * dw - ut[:k, i] @ v[:k]
        missed = missed_rows(floor)
    return ut[: max(k, n_retained)], v[: max(k, n_retained)]


def schmidt_decompose(jsa: JsaMatrix, n_retained: int = 10) -> SchmidtData:
    """Decompose a normalized amplitude into its reported and excited broadband mode pairs.

    A QR of each cross-approximation factor and one SVD of the k x k core give
    the triples; the QRs complete the zero rows of factors of rank below
    ``n_retained`` to orthonormal pairs of amplitude 0.  Amplitudes descend
    and satisfy sum lambda^2 = 1 to 1e-10.
    """
    n = jsa.grid.n_points
    if not 1 <= n_retained <= n:
        raise ConfigurationError(f"n_retained must lie in [1, {n}], got {n_retained}")
    ut, v = _cross_approximation(np.asarray(jsa.values), jsa.grid.d_omega, n_retained)
    schmidt = _factored_schmidt(jsa.grid, ut, v, n_retained)
    total = float(np.sum(schmidt.lambdas[:n_retained] ** 2)) + schmidt.tail_weight
    if not abs(total - 1.0) <= 1e-10:
        raise NumericsError(f"Schmidt amplitudes violate Parseval: sum lambda^2 = {total!r}")
    return schmidt


def apply_gain(schmidt: SchmidtData, gain_b: float) -> SchmidtData:
    """Scale the mode amplitudes by the optical gain: r_k = B * lambda_k.

    Raises ``NumericsError`` when r_1 exceeds 9.18 (about 80 dB), where the
    squeezed variance e^(-2 r_1) is lost in the round-off of the covariance.
    The covariance checks reject a strongly squeezed state long before: its
    entries have size cosh 2r, so its determinant and Williamson spectrum
    lose about eps e^(4r), and an unfiltered state measured in its Schmidt
    basis already fails them (exit 2) from about r_1 = 5 (45 dB).
    """
    if not gain_b >= 0:
        raise ConfigurationError(f"gain must be >= 0, got {gain_b}")
    r = gain_b * schmidt.lambdas
    if r[0] > _R_MAX:
        raise NumericsError(
            f"squeezing parameter r_1 = {r[0]:.4g} exceeds {_R_MAX:.4g}: "
            "the squeezed variance is below double-precision round-off"
        )
    return replace(schmidt, r_values=r)


def squeezing_db(r) -> float | np.ndarray:
    """Convert a squeezing amplitude to decibels: -10 log10(exp(-2 r))."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ConfigurationError("squeezing amplitude must be >= 0")
    out = 20.0 * arr * _LOG10_E
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def r_for_squeezing_db(db: float) -> float:
    """Inverse of :func:`squeezing_db`."""
    return float(db) * _LN10 / 20.0


def gain_for_target_db(schmidt: SchmidtData, target_db: float) -> float:
    """Gain that puts ``target_db`` of squeezing in the first mode."""
    if target_db < 0:
        raise ConfigurationError(f"target squeezing must be >= 0 dB, got {target_db}")
    lam1 = float(schmidt.lambdas[0])
    if lam1 <= 0:
        raise ConfigurationError("first Schmidt amplitude vanishes; cannot set a gain target")
    return r_for_squeezing_db(target_db) / lam1
