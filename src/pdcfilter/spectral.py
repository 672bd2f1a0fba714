"""Joint spectral amplitudes and their broadband-mode (Schmidt) decompositions.

A pulsed two-mode squeezer is fully characterized by the Schmidt decomposition
of its joint spectral amplitude f(w_s, w_i): orthonormal broadband signal and
idler mode functions paired with non-negative amplitudes whose squares sum to
one.  Multiplying the amplitudes by the optical gain B gives the per-mode
squeezing parameters r_k = B * lambda_k, and r maps to decibels via
squeezing[dB] = -10 log10(exp(-2 r)).

Everything here is discretized on a uniform frequency grid with rectangle-rule
quadrature weight d_omega; mode functions are normalized so that
sum |psi|^2 d_omega = 1.  The double-Gaussian amplitude is not stored and a
run evaluates none of its samples: its skeleton, the thin factors of
f * d_omega, is Mehler's formula (Law, Walmsley & Eberly, PRL 84, 5304
(2000)), K Hermite-function terms whose Cramer tail is below round-off of
the largest grid sample, and its normalization is read from that skeleton.
Samples are evaluated from the closed form, one exponential a sample, only
where a check reads them, and agree with a dense evaluation of it to
round-off, c eps (1 + q) of exp(-q), not to the bit.  A Gaussian whose
series would need too many terms, or whose grid lies far below its peak,
falls back to a skeleton found by adaptive cross approximation (Bebendorf,
Numer. Math. 86, 565 (2000)) of its samples, :func:`_cross_approximation`,
checked against every sample.

Every decomposition, the Schmidt state here and the effective basis of
``basis_opt``, is one call of :func:`_decompose` on the thin factors of its
kernel, so the Schmidt state is the effective basis at T = 1, bit for bit.
Each keeps max(n_retained, #{lambda_k > 1e-14 lambda_1}) pairs; every mode
beyond them has r = 0 to round-off and enters the squeezer only through the
exact identity part of its Bogoliubov transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridTruncationError, NumericsError

_LOG10_E = float(np.log10(np.e))
_LN10 = float(np.log(10.0))

# an amplitude at or below this fraction of lambda_1 is round-off of the SVD; cross
# approximation pivots down to this fraction of the largest sample, as its residual
# rows are exact to about 1e-15 of it and a lower stop pivots on round-off
_NOISE_FLOOR = 1e-14
# an amplitude is read a row block of at most this many samples (or one row) at a time
_BLOCK_SAMPLES = 1 << 16
# the widths for which 2 sigma^2, the Gaussians' divisor, is a normal finite float
_SIGMA_MIN = float(np.sqrt(np.finfo(float).tiny / 2))
_SIGMA_MAX = float(np.sqrt(np.finfo(float).max / 2))
# relative magnitude gap below which two samples tie for a mode's peak.  SVD
# round-off fixes mode k only to about eps lambda_1 / lambda_k, so the mirror
# peaks of an odd mode near the noise floor differ by far more than the
# samples' round-off: by up to 4.2e-4 for the benchmark reference's mode 10,
# at 3e-13 lambda_1
_PHASE_TIE = 1e-3
# largest |sum |f|^2 d_omega^2 - 1| of a normalized amplitude, and |sum lambda^2 - 1| of its decomposition
_NORM_TOL, _PARSEVAL_TOL = 1e-12, 1e-10
# the first mode's squeezed variance e^(-2r) is a difference of terms of size
# cosh(2r); beyond this r it falls below their round-off eps * cosh(2r)
_R_MAX = 0.25 * float(np.log(2.0 / np.finfo(float).eps))
# Cramer's inequality |h_k| <= 1.086435 pi^(-1/4) (Abramowitz & Stegun 22.14.17),
# squared, times sqrt(pi): Mehler's series of the raw Gaussian has a tail after K
# terms of at most _CRAMER sqrt(1 - t^2) |t|^K / (1 - |t|)
_CRAMER = 1.086435**2
# the series keeps terms until that tail is below this fraction of the largest grid
# sample.  A filter deep in the tail reads the terms sample by sample: with a tail
# of 1e-14 the effective basis of a rect filter at the window edge moved by 7e-9
_MEHLER_TAIL = 1e-16
# the series is exact to round-off of the Gaussian's peak, not of each sample: a
# grid whose largest sample is below this fraction of the peak takes the cross
# approximation instead.  Above it, cancellation costs about eps / _MEHLER_LARGEST
# of the largest sample, inside the 1e-14 noise floor (the CI high-aspect state on
# [2, 22], at 1.1e-7 of the peak, read 1.1e-9 of it, on its 2-point grid, at
# 1.2e-4, 2.3e-14, and a window whose largest sample was 0.020 of the peak read 1.6e-14)
_MEHLER_LARGEST = 0.05
# the most terms K a series may hold; past it the cross approximation is taken.
# The series' round-off grows with K: on resolved grids it read 6.7e-15 of the
# largest sample at K = 1568, 1.1e-14 at 1831 and 1.8e-14 at 3164, against the
# 1e-14 floor
_MAX_TERMS = 1 << 10
# h_0 = pi^(-1/4) e^(-x^2/2) underflows past |x| = 38.6 while high-order h_k need
# not be small there: such a column starts from e^(-_CARRY) and carries the rest
# of its exponent aside, taking it back _CARRY_STEP at a time as the recurrence
# grows past e^_CARRY_STEP.  Both are integers, so each subtraction from the
# carried exponent is exact
_CARRY, _CARRY_STEP = 600.0, 256.0
# _decompose keeps the Q of a thin factor of at most this many samples and applies a
# longer one's from its reflectors, which is slower on short factors: a rect-4
# effective basis at n = 600 took 1.08 ms that way against 0.82 ms (one BLAS thread)
_QR_ROWS = 800


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


def build_frequency_grid(n_points: int, omega_min: float, omega_max: float) -> FrequencyGrid:
    """Validated constructor for :class:`FrequencyGrid`."""
    return FrequencyGrid(int(n_points), float(omega_min), float(omega_max))


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


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of an n x n amplitude, each at most _BLOCK_SAMPLES samples or one row."""
    rows = max(1, _BLOCK_SAMPLES // n)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _skeleton_mass(ut: np.ndarray, v: np.ndarray) -> float:
    """sum |ut^T v|^2 of a real k-term skeleton, as sum (ut ut^T) o (v v^T) in O(k^2 n)."""
    return float(np.sum((ut @ ut.T) * (v @ v.T)))


class _RawGaussian:
    """exp(-u^2 / (2 sigma_a^2) - v^2 / (2 sigma_b^2)) on w[rows] x w[cols], unnormalized.

    u and v are the rotated coordinates w_s cos(theta) + w_i sin(theta) and
    -w_s sin(theta) + w_i cos(theta).  The exponent of row w_s is written as
    a completed square in w_i, C (w_i - m)^2 + d, with
    C = sin^2 / (2 sigma_a^2) + cos^2 / (2 sigma_b^2),
    m = -w_s cos sin (1 / (2 sigma_a^2) - 1 / (2 sigma_b^2)) / C and
    d = w_s^2 / (4 sigma_a^2 sigma_b^2 C): one exponential a sample.  Both
    terms are >= 0, so nothing cancels, and a term that overflows gives
    exp(-inf) = 0, the Gaussian's value to double precision.  C, every
    row's [1, -m] and d, and the columns [w_i; 1] are formed once per
    amplitude, and a call ``(rows, cols)`` slices them.  A sample is a
    function of its row and column alone, so every block that reads it
    rounds it alike.
    """

    def __init__(self, params: GaussianJsaParams, w: np.ndarray):
        cos, sin = np.cos(params.theta), np.sin(params.theta)
        var_a, var_b = params.sigma_a**2, params.sigma_b**2
        a, b = 1 / (2 * var_a), 1 / (2 * var_b)
        self._curvature = sin**2 * a + cos**2 * b
        with np.errstate(over="ignore"):
            # 4 var_a var_b C = 2 (cos^2 var_a + sin^2 var_b), the second form where the first under- or overflows
            spread = 4 * var_a * var_b * self._curvature
            if not 0 < spread < np.inf:
                spread = 2 * (cos**2 * var_a + sin**2 * var_b)
            centre = -w * cos * sin * (a - b) / self._curvature
            self._offset = w**2 / spread
        # w_i - m as the product [1, -m] @ [w_i; 1]: both terms are exact, so each
        # entry is the difference rounded once, at a third of the time numpy
        # takes to broadcast m over a 40 x 1600 block
        self._left = np.stack([np.ones_like(centre), -centre], axis=1)
        self._right = np.stack([w, np.ones_like(w)])

    def __call__(self, rows, cols) -> np.ndarray:
        with np.errstate(over="ignore"):
            q = self._left[rows] @ self._right[:, cols]
            np.square(q, out=q)
            q *= -self._curvature
            q -= self._offset[rows, None]
        return np.exp(q, out=q)

    def largest(self) -> float:
        """The largest sample on the grid: each row's lies at the column nearest its centre m."""
        w, centre = self._right[0], -self._left[:, 1]
        above = np.clip(np.searchsorted(w, centre), 1, len(w) - 1)
        with np.errstate(over="ignore"):
            gap = np.minimum(np.abs(w[above] - centre), np.abs(centre - w[above - 1]))
            q = self._curvature * gap**2 + self._offset
        return float(np.exp(-np.min(q)))


def _hermite_table(x: np.ndarray, terms: int) -> np.ndarray:
    """h_0(x) ... h_{terms-1}(x), the orthonormal Hermite functions, one row each.

    The forward recurrence h_{k+1} = sqrt(2 / (k+1)) x h_k - sqrt(k / (k+1)) h_{k-1}
    from h_0 = pi^(-1/4) e^(-x^2/2) is stable.  Where e^(-x^2/2) is below
    e^(-_CARRY) a column starts at pi^(-1/4) e^(-_CARRY) and carries the rest of
    its exponent aside; whenever the column grows past e^_CARRY_STEP, up to
    _CARRY_STEP of the carried exponent is taken back, and each row is written
    as the column times e^(-carried).  A column with x^2 >= max(4 (2 terms + 1),
    3000) lies past twice the last turning point sqrt(2 terms + 1), where every
    h_k is below e^(-0.27 x^2) and underflows: it stays 0.  So no step grows a
    column by more than sqrt(2) |x| + 1 < 130 for terms <= _MAX_TERMS.
    """
    n = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(x)
        near = np.flatnonzero(sq < max(4 * (2 * terms + 1), 3000))
    x, sq = x[near], sq[near]
    carried = np.maximum(sq / 2 - _CARRY, 0.0)
    h, prev = np.pi**-0.25 * np.exp(carried - sq / 2), np.zeros_like(x)
    rows = np.empty((terms, len(x)))
    carrying = bool(carried.any())
    for k in range(terms):
        rows[k] = h * np.exp(-carried) if carrying else h
        step = x * h
        step *= math.sqrt(2 / (k + 1))
        step -= math.sqrt(k / (k + 1)) * prev
        h, prev = step, h
        if carrying:
            shift = np.where(np.abs(h) > np.exp(_CARRY_STEP), np.minimum(carried, _CARRY_STEP), 0.0)
            scale = np.exp(-shift)
            h *= scale
            prev *= scale
            carried -= shift
            carrying = bool(carried.any())
    if len(near) == n:
        return rows
    table = np.zeros((terms, n))
    table[:, near] = rows
    return table


def _mehler_skeleton(
    params: GaussianJsaParams, grid: FrequencyGrid, largest: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The raw Gaussian's skeleton ``ut``, ``v`` (K x n): raw * d_omega = ut^T v to round-off.

    The raw exponent is -(A x^2 + 2 B x y + C y^2), and Mehler's formula writes
    the Gaussian exactly as sqrt(pi (1 - t^2)) sum_k t^k h_k(x / s_1) h_k(y / s_2),
    with rho = |B| / sqrt(A C), t = -sign(B) rho / (1 + sqrt(1 - rho^2)) and
    s_1^2 = (1 + t^2) / (2 (1 - t^2) A), s_2 likewise from C.  So
    ut_k = sqrt(pi (1 - t^2)) t^k h_k(w / s_1) d_omega and v_k = h_k(w / s_2), for
    the fewest terms K whose Cramer tail is at most _MEHLER_TAIL of ``largest``,
    the largest raw grid sample.  Frequencies are measured in units of
    sqrt(sigma_a sigma_b), where A C - B^2 = 1/4: no coefficient over- or
    underflows for accepted widths, and 1 - rho^2 = 1 / (4 A C) and 1 - |t| are
    formed without cancellation.

    None, before any table is built, where the series does not hold the grid
    to round-off: its largest sample is below _MEHLER_LARGEST of the peak, or
    K exceeds _MAX_TERMS (as rho -> 1 K grows without bound).
    """
    if not largest >= _MEHLER_LARGEST:
        return None
    cos, sin = np.cos(params.theta), np.sin(params.theta)
    unit = float(np.sqrt(params.sigma_a) * np.sqrt(params.sigma_b))
    ratio = float(np.sqrt(params.sigma_a) / np.sqrt(params.sigma_b))
    a, b = 0.5 / ratio / ratio, 0.5 * ratio * ratio
    curv_a, curv_c, cross = cos**2 * a + sin**2 * b, sin**2 * a + cos**2 * b, cos * sin * (a - b)
    root = float(np.sqrt(curv_a) * np.sqrt(curv_c))
    rho, r = abs(cross) / root, 0.5 / root
    mag, gap = rho / (1 + r), (r + r * r / (1 + rho)) / (1 + r)  # |t| and 1 - |t|
    if mag == 0:
        terms = 1.0
    else:
        # |t|^K <= _MEHLER_TAIL largest (1 - |t|) / (_CRAMER sqrt(1 - t^2)), 1 - t^2 = (1 - |t|) (1 + |t|);
        # the quotient overflows to inf as 1 - |t| reaches the smallest normal float
        log_bound = math.log(_MEHLER_TAIL * largest / _CRAMER) + 0.5 * (math.log(gap) - math.log1p(mag))
        terms = max(1.0, log_bound / (math.log(mag) if mag < 0.5 else math.log1p(-gap)))
    if not terms <= _MAX_TERMS:
        return None
    terms = math.ceil(terms)
    t = -math.copysign(mag, cross) if mag else 0.0
    one_minus_t2 = gap * (1 + mag)
    scales = [math.sqrt((1 + t * t) / (2 * one_minus_t2 * curv)) for curv in (curv_a, curv_c)]
    with np.errstate(over="ignore"):
        tables = [_hermite_table(grid.points / unit / scale, terms) for scale in dict.fromkeys(scales)]
    coef = math.sqrt(math.pi * one_minus_t2) * grid.d_omega * np.power(t, np.arange(terms))
    return tables[0] * coef[:, None], tables[-1]


@dataclass(frozen=True)
class GaussianJsa:
    """The tilted double-Gaussian amplitude in closed form, normalized on the grid.

    No sample is stored: :meth:`sample` evaluates any block of rows and
    columns as the raw Gaussian ``raw`` over sqrt(``grid_mass``), one
    exponential a sample, and every read of a sample gives the same bits.
    ``skeleton`` holds Mehler's factors ``ut``, ``v`` (K x n) with
    f * d_omega = ut.T @ v to round-off of the largest sample (or, where the
    series does not hold the grid, certified cross-approximation factors),
    and ``grid_mass`` is the rectangle-rule mass sum |raw|^2 d_omega^2 of the
    raw samples, read from the raw factors.  Once it is built only
    :meth:`audit` reads samples.  Build it with :func:`build_gaussian_jsa`.
    """

    params: GaussianJsaParams
    grid: FrequencyGrid
    grid_mass: float
    skeleton: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    raw: _RawGaussian = field(repr=False, compare=False)

    def sample(self, rows, cols) -> np.ndarray:
        """The samples f[rows, cols]; ``rows`` and ``cols`` are slices or index arrays."""
        out = self.raw(rows, cols)
        out /= np.sqrt(self.grid_mass)
        return out

    def audit(self) -> tuple[float, float, float]:
        """One pass over every sample, a row block at a time, checked against the skeleton.

        Returns sum |f|^2 d_omega^2, the largest residual max |ut^T v - f d_omega|
        and the largest sample max |f d_omega|: for Mehler's skeleton the a
        posteriori check of its a priori bound.
        """
        dw = self.grid.d_omega
        ut, v = self.skeleton
        mass, residual, largest = 0, 0.0, 0.0
        for block in _row_blocks(self.grid.n_points):
            f = self.sample(block, slice(None))
            mass += float(np.vdot(f, f))
            f *= dw
            largest = max(largest, float(np.max(f)))
            f -= ut[:, block].T @ v
            residual = max(residual, float(np.max(np.abs(f))))
        return mass * dw**2, residual, largest


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


def build_gaussian_jsa(
    params: GaussianJsaParams,
    grid: FrequencyGrid,
    max_truncated_mass: float = 1e-2,
) -> GaussianJsa:
    """The tilted double-Gaussian amplitude on the grid, normalized, in closed form.

    Refuses (``GridTruncationError``) when the rectangle-rule |f|^2 mass on
    the grid misses the analytic mass by more than ``max_truncated_mass`` of
    it: short when mass falls outside the grid square (the amplitude would be
    clipped), over when the grid spacing is too coarse for the widths (the
    amplitude is under-resolved).  Either corrupts the normalization and the
    mode spectrum.

    No sample is evaluated: the raw factors are Mehler's series of the closed
    form (:func:`_mehler_skeleton`), K Hermite-function terms whose Cramer
    tail is at most 1e-16 of the largest raw grid sample, which the completed
    square gives in O(n).  The mass is read from them, sum (ut ut^T) o
    (v v^T) in O(K^2 n), and the factors scaled by 1 / sqrt(mass) are stored
    on the amplitude for :func:`schmidt_decompose`.  Samples, mass and
    factors agree with a dense evaluation of the closed form to round-off,
    not to the bit; :meth:`GaussianJsa.audit` checks the factors against
    every sample.  Where the series does not hold the grid to round-off (a
    grid far below the peak, or more terms than allowed, as the widths'
    ratio grows at a tilt) the raw factors come from
    :func:`_cross_approximation` instead, which reads every raw sample at
    least once (1.06 to 3.0 n^2 samples in all) and checks its skeleton
    against them.

    Parameters
    ----------
    params : GaussianJsaParams
        Widths and tilt.
    grid : FrequencyGrid
        Shared signal/idler axis.
    max_truncated_mass : float
        Largest acceptable deviation of the sampled squared-amplitude mass,
        as a fraction of the analytic mass, in either direction; a negative
        one raises ``ConfigurationError`` before any sample is read.
    """
    if not max_truncated_mass >= 0:
        raise ConfigurationError(f"mass_tolerance (max_truncated_mass) must be >= 0, got {max_truncated_mass!r}")
    raw = _RawGaussian(params, grid.points)
    skeleton = _mehler_skeleton(params, grid, raw.largest())
    ut, v = skeleton if skeleton is not None else _cross_approximation(raw, grid)
    grid_mass = _skeleton_mass(ut, v)
    analytic_mass = float(np.pi * params.sigma_a * params.sigma_b)
    off_grid = 1.0 - grid_mass / analytic_mass
    # grid_mass > 0 refuses a grid holding no mass also under a tolerance >= 1;
    # such a grid is under-resolved when it holds the peak but its spacing exceeds a width
    coarse = grid.d_omega > min(params.sigma_a, params.sigma_b)
    if not (abs(off_grid) <= max_truncated_mass and grid_mass > 0):
        if off_grid < 0 or (grid_mass == 0 and grid.omega_min <= 0 <= grid.omega_max and coarse):
            problem = (
                f"the sampled |f|^2 mass is {grid_mass / analytic_mass:.3e} times the analytic mass: the "
                f"amplitude is under-resolved at d_omega = {grid.d_omega:.3g}; add grid points or widen the widths"
            )
        else:
            problem = (
                f"{off_grid:.3e} of the analytic |f|^2 mass lies outside [{grid.omega_min}, "
                f"{grid.omega_max}]; enlarge the grid or shrink the widths"
            )
        raise GridTruncationError(f"{problem} (limit {max_truncated_mass:.1e})")
    ut /= np.sqrt(grid_mass)
    return GaussianJsa(params, grid, grid_mass, (ut, v), raw)


def _fix_phases(signal: np.ndarray, idler: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rotate each signal mode so its largest-magnitude sample is real positive;
    # the paired idler mode absorbs the compensating phase.  Samples within
    # _PHASE_TIE of the peak count as ties and the highest-frequency one wins,
    # so the two mirror peaks of an odd mode on a symmetric grid fix the same
    # sign whichever SVD routine produced the mode.
    mag = np.abs(signal)[:, ::-1]
    peak = np.max(mag, axis=1, keepdims=True)
    idx = signal.shape[1] - 1 - np.argmax(mag >= peak * (1.0 - _PHASE_TIE), axis=1)
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


def _embed(vectors: np.ndarray, support, n: int, k: int) -> np.ndarray:
    # Columns of ``vectors`` live on ``support``; place the first k of them on
    # the n-point grid and complete with unit vectors at the off-support
    # points in grid order.
    out = np.zeros((n, k), dtype=vectors.dtype)
    used = min(k, vectors.shape[1])
    out[support, :used] = vectors[:, :used]
    off = np.ones(n, dtype=bool)
    off[support] = False
    off = np.flatnonzero(off)[: k - used]
    out[off, used + np.arange(len(off))] = 1.0
    return out


def _thin_qr(a: np.ndarray):
    """R of a tall factor ``a`` and a function that multiplies its Q into a matrix y: Q @ y.

    A factor of at most _QR_ROWS rows takes one QR and keeps its Q.  A longer one
    takes one Householder QR and keeps its k reflectors V (unit lower trapezoidal,
    as long as ``a``) and tau: Q @ y = [y; 0] - V T V[:k]^H y in compact WY form
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 53 (1989)), with
    T^-1 = striu(V^H V) + diag(1 / tau) (Joffrain et al., ACM TOMS 32, 169 (2006)),
    two products and one solve.  T^-1 is formed inside the call, which is made
    once an arm, so no K x K matrix is held beside the reflectors.  A reflector
    with tau = 0, as a zero-padded column gives, is the identity and is dropped.
    """
    if len(a) <= _QR_ROWS:
        q, r = np.linalg.qr(a)
        return r, q.__matmul__
    h, tau = np.linalg.qr(a, mode="raw")
    k = len(tau)
    r, v = np.triu(h.T[:k]), h.T[:, :k]
    v[:k] = np.tril(v[:k], -1) + np.eye(k)
    keep = tau != 0
    if not keep.all():
        v, tau = v[:, keep], tau[keep]

    def q_times(y: np.ndarray) -> np.ndarray:
        out = v @ -np.linalg.solve(np.triu(v.conj().T @ v, 1) + np.diag(1 / tau), v[:k].conj().T @ y)
        out[:k] += y
        return out

    return r, q_times


def _decompose(
    grid: FrequencyGrid,
    left: np.ndarray,
    right: np.ndarray,
    n_retained: int,
    rows=slice(None),
    cols=slice(None),
) -> SchmidtData:
    """The kept pairs of the kernel K with K d_omega = left^T right, as quadrature modes.

    ``left`` (m x |rows|) and ``right`` (m x |cols|) factor K on the grid
    samples ``rows`` and ``cols`` (all samples by default); K is zero
    elsewhere.  Both are zero-padded to ``n_retained`` rows, and one QR of
    each (:func:`_thin_qr`: past _QR_ROWS samples Q is applied from the
    reflectors) and one SVD of the product of their triangles give the
    triples, never forming K; the QRs complete factors of rank below
    ``n_retained`` with orthonormal vectors of amplitude 0.  Both arms'
    reflectors are held through the SVD; the signal's Q is applied and its
    reflectors freed before the idler's Q is applied.  The reported and
    excited pairs, max(n_retained, #{lambda_k > 1e-14 lambda_1}), are
    embedded on the grid: past min(|rows|, |cols|, m) triples each arm fills
    them first with its unused singular vectors on its support, then with
    unit vectors at its off-support samples in grid order, at lambda = 0.
    ``tail_weight`` sums lambda_k^2 past ``n_retained`` over every triple,
    and the phase convention of :func:`_fix_phases` is applied.
    """
    n = grid.n_points
    if not 1 <= n_retained <= n:
        raise ConfigurationError(f"n_retained must lie in [1, {n}], got {n_retained}")
    left, right = (f if len(f) >= n_retained else np.pad(f, ((0, n_retained - len(f)), (0, 0))) for f in (left, right))
    try:
        ru, qu_times = _thin_qr(left.T)
        rv, qv_times = _thin_qr(right.T)
        w, s, zh = np.linalg.svd(ru @ rv.T)
        del ru, rv
        k = max(int(n_retained), _excited_count(s))
        # copies in the views' memory order, so each product reads the same bits
        w, zh = w[:, :k].copy(), zh[:k].copy()
        signal = qu_times(w)
        # each arm's reflectors are freed once its Q is applied
        del qu_times
        idler = qv_times(zh.T)
        del qv_times
    except np.linalg.LinAlgError as exc:
        raise _svd_failure(np.concatenate([left, right], axis=1)) from exc
    s = np.concatenate([s, np.zeros(max(0, k - len(s)))])
    sqrt_dw = np.sqrt(grid.d_omega)
    signal = _embed(signal, rows, n, k).T / sqrt_dw
    idler = _embed(idler, cols, n, k).T / sqrt_dw
    signal, idler = _fix_phases(signal, idler)
    return SchmidtData(grid, signal, idler, s[:k], int(n_retained), float(np.sum(s[n_retained:] ** 2)))


def _cross_approximation(sample, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive cross approximation ``ut``, ``v`` (k x n) of f * d_omega, certified against every sample.

    ``sample(rows, cols)`` reads f.  Partial pivoting (a residual row's
    largest sample is the pivot, the pivot column's largest residual on an
    unvisited row picks the next row) stalls on rows it never reads, so the
    first round starts from one row of every row block, the row nearest zero
    detuning, nearest first: where a centred Gaussian's block peaks lie.  A
    round pivots from each start while its residual row is above the floor,
    1e-14 of the largest sample read so far; its first nonzero residual row
    always becomes a pivot.  A check then reads rows a row block's worth at
    a time and records each one's largest residual sample, and the next
    round starts from the worst row of each block above the floor, worst
    first, until none is left.  A new pivot k moves row i's residual by at
    most |ut_k[i]| max|v_k| = |ut_k[i]|, so each record is raised by that
    much and a check re-reads only the rows whose record crosses the floor.
    The rank is at most n, so this ends.
    """
    n, dw = grid.n_points, grid.d_omega
    blocks = _row_blocks(n)
    detuning = np.abs(grid.points)
    starts = sorted((block.start + int(np.argmin(detuning[block])) for block in blocks), key=lambda i: detuning[i])
    ut = v = np.zeros((0, n))
    rank, largest = 0, 0.0
    # an upper bound on each row's largest residual sample
    record = np.full(n, np.inf)

    def read(rows, cols) -> np.ndarray:
        nonlocal largest
        f = sample(rows, cols) * dw
        largest = max(largest, float(np.max(np.abs(f))))
        return f

    while starts and rank < n:
        first, visited = rank, np.zeros(n, dtype=bool)
        for i in starts:
            while rank < n:
                row = read([i], slice(None))[0] - ut[:rank, i] @ v[:rank]
                j = int(np.argmax(np.abs(row)))
                if not abs(row[j]) > (0.0 if rank == first else _NOISE_FLOOR * largest):
                    break
                if rank == len(ut):
                    ut, v = (np.concatenate([factor, np.zeros((len(factor) + 16, n), row.dtype)]) for factor in (ut, v))
                v[rank] = row / row[j]
                ut[rank] = read(slice(None), [j])[:, 0] - ut[:rank].T @ v[:rank, j]
                visited[i] = True
                i = int(np.argmax(np.where(visited, -1.0, np.abs(ut[rank]))))
                rank += 1
        record += np.sum(np.abs(ut[first:rank]), axis=0)
        stale = np.flatnonzero(record > _NOISE_FLOOR * largest)
        for start in range(0, len(stale), blocks[0].stop):
            rows = stale[start : start + blocks[0].stop]
            record[rows] = np.max(np.abs(read(rows, slice(None)) - ut[:rank, rows].T @ v[:rank]), axis=1)
        worst = (block.start + int(np.argmax(record[block])) for block in blocks)
        starts = sorted((i for i in worst if record[i] > _NOISE_FLOOR * largest), key=lambda i: -record[i])
    return ut[:rank].copy(), v[:rank].copy()


def schmidt_decompose(jsa: GaussianJsa, n_retained: int = 10) -> SchmidtData:
    """Decompose a normalized amplitude into its reported and excited broadband mode pairs.

    :func:`_decompose` of the amplitude's skeleton factors on every sample:
    any object with a ``grid`` and a ``skeleton`` (``ut``, ``v``, k x n, with
    f * d_omega = ut^T v) will do, and :class:`GaussianJsa` holds Mehler's;
    factors of rank below ``n_retained`` are completed to orthonormal pairs
    of amplitude 0.  Amplitudes descend and satisfy sum lambda^2 = 1 to 1e-10.
    """
    schmidt = _decompose(jsa.grid, *jsa.skeleton, n_retained)
    total = float(np.sum(schmidt.lambdas[:n_retained] ** 2)) + schmidt.tail_weight
    if not abs(total - 1.0) <= _PARSEVAL_TOL:
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
