"""Joint spectral amplitudes and their broadband-mode (Schmidt) decompositions.

A pulsed two-mode squeezer is fully characterized by the Schmidt decomposition
of its joint spectral amplitude f(w_s, w_i): orthonormal broadband signal and
idler mode functions paired with non-negative amplitudes whose squares sum to
one.  Multiplying the amplitudes by the optical gain B gives the per-mode
squeezing parameters r_k = B * lambda_k, and r maps to decibels via
squeezing[dB] = -10 log10(exp(-2 r)).

Everything here is discretized on a uniform frequency grid with rectangle-rule
quadrature weight d_omega; mode functions are normalized so that
sum |psi|^2 d_omega = 1.  The double-Gaussian amplitude is not stored: it is
evaluated from its closed form, one exponential a sample, on whatever rows
and columns a step reads, and its normalization is read from the certified
cross-approximation factors.  Samples agree with a dense evaluation of the
closed form to round-off, c eps (1 + q) of exp(-q), not to the bit.

Only the leading Schmidt triples are computed, on one route for every grid
and rank: adaptive cross approximation (Bebendorf, Numer. Math. 86, 565
(2000)) checked against every sample.  Every decomposition, here or in
``basis_opt``, keeps max(n_retained, #{lambda_k > 1e-14 lambda_1}) pairs;
every mode beyond them has r = 0 to round-off and enters the squeezer only
through the exact identity part of its Bogoliubov transformation.
"""

from __future__ import annotations

import itertools
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
# a check keeps the residual rows above half the floor, up to this many samples
_KEPT_SAMPLES = 4 * _BLOCK_SAMPLES
# the widths for which 2 sigma^2, the Gaussians' divisor, is a normal finite float
_SIGMA_MIN = float(np.sqrt(np.finfo(float).tiny / 2))
_SIGMA_MAX = float(np.sqrt(np.finfo(float).max / 2))
# relative gap below which two rows tie for the one nearest zero detuning
_PEAK_TIE = 1e-8
# relative magnitude gap below which two samples tie for a mode's peak.  SVD
# round-off fixes mode k only to about eps lambda_1 / lambda_k, so the mirror
# peaks of an odd mode near the noise floor differ by far more than the
# samples' round-off: by up to 4.2e-4 for the benchmark reference's mode 10,
# at 3e-13 lambda_1
_PHASE_TIE = 1e-3
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


@dataclass(frozen=True)
class JsaMatrix:
    """Joint spectral amplitude stored as samples on grid x grid (rows = signal axis).

    Normalized so that the discrete L2 norm sum |f|^2 d_omega^2 equals one.
    Any amplitude (chirped, multi-lobe, high-rank) can be given this way;
    it is read only through :meth:`sample` and ``skeleton``, as the
    closed-form :class:`GaussianJsa` is, and its skeleton is found and
    certified on the same route as the builder's.
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

    def sample(self, rows, cols) -> np.ndarray:
        """The samples f[rows, cols]; ``rows`` and ``cols`` are slices or index arrays."""
        return self.values[rows][:, cols]

    @cached_property
    def skeleton(self) -> tuple[np.ndarray, np.ndarray]:
        """Cross-approximation factors ``ut``, ``v`` (k x n): f * d_omega = ut.T @ v to the noise floor."""
        return _CrossApproximation(self.sample, self.grid).certify()


def _raw_gaussian(params: GaussianJsaParams, w: np.ndarray, rows, cols) -> np.ndarray:
    """exp(-u^2 / (2 sigma_a^2) - v^2 / (2 sigma_b^2)) on w[rows] x w[cols], unnormalized.

    u and v are the rotated coordinates w_s cos(theta) + w_i sin(theta) and
    -w_s sin(theta) + w_i cos(theta).  The exponent of row w_s is written as
    a completed square in w_i, C (w_i - m)^2 + d, with
    C = sin^2 / (2 sigma_a^2) + cos^2 / (2 sigma_b^2),
    m = -w_s cos sin (1 / (2 sigma_a^2) - 1 / (2 sigma_b^2)) / C and
    d = w_s^2 / (4 sigma_a^2 sigma_b^2 C): one exponential a sample.  Both
    terms are >= 0, so nothing cancels, and a term that overflows gives
    exp(-inf) = 0, the Gaussian's value to double precision.  A sample is a
    function of its row and column alone, so every block that reads it
    rounds it alike.
    """
    ws, wi = w[rows], w[cols]
    cos, sin = np.cos(params.theta), np.sin(params.theta)
    var_a, var_b = params.sigma_a**2, params.sigma_b**2
    a, b = 1 / (2 * var_a), 1 / (2 * var_b)
    curvature = sin**2 * a + cos**2 * b
    with np.errstate(over="ignore"):
        # 4 var_a var_b C = 2 (cos^2 var_a + sin^2 var_b), the second form where the first under- or overflows
        spread = 4 * var_a * var_b * curvature
        if not 0 < spread < np.inf:
            spread = 2 * (cos**2 * var_a + sin**2 * var_b)
        centre = -ws * cos * sin * (a - b) / curvature
        offset = ws**2 / spread
        # w_i - m as the product [1, -m] @ [w_i; 1]: both terms are exact, so each
        # entry is the difference rounded once, at a third of the time numpy
        # takes to broadcast m over a 40 x 1600 block
        q = np.stack([np.ones_like(centre), -centre], axis=1) @ np.stack([wi, np.ones_like(wi)])
        np.square(q, out=q)
        q *= -curvature
        q -= offset[:, None]
    return np.exp(q, out=q)


@dataclass(frozen=True)
class GaussianJsa:
    """The tilted double-Gaussian amplitude in closed form, normalized on the grid.

    No sample is stored: :meth:`sample` evaluates any block of rows and
    columns as the raw Gaussian over sqrt(``grid_mass``), one exponential a
    sample, and every read of a sample gives the same bits.  ``skeleton``
    holds the certified cross-approximation factors ``ut``, ``v`` (k x n)
    with f * d_omega = ut.T @ v to the noise floor, as :class:`JsaMatrix`
    reports them, and ``grid_mass`` is the rectangle-rule mass
    sum |raw|^2 d_omega^2 of the raw samples, read from the raw factors.
    Build it with :func:`build_gaussian_jsa`.
    """

    params: GaussianJsaParams
    grid: FrequencyGrid
    grid_mass: float
    skeleton: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def sample(self, rows, cols) -> np.ndarray:
        """The samples f[rows, cols]; ``rows`` and ``cols`` are slices or index arrays."""
        out = _raw_gaussian(self.params, self.grid.points, rows, cols)
        out /= np.sqrt(self.grid_mass)
        return out

    @property
    def l2_norm_sq(self) -> float:
        """sum |f|^2 d_omega^2 over every sample, read a row block at a time."""
        blocks = (self.sample(block, slice(None)) for block in _row_blocks(self.grid.n_points))
        return sum(float(np.vdot(f, f)) for f in blocks) * self.grid.d_omega**2


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

    Every raw sample is evaluated once and none is kept: the cross
    approximation of :class:`_CrossApproximation` pivots on the raw closed
    form and checks every sample against its skeleton.  The mass is then
    read from the certified raw factors, sum (ut ut^T) o (v v^T) in O(k^2 n),
    and the factors scaled by 1 / sqrt(mass) are stored on the amplitude
    for :func:`schmidt_decompose`.  Samples, mass and factors agree with a
    dense evaluation of the closed form to round-off, not to the bit.

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
    cross = _CrossApproximation(lambda rows, cols: _raw_gaussian(params, grid.points, rows, cols), grid)
    ut, v = cross.certify()
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
    return GaussianJsa(params, grid, grid_mass, (ut, v))


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


def _pad_rows(factor: np.ndarray, rows: int) -> np.ndarray:
    """``factor`` with zero rows appended up to ``rows`` rows."""
    return np.pad(factor, ((0, max(0, rows - len(factor))), (0, 0)))


def _factored_svd(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD ``u, s, vh`` of left.T @ right from its k x m and k x n factors, never formed.

    A QR of each factor and one SVD of the product of their triangles give
    the triples.  ``u`` holds min(m, k) columns and ``vh`` min(n, k) rows:
    past the min(m, n, k) triples, an arm's unused singular vectors.  The
    QRs complete factors of rank below k with orthonormal vectors of
    amplitude 0.
    """
    try:
        qu, ru = np.linalg.qr(left.T)
        qv, rv = np.linalg.qr(right.T)
        w, s, zh = np.linalg.svd(ru @ rv.T)
    except np.linalg.LinAlgError as exc:
        raise _svd_failure(np.concatenate([left, right], axis=1)) from exc
    return qu @ w, s, zh @ qv.T


class _CrossApproximation:
    """Adaptive cross approximation of f * d_omega, certified against every sample.

    ``sample(rows, cols)`` reads f.  Partial pivoting (a residual row's
    largest sample is the pivot, the pivot column's largest residual on an
    unvisited row picks the next row) stalls on rows it never reads, so it
    starts from one row of every row block: the row nearest zero detuning,
    where a centred Gaussian's block peak lies, nearest first, which is
    largest first for such a Gaussian.  A round pivots from each start
    while its residual row is above the floor, 1e-14 of the largest sample
    read so far.  :meth:`certify` then reads every sample once and records
    each row's largest residual sample; it resumes pivoting from the worst
    row of each block above the floor, worst first, and checks again until
    none is left.  A new pivot k moves row i's residual by at most
    |ut_k[i]| max|v_k|, so a check re-reads only the rows whose recorded
    residual plus that bound crosses the floor; the residual rows above half
    the floor, up to ``_KEPT_SAMPLES`` samples, are kept and updated with
    each new pivot instead.  The first nonzero start of a round always
    becomes a pivot and the rank is at most n, so this ends.
    """

    def __init__(self, sample, grid: FrequencyGrid):
        self._sample, self._grid = sample, grid
        n = grid.n_points
        # the two middle rows of a grid symmetric about zero tie to round-off: in
        # one block the lower is its start, in two the higher goes first
        detuning = np.abs(grid.points)
        starts = sorted(
            (
                block.start + int(np.argmax(detuning[block] <= np.min(detuning[block]) * (1 + _PEAK_TIE)))
                for block in _row_blocks(n)
            ),
            key=lambda i: (round(2 * detuning[i] / grid.d_omega), -i),
        )
        reads = self._rows(starts)
        first = next(reads)
        self._ut, self._v = np.zeros((2, 16, n), np.result_type(first[1].dtype, float))
        self._rank, self._largest = 0, 0.0
        # an upper bound on each row's largest residual sample, times d_omega
        self._bound = np.full(n, np.inf)
        # (rows, their residual rows times d_omega), updated with each new pivot
        self._kept: list[tuple[np.ndarray, np.ndarray]] = []
        self._is_kept = np.zeros(n, dtype=bool)
        self._pivot(itertools.chain([first], reads))

    def _chunks(self, rows):
        """``rows`` in order, a row block's worth at a time."""
        per = _row_blocks(self._grid.n_points)[0].stop
        return (rows[start : start + per] for start in range(0, len(rows), per))

    def _rows(self, rows):
        """(row, its samples) for each of ``rows`` in turn, read a row block's worth at a time."""
        for chunk in self._chunks(rows):
            yield from zip(chunk, self._sample(chunk, slice(None)))

    def _note(self, samples: np.ndarray) -> None:
        """Raise the floor to 1e-14 of the largest of some ``samples``."""
        top = np.abs(samples).max() if np.iscomplexobj(samples) else max(samples.max(), -samples.min())
        self._largest = max(self._largest, float(top) * self._grid.d_omega)

    def _pivot(self, starts) -> None:
        """One round from each (row, its samples or None) in turn."""
        n, dw = self._grid.n_points, self._grid.d_omega
        visited, first = np.zeros(n, dtype=bool), self._rank
        for i, samples in starts:
            while True:
                k = self._rank
                if samples is None:
                    samples = self._sample([i], slice(None))[0]
                self._note(samples)
                row = samples * dw - self._ut[:k, i] @ self._v[:k]
                j = int(np.abs(row).argmax())
                # the first nonzero residual row of a round is always a pivot
                if not (k < n and abs(row[j]) > (0.0 if k == first else _NOISE_FLOOR * self._largest)):
                    break
                visited[i] = True
                if k == len(self._ut):
                    self._ut, self._v = np.concatenate([self._ut, 0 * self._ut]), np.concatenate([self._v, 0 * self._v])
                column = self._sample(slice(None), [j])[:, 0]
                self._note(column)
                self._v[k] = row / row[j]
                self._ut[k] = column * dw - self._ut[:k].T @ self._v[:k, j]
                self._rank += 1
                i, samples = int(np.argmax(np.where(visited, -1.0, np.abs(self._ut[k])))), None

    def _check(self) -> list[int]:
        """Measure every row whose bound is above the floor; the restart rows, worst first.

        Rows are read a row block's worth at a time; a kept row's residual
        is exact and is not read again.  The restart rows are the worst row
        of each block whose residual is above the floor.
        """
        for chunk in self._chunks(np.flatnonzero((self._bound > _NOISE_FLOOR * self._largest) & ~self._is_kept)):
            self._measure(chunk)
        floor = _NOISE_FLOOR * self._largest
        blocks = _row_blocks(self._grid.n_points)
        worst = ((self._bound[i], i) for i in (block.start + int(np.argmax(self._bound[block])) for block in blocks))
        return [i for size, i in sorted(worst, reverse=True) if size > floor]

    def _measure(self, rows: np.ndarray) -> None:
        """Record the largest residual sample of each of ``rows``, and keep the residual of those near the floor."""
        dw = self._grid.d_omega
        f = self._sample(rows, slice(None))
        self._note(f)
        k = self._rank
        r = self._ut[:k, rows].T / dw @ self._v[:k]
        r -= f
        self._bound[rows] = np.max(np.abs(r, out=r), axis=1).real * dw
        # one new pivot moves a row by at most its own residual, so a row below
        # half the floor stays below it
        room = _KEPT_SAMPLES // len(self._bound) - np.count_nonzero(self._is_kept)
        near = np.flatnonzero(self._bound[rows] > _NOISE_FLOOR * self._largest / 2)[: max(0, room)]
        if len(near):
            self._is_kept[rows[near]] = True
            self._kept.append((rows[near], f[near] * dw - self._ut[:k, rows[near]].T @ self._v[:k]))

    def certify(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors ``ut``, ``v`` (k x n) with f * d_omega = ut.T @ v, once no row is above the floor."""
        n = self._grid.n_points
        restarts = self._check()
        while restarts and self._rank < n:
            first = self._rank
            self._pivot(self._rows(restarts))
            ut, v = self._ut[first : self._rank], self._v[first : self._rank]
            # v_k is a residual row over its largest sample, so max|v_k| = 1
            self._bound += np.sum(np.abs(ut), axis=0)
            for rows, residual in self._kept:
                residual -= ut[:, rows].T @ v
                self._bound[rows] = np.max(np.abs(residual), axis=1)
            restarts = self._check()
        return self._ut[: self._rank].copy(), self._v[: self._rank].copy()


def schmidt_decompose(jsa: GaussianJsa | JsaMatrix, n_retained: int = 10) -> SchmidtData:
    """Decompose a normalized amplitude into its reported and excited broadband mode pairs.

    A QR of each of the amplitude's certified cross-approximation factors
    (``skeleton``) and one SVD of the k x k core give the triples; the QRs
    complete the zero rows of factors of rank below
    ``n_retained`` to orthonormal pairs of amplitude 0.  Amplitudes descend
    and satisfy sum lambda^2 = 1 to 1e-10.
    """
    n = jsa.grid.n_points
    if not 1 <= n_retained <= n:
        raise ConfigurationError(f"n_retained must lie in [1, {n}], got {n_retained}")
    ut, v = jsa.skeleton
    u, s, vh = _factored_svd(_pad_rows(ut, n_retained), _pad_rows(v, n_retained))
    schmidt = _schmidt_from_svd(jsa.grid, u, s, vh, n_retained)
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
