"""Independent oracles the tests check the library against.

Everything here is deliberately written from first principles (closed forms,
recurrences, Wick contractions) rather than through the library's own code
paths, so that agreement is meaningful.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# closed-form constants for the reference double Gaussian (widths 6 and 2)
GEOMETRIC_RATIO = 0.5  # (sigma_a - sigma_b) / (sigma_a + sigma_b)
LAMBDA_1 = np.sqrt(1 - GEOMETRIC_RATIO**2)  # 0.8660254...
R_6DB = 6 * np.log(10.0) / 20  # 0.6907755278982137
R_3DB = 3 * np.log(10.0) / 20  # 0.34538776394910686
GAIN_6DB = R_6DB / LAMBDA_1  # 0.7976388739632791


def hermite_functions(kmax: int, x: np.ndarray) -> np.ndarray:
    """First kmax orthonormal Hermite functions, by stable recurrence."""
    out = [np.pi**-0.25 * np.exp(-(x**2) / 2)]
    if kmax > 1:
        out.append(np.sqrt(2.0) * x * out[0])
    for n in range(1, kmax - 1):
        out.append(np.sqrt(2.0 / (n + 1)) * x * out[-1] - np.sqrt(n / (n + 1)) * out[-2])
    return np.asarray(out[:kmax])


def mehler_mode_scale(sigma_a: float, sigma_b: float) -> float:
    """Length scale of the Hermite-function Schmidt modes of the double Gaussian."""
    mu = (sigma_a - sigma_b) / (sigma_a + sigma_b)
    a = (sigma_a**2 + sigma_b**2) / (4 * sigma_a**2 * sigma_b**2)
    return float(np.sqrt((1 + mu**2) / (2 * (1 - mu**2) * a)))


def geometric_lambdas(kmax: int, sigma_a: float, sigma_b: float) -> np.ndarray:
    """Closed-form Schmidt amplitudes of the (untruncated) double Gaussian."""
    mu = (sigma_a - sigma_b) / (sigma_a + sigma_b)
    return np.sqrt(1 - mu**2) * mu ** np.arange(kmax)


def lossy_epr_block(eta: float, r: float) -> np.ndarray:
    """Two-mode squeezed pair after identical beam-splitter loss eta on both arms."""
    c2, s2 = np.cosh(2 * r), np.sinh(2 * r)
    diag = eta * c2 / 2 + (1 - eta) / 2
    off = eta * s2 / 2
    return np.array(
        [
            [diag, 0.0, off, 0.0],
            [0.0, diag, 0.0, -off],
            [off, 0.0, diag, 0.0],
            [0.0, -off, 0.0, diag],
        ]
    )


def eigvals_williamson(sigma) -> np.ndarray:
    """Williamson eigenvalues, descending, from the non-symmetric Omega sigma.

    The route the library took before its Cholesky form: the eigenvalues of
    Omega sigma are +-i nu_j, so their magnitudes, sorted, come in pairs.
    """
    sigma = np.asarray(sigma, dtype=float)
    omega = np.kron(np.eye(len(sigma) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return np.sort(np.abs(np.linalg.eigvals(omega @ sigma)))[::-1][::2]


def drawn_gaussian_state(rng, n_bosons, nu_max=5.0, r_max=1.5):
    """(sigma, nu) of a thermal state under a random symplectic, in the
    library's interleaved (X, Y) ordering with vacuum variance 1/2.

    The thermal diagonal nu_j lies in [1/2, nu_max]; the symplectic is a
    passive unitary, one single-mode squeezer of r_j <= r_max per boson and
    a second passive unitary, so sigma's Williamson spectrum is exactly nu.
    """

    def passive():
        z = rng.standard_normal((n_bosons, n_bosons)) + 1j * rng.standard_normal((n_bosons, n_bosons))
        u, _ = np.linalg.qr(z)
        out = np.zeros((2 * n_bosons, 2 * n_bosons))
        out[0::2, 0::2] = out[1::2, 1::2] = u.real
        out[0::2, 1::2], out[1::2, 0::2] = -u.imag, u.imag
        return out

    r = rng.uniform(0.0, r_max, n_bosons)
    squeeze = np.diag(np.exp(np.stack([-r, r], axis=1).ravel()))
    sym = passive() @ squeeze @ passive()
    nu = rng.uniform(0.5, nu_max, n_bosons)
    sigma = sym @ np.diag(np.repeat(nu, 2)) @ sym.T
    return (sigma + sigma.T) / 2, np.sort(nu)[::-1]


def meshgrid_raw_gaussian(params, grid):
    """The unnormalized double Gaussian built on meshgrids, as two exponentials of rotated coordinates.

    The construction the library used before it sampled the amplitude in
    closed form, one exponential a sample.
    """
    w = grid.points
    ws, wi = np.meshgrid(w, w, indexing="ij")
    u = ws * np.cos(params.theta) + wi * np.sin(params.theta)
    v = -ws * np.sin(params.theta) + wi * np.cos(params.theta)
    return np.exp(-(u**2) / (2 * params.sigma_a**2)) * np.exp(-(v**2) / (2 * params.sigma_b**2))


def meshgrid_gaussian_jsa(params, grid):
    """Normalized double-Gaussian amplitude built on meshgrids, without the truncation guard."""
    raw = meshgrid_raw_gaussian(params, grid)
    grid_mass = float(np.sum(raw**2) * grid.d_omega**2)
    return raw / np.sqrt(grid_mass)


def longdouble_gaussian(params, grid, rows):
    """exp(-q) and q of the unnormalized double Gaussian on grid[rows] x grid, in extended precision.

    q = u^2 / (2 sigma_a^2) + v^2 / (2 sigma_b^2) with the rotated
    coordinates u, v of the grid's float64 points, evaluated in
    ``np.longdouble``: the exact values a double-precision sampler is
    judged against.
    """
    w = grid.points.astype(np.longdouble)
    theta = np.longdouble(params.theta)
    cos, sin = np.cos(theta), np.sin(theta)
    ws, wi = w[rows, None], w[None, :]
    u = ws * cos + wi * sin
    v = -ws * sin + wi * cos
    q = u * u / (2 * np.longdouble(params.sigma_a) ** 2) + v * v / (2 * np.longdouble(params.sigma_b) ** 2)
    return np.exp(-q), q


def overlap(grid, f, g) -> complex:
    """Quadrature inner product integral(conj(f) * g) d_omega."""
    return complex(np.sum(np.conjugate(f) * g) * grid.d_omega)


@dataclass(frozen=True)
class JsaMatrix:
    """Any amplitude (chirped, multi-lobe, high-rank) stored as samples on grid x grid (rows = signal axis).

    Normalized so that sum |f|^2 d_omega^2 = 1, and read as the library reads
    a ``GaussianJsa``: through :meth:`sample` and ``skeleton``.  The skeleton
    is the library's cross approximation of the samples, certified against
    every one, so its tests reach the fallback with complex and stalling inputs.
    """

    values: np.ndarray
    grid: object

    def __post_init__(self):
        n = self.grid.n_points
        if np.shape(self.values) != (n, n):
            raise ValueError(f"JSA shape {np.shape(self.values)} does not match grid size {n}")
        norm = float(np.vdot(self.values, self.values).real) * self.grid.d_omega**2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"JSA not normalized: sum|f|^2 d_omega^2 = {norm!r}")

    def sample(self, rows, cols):
        """The samples f[rows, cols]; ``rows`` and ``cols`` are slices or index arrays."""
        return self.values[rows][:, cols]

    @cached_property
    def skeleton(self):
        """Cross-approximation factors ``ut``, ``v`` (k x n): f * d_omega = ut.T @ v to the noise floor."""
        from pdcfilter.spectral import _cross_approximation

        return _cross_approximation(self.sample, self.grid)


def dense_values(jsa):
    """Every sample of an amplitude as one n x n array, read through its own ``sample``."""
    return jsa.sample(slice(None), slice(None))


def chirped_jsa(grid, rate):
    """The reference amplitude (sigma_a 6, sigma_b 2, theta -pi/4) times exp(i rate (w_s^2 + w_i^2)).

    A local spectral phase on each arm: its Schmidt pairs are complex, with
    the reference state's amplitudes.
    """
    import pdcfilter as pf

    base = meshgrid_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
    w = grid.points
    return JsaMatrix(base * np.exp(1j * rate * (w[:, None] ** 2 + w[None, :] ** 2)), grid)


def loop_modes_csv(grid, modes, path):
    """``modes.csv`` written sample by sample, as the library did before it built one table."""
    import csv

    modes = np.atleast_2d(np.asarray(modes))
    is_complex = np.iscomplexobj(modes) and np.max(np.abs(np.imag(modes))) > 1e-12
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if is_complex:
            header = ["omega"]
            for k in range(modes.shape[0]):
                header += [f"mode_{k + 1}_re", f"mode_{k + 1}_im"]
            writer.writerow(header)
            for j, w in enumerate(grid.points):
                row = [format(w, ".17g")]
                for k in range(modes.shape[0]):
                    row += [format(modes[k, j].real, ".17g"), format(modes[k, j].imag, ".17g")]
                writer.writerow(row)
        else:
            writer.writerow(["omega"] + [f"mode_{k + 1}" for k in range(modes.shape[0])])
            for j, w in enumerate(grid.points):
                writer.writerow(
                    [format(w, ".17g")]
                    + [format(float(np.real(modes[k, j])), ".17g") for k in range(modes.shape[0])]
                )


def full_schmidt(values, grid):
    """Complete discrete Schmidt family (lambdas, signal, idler) of ``values`` by a dense SVD.

    Decomposes values[i, j] = sum_k s_k signal_k(w_i) idler_k(w_j) with both
    families orthonormal under the d_omega quadrature: modes are rows,
    singular values descend, and the library's phase convention is applied,
    so the leading pairs compare with the library's pair for pair.  The
    dense kernels below do not depend on the convention.
    """
    from pdcfilter.spectral import _fix_phases

    dw = grid.d_omega
    u, s, vh = np.linalg.svd(np.asarray(values) * dw)
    signal, idler = _fix_phases(u.T / np.sqrt(dw), vh / np.sqrt(dw))
    return s, signal, idler


def dense_effective_basis(jsa, filter_signal, filter_idler, n_retained=10):
    """Effective basis by the SVD of the whole n x n filter-masked amplitude.

    The reference for the library's skeleton-factor route: all n mode
    pairs, rows beyond the filter rank an arbitrary completion from LAPACK,
    with the library's phase convention so that modes compare directly.
    """
    from pdcfilter.spectral import SchmidtData

    masked = (
        filter_signal.transmission[:, None]
        * filter_idler.transmission[None, :]
        * dense_values(jsa)
    )
    s, signal, idler = full_schmidt(masked, jsa.grid)
    return SchmidtData(
        grid=jsa.grid,
        signal_modes=signal,
        idler_modes=idler,
        lambdas=s,
        n_retained=int(n_retained),
        tail_weight=float(np.sum(s[n_retained:] ** 2)),
    )


@dataclass(frozen=True)
class DenseKernels:
    """Two-frequency Bogoliubov kernels of the squeezer as n x n matrices."""

    u_signal: np.ndarray
    u_idler: np.ndarray
    v_signal: np.ndarray
    v_idler: np.ndarray


def dense_uv_kernels(signal_modes, idler_modes, r_values) -> DenseKernels:
    """Kernels summed over a mode family: U = Psi^H cosh(r) Psi, V = Psi^H sinh(r) Phi^*.

    Over the complete family of :func:`full_schmidt` the cosh sums complete
    the beam-splitter part to the grid identity, so the kernels are exact.
    """
    psi, phi = np.asarray(signal_modes), np.asarray(idler_modes)
    ch, sh = np.cosh(r_values), np.sinh(r_values)
    return DenseKernels(
        u_signal=(psi.conj().T * ch) @ psi,
        u_idler=(phi.conj().T * ch) @ phi,
        v_signal=(psi.conj().T * sh) @ phi.conj(),
        v_idler=(phi.conj().T * sh) @ psi.conj(),
    )


def complete_kernels(jsa, gain) -> DenseKernels:
    """Dense kernels of ``jsa`` at gain B over its complete Schmidt family."""
    lambdas, signal, idler = full_schmidt(dense_values(jsa), jsa.grid)
    return dense_uv_kernels(signal, idler, gain * lambdas)


def reflection(filt) -> np.ndarray:
    """The filter's reflected-vacuum amplitude R = sqrt(1 - |T|^2) of the beam-splitter model."""
    return np.sqrt(np.clip(1.0 - np.abs(filt.transmission) ** 2, 0.0, None))


@dataclass(frozen=True)
class LadderRows:
    """Per-measured-mode ladder coefficients over the grid, one row per mode.

    ``u`` rows multiply the arm's own annihilation operators, ``v`` rows the
    other arm's creation operators and ``r`` rows the arm's reflected vacuum.
    """

    u_signal: np.ndarray
    u_idler: np.ndarray
    v_signal: np.ndarray
    v_idler: np.ndarray
    r_signal: np.ndarray
    r_idler: np.ndarray


def ladder_rows(kernels: DenseKernels, filter_signal, filter_idler, basis) -> LadderRows:
    """Ladder rows of the filtered measured modes, contracted with dense kernels.

    The signal mode f sees u = d_omega (conj(T_a) f) U_a and
    v = d_omega (conj(T_a) f) V_a through its filter and r = f R_a from the
    reflected vacuum; the idler arm mirrors it with g and T_b.  The modes
    are contracted as written and the transmissions conjugated, as the
    library contracts them, so a defect of that convention shows in the
    local-phase tests, not against this oracle.
    """
    dw = basis.grid.d_omega
    fa = basis.signal_fns * filter_signal.transmission.conj()
    gb = basis.idler_fns * filter_idler.transmission.conj()
    return LadderRows(
        u_signal=dw * (fa @ kernels.u_signal),
        u_idler=dw * (gb @ kernels.u_idler),
        v_signal=dw * (fa @ kernels.v_signal),
        v_idler=dw * (gb @ kernels.v_idler),
        r_signal=basis.signal_fns * reflection(filter_signal),
        r_idler=basis.idler_fns * reflection(filter_idler),
    )


def factored_ladder_rows(schmidt, filter_signal, filter_idler, basis) -> LadderRows:
    """Ladder rows over the grid from the identity-plus-rank-k kernels of ``schmidt``.

    U = 1 / d_omega + Psi^H diag(cosh r - 1) Psi and V = Psi^H diag(sinh r) Phi^*
    applied to conj(T) f without assuming the rows orthonormal, so that a
    corrupted Schmidt family shows in the integrals of these rows.
    """
    dw = basis.grid.d_omega
    r = schmidt.r_values
    ch1, sh = np.cosh(r) - 1.0, np.sinh(r)
    psi, phi = schmidt.signal_modes, schmidt.idler_modes
    fa = basis.signal_fns * filter_signal.transmission.conj()
    gb = basis.idler_fns * filter_idler.transmission.conj()
    ca = dw * (fa @ psi.conj().T)
    cb = dw * (gb @ phi.conj().T)
    return LadderRows(
        u_signal=fa + (ca * ch1) @ psi,
        u_idler=gb + (cb * ch1) @ phi,
        v_signal=(ca * sh) @ phi.conj(),
        v_idler=(cb * sh) @ psi.conj(),
        r_signal=basis.signal_fns * reflection(filter_signal),
        r_idler=basis.idler_fns * reflection(filter_idler),
    )


def row_commutator_defects(rows: LadderRows, dw: float) -> np.ndarray:
    """int |u|^2 - int |v|^2 + int |r|^2 - 1 per measured mode, signal arm then idler."""

    def defect(u, v, r):
        return dw * np.sum(np.abs(u) ** 2 - np.abs(v) ** 2 + np.abs(r) ** 2, axis=1) - 1.0

    return np.stack(
        [defect(rows.u_signal, rows.v_signal, rows.r_signal), defect(rows.u_idler, rows.v_idler, rows.r_idler)]
    )


def wick_covariance(kernels: DenseKernels, filter_signal, filter_idler, basis) -> np.ndarray:
    """Covariance matrix by explicit Wick contraction of ladder coefficients.

    Each measured operator is written as a row of annihilation and creation
    coefficients over the discretized (signal, idler, two vacua) ladder
    operators, from :func:`ladder_rows`; quadrature rows follow, and every
    covariance entry is the symmetrized vacuum two-point function.  Shares
    no code with the library's projections or block-formula assembly.
    """
    rows = ladder_rows(kernels, filter_signal, filter_idler, basis)
    n = basis.grid.n_points
    sq = np.sqrt(basis.grid.d_omega)

    # column layout of the ladder space: [a, b, v_a, v_b], each of size n
    def op_coeffs(k, arm):
        ann = np.zeros(4 * n, dtype=complex)
        cre = np.zeros(4 * n, dtype=complex)
        if arm == "signal":
            ann[0:n] = rows.u_signal[k] * sq
            cre[n : 2 * n] = rows.v_signal[k] * sq
            ann[2 * n : 3 * n] = rows.r_signal[k] * sq
        else:
            ann[n : 2 * n] = rows.u_idler[k] * sq
            cre[0:n] = rows.v_idler[k] * sq
            ann[3 * n :] = rows.r_idler[k] * sq
        return ann, cre

    ann_rows = []
    cre_rows = []
    for k in range(basis.n_modes):
        for arm in ("signal", "idler"):
            ann, cre = op_coeffs(k, arm)
            # X = (O + O^dag)/sqrt2 ; Y = (O - O^dag)/(i sqrt2)
            ann_rows.append((ann + np.conj(cre)) / np.sqrt(2))
            cre_rows.append((cre + np.conj(ann)) / np.sqrt(2))
            ann_rows.append((ann - np.conj(cre)) / (1j * np.sqrt(2)))
            cre_rows.append((cre - np.conj(ann)) / (1j * np.sqrt(2)))

    # rows are already in the library ordering (X_a, Y_a, X_b, Y_b) per mode
    ann_m = np.asarray(ann_rows)
    cre_m = np.asarray(cre_rows)

    # <O_i O_j>_vac = sum_m ann_i[m] cre_j[m]; symmetrize
    two_point = ann_m @ cre_m.T
    sigma = (two_point + two_point.T) / 2
    return np.real(sigma)


def objective_squeezing(schmidt, filter_signal, filter_idler, phi_columns, k_prime):
    """Squeezing in dB of measured mode ``k_prime`` for a shared basis.

    The slow reference for ``StateContext.fitness`` of the state context of
    ``schmidt`` and the two filters: ``phi_columns`` holds
    orthonormal unit-norm columns (one mode per column), the same set serves
    signal and idler, and mode ``k_prime`` alone goes through the library's
    projection and covariance pipeline, scored by the better joint-quadrature
    combination (which absorbs the sign bookkeeping of antisymmetric modes).
    """
    import pdcfilter as pf
    from pdcfilter.errors import ConfigurationError

    cols = np.asarray(phi_columns, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    if not 1 <= k_prime <= cols.shape[1]:
        raise ConfigurationError(f"k_prime {k_prime} out of range 1..{cols.shape[1]}")
    gram_dev = np.max(np.abs(cols.T @ cols - np.eye(cols.shape[1])))
    if gram_dev > 1e-8:
        raise ConfigurationError(f"mode columns not orthonormal (max deviation {gram_dev:.3e})")
    grid = schmidt.grid
    mode = cols[:, k_prime - 1] / np.sqrt(grid.d_omega)
    basis = pf.MeasurementBasis.from_shared(mode[None, :], grid)
    proj = pf.filtered_projections(schmidt, filter_signal, filter_idler, basis)
    return pf.squeezing_report(pf.assemble_covariance(proj))[0].squeezing_db


def dense_forms(schmidt, filter_signal, filter_idler):
    """The n x n joint-quadrature forms (form_minus, form_plus) of a filtered state.

    The construction the genetic search scored with before it kept only the
    factors: every Schmidt row, complex products, real parts at the end.  A
    unit column q has the variances q^T form q / d_omega.
    """
    r = schmidt.require_gain()
    sh2 = np.sinh(r) ** 2
    chsh = np.cosh(r) * np.sinh(r)
    dw = schmidt.grid.d_omega
    ta = filter_signal.transmission
    tb = filter_idler.transmission
    pa = schmidt.signal_modes * ta
    pb = schmidt.idler_modes * tb
    sa = 2 * dw**2 * np.real(pa.conj().T @ (sh2[:, None] * pa)) + dw * np.diag(
        np.abs(ta) ** 2 + reflection(filter_signal) ** 2
    )
    sb = 2 * dw**2 * np.real(pb.conj().T @ (sh2[:, None] * pb)) + dw * np.diag(
        np.abs(tb) ** 2 + reflection(filter_idler) ** 2
    )
    se = 2 * dw**2 * np.real(pa.conj().T @ (chsh[:, None] * pb.conj()))
    se = se + se.T
    form_minus = (sa + sb - se) / 2
    form_plus = (sa + sb + se) / 2
    return (form_minus + form_minus.T) / 2, (form_plus + form_plus.T) / 2


def _reference_orthonormal_columns(genes, prefix, rng):
    genes = genes.copy()
    while True:
        resid = genes - (genes @ prefix) @ prefix.T
        norms = np.linalg.norm(resid, axis=1)
        bad = norms < 1e-10 * np.maximum(np.linalg.norm(genes, axis=1), 1e-30)
        if not np.any(bad):
            return resid / norms[:, None], genes
        genes[bad] = rng.standard_normal((int(np.sum(bad)), genes.shape[1]))


def reference_ga(schmidt, filter_signal, filter_idler, k_max, params):
    """The genetic search in its elementwise form, scored with :func:`dense_forms`.

    Each generation draws its parents with ``rng.choice``, crosses them with
    ``np.where``, adds ``mask * rng.normal(...)`` and stacks the elite on top;
    the library's buffered loop must follow the same trajectory.
    """
    from pdcfilter.genetic import OptimizedBasis

    form_minus, form_plus = dense_forms(schmidt, filter_signal, filter_idler)
    dw = schmidt.grid.d_omega

    def fitness(c):
        d2m = np.einsum("ij,ij->i", c @ form_minus, c) / dw
        d2p = np.einsum("ij,ij->i", c @ form_plus, c) / dw
        return -10.0 * np.log10(np.minimum(d2m, d2p))

    n = schmidt.grid.n_points
    rng = np.random.default_rng(params.rng_seed)
    pop = params.population
    n_parents = max(2, int(np.ceil(pop * params.parent_fraction)))
    prefix = np.zeros((n, 0))
    modes, best_dbs, gens_used, converged, log = [], [], [], [], []
    for k_prime in range(1, k_max + 1):
        genes = rng.standard_normal((pop, n))
        best_history = []
        mode_converged = False
        for gen in range(params.max_generations):
            cols, genes = _reference_orthonormal_columns(genes, prefix, rng)
            fit = fitness(cols)
            order = np.argsort(fit)[::-1]
            best = float(fit[order[0]])
            best_history.append(best)
            log.append((k_prime, gen, best, float(np.mean(fit))))
            if (
                len(best_history) > params.convergence_window
                and best - best_history[-1 - params.convergence_window] < params.convergence_tol
            ):
                mode_converged = True
                break
            elite = genes[order[0]].copy()
            pool = order[:n_parents]
            n_children = pop - 1
            p1 = genes[rng.choice(pool, size=n_children)]
            p2 = genes[rng.choice(pool, size=n_children)]
            cut = rng.integers(1, n, size=n_children)
            keep_left = np.arange(n)[None, :] < cut[:, None]
            children = np.where(keep_left, p1, p2)
            mutate = rng.random((n_children, n)) < params.mutation_prob
            children = children + mutate * rng.normal(0.0, params.mutation_sigma, (n_children, n))
            genes = np.vstack([elite[None, :], children])
        cols, genes = _reference_orthonormal_columns(genes, prefix, rng)
        fit = fitness(cols)
        order = np.argsort(fit)[::-1]
        winner_col = cols[order[0]]
        prefix = np.hstack([prefix, winner_col[:, None]])
        modes.append(winner_col / np.sqrt(dw))
        best_dbs.append(float(fit[order[0]]))
        gens_used.append(len(best_history))
        converged.append(mode_converged)
    return OptimizedBasis(
        modes=np.asarray(modes),
        per_mode_squeezing_db=np.asarray(best_dbs),
        generations_used=gens_used,
        converged=converged,
        convergence_log=log,
    )
