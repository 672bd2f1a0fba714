"""Independent oracles the tests check the library against.

Everything here is deliberately written from first principles (closed forms,
recurrences, Wick contractions) rather than through the library's own code
paths, so that agreement is meaningful.
"""

import dataclasses
from dataclasses import dataclass

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


def full_schmidt(jsa):
    """Complete discrete Schmidt family (lambdas, signal, idler) by a dense SVD.

    Modes are rows, normalized under the d_omega quadrature; no phase
    convention is applied (the dense kernels below do not depend on it).
    """
    dw = jsa.grid.d_omega
    u, s, vh = np.linalg.svd(np.asarray(jsa.values) * dw)
    return s, u.T / np.sqrt(dw), vh.conj() / np.sqrt(dw)


def dense_effective_basis(jsa, filter_signal, filter_idler, n_retained=10):
    """Effective basis by the SVD of the whole n x n filter-masked amplitude.

    The route the library took before it decomposed only the passband
    block: all n mode pairs, rows beyond the filter rank an arbitrary
    completion from LAPACK.  Uses the library's phase convention through
    ``quadrature_svd`` so that filters without a zero sample can be
    compared bit for bit.
    """
    from pdcfilter.basis_opt import EffectiveSchmidt
    from pdcfilter.spectral import quadrature_svd

    masked = (
        filter_signal.transmission[:, None]
        * filter_idler.transmission[None, :]
        * jsa.values
    )
    s, signal, idler = quadrature_svd(masked, jsa.grid)
    return EffectiveSchmidt(
        grid=jsa.grid,
        signal_modes=signal,
        idler_modes=idler,
        lambdas=s,
        n_retained=int(n_retained),
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


def dense_projections(proj, kernels: DenseKernels):
    """``proj`` with its u/v rows recomputed by contraction with dense kernels."""
    dw = proj.grid.d_omega
    fa = proj.basis.signal_fns * proj.filter_signal.transmission
    gb = proj.basis.idler_fns * proj.filter_idler.transmission
    return dataclasses.replace(
        proj,
        u_signal=dw * (fa @ kernels.u_signal),
        v_signal=dw * (fa @ kernels.v_signal),
        u_idler=dw * (gb @ kernels.u_idler),
        v_idler=dw * (gb @ kernels.v_idler),
    )


def wick_covariance(proj) -> np.ndarray:
    """Covariance matrix by explicit Wick contraction of ladder coefficients.

    Each measured operator is written as a row of annihilation and creation
    coefficients over the discretized (signal, idler, two vacua) ladder
    operators; quadrature rows follow, and every covariance entry is the
    symmetrized vacuum two-point function.  Shares no code with the library's
    block-formula assembly.
    """
    n = proj.grid.n_points
    dw = proj.grid.d_omega
    n_modes = proj.n_modes
    sq = np.sqrt(dw)

    # column layout of the ladder space: [a, b, v_a, v_b], each of size n
    def op_coeffs(k, arm):
        ann = np.zeros(4 * n, dtype=complex)
        cre = np.zeros(4 * n, dtype=complex)
        if arm == "signal":
            ann[0:n] = proj.u_signal[k] * sq
            cre[n : 2 * n] = proj.v_signal[k] * sq
            ann[2 * n : 3 * n] = proj.r_signal[k] * sq
        else:
            ann[n : 2 * n] = proj.u_idler[k] * sq
            cre[0:n] = proj.v_idler[k] * sq
            ann[3 * n :] = proj.r_idler[k] * sq
        return ann, cre

    ann_rows = []
    cre_rows = []
    for k in range(n_modes):
        for arm in ("signal", "idler"):
            ann, cre = op_coeffs(k, arm)
            # X = (O + O^dag)/sqrt2 ; Y = (O - O^dag)/(i sqrt2)
            ann_rows.append((ann + np.conj(cre)) / np.sqrt(2))
            cre_rows.append((cre + np.conj(ann)) / np.sqrt(2))
            ann_rows.append((ann - np.conj(cre)) / (1j * np.sqrt(2)))
            cre_rows.append((cre - np.conj(ann)) / (1j * np.sqrt(2)))

    # interleaved (X_a, Y_a, X_b, Y_b) per mode matches the library ordering
    order = []
    for k in range(n_modes):
        base = 4 * k
        order += [base, base + 1, base + 2, base + 3]
    ann_m = np.asarray(ann_rows)[order]
    cre_m = np.asarray(cre_rows)[order]

    # <O_i O_j>_vac = sum_m ann_i[m] cre_j[m]; symmetrize
    two_point = ann_m @ cre_m.T
    sigma = (two_point + two_point.T) / 2
    return np.real(sigma)


def objective_squeezing(ctx, phi_columns, k_prime):
    """Squeezing in dB of measured mode ``k_prime`` for a shared basis.

    The slow reference for ``StateContext.fitness``: ``phi_columns`` holds
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
    grid = ctx.schmidt.grid
    mode = cols[:, k_prime - 1] / np.sqrt(grid.d_omega)
    basis = pf.MeasurementBasis.from_shared(mode[None, :], grid)
    proj = pf.filtered_projections(ctx.schmidt, ctx.filter_signal, ctx.filter_idler, basis)
    return pf.mode_squeezing_db(pf.assemble_covariance(proj), 1).squeezing_db
