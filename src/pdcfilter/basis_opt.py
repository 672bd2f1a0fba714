"""Measurement bases adapted to the applied filters.

Two decompositions live here, both on the thin-factor SVD core of
``spectral``: a QR of each k x n factor and one SVD of the small core.  The
effective Schmidt basis comes from the SVD of the filter-masked amplitude
T_a(w_s) T_b(w_i) f(w_s, w_i): its modes concentrate the surviving
squeezing inside the passband and its singular values lambda'_k, scaled by
the gain to r'_k = B lambda'_k, bound the per-mode squeezing left after
filtering (they contract: r'_k <= r_k whenever |T| <= 1 on both arms).
Neither depends on B, so one decomposition serves every gain.  The masked
amplitude is read from the amplitude's certified cross-approximation
factors, restricted to the transmitting samples and weighted by the
transmissions: no sample is evaluated and no n x n array is formed,
whatever the filter.

The second decomposition targets the special case of identical real
signal/idler modes, one common filter, and uniform gain: the SVD of the
filtered projector kernel T(w) sum_k psi_k(w) psi_k(w') yields per-mode
transmissions kappa_k and mode pairs in which that filter acts as ordinary
beam-splitter loss of transmissivity kappa_k^2, decoupling all modes.  It is
exact only under those preconditions, which are checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .filters import Filter
from .spectral import (
    FrequencyGrid,
    GaussianJsa,
    JsaMatrix,
    SchmidtData,
    _factored_svd,
    _kept_pairs,
    _pad_rows,
    _schmidt_from_svd,
)


def _embed(vectors: np.ndarray, support: np.ndarray, n: int, k: int) -> np.ndarray:
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


def svd_effective_basis(
    jsa: GaussianJsa | JsaMatrix,
    filter_signal: Filter,
    filter_idler: Filter,
    n_retained: int = 10,
) -> SchmidtData:
    """Decompose the filter-masked amplitude into the effective basis.

    The masked amplitude is (ut T_a)^T (v T_b) with ``ut``, ``v`` the
    amplitude's certified factors (``jsa.skeleton``, f * d_omega = ut^T v to
    the noise floor).  Its factors on S and I, the samples where the signal
    and idler filters transmit, are zero-padded to ``n_retained`` rows as
    :func:`~pdcfilter.spectral.schmidt_decompose` pads them and decomposed by
    one QR each and one SVD of the small core; the singular vectors are
    embedded back onto the grid, so every mode with r' > 0 is exactly zero
    outside its arm's passband.  A global positive gain changes no singular
    vector, so the basis holds for every gain B and the squeezing amplitudes
    are r' = B lambda'.

    The result is a ``SchmidtData`` of the masked amplitude: ``lambdas`` are
    the filtered amplitudes lambda', ``tail_weight`` is sum_{k > n_retained}
    lambda'_k^2, and no gain is applied.  Only its kept pairs (the reported
    and the excited, as for every ``SchmidtData``) are embedded on the grid.
    Past min(|S|, |I|) triples, when n_retained is larger, the pairs have
    lambda' = 0, and each arm fills them first with its unused singular
    vectors on its support, then with unit vectors 1/sqrt(d_omega) at its
    off-support samples in grid order.
    """
    grid = jsa.grid
    if filter_signal.grid != grid or filter_idler.grid != grid:
        raise ConfigurationError("filter grids do not match the amplitude grid")
    n = grid.n_points
    if not 1 <= n_retained <= n:
        raise ConfigurationError(f"n_retained must lie in [1, {n}]")
    ta, tb = filter_signal.transmission, filter_idler.transmission
    rows, cols = np.flatnonzero(ta), np.flatnonzero(tb)
    ut, v = jsa.skeleton
    left, right = _pad_rows(ut[:, rows] * ta[rows], n_retained), _pad_rows(v[:, cols] * tb[cols], n_retained)
    u, s, vh = _factored_svd(left, right)
    k = _kept_pairs(s, n_retained)
    s = np.concatenate([s, np.zeros(max(0, k - len(s)))])
    return _schmidt_from_svd(grid, _embed(u, rows, n, k), s, _embed(vh.T, cols, n, k).T, n_retained)


@dataclass(frozen=True)
class FilteredProjectorModes:
    """Per-mode transmissions and mode pairs of the uniform-gain special case.

    ``out_modes`` are the detection modes after the filter, ``in_modes`` the
    matching combinations of the original modes; ``transmissions`` are the
    amplitude transmissions kappa_k in [0, 1].
    """

    grid: FrequencyGrid
    transmissions: np.ndarray
    out_modes: np.ndarray
    in_modes: np.ndarray


def filtered_projector_decomposition(
    schmidt: SchmidtData, filt: Filter, mode_tol: float = 1e-10
) -> FilteredProjectorModes:
    """SVD of the filtered projector onto the retained (identical, real) modes.

    The kernel T(w) sum_k psi_k(w) psi_k(w') has rank m = n_retained and is
    decomposed from its m x n factors T psi and psi, never formed.
    Preconditions of the special case are enforced: the retained signal and
    idler mode functions must be real and identical to within ``mode_tol``.
    The filter has |T| <= 1 by construction.  Transmissions are descending
    and lie in [0, 1] up to round-off.
    """
    if filt.grid != schmidt.grid:
        raise ConfigurationError("filter grid does not match the decomposition grid")
    m = schmidt.n_retained
    psi = schmidt.signal_modes[:m]
    phi = schmidt.idler_modes[:m]
    if np.max(np.abs(np.imag(psi))) > mode_tol or np.max(np.abs(np.imag(phi))) > mode_tol:
        raise ConfigurationError("retained modes must be real for the uniform-loss decomposition")
    if np.max(np.abs(psi - phi)) > mode_tol:
        raise ConfigurationError(
            "retained signal and idler modes must be identical for the uniform-loss decomposition"
        )
    rows = np.sqrt(schmidt.grid.d_omega) * np.real(psi)
    dec = _schmidt_from_svd(schmidt.grid, *_factored_svd(rows * filt.transmission, rows), m)
    return FilteredProjectorModes(
        grid=schmidt.grid,
        transmissions=dec.lambdas,
        out_modes=dec.signal_modes,
        in_modes=dec.idler_modes,
    )

