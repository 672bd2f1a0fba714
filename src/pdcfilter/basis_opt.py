"""Measurement basis adapted to the applied filters.

The effective basis is one call of ``spectral._decompose``, the function
that also gives the Schmidt state: a QR of each thin factor of the kernel
and one SVD of the small core, embedded on the grid.  It comes from the
SVD of the filter-masked amplitude T_a(w_s) T_b(w_i) f(w_s, w_i): its
modes concentrate the surviving squeezing inside the passband and its
singular values lambda'_k, scaled by the gain to r'_k = B lambda'_k, bound
the per-mode squeezing left after filtering (they contract: r'_k <= r_k
whenever |T| <= 1 on both arms).  Neither depends on B, so one
decomposition serves every gain.  The masked amplitude is read from the
amplitude's skeleton factors (Mehler's series for the double Gaussian, or
its certified cross-approximation factors where the series does not hold
the grid), restricted to the transmitting samples and weighted by the
transmissions: no sample is evaluated and no n x n array is formed,
whatever the filter.  At T = 1 on both arms the factors are the skeleton
itself, and the basis is the Schmidt state bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .filters import Filter
from .spectral import GaussianJsa, SchmidtData, _decompose


def svd_effective_basis(
    jsa: GaussianJsa,
    filter_signal: Filter,
    filter_idler: Filter,
    n_retained: int = 10,
) -> SchmidtData:
    """Decompose the filter-masked amplitude into the effective basis.

    The masked amplitude is (ut T_a)^T (v T_b) with ``ut``, ``v`` the
    amplitude's skeleton factors (``jsa.skeleton``, f * d_omega = ut^T v to
    the noise floor: Mehler's K x n tables for the double Gaussian); any
    object with a ``grid`` and a ``skeleton`` will do.  Its factors on S and
    I, the samples where the signal and idler filters transmit, are
    decomposed by ``spectral._decompose`` as
    :func:`~pdcfilter.spectral.schmidt_decompose` decomposes the whole
    skeleton, and the singular vectors are embedded on the grid, so every
    mode with r' > 0 is exactly zero outside its arm's passband.  A global
    positive gain changes no singular vector, so the basis holds for every
    gain B and the squeezing amplitudes are r' = B lambda'.

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
    ta, tb = filter_signal.transmission, filter_idler.transmission
    rows, cols = np.flatnonzero(ta), np.flatnonzero(tb)
    ut, v = jsa.skeleton
    return _decompose(grid, ut[:, rows] * ta[rows], v[:, cols] * tb[cols], n_retained, rows, cols)

