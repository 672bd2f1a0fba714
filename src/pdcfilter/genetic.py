"""Genetic search for the measurement basis that maximizes per-mode squeezing.

One common orthonormal mode set is optimized for signal and idler (the
reference scenario is symmetric up to idler sign flips, which the objective
absorbs by scoring the better joint-quadrature combination).  Candidates are
raw real gene vectors; orthonormality is enforced through the QR
factorization, so the genes of column k' parameterize the mode Phi_k' while
columns 1..k'-1 stay frozen.  Modes are built successively: the first column
is evolved until the squeezing of mode 1 converges, then frozen, then the
second column, and so on.

Each generation evaluates all individuals, carries the best one over
unchanged, and fills the rest of the population with one-point-crossover
children of parents drawn from the fittest ``parent_fraction`` of the
population, mutating each gene with probability ``mutation_prob`` by an
additive Gaussian step.  The run is deterministic for a fixed seed; fitness
evaluation consumes no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .filters import Filter, filtered_schmidt_rows
from .spectral import SchmidtData

# largest imaginary part of a mode or transmission sample the real forms accept
_IMAG_TOL = 1e-12
# multiply-adds per block of the fitness product: OpenBLAS runs a product
# this small on the calling thread, and waking its pool for the whole
# population costs more than the product (380 vs 70 us per generation at
# n = 100 on 2 vCPUs)
_BLOCK_MULADDS = 2**18
# population x n float arrays alive at once while a generation is scored and
# bred, at most: five buffers (genes, next genes, columns, second parents,
# uniform draws), two boolean masks, and three for the fitness product when
# every Schmidt row is above the noise floor
_LIVE_ARRAYS = 9
# the largest working set the genetic search may ask for, in bytes (2 GiB); the
# schmidt and svd bases form no n x n array
GA_MEMORY_LIMIT = 2**31


@dataclass(frozen=True)
class GaParams:
    """Search parameters; defaults follow the reference configuration."""

    population: int = 256
    mutation_prob: float = 0.02
    mutation_sigma: float = 0.1
    convergence_tol: float = 1e-4
    convergence_window: int = 50
    max_generations: int = 10_000
    parent_fraction: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise ConfigurationError("population must be even and >= 4")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigurationError("mutation_prob must lie in [0, 1]")
        if self.mutation_sigma < 0:
            raise ConfigurationError(f"mutation_sigma must be >= 0, got {self.mutation_sigma}")
        if self.convergence_tol <= 0:
            raise ConfigurationError("convergence_tol must be > 0")
        if self.convergence_window < 1 or self.max_generations < 1:
            raise ConfigurationError("window and max_generations must be >= 1")
        if not 0.0 < self.parent_fraction <= 1.0:
            raise ConfigurationError("parent_fraction must lie in (0, 1]")
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {self.rng_seed}")


def ga_working_set_bytes(population: int, n_points: int) -> int:
    """Estimated bytes of the population-sized arrays the genetic search keeps alive."""
    return population * n_points * 8 * _LIVE_ARRAYS


@dataclass(frozen=True)
class OptimizedBasis:
    """Successively optimized orthonormal modes (grid functions, one per row)."""

    modes: np.ndarray
    per_mode_squeezing_db: np.ndarray
    generations_used: list[int]
    converged: list[bool]
    convergence_log: list[tuple[int, int, float, float]]  # (mode, generation, best, mean)


@dataclass(frozen=True)
class StateContext:
    """Factored filtered-squeezer data the objective is evaluated against.

    For a unit column c of a shared measurement mode (grid function
    c / sqrt(d_omega)) the two joint-quadrature variances are base -/+ cross,

        [a | b] = c F,   base = (a^2 + b^2) w_sq + 1,
        cross = 2 (a b) w_cross,

    with ``factors`` F = [P_a^T | P_b^T] (n x 2m) the filtered Schmidt rows
    of :func:`~pdcfilter.filters.filtered_schmidt_rows` for the m amplitudes
    above the noise floor, ``weight_sq`` = d_omega sinh^2 r and
    ``weight_cross`` = d_omega cosh r sinh r.  This is the diagonal of the
    covariance formula of :mod:`pdcfilter.covariance` for that column: the
    overlaps are c_a = sqrt(d_omega) a and c_b = sqrt(d_omega) b, and the 1
    is the vacuum Gram, sum_i c_i^2 (|T_a|^2 + R_a^2 + |T_b|^2 + R_b^2)_i / 2
    = |c|^2 = 1 because R = sqrt(1 - |T|^2).  A generation is scored by one
    n x 2m product and no n x n form exists.
    """

    schmidt: SchmidtData = field(repr=False)
    filter_signal: Filter = field(repr=False)
    filter_idler: Filter = field(repr=False)
    factors: np.ndarray = field(repr=False)
    weight_sq: np.ndarray = field(repr=False)
    weight_cross: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.schmidt.grid.n_points

    def fitness(self, columns: np.ndarray) -> np.ndarray:
        """Squeezing in dB for each row of unit-norm mode columns."""
        c = np.atleast_2d(columns)
        n, m2 = self.factors.shape
        ab = np.empty((len(c), m2))
        rows = max(1, _BLOCK_MULADDS // (n * m2))
        for i in range(0, len(c), rows):
            np.matmul(c[i : i + rows], self.factors, out=ab[i : i + rows])
        a, b = ab[:, : m2 // 2], ab[:, m2 // 2 :]
        w = self.weight_sq
        base = np.square(a) @ w + np.square(b) @ w + 1.0
        cross = 2 * (a * b) @ self.weight_cross
        return -10.0 * np.log10(np.minimum(base - cross, base + cross))


def make_state_context(
    schmidt: SchmidtData,
    filter_signal: Filter,
    filter_idler: Filter,
) -> StateContext:
    """Factored joint-quadrature forms of the filtered squeezer for a shared mode.

    The factors are the real filtered Schmidt rows P_a = Psi T_a and
    P_b = Phi T_b that the covariance overlaps are built from (see
    :class:`StateContext`), over the ``schmidt.n_excited`` rows above the
    noise floor, since the rest have r = 0 to round-off.

    The real parts are exact only for real Schmidt modes and real
    transmissions; an imaginary part above 1e-12 in any of them raises
    ``ConfigurationError`` instead of being dropped.
    """
    pa, pb = filtered_schmidt_rows(schmidt, filter_signal, filter_idler)
    m = schmidt.n_excited
    for name, values in (
        ("signal Schmidt modes", schmidt.signal_modes[:m]),
        ("idler Schmidt modes", schmidt.idler_modes[:m]),
        ("signal transmission", filter_signal.transmission),
        ("idler transmission", filter_idler.transmission),
    ):
        imag = float(np.max(np.abs(values.imag))) if np.iscomplexobj(values) else 0.0
        if imag > _IMAG_TOL:
            raise ConfigurationError(
                f"imaginary part {imag:.3e} in the {name}: the genetic search "
                "needs real modes and transmissions"
            )
    r = schmidt.require_gain()[:m]
    dw = schmidt.grid.d_omega
    return StateContext(
        schmidt=schmidt,
        filter_signal=filter_signal,
        filter_idler=filter_idler,
        factors=np.hstack([np.real(pa[:m]).T, np.real(pb[:m]).T]),
        weight_sq=dw * np.sinh(r) ** 2,
        weight_cross=dw * np.cosh(r) * np.sinh(r),
    )


def ga_optimize_basis(ctx: StateContext, k_max: int, params: GaParams) -> OptimizedBasis:
    """Evolve ``k_max`` measurement modes, one column at a time.

    Per mode the population is freshly seeded with standard-normal genes,
    candidates are orthonormalized against the frozen prefix, and evolution
    stops once the best fitness improves by less than ``convergence_tol``
    over ``convergence_window`` generations (or at ``max_generations``, in
    which case the mode is flagged as not converged).  A converged mode's
    winner is the best of the generation that met the criterion; a mode that
    ran out of generations scores its last children once more to pick it.

    Children are bred into preallocated buffers.  The draws per generation
    are, in order, two parent index vectors, the cut points, the uniform
    mutation draws and the standard-normal steps; ``rng.choice(pool, k)``
    and ``rng.normal(0, s, shape)`` draw exactly ``pool[rng.integers(0,
    len(pool), k)]`` and ``s * rng.standard_normal(shape)``, and adding a
    step only where the mutation mask holds equals adding the masked step,
    so the trajectory of a seed is that of the elementwise formulation.
    """
    n = ctx.n_points
    if not 1 <= k_max <= n:
        raise ConfigurationError(f"k_max must lie in [1, {n}], got {k_max}")
    rng = np.random.default_rng(params.rng_seed)
    pop = params.population
    n_parents = max(2, int(np.ceil(pop * params.parent_fraction)))
    n_children = pop - 1

    # row c marks the genes j >= c a child cut at c takes from its second
    # parent: windows of one step edge, so the table costs 2n bytes
    from_donor_at = sliding_window_view(np.arange(2 * n) >= n, n)[::-1]
    # population-sized buffers, reused by every generation of every mode
    genes = np.empty((pop, n))
    spare = np.empty((pop, n))
    cols = np.empty((pop, n))
    donor = np.empty((n_children, n))
    uniform = np.empty((n_children, n))
    from_donor = np.empty((n_children, n), dtype=bool)
    mutate = np.empty((n_children, n), dtype=bool)

    prefix = np.zeros((n, 0))
    modes = []
    best_dbs = []
    gens_used = []
    converged = []
    log: list[tuple[int, int, float, float]] = []

    for k_prime in range(1, k_max + 1):
        rng.standard_normal(out=genes)
        best_history: list[float] = []
        mode_converged = False
        for gen in range(params.max_generations):
            cols, genes = _orthonormal_columns(genes, prefix, rng, out=cols)
            fit = ctx.fitness(cols)
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
            pool = order[:n_parents]
            spare[0] = genes[order[0]]
            children = spare[1:]
            # mode="clip" lets np.take write into ``out`` unbuffered; every index is valid
            np.take(genes, pool[rng.integers(0, n_parents, n_children)], axis=0, out=children, mode="clip")
            np.take(genes, pool[rng.integers(0, n_parents, n_children)], axis=0, out=donor, mode="clip")
            cut = rng.integers(1, n, size=n_children)
            np.take(from_donor_at, cut, axis=0, out=from_donor, mode="clip")
            np.copyto(children, donor, where=from_donor)
            np.less(rng.random(out=uniform), params.mutation_prob, out=mutate)
            step = rng.standard_normal(out=donor)
            step *= params.mutation_sigma
            np.add(children, step, out=children, where=mutate)
            genes, spare = spare, genes

        if not mode_converged:
            # the last generation bred children that no loop pass scored
            cols, genes = _orthonormal_columns(genes, prefix, rng, out=cols)
            fit = ctx.fitness(cols)
            order = np.argsort(fit)[::-1]
        winner_col = cols[order[0]]
        prefix = np.hstack([prefix, winner_col[:, None]])
        modes.append(winner_col / np.sqrt(ctx.schmidt.grid.d_omega))
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _orthonormal_columns(
    genes: np.ndarray, prefix: np.ndarray, rng: np.random.Generator, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize each gene row against the frozen prefix columns.

    Equivalent to the last column of the QR factorization of
    [prefix | gene]; rows whose residual is numerically degenerate are
    resampled (deterministically, from the shared stream) in a copy of
    ``genes``, which is returned with the columns.  The columns are written
    to ``out``, an array of the shape of ``genes``.
    """
    while True:
        scale = _row_norms(genes)
        if prefix.shape[1]:
            resid = np.matmul(genes @ prefix, prefix.T, out=out)
            np.subtract(genes, resid, out=resid)
            norms = _row_norms(resid)
        else:
            resid, norms = genes, scale
        bad = norms < 1e-10 * np.maximum(scale, 1e-30)
        if not np.any(bad):
            return np.divide(resid, norms[:, None], out=out), genes
        genes = genes.copy()
        genes[bad] = rng.standard_normal((int(np.sum(bad)), genes.shape[1]))

