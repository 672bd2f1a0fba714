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

from .errors import ConfigurationError
from .filters import Filter
from .spectral import SchmidtData

# largest imaginary part of a mode or transmission sample the real forms accept
_IMAG_TOL = 1e-12


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


@dataclass(frozen=True)
class OptimizedBasis:
    """Successively optimized orthonormal modes (grid functions, one per row)."""

    modes: np.ndarray
    per_mode_squeezing_db: np.ndarray
    generations_used: list[int]
    converged: list[bool]
    convergence_log: list[tuple[int, int, float, float]]  # (mode, generation, best, mean)
    rng_seed: int


@dataclass(frozen=True)
class StateContext:
    """Precomputed filtered-squeezer data the objective is evaluated against.

    ``form_minus`` / ``form_plus`` are the real quadratic forms giving the
    two joint-quadrature variances of a shared measurement mode: for a unit
    vector q (grid function q / sqrt(d_omega)) the variances are
    q^T form q / d_omega.  They reproduce the full projection/covariance
    pipeline exactly and exist so that generations can be scored as two
    matrix products.
    """

    schmidt: SchmidtData = field(repr=False)
    filter_signal: Filter = field(repr=False)
    filter_idler: Filter = field(repr=False)
    form_minus: np.ndarray = field(repr=False)
    form_plus: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.schmidt.grid.n_points

    def fitness(self, columns: np.ndarray) -> np.ndarray:
        """Squeezing in dB for each row of unit-norm mode columns."""
        c = np.atleast_2d(columns)
        dw = self.schmidt.grid.d_omega
        d2m = np.einsum("ij,ij->i", c @ self.form_minus, c) / dw
        d2p = np.einsum("ij,ij->i", c @ self.form_plus, c) / dw
        return -10.0 * np.log10(np.minimum(d2m, d2p))


def make_state_context(
    schmidt: SchmidtData,
    filter_signal: Filter,
    filter_idler: Filter,
) -> StateContext:
    """Joint-quadrature forms of the filtered squeezer for a shared mode.

    With P_a = Psi conj(T_a) and P_b = Phi conj(T_b) (the filtered Schmidt
    factors), the orthonormality of the mode rows reduces the kernel
    products to

        S_a = d_omega diag(|T_a|^2 + R_a^2) + 2 d_omega^2 Re(P_a^H sinh^2 r P_a)
        E   = 2 d_omega^2 Re(P_a^H (cosh r sinh r) conj(P_b))

    (S_b mirrors S_a), and form_-/+ = (S_a + S_b -/+ (E + E^T)) / 2.

    The real parts are exact only for real Schmidt modes and real
    transmissions; an imaginary part above 1e-12 in any of them raises
    ``ConfigurationError`` instead of being dropped.
    """
    grid = schmidt.grid
    if filter_signal.grid != grid or filter_idler.grid != grid:
        raise ConfigurationError("filter grids do not match the decomposition grid")
    for name, values in (
        ("signal Schmidt modes", schmidt.signal_modes),
        ("idler Schmidt modes", schmidt.idler_modes),
        ("signal transmission", filter_signal.transmission),
        ("idler transmission", filter_idler.transmission),
    ):
        imag = float(np.max(np.abs(np.imag(values))))
        if imag > _IMAG_TOL:
            raise ConfigurationError(
                f"imaginary part {imag:.3e} in the {name}: the genetic search "
                "needs real modes and transmissions"
            )
    r = schmidt.require_gain()
    sh2 = np.sinh(r) ** 2
    chsh = np.cosh(r) * np.sinh(r)
    dw = grid.d_omega
    ta = filter_signal.transmission
    tb = filter_idler.transmission
    pa = schmidt.signal_modes * ta.conj()
    pb = schmidt.idler_modes * tb.conj()
    sa = 2 * dw**2 * np.real(pa.conj().T @ (sh2[:, None] * pa)) + dw * np.diag(
        np.abs(ta) ** 2 + filter_signal.reflection**2
    )
    sb = 2 * dw**2 * np.real(pb.conj().T @ (sh2[:, None] * pb)) + dw * np.diag(
        np.abs(tb) ** 2 + filter_idler.reflection**2
    )
    se = 2 * dw**2 * np.real(pa.conj().T @ (chsh[:, None] * pb.conj()))
    se = se + se.T
    form_minus = (sa + sb - se) / 2
    form_plus = (sa + sb + se) / 2
    form_minus = (form_minus + form_minus.T) / 2
    form_plus = (form_plus + form_plus.T) / 2
    return StateContext(
        schmidt=schmidt,
        filter_signal=filter_signal,
        filter_idler=filter_idler,
        form_minus=form_minus,
        form_plus=form_plus,
    )


def ga_optimize_basis(ctx: StateContext, k_max: int, params: GaParams) -> OptimizedBasis:
    """Evolve ``k_max`` measurement modes, one column at a time.

    Per mode the population is freshly seeded with standard-normal genes,
    candidates are orthonormalized against the frozen prefix, and evolution
    stops once the best fitness improves by less than ``convergence_tol``
    over ``convergence_window`` generations (or at ``max_generations``, in
    which case the mode is flagged as not converged).
    """
    n = ctx.n_points
    if not 1 <= k_max <= n:
        raise ConfigurationError(f"k_max must lie in [1, {n}], got {k_max}")
    rng = np.random.default_rng(params.rng_seed)
    pop = params.population
    n_parents = max(2, int(np.ceil(pop * params.parent_fraction)))

    prefix = np.zeros((n, 0))
    modes = []
    best_dbs = []
    gens_used = []
    converged = []
    log: list[tuple[int, int, float, float]] = []

    for k_prime in range(1, k_max + 1):
        genes = rng.standard_normal((pop, n))
        best_history: list[float] = []
        mode_converged = False
        order = None
        for gen in range(params.max_generations):
            cols, genes = _orthonormal_columns(genes, prefix, rng)
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

        cols, genes = _orthonormal_columns(genes, prefix, rng)
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
        rng_seed=params.rng_seed,
    )


def _orthonormal_columns(
    genes: np.ndarray, prefix: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize each gene row against the frozen prefix columns.

    Equivalent to the last column of the QR factorization of
    [prefix | gene]; rows whose residual is numerically degenerate are
    resampled (deterministically, from the shared stream).
    """
    genes = genes.copy()
    while True:
        resid = genes - (genes @ prefix) @ prefix.T
        norms = np.linalg.norm(resid, axis=1)
        bad = norms < 1e-10 * np.maximum(np.linalg.norm(genes, axis=1), 1e-30)
        if not np.any(bad):
            return resid / norms[:, None], genes
        genes[bad] = rng.standard_normal((int(np.sum(bad)), genes.shape[1]))


def write_convergence_csv(log: list[tuple[int, int, float, float]], path) -> None:
    """Per-generation log as CSV rows (mode, generation, best_db, mean_db)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "generation", "best_db", "mean_db"])
        for mode, gen, best, mean in log:
            writer.writerow([mode, gen, format(best, ".17g"), format(mean, ".17g")])
