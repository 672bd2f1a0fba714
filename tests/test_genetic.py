import dataclasses
import tracemalloc

import numpy as np
import pytest

import pdcfilter as pf
from pdcfilter.errors import ConfigurationError
from pdcfilter.genetic import _orthonormal_columns

from oracles import dense_forms, dense_values, full_schmidt, objective_squeezing, overlap, reference_ga


@pytest.fixture(scope="module")
def ctx_rect4(reference_100, rect4_100):
    _, schmidt, _ = reference_100
    return pf.make_state_context(schmidt, rect4_100, rect4_100)


@pytest.fixture(scope="module")
def identity_100(reference_100):
    return pf.make_identity_filter(reference_100[1].grid)


@pytest.fixture(scope="module")
def ctx_identity(reference_100, identity_100):
    _, schmidt, _ = reference_100
    return pf.make_state_context(schmidt, identity_100, identity_100)


class TestStateContext:
    @pytest.mark.parametrize("where", ["signal_filter", "idler_filter", "signal_modes", "idler_modes"])
    def test_imaginary_part_rejected(self, where, reference_100, rect4_100):
        # the forms keep only real parts; a complex input must not be dropped silently
        _, schmidt, _ = reference_100
        grid = schmidt.grid
        chirped = pf.Filter(rect4_100.transmission * np.exp(0.7j * grid.points), grid)
        filters = {"signal_filter": rect4_100, "idler_filter": rect4_100}
        if where in filters:
            filters[where] = chirped
        else:
            modes = getattr(schmidt, where)
            schmidt = dataclasses.replace(schmidt, **{where: modes * np.exp(0.3j)})
        with pytest.raises(ConfigurationError, match="imaginary part"):
            pf.make_state_context(schmidt, filters["signal_filter"], filters["idler_filter"])

    def test_round_off_imaginary_part_accepted(self, reference_100, rect4_100):
        _, schmidt, _ = reference_100
        grid = schmidt.grid
        nearly_real = pf.Filter(rect4_100.transmission * (1 + 1e-14j), grid)
        pf.make_state_context(schmidt, nearly_real, nearly_real)
        form_minus, _ = dense_forms(schmidt, nearly_real, nearly_real)
        assert np.all(np.isfinite(form_minus))

    @pytest.mark.parametrize("n", [100, 800])
    def test_holds_only_factors(self, n):
        # both grids keep the 30 reported Schmidt rows, of which only the 23
        # excited enter the context
        grid = pf.build_frequency_grid(n, -10.0, 10.0)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        schmidt = pf.schmidt_decompose(jsa, 30)
        assert schmidt.n_modes == 30
        schmidt = pf.apply_gain(schmidt, pf.gain_for_target_db(schmidt, 6.0))
        rect = pf.make_rect_filter(0.0, 4.0, grid)
        tracemalloc.start()
        try:
            ctx = pf.make_state_context(schmidt, rect, rect)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # building the context costs a few times its factors; one n x n array
        # would exceed that on both routes
        assert peak < 3 * ctx.factors.nbytes
        m = int(np.sum(schmidt.lambdas > 1e-14 * schmidt.lambdas[0]))
        assert m == schmidt.n_excited == 23 < schmidt.n_modes
        assert ctx.factors.shape == (n, 2 * m)
        assert ctx.weight_sq.shape == ctx.weight_cross.shape == (m,)
        arrays = [getattr(ctx, f.name) for f in dataclasses.fields(ctx)]
        assert all(a.size < n * n for a in arrays if isinstance(a, np.ndarray))


def _unit_cols(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def _filters(grid):
    return {
        "identity": pf.make_identity_filter(grid),
        "rect": pf.make_rect_filter(0.5, 4.0, grid),
        "gauss": pf.make_gauss_filter(-0.5, 3.0, grid),
        "flat": pf.make_flat_filter(0.6, grid),
        "blocking": pf.make_blocking_filter(grid),
    }


class TestFactoredFitness:
    @pytest.mark.parametrize("columns", ["schmidt", "random"])
    @pytest.mark.parametrize("target_db", [0.0, 6.0])
    @pytest.mark.parametrize("kind", ["identity", "rect", "gauss", "flat", "blocking"])
    def test_equals_dense_forms(self, kind, target_db, columns, reference_100):
        _, schmidt, _ = reference_100
        grid = schmidt.grid
        gain = pf.gain_for_target_db(schmidt, target_db) if target_db else 0.0
        schmidt = pf.apply_gain(schmidt, gain)
        filt = _filters(grid)[kind]
        ctx = pf.make_state_context(schmidt, filt, filt)
        if columns == "schmidt":
            cols = np.real(schmidt.signal_modes[:12]) * np.sqrt(grid.d_omega)
        else:
            cols = np.random.default_rng(4).standard_normal((12, grid.n_points))
            cols /= np.linalg.norm(cols, axis=1)[:, None]
        form_minus, form_plus = dense_forms(schmidt, filt, filt)
        d2m = np.einsum("ij,jk,ik->i", cols, form_minus, cols) / grid.d_omega
        d2p = np.einsum("ij,jk,ik->i", cols, form_plus, cols) / grid.d_omega
        dense = -10 * np.log10(np.minimum(d2m, d2p))
        assert np.max(np.abs(ctx.fitness(cols) - dense)) < 1e-12


class TestObjective:
    def test_schmidt_mode_recovers_db(self, identity_100, reference_100):
        _, schmidt, _ = reference_100
        col = schmidt.signal_modes[0] * np.sqrt(schmidt.grid.d_omega)
        value = objective_squeezing(schmidt, identity_100, identity_100, np.real(col)[:, None], 1)
        assert value == pytest.approx(pf.squeezing_db(schmidt.r_values[0]), abs=1e-8)

    def test_mode_outside_retained_span_sees_vacuum(self, identity_100, reference_100):
        jsa, schmidt, _ = reference_100
        # orthogonal to every excited mode: only the feeble r-tail remains
        col = full_schmidt(dense_values(jsa), jsa.grid)[1][30] * np.sqrt(jsa.grid.d_omega)
        value = objective_squeezing(schmidt, identity_100, identity_100, np.real(col)[:, None], 1)
        assert abs(value) < 0.01

    def test_svd_mode_matches_pipeline(self, reference_100, rect4_100):
        jsa, schmidt, gain = reference_100
        eff = pf.svd_effective_basis(jsa, rect4_100, rect4_100, n_retained=1)
        col = np.real(eff.signal_modes[0]) * np.sqrt(schmidt.grid.d_omega)
        value = objective_squeezing(schmidt, rect4_100, rect4_100, col[:, None], 1)
        basis = pf.MeasurementBasis.from_shared(eff.signal_modes[:1], schmidt.grid)
        proj = pf.filtered_projections(schmidt, rect4_100, rect4_100, basis)
        entry = pf.squeezing_report(pf.assemble_covariance(proj))[0]
        assert value == pytest.approx(entry.squeezing_db, abs=1e-10)

    def test_fast_fitness_equals_objective(self, ctx_rect4, rect4_100):
        # the quadratic-form fast path must reproduce the full pipeline
        rng = np.random.default_rng(3)
        cols = _unit_cols(rng, ctx_rect4.n_points, 4)
        batch = ctx_rect4.fitness(cols.T)
        for k in range(4):
            direct = objective_squeezing(ctx_rect4.schmidt, rect4_100, rect4_100, cols[:, : k + 1], k + 1)
            assert batch[k] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"filter_kind": "rect"},
            {"filter_kind": "gauss"},
            {"filter_kind": "flat", "filter_amplitude": 0.6},
            {"filter_kind": "identity"},
        ],
        ids=["rect", "gauss", "flat", "identity"],
    )
    def test_ga_scores_the_covariance_it_reports(self, overrides):
        # the GA's fitness of each winning mode is that mode's squeezing in the
        # run's own covariance: both read the one vacuum identity
        config = pf.RunConfig(basis="ga", ga_modes=3, population=16, max_generations=60, **overrides)
        report = pf.run_single(config)
        reported = [entry.squeezing_db for entry in report.squeezing]
        assert np.max(np.abs(report.ga_result.per_mode_squeezing_db - reported)) < 1e-12

    def test_non_orthonormal_rejected(self, ctx_rect4, rect4_100):
        bad = np.ones((ctx_rect4.n_points, 2))
        with pytest.raises(ConfigurationError):
            objective_squeezing(ctx_rect4.schmidt, rect4_100, rect4_100, bad, 1)


@pytest.fixture(scope="module")
def small_params():
    return pf.GaParams(
        population=64,
        convergence_tol=1e-4,
        convergence_window=30,
        max_generations=600,
        rng_seed=11,
    )


class _CountingContext:
    """A state context that counts the population evaluations asked of it."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def fitness(self, columns):
        self.calls += 1
        return self.ctx.fitness(columns)


class TestGaOptimize:
    def test_identity_filter_finds_first_schmidt_mode(
        self, ctx_identity, reference_100, small_params
    ):
        _, schmidt, _ = reference_100
        result = pf.ga_optimize_basis(ctx_identity, 1, small_params)
        target = pf.squeezing_db(schmidt.r_values[0])
        assert result.per_mode_squeezing_db[0] == pytest.approx(target, abs=0.05)
        assert abs(overlap(schmidt.grid, result.modes[0], schmidt.signal_modes[0])) > 0.99

    def test_matches_eigensolver_optimum(self, ctx_rect4, rect4_100, small_params):
        # exact optimum of the mode-1 objective: the smallest eigenvalue of
        # either joint-quadrature form
        result = pf.ga_optimize_basis(ctx_rect4, 1, small_params)
        dw = ctx_rect4.schmidt.grid.d_omega
        form_minus, form_plus = dense_forms(ctx_rect4.schmidt, rect4_100, rect4_100)
        best = min(
            np.linalg.eigvalsh(form_minus)[0],
            np.linalg.eigvalsh(form_plus)[0],
        )
        exact = -10 * np.log10(best / dw)
        assert result.per_mode_squeezing_db[0] == pytest.approx(exact, abs=0.05)
        assert result.per_mode_squeezing_db[0] <= exact + 1e-9

    def test_deterministic_given_seed(self, ctx_rect4):
        params = pf.GaParams(population=32, max_generations=40, convergence_window=50, rng_seed=5)
        a = pf.ga_optimize_basis(ctx_rect4, 2, params)
        b = pf.ga_optimize_basis(ctx_rect4, 2, params)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.per_mode_squeezing_db, b.per_mode_squeezing_db)
        assert a.convergence_log == b.convergence_log

    def test_seed_changes_trajectory(self, ctx_rect4):
        params = pf.GaParams(population=32, max_generations=30, convergence_window=50, rng_seed=5)
        other = pf.GaParams(population=32, max_generations=30, convergence_window=50, rng_seed=6)
        a = pf.ga_optimize_basis(ctx_rect4, 1, params)
        b = pf.ga_optimize_basis(ctx_rect4, 1, other)
        assert not np.array_equal(a.modes, b.modes)

    def test_elitism_best_never_degrades(self, ctx_rect4):
        params = pf.GaParams(population=32, max_generations=80, convergence_window=100, rng_seed=9)
        result = pf.ga_optimize_basis(ctx_rect4, 1, params)
        best = [row[2] for row in result.convergence_log]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_orthonormal_output_and_frozen_prefix(self, ctx_rect4):
        params = pf.GaParams(population=32, max_generations=60, convergence_window=20, rng_seed=2)
        first = pf.ga_optimize_basis(ctx_rect4, 1, params)
        both = pf.ga_optimize_basis(ctx_rect4, 2, params)
        dw = ctx_rect4.schmidt.grid.d_omega
        gram = both.modes @ both.modes.T * dw
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        # the first mode is untouched by optimizing the second column
        assert np.array_equal(first.modes[0], both.modes[0])

    def test_nonconvergence_flagged(self, ctx_rect4):
        params = pf.GaParams(population=32, max_generations=5, convergence_window=50, rng_seed=1)
        result = pf.ga_optimize_basis(ctx_rect4, 1, params)
        assert result.converged == [False]
        assert result.generations_used == [5]

    @pytest.mark.parametrize("max_generations, converged", [(600, True), (5, False)])
    def test_population_evaluations_per_mode(self, ctx_rect4, max_generations, converged):
        # a converged mode takes its winner from the generation that met the
        # criterion; only a mode that ran out of generations scores its last
        # children once more
        counted = _CountingContext(ctx_rect4)
        params = pf.GaParams(
            population=32,
            max_generations=max_generations,
            convergence_tol=1e-2,
            convergence_window=20,
            rng_seed=2,
        )
        result = pf.ga_optimize_basis(counted, 2, params)
        assert result.converged == [converged] * 2
        assert counted.calls == sum(result.generations_used) + (0 if converged else 2)


def _assert_same_search(result, reference):
    assert result.generations_used == reference.generations_used
    assert result.converged == reference.converged
    log = np.array([row[2:] for row in result.convergence_log])
    ref_log = np.array([row[2:] for row in reference.convergence_log])
    assert [row[:2] for row in result.convergence_log] == [row[:2] for row in reference.convergence_log]
    assert np.max(np.abs(log - ref_log)) < 1e-12
    assert np.max(np.abs(result.modes - reference.modes)) < 1e-12
    assert np.max(np.abs(result.per_mode_squeezing_db - reference.per_mode_squeezing_db)) < 1e-12


class TestReferenceTrajectory:
    """The buffered, factored search follows the elementwise dense one draw for draw."""

    @pytest.mark.parametrize("kind", ["rect", "gauss", "identity"])
    def test_two_modes_small_population(self, kind, reference_100):
        _, schmidt, _ = reference_100
        filt = {
            "rect": pf.make_rect_filter(0.0, 4.0, schmidt.grid),
            "gauss": pf.make_gauss_filter(0.0, 4.0, schmidt.grid),
            "identity": pf.make_identity_filter(schmidt.grid),
        }[kind]
        ctx = pf.make_state_context(schmidt, filt, filt)
        params = pf.GaParams(population=32, convergence_window=30, max_generations=400, rng_seed=17)
        _assert_same_search(pf.ga_optimize_basis(ctx, 2, params), reference_ga(schmidt, filt, filt, 2, params))

    def test_one_mode_default_population(self, ctx_rect4, rect4_100):
        params = pf.GaParams(rng_seed=3)
        reference = reference_ga(ctx_rect4.schmidt, rect4_100, rect4_100, 1, params)
        _assert_same_search(pf.ga_optimize_basis(ctx_rect4, 1, params), reference)


class TestOrthonormalColumns:
    @staticmethod
    def _clone(rng):
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        return twin

    @pytest.mark.parametrize("case", ["inside_prefix_span", "zero_row_empty_prefix"])
    def test_degenerate_row_redrawn_from_stream(self, case):
        n, bad_row = 12, 3
        rng = np.random.default_rng(8)
        genes = rng.standard_normal((6, n))
        if case == "inside_prefix_span":
            prefix, _ = np.linalg.qr(rng.standard_normal((n, 2)))
            genes[bad_row] = prefix @ np.array([0.3, -0.7])
        else:
            prefix = np.zeros((n, 0))
            genes[bad_row] = 0.0
        before = genes.copy()
        twin = self._clone(rng)
        cols, out = _orthonormal_columns(genes, prefix, rng, np.empty_like(genes))
        assert np.array_equal(out[bad_row], twin.standard_normal((1, n))[0])
        assert rng.bit_generator.state == twin.bit_generator.state
        others = np.arange(len(genes)) != bad_row
        assert np.array_equal(out[others], before[others])
        assert np.array_equal(genes, before)
        assert np.max(np.abs(np.linalg.norm(cols, axis=1) - 1)) < 1e-12
        assert np.max(np.abs(cols @ prefix), initial=0.0) < 1e-12

    def test_clean_genes_not_copied(self):
        rng = np.random.default_rng(8)
        genes = rng.standard_normal((6, 12))
        twin = self._clone(rng)
        _, out = _orthonormal_columns(genes, np.zeros((12, 0)), rng, np.empty_like(genes))
        assert out is genes
        assert rng.bit_generator.state == twin.bit_generator.state


class TestGaParams:
    def test_reference_defaults(self):
        params = pf.GaParams()
        assert params.population == 256
        assert params.mutation_prob == 0.02
        assert params.mutation_sigma == 0.1
        assert params.convergence_tol == 1e-4
        assert params.convergence_window == 50
        assert params.max_generations == 10_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population": 3},
            {"population": 33},
            {"mutation_prob": 1.5},
            {"mutation_sigma": -1.0},
            {"convergence_tol": 0.0},
            {"parent_fraction": 0.0},
            {"max_generations": 0},
            {"rng_seed": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            pf.GaParams(**kwargs)
