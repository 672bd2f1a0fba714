import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import pdcfilter as pf
from pdcfilter.errors import ConfigurationError, NumericsError, PhysicalityError

from pdcfilter.metrics import purity_routes

from oracles import (
    chirped_jsa,
    complete_kernels,
    drawn_gaussian_state,
    eigvals_williamson,
    lossy_epr_block,
    wick_covariance,
)


class TestAnalyticBlock:
    """The ideal two-mode squeezed block: the oracle's lossless case, eta = 1."""

    def test_vacuum(self):
        assert np.array_equal(lossy_epr_block(1.0, 0.0), 0.5 * np.eye(4))

    def test_three_db_values(self):
        # frozen from cosh/sinh of 2r at r = 0.3454
        block = lossy_epr_block(1.0, 0.3454)
        assert block[0, 0] == pytest.approx(0.624121528125291, abs=1e-14)
        assert block[0, 2] == pytest.approx(0.3735340437891149, abs=1e-14)

    def test_sign_pattern(self):
        block = lossy_epr_block(1.0, 0.8)
        assert block[0, 2] > 0  # X-X correlated
        assert block[1, 3] < 0  # Y-Y anticorrelated

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_pure_for_any_r(self, r):
        nu = pf.CovarianceMatrix.of(lossy_epr_block(1.0, r)).symplectic_eigenvalues
        assert np.max(np.abs(nu - 0.5)) < 1e-9


class TestSymplectics:
    def test_vacuum_eigenvalues(self):
        nu = pf.CovarianceMatrix.of(0.5 * np.eye(12)).symplectic_eigenvalues
        assert nu.shape == (6,)
        assert np.allclose(nu, 0.5)

    def test_unphysical_diagnosed(self):
        passed, lowest = pf.check_physicality(0.4 * np.eye(4))
        assert not passed
        assert lowest == pytest.approx(0.4, abs=1e-12)

    def test_vacuum_passes(self):
        assert pf.check_physicality(0.5 * np.eye(8))[0]

    def test_epr_block_passes(self):
        assert pf.check_physicality(lossy_epr_block(1.0, 1.0))[0]

    def test_nonsymmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 0.3
        with pytest.raises(ConfigurationError):
            pf.CovarianceMatrix.of(bad).symplectic_eigenvalues

    def test_non_finite_raises_numerics_error(self):
        # the Cholesky factor would carry NaN or inf silently, so construction refuses them
        with pytest.raises(NumericsError):
            pf.CovarianceMatrix.of(np.full((4, 4), np.nan)).symplectic_eigenvalues
        for bad in (np.nan, np.inf, -np.inf):
            sigma = 0.5 * np.eye(4)
            sigma[1, 1] = bad
            for check in (lambda s: pf.CovarianceMatrix.of(s).symplectic_eigenvalues, pf.check_physicality, pf.purity):
                with pytest.raises(NumericsError, match="non-finite"):
                    check(sigma)

    def test_symplectic_form_structure(self):
        omega = pf.symplectic_form(2)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega @ omega, -np.eye(4))


class TestWilliamsonRoute:
    """The Cholesky route of the spectrum against the Omega sigma eigenvalues of the oracle."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_modes=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_drawn_physical_states(self, seed, n_modes):
        # thermal nu_j in [1/2, 5] under a random symplectic with r <= 1.5, two
        # bosons per measured mode: both routes read the drawn spectrum to
        # round-off of the largest nu
        sigma, nu = drawn_gaussian_state(np.random.default_rng(seed), 2 * n_modes)
        got = pf.CovarianceMatrix.of(sigma).symplectic_eigenvalues
        assert np.max(np.abs(got - eigvals_williamson(sigma))) < 1e-12 * nu[0]
        assert np.max(np.abs(got - nu)) < 1e-12 * nu[0]

    @pytest.mark.parametrize("kind", ["rect", "gauss", "identity", "flat"])
    @pytest.mark.parametrize("basis", ["schmidt", "svd", "ga"])
    def test_pipeline_covariances(self, basis, kind):
        config = pf.RunConfig(
            basis=basis,
            filter_kind=kind,
            filter_amplitude=0.6 if kind == "flat" else 1.0,
            ga_modes=3,
            population=16,
            max_generations=40,
        )
        cov = pf.run_single(config).covariance
        assert np.max(np.abs(cov.symplectic_eigenvalues - eigvals_williamson(cov.sigma))) < 1e-13

    @pytest.mark.parametrize("n_modes", [1, 3, 10])
    def test_vacuum_is_exact(self, n_modes):
        # 2 sigma = I: the factor, the antisymmetric form and its Gram are exact
        sigma = 0.5 * np.eye(4 * n_modes)
        assert np.all(pf.CovarianceMatrix.of(sigma).symplectic_eigenvalues == 0.5)
        assert pf.check_physicality(sigma, tol=0.0) == (True, 0.5)
        assert purity_routes(sigma) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "sigma",
        [np.diag([1.0, 1.0, -1.0, -1.0]), np.diag([1.0, 1.0, 1.0, -1.0]), np.kron(np.eye(2), [[0.5, 1.0], [1.0, 0.5]])],
        ids=["positive_det", "negative_det", "off_diagonal"],
    )
    def test_indefinite_is_unphysical(self, sigma):
        # no state has a covariance that is not positive definite, whatever its determinant
        assert pf.check_physicality(sigma) == (False, 0.0)
        with pytest.raises(PhysicalityError) as info:
            pf.purity(sigma)
        assert info.value.min_symplectic_eigenvalue == 0.0


class TestAssembleCovariance:
    def test_unfiltered_blocks_match_analytic(self, reference_200):
        _, schmidt, _ = reference_200
        ident = pf.make_identity_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        proj = pf.filtered_projections(schmidt, ident, ident, basis)
        cov = pf.assemble_covariance(proj)
        for k in range(1, 6):
            expected = lossy_epr_block(1.0, schmidt.r_values[k - 1])
            assert np.max(np.abs(cov.block(k) - expected)) < 1e-9
            for l in range(1, 6):
                if l != k:
                    assert np.max(np.abs(cov.block(k, l))) < 1e-9

    def test_blocking_gives_vacuum(self, reference_200):
        _, schmidt, _ = reference_200
        block = pf.make_blocking_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        proj = pf.filtered_projections(schmidt, block, block, basis)
        cov = pf.assemble_covariance(proj)
        # the vacuum term is the identity, so the blocked state is exact: no round-off, no -0.0
        assert np.array_equal(cov.sigma, 0.5 * np.eye(20))
        assert not np.any(np.signbit(cov.sigma))

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.9])
    def test_flat_loss_equals_beam_splitter(self, reference_200, eta):
        # flat filtering must reduce to ordinary loss, mode structure untouched
        _, schmidt, _ = reference_200
        flat = pf.make_flat_filter(np.sqrt(eta), schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        proj = pf.filtered_projections(schmidt, flat, flat, basis)
        cov = pf.assemble_covariance(proj)
        for k in range(1, 6):
            expected = lossy_epr_block(eta, schmidt.r_values[k - 1])
            assert np.max(np.abs(cov.block(k) - expected)) < 1e-9

    def test_parity_selection_of_cross_blocks(self, reference_200, rect4_200):
        # symmetric filter couples only equal-parity modes: 1-3 yes, 1-2/2-3 no
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        cov = pf.assemble_covariance(proj)
        assert np.max(np.abs(cov.block(1, 2))) < 1e-9
        assert np.max(np.abs(cov.block(2, 3))) < 1e-9
        assert np.max(np.abs(cov.block(1, 3))) > 1e-2

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_bases_and_filters_stay_physical(self, seed):
        # end to end: any orthonormal basis and any passive filter pair must
        # give exact commutators and a physical covariance matrix
        rng = np.random.default_rng(seed)
        grid = pf.build_frequency_grid(64, -10.0, 10.0)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        gain = rng.uniform(0.0, 1.2)
        schmidt = pf.apply_gain(pf.schmidt_decompose(jsa, 5), gain)
        filt_a = pf.make_rect_filter(rng.uniform(-3, 3), rng.uniform(0, 25), grid)
        filt_b = pf.make_gauss_filter(rng.uniform(-3, 3), rng.uniform(0.2, 25), grid)
        q, _ = np.linalg.qr(rng.standard_normal((64, 4)))
        basis = pf.MeasurementBasis.from_shared(q.T / np.sqrt(grid.d_omega), grid)
        proj = pf.filtered_projections(schmidt, filt_a, filt_b, basis)
        assert np.max(np.abs(pf.commutator_defects(proj))) < 1e-10
        cov = pf.assemble_covariance(proj)
        passed, lowest = pf.check_physicality(cov, tol=1e-9)
        assert passed, lowest
        oracle = wick_covariance(complete_kernels(jsa, gain), filt_a, filt_b, basis)
        assert np.max(np.abs(cov.sigma - oracle)) < 1e-12

    def test_against_wick_oracle(self, reference_200, kernels_200, rect4_200):
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        cov = pf.assemble_covariance(proj)
        oracle = wick_covariance(kernels_200, rect4_200, rect4_200, basis)
        assert np.max(np.abs(cov.sigma - oracle)) < 1e-12

    def test_wick_oracle_on_gauss_filter(self, reference_200, kernels_200):
        _, schmidt, _ = reference_200
        gauss = pf.make_gauss_filter(0.5, 3.0, schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, gauss, gauss, basis)
        cov = pf.assemble_covariance(proj)
        assert np.max(np.abs(cov.sigma - wick_covariance(kernels_200, gauss, gauss, basis))) < 1e-12

    def test_complex_chirped_amplitude(self):
        # a frequency chirp makes modes and kernels complex, exercising the
        # imaginary parts of every block entry; the Wick oracle still applies
        for n in (100, 400):
            grid = pf.build_frequency_grid(n, -10.0, 10.0)
            jsa = chirped_jsa(grid, 0.05)
            schmidt = pf.apply_gain(pf.schmidt_decompose(jsa, 5), 0.8)
            gauss = pf.make_gauss_filter(0.3, 4.0, grid)
            basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
            proj = pf.filtered_projections(schmidt, gauss, gauss, basis)
            cov = pf.assemble_covariance(proj)
            oracle = wick_covariance(complete_kernels(jsa, 0.8), gauss, gauss, basis)
            assert np.max(np.abs(cov.sigma - oracle)) < 1e-12
            assert pf.check_physicality(cov)[0]
            assert np.max(np.abs(pf.commutator_defects(proj))) < 1e-12
            assert 0 < pf.purity(cov) <= 1 + 1e-12

    @pytest.mark.parametrize("chirped", [False, True], ids=["plain", "chirped"])
    def test_complex_transmissions_on_both_arms(self, grid200, chirped):
        # a delay on the signal filter and an advance on the idler filter, so
        # both transmissions are complex and their phases differ
        w = grid200.points
        if chirped:
            jsa = chirped_jsa(grid200, 0.05)
        else:
            jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid200)
        schmidt = pf.apply_gain(pf.schmidt_decompose(jsa, 5), 0.8)
        fa = pf.Filter(pf.make_rect_filter(0.0, 4.0, grid200).transmission * np.exp(0.7j * w), grid200)
        fb = pf.Filter(pf.make_gauss_filter(0.3, 4.0, grid200).transmission * np.exp(-0.4j * w), grid200)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
        cov = pf.assemble_covariance(pf.filtered_projections(schmidt, fa, fb, basis))
        oracle = wick_covariance(complete_kernels(jsa, 0.8), fa, fb, basis)
        assert np.max(np.abs(cov.sigma - oracle)) < 1e-12

    @pytest.mark.parametrize("case", ["chirped", "complex_transmissions", "schmidt", "svd", "ga", "blocking"])
    def test_exact_symmetry(self, grid200, rect4_200, case):
        # every 4x4 block is its mirror's transpose entry for entry, so
        # symmetrizing changes no bit, and no entry is -0.0
        if case in ("chirped", "complex_transmissions"):
            w = grid200.points
            fa = fb = rect4_200
            if case == "chirped":
                jsa = chirped_jsa(grid200, 0.05)
            else:
                jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid200)
                fa = pf.Filter(rect4_200.transmission * np.exp(0.7j * w), grid200)
                fb = pf.Filter(pf.make_gauss_filter(0.3, 4.0, grid200).transmission * np.exp(-0.4j * w), grid200)
            schmidt = pf.apply_gain(pf.schmidt_decompose(jsa, 5), 0.8)
            basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
            sigma = pf.assemble_covariance(pf.filtered_projections(schmidt, fa, fb, basis)).sigma
        else:
            basis = "svd" if case == "blocking" else case
            kind = "blocking" if case == "blocking" else "rect"
            config = pf.RunConfig(basis=basis, filter_kind=kind, ga_modes=3, population=16, max_generations=40)
            sigma = pf.run_single(config).covariance.sigma
        assert np.array_equal(sigma, sigma.T)
        assert ((sigma + sigma.T) / 2 + 0.0).tobytes() == sigma.tobytes()

    def test_truncated_kernels_raise_physicality(self, reference_200, rect4_200):
        # a duplicated Schmidt row counts one pair's squeezing twice against a
        # single vacuum, which no physical state allows
        _, schmidt, _ = reference_200
        signal, idler = schmidt.signal_modes.copy(), schmidt.idler_modes.copy()
        signal[1], idler[1] = signal[0], idler[0]
        twice = dataclasses.replace(schmidt, signal_modes=signal, idler_modes=idler)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        proj = pf.filtered_projections(twice, rect4_200, rect4_200, basis)
        with pytest.raises(PhysicalityError) as err:
            pf.assemble_covariance(proj)
        assert err.value.min_symplectic_eigenvalue < 0.5 - 1e-6

    def test_purity_one_for_identity_filter_any_gain(self, reference_200):
        _, schmidt, _ = reference_200
        strong = pf.apply_gain(schmidt, 1.5)
        ident = pf.make_identity_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(strong, 6)
        proj = pf.filtered_projections(strong, ident, ident, basis)
        cov = pf.assemble_covariance(proj)
        assert pf.purity(cov) == pytest.approx(1.0, abs=1e-9)


@functools.cache
def _phased_run(phase: str) -> tuple[float, float]:
    """(purity, first-mode dB) of the svd basis at n = 200, rect-4, 6 dB, with a local phase.

    ``chirp`` multiplies the amplitude by exp(0.3i (w_s^2 + w_i^2)), ``delay``
    the transmission by exp(0.7i w); both are local unitaries on each arm.
    """
    grid = pf.build_frequency_grid(200, -10.0, 10.0)
    jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
    filt = pf.make_rect_filter(0.0, 4.0, grid)
    w = grid.points
    if phase == "chirp":
        jsa = chirped_jsa(grid, 0.3)
    elif phase == "delay":
        filt = pf.Filter(filt.transmission * np.exp(0.7j * w), grid)
    schmidt = pf.schmidt_decompose(jsa, 10)
    schmidt = pf.apply_gain(schmidt, pf.gain_for_target_db(schmidt, 6.0))
    basis = pf.MeasurementBasis.from_schmidt(pf.svd_effective_basis(jsa, filt, filt, 10), 10)
    cov = pf.assemble_covariance(pf.filtered_projections(schmidt, filt, filt, basis))
    return pf.purity(cov), pf.squeezing_report(cov)[0].squeezing_db


class TestLocalPhases:
    """A local spectral phase on either arm is a local unitary: it changes no physical number."""

    @pytest.mark.parametrize("phase", ["chirp", "delay"])
    def test_purity_unchanged(self, phase):
        assert abs(_phased_run(phase)[0] - _phased_run("plain")[0]) < 1e-11

    @pytest.mark.parametrize("phase", ["chirp", "delay"])
    def test_first_mode_db_unchanged(self, phase):
        assert abs(_phased_run(phase)[1] - _phased_run("plain")[1]) < 1e-9


class TestArmSwap:
    """theta -> pi/2 - theta swaps the arms: the amplitude becomes its transpose.

    With one filter on both arms the swapped state is the same state with
    signal and idler relabelled, so no physical number moves.  The run reads
    the amplitude's rows for the one tilt where it reads its columns for the
    other, so this also checks the sampler's row and column formulas against
    each other.
    """

    @seed(20141)
    @settings(max_examples=12, deadline=None)
    @given(
        sigma_a=st.floats(3.0, 5.0),
        sigma_b=st.floats(1.0, 2.0),
        theta=st.floats(-np.pi / 4 - 0.4, -np.pi / 4 + 0.4),
        width=st.floats(2.0, 8.0),
        filter_kind=st.sampled_from(["rect", "gauss"]),
        basis=st.sampled_from(["svd", "schmidt"]),
    )
    def test_first_mode_db_and_purity_unchanged(self, sigma_a, sigma_b, theta, width, filter_kind, basis):
        reports = [
            pf.run_single(
                pf.RunConfig(
                    n_points=120,
                    sigma_a=sigma_a,
                    sigma_b=sigma_b,
                    theta=tilt,
                    filter_kind=filter_kind,
                    filter_width=width,
                    basis=basis,
                )
            )
            for tilt in (theta, np.pi / 2 - theta)
        ]
        assert abs(reports[0].squeezing[0].squeezing_db - reports[1].squeezing[0].squeezing_db) < 1e-10
        assert abs(reports[0].purity - reports[1].purity) < 1e-10


class TestPassiveRotation:
    """A unitary mixing the measured modes of one arm is a passive transformation.

    It maps the Gaussian state by a symplectic orthogonal matrix, so the
    symplectic spectrum, and with it the purity, stays where it was.
    """

    @seed(20142)
    @settings(max_examples=12, deadline=None)
    @given(
        sigma_a=st.floats(3.0, 5.0),
        sigma_b=st.floats(1.0, 2.0),
        theta=st.floats(-np.pi / 4 - 0.4, -np.pi / 4 + 0.4),
        width=st.floats(2.0, 8.0),
        filter_kind=st.sampled_from(["rect", "gauss"]),
        basis=st.sampled_from(["svd", "schmidt"]),
        unitary_seed=st.integers(0, 2**32 - 1),
    )
    def test_purity_and_min_nu_unchanged(self, sigma_a, sigma_b, theta, width, filter_kind, basis, unitary_seed):
        config = pf.RunConfig(
            n_points=120,
            sigma_a=sigma_a,
            sigma_b=sigma_b,
            theta=theta,
            filter_kind=filter_kind,
            filter_width=width,
            basis=basis,
        )
        report = pf.run_single(config)
        proj = report.projections
        grid = proj.grid
        make = pf.make_rect_filter if filter_kind == "rect" else pf.make_gauss_filter
        filt = make(0.0, width, grid)
        rng = np.random.default_rng(unitary_seed)

        def unitary(n):
            q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            return q * (np.diag(r) / np.abs(np.diag(r)))

        n = proj.n_modes
        rotated = pf.MeasurementBasis(unitary(n) @ proj.basis.signal_fns, unitary(n) @ proj.basis.idler_fns, grid)
        cov = pf.assemble_covariance(pf.filtered_projections(proj.schmidt, filt, filt, rotated))
        assert abs(pf.purity(cov) - report.purity) < 1e-12
        assert abs(np.min(cov.symplectic_eigenvalues) - np.min(report.covariance.symplectic_eigenvalues)) < 1e-12
