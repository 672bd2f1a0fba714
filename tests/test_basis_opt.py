import dataclasses
import tracemalloc

import numpy as np
import pytest

import pdcfilter as pf
from pdcfilter.cli import _modes_table, _write_csv
from pdcfilter.errors import ConfigurationError

from oracles import dense_effective_basis, dense_values, full_schmidt, loop_modes_csv, lossy_epr_block


def _basis_from_effective(eff, n):
    return pf.MeasurementBasis(eff.signal_modes[:n], eff.idler_modes[:n], eff.grid)


class TestSvdEffectiveBasis:
    @pytest.mark.parametrize("n", [200, 1600])
    def test_identity_filter_recovers_original(self, n):
        grid = pf.build_frequency_grid(n, -10.0, 10.0)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        schmidt = pf.schmidt_decompose(jsa, 10)
        ident = pf.make_identity_filter(grid)
        eff = pf.svd_effective_basis(jsa, ident, ident, n_retained=8)
        # at T = 1 the masked factors are the skeleton's, decomposed on the same
        # route: the same amplitudes and modes, bit for bit (past 800 samples
        # the route that applies each Q from its reflectors)
        assert np.array_equal(eff.lambdas[:8], schmidt.lambdas[:8])
        assert np.array_equal(eff.signal_modes[:8], schmidt.signal_modes[:8])
        assert np.array_equal(eff.idler_modes[:8], schmidt.idler_modes[:8])

    def test_modes_confined_to_passband(self, reference_200, rect4_200):
        jsa, schmidt, _ = reference_200
        eff = pf.svd_effective_basis(jsa, rect4_200, rect4_200, n_retained=5)
        outside = np.abs(schmidt.grid.points) > 2.0
        assert np.max(np.abs(eff.signal_modes[:5][:, outside])) < 1e-12

    def test_large_grid_embeds_only_reported_and_excited_pairs(self):
        # width 8 at n = 1600: 640 transmitting samples an arm, of whose
        # triples only max(n_retained, excited) are embedded on the grid
        n = 1600
        grid = pf.build_frequency_grid(n, -10.0, 10.0)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        rect = pf.make_rect_filter(0.0, 8.0, grid)
        on = np.flatnonzero(rect.transmission)
        s = np.linalg.svd(jsa.sample(on, on) * grid.d_omega, compute_uv=False)
        excited = int(np.sum(s > 1e-14 * s[0]))
        tracemalloc.start()
        try:
            eff = pf.svd_effective_basis(jsa, rect, rect, n_retained=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(on) == 640 and excited > 10
        assert eff.n_modes == eff.n_excited == excited
        assert eff.signal_modes.shape == eff.idler_modes.shape == (excited, n)
        # the factors and their QRs stay below one n x n float array
        assert peak < n * n * 8

    def test_contraction_of_amplitudes(self, reference_200, rect4_200):
        jsa, schmidt, gain = reference_200
        eff = pf.svd_effective_basis(jsa, rect4_200, rect4_200, n_retained=10)
        assert np.all(gain * eff.lambdas[:10] <= schmidt.r_values[:10] + 1e-12)
        assert gain * eff.lambdas[0] < schmidt.r_values[0]

    def test_contraction_over_random_filters(self, reference_100):
        jsa, schmidt, gain = reference_100
        grid = schmidt.grid
        rng = np.random.default_rng(42)
        for _ in range(25):
            if rng.random() < 0.5:
                filt_a = pf.make_rect_filter(rng.uniform(-3, 3), rng.uniform(0.2, 25), grid)
            else:
                filt_a = pf.make_gauss_filter(rng.uniform(-3, 3), rng.uniform(0.2, 25), grid)
            filt_b = pf.make_gauss_filter(rng.uniform(-2, 2), rng.uniform(0.5, 20), grid)
            eff = pf.svd_effective_basis(jsa, filt_a, filt_b, n_retained=10)
            assert np.all(gain * eff.lambdas[:10] <= schmidt.r_values[:10] + 1e-12)

    def test_squeezing_concentrates_in_first_mode(self, reference_200, rect4_200):
        jsa, schmidt, _ = reference_200
        eff = pf.svd_effective_basis(jsa, rect4_200, rect4_200, n_retained=5)
        proj_eff = pf.filtered_projections(
            schmidt, rect4_200, rect4_200, _basis_from_effective(eff, 5)
        )
        proj_orig = pf.filtered_projections(
            schmidt,
            rect4_200,
            rect4_200,
            pf.MeasurementBasis.from_schmidt(schmidt, 5),
        )
        rep_eff = pf.squeezing_report(pf.assemble_covariance(proj_eff))
        rep_orig = pf.squeezing_report(pf.assemble_covariance(proj_orig))
        assert rep_eff[0].squeezing_db > rep_orig[0].squeezing_db
        assert pf.single_mode_character(rep_eff) > pf.single_mode_character(rep_orig)

    def test_cross_correlations_suppressed(self, reference_200, rect4_200):
        jsa, schmidt, _ = reference_200
        eff = pf.svd_effective_basis(jsa, rect4_200, rect4_200, n_retained=5)
        proj = pf.filtered_projections(
            schmidt, rect4_200, rect4_200, _basis_from_effective(eff, 5)
        )
        cov = pf.assemble_covariance(proj)
        off_norm = 0.0
        for k in range(1, 6):
            for l in range(1, 6):
                if k != l:
                    off_norm = max(off_norm, float(np.max(np.abs(cov.block(k, l)))))
        # residual couplings are small against the first-mode squeezing scale
        assert off_norm < 0.05 * float(np.max(np.abs(cov.block(1))))

    def test_purity_agrees_under_full_completion(self, reference_100, rect4_100):
        # purity is basis independent once both bases span the whole grid;
        # the decomposition keeps only the excited modes, so the complete
        # Schmidt family comes from the dense oracle
        jsa, schmidt, _ = reference_100
        n = schmidt.grid.n_points
        eff = pf.svd_effective_basis(jsa, rect4_100, rect4_100, n_retained=n)
        _, signal, idler = full_schmidt(dense_values(jsa), jsa.grid)
        p = {}
        for label, basis in (
            ("schmidt", pf.MeasurementBasis(signal, idler, schmidt.grid)),
            ("effective", _basis_from_effective(eff, n)),
        ):
            proj = pf.filtered_projections(schmidt, rect4_100, rect4_100, basis)
            p[label] = pf.purity(pf.assemble_covariance(proj))
        assert p["schmidt"] == pytest.approx(p["effective"], abs=1e-8)

    def test_gain_scaling_is_linear(self, reference_200):
        # the basis takes no gain, so r'_k = B lambda'_k scales linearly with B
        # and runs at two gains measure in one and the same basis
        reports = [
            pf.run_single(pf.RunConfig(n_points=200, n_retained=5, gain_b=b, target_db=None))
            for b in (0.4, 0.8)
        ]
        bases = [report.projections.basis for report in reports]
        assert np.array_equal(bases[0].signal_fns, bases[1].signal_fns)
        assert np.array_equal(bases[0].idler_fns, bases[1].idler_fns)
        jsa = reference_200[0]
        filt = pf.make_rect_filter(0.0, 4.0, jsa.grid)  # the config's default filter
        eff = pf.svd_effective_basis(jsa, filt, filt, n_retained=5)
        assert np.array_equal(eff.signal_modes[:5], bases[0].signal_fns)
        for report in reports:
            r = report.projections.schmidt.r_values
            assert np.all(report.gain_b * eff.lambdas[:5] <= r[:5] + 1e-12)

    def test_grid_mismatch_rejected(self, reference_200, grid100):
        jsa, _, _ = reference_200
        filt = pf.make_identity_filter(grid100)
        with pytest.raises(ConfigurationError):
            pf.svd_effective_basis(jsa, filt, filt)


def _sample_edged_rect(grid):
    # both edges sit exactly on grid samples, which transmit
    pts = grid.points
    return pf.make_rect_filter((pts[120] + pts[80]) / 2, pts[120] - pts[80], grid)


def _phased(filt, delay):
    """``filt`` times the linear spectral phase e^(i delay w)."""
    return pf.Filter(filt.transmission * np.exp(1j * delay * filt.grid.points), filt.grid)


# (signal filter, idler filter, n_retained) on the 200-point reference grid
_PASSBAND_CASES = {
    "rect_narrow_centre": lambda g: (pf.make_rect_filter(0.0, 2.0, g),) * 2 + (10,),
    "rect_wide_off_centre": lambda g: (pf.make_rect_filter(1.3, 6.0, g),) * 2 + (10,),
    "rect_at_window_edge": lambda g: (pf.make_rect_filter(8.5, 4.0, g),) * 2 + (10,),
    "rect_sample_edged": lambda g: (_sample_edged_rect(g),) * 2 + (10,),
    "rect_below_n_retained": lambda g: (pf.make_rect_filter(0.2, 0.5, g),) * 2 + (10,),
    "blocking": lambda g: (pf.make_blocking_filter(g),) * 2 + (4,),
    "rect_x_gauss": lambda g: (pf.make_rect_filter(0.5, 3.0, g), pf.make_gauss_filter(-0.4, 5.0, g), 10),
    "rect_x_gauss_phased": lambda g: (
        _phased(pf.make_rect_filter(0.5, 3.0, g), 0.7),
        _phased(pf.make_gauss_filter(-0.4, 5.0, g), -0.4),
        10,
    ),
    "rect_x_wider_rect": lambda g: (pf.make_rect_filter(0.0, 3.0, g), pf.make_rect_filter(1.0, 6.0, g), 70),
}
_FULL_SUPPORT_CASES = {
    "gauss": lambda g: pf.make_gauss_filter(0.3, 4.0, g),
    "identity": pf.make_identity_filter,
    "flat": lambda g: pf.make_flat_filter(0.7, g),
}


def _well_separated(lambdas):
    """Leading modes whose amplitude is resolved and not nearly degenerate."""
    j = 0
    while (
        j + 1 < len(lambdas)
        and lambdas[j] > 1e-6 * lambdas[0]
        and lambdas[j + 1] < 0.9 * lambdas[j]
    ):
        j += 1
    return j


class TestPassbandSvd:
    """The skeleton-factor SVD against the SVD of the whole masked amplitude."""

    @pytest.mark.parametrize("case", sorted(_PASSBAND_CASES))
    def test_matches_dense_masked_svd(self, case, reference_200):
        jsa, schmidt, gain = reference_200
        grid = jsa.grid
        fa, fb, n_ret = _PASSBAND_CASES[case](grid)
        eff = pf.svd_effective_basis(jsa, fa, fb, n_retained=n_ret)
        dense = dense_effective_basis(jsa, fa, fb, n_retained=n_ret)
        on_s = np.flatnonzero(fa.transmission)
        on_i = np.flatnonzero(fb.transmission)
        # the reported pairs and every pair above the noise floor.  The skeleton
        # holds f to 1e-14 of the whole amplitude's largest sample, so pairs are
        # counted above 1e-12 of the unfiltered lambda_1: at the window edge
        # (lambda'_1 = 1.1e-6 lambda_1) its noise pairs reach 6.8e-12 lambda'_1
        k = eff.n_modes
        assert k == max(n_ret, eff.n_excited)
        resolved = 1e-12 * schmidt.lambdas[0]
        assert np.sum(eff.lambdas > resolved) == np.sum(dense.lambdas > resolved)
        assert np.max(np.abs(gain * (eff.lambdas - dense.lambdas[:k]))) < 1e-12
        assert np.all(eff.lambdas[min(len(on_s), len(on_i)) :] == 0.0)
        assert abs(eff.tail_weight - dense.tail_weight) < 1e-15

        dw = grid.d_omega
        for modes in (eff.signal_modes, eff.idler_modes):
            gram = modes @ modes.conj().T * dw
            assert np.max(np.abs(gram - np.eye(k))) < 1e-12

        # block singular vectors vanish exactly off their arm's passband
        off_s = np.setdiff1d(np.arange(grid.n_points), on_s)
        off_i = np.setdiff1d(np.arange(grid.n_points), on_i)
        assert np.all(eff.signal_modes[: len(on_s)][:, off_s] == 0.0)
        assert np.all(eff.idler_modes[: len(on_i)][:, off_i] == 0.0)

        j = _well_separated(dense.lambdas)
        if j == 0:
            assert np.max(np.abs(dense.lambdas)) == 0.0
            return
        covs = []
        for basis_of in (eff, dense):
            basis = pf.MeasurementBasis(basis_of.signal_modes[:j], basis_of.idler_modes[:j], grid)
            covs.append(pf.assemble_covariance(pf.filtered_projections(schmidt, fa, fb, basis)))
        assert np.max(np.abs(covs[0].sigma - covs[1].sigma)) < 1e-9

    @pytest.mark.parametrize("case", sorted(_FULL_SUPPORT_CASES))
    def test_full_support_matches_dense_svd(self, case, reference_200):
        jsa, schmidt, _ = reference_200
        grid = jsa.grid
        filt = _FULL_SUPPORT_CASES[case](grid)
        assert np.all(filt.transmission != 0)
        eff = pf.svd_effective_basis(jsa, filt, filt, n_retained=10)
        dense = dense_effective_basis(jsa, filt, filt, n_retained=10)
        k, lam1 = eff.n_modes, dense.lambdas[0]
        assert k == eff.n_excited > 10
        assert np.sum(eff.lambdas > 1e-12 * lam1) == np.sum(dense.lambdas > 1e-12 * lam1)
        assert np.max(np.abs(eff.lambdas - dense.lambdas[:k])) < 1e-12 * lam1
        assert abs(eff.tail_weight - dense.tail_weight) < 1e-15
        # the modes well above the noise floor, as unit vectors, under one phase convention
        strong = np.flatnonzero(dense.lambdas[:k] >= 1e-3 * lam1)
        for ours, oracle in ((eff.signal_modes, dense.signal_modes), (eff.idler_modes, dense.idler_modes)):
            assert np.max(np.abs(ours[strong] - oracle[strong])) * np.sqrt(grid.d_omega) < 1e-12
        covs = []
        for basis_of in (eff, dense):
            basis = pf.MeasurementBasis(basis_of.signal_modes[strong], basis_of.idler_modes[strong], grid)
            covs.append(pf.assemble_covariance(pf.filtered_projections(schmidt, filt, filt, basis)))
        assert np.max(np.abs(covs[0].sigma - covs[1].sigma)) < 1e-9

    def test_reference_input_covariance_matches_dense_svd(self):
        # the benchmark's pinned run_hires input: measured mode 10 sits at
        # lambda'_10 = 3e-13 lambda'_1, where round-off alone separates its two
        # mirror peaks; a route change that flips its sign fails here
        config = pf.RunConfig(
            n_points=1600, sigma_a=5.0, sigma_b=2.0, theta=-np.pi / 4,
            filter_kind="rect", filter_center=0.0, filter_width=5.0, target_db=5.5,
        )
        report = pf.run_single(config)
        proj = report.projections
        filt = pf.make_rect_filter(0.0, 5.0, report.jsa.grid)
        dense = dense_effective_basis(report.jsa, filt, filt, n_retained=10)
        assert dense.lambdas[9] < 1e-12 * dense.lambdas[0]
        basis = pf.MeasurementBasis(dense.signal_modes[:10], dense.idler_modes[:10], report.jsa.grid)
        oracle = pf.assemble_covariance(pf.filtered_projections(proj.schmidt, filt, filt, basis))
        assert report.covariance.sigma.shape == oracle.sigma.shape == (40, 40)
        assert np.max(np.abs(report.covariance.sigma - oracle.sigma)) < 1e-12

    def test_completion_order(self, reference_200):
        # |S| < |I| < n_retained: past the block's |S| triples the idler fills
        # with its unused block vectors, then both arms with unit vectors at
        # their off-support samples in grid order
        jsa, _, _ = reference_200
        grid = jsa.grid
        fa, fb, n_ret = _PASSBAND_CASES["rect_x_wider_rect"](grid)
        on_s = np.flatnonzero(fa.transmission)
        on_i = np.flatnonzero(fb.transmission)
        assert len(on_s) < len(on_i) < n_ret
        eff = pf.svd_effective_basis(jsa, fa, fb, n_retained=n_ret)
        for modes, on in ((eff.signal_modes, on_s), (eff.idler_modes, on_i)):
            off = np.setdiff1d(np.arange(grid.n_points), on)
            tail = np.abs(modes[len(on) :]) * np.sqrt(grid.d_omega)
            expected = np.zeros_like(tail)
            expected[np.arange(len(tail)), off[: len(tail)]] = 1.0
            assert np.array_equal(tail, expected)

    def test_blocking_gives_unit_vectors(self, reference_200):
        jsa, _, _ = reference_200
        block = pf.make_blocking_filter(jsa.grid)
        eff = pf.svd_effective_basis(jsa, block, block, n_retained=3)
        expected = np.eye(3, jsa.grid.n_points) / np.sqrt(jsa.grid.d_omega)
        assert np.array_equal(eff.lambdas, np.zeros(3))
        assert np.array_equal(eff.signal_modes, expected)
        assert np.array_equal(eff.idler_modes, expected)


@pytest.fixture(scope="module")
def uniform_state(reference_200):
    # identical real modes on both arms, uniform r = 0.5 over 5 modes
    schmidt = reference_200[1]
    lambdas = np.zeros_like(schmidt.lambdas)
    lambdas[:5] = 1 / np.sqrt(5)
    r = np.zeros_like(schmidt.lambdas)
    r[:5] = 0.5
    return dataclasses.replace(
        schmidt,
        idler_modes=schmidt.signal_modes,
        lambdas=lambdas,
        r_values=r,
        n_retained=5,
        tail_weight=0.0,
    )


class TestFilteredProjectorDecomposition:
    """Identical real modes, one common filter and uniform gain: in the
    out-modes of the filtered projector kernel T(w) sum_k psi_k(w) psi_k(w')
    the filter acts on each mode as plain beam-splitter loss kappa_k^2, with
    kappa_k the kernel's singular values, and the modes decouple.  The
    kernel is decomposed by the dense SVD of the oracle."""

    @staticmethod
    def _assert_per_mode_loss(state, filt):
        psi = np.real(state.signal_modes[:5])
        kappa, out_modes, _ = full_schmidt(filt.transmission[:, None] * (psi.T @ psi), state.grid)
        basis = pf.MeasurementBasis.from_shared(out_modes[:5], state.grid)
        cov = pf.assemble_covariance(pf.filtered_projections(state, filt, filt, basis))
        for k in range(1, 6):
            for l in range(1, 6):
                if k != l:
                    assert np.max(np.abs(cov.block(k, l))) < 1e-8
            expected = lossy_epr_block(float(kappa[k - 1] ** 2), 0.5)
            assert np.max(np.abs(cov.block(k) - expected)) < 1e-8

    def test_uniform_gain_decouples_into_per_mode_loss(self, uniform_state, rect4_200):
        self._assert_per_mode_loss(uniform_state, rect4_200)

    def test_gauss_filter_also_decouples(self, uniform_state):
        self._assert_per_mode_loss(uniform_state, pf.make_gauss_filter(0.0, 5.0, uniform_state.grid))


def test_modes_csv_real(tmp_path, reference_200):
    _, schmidt, _ = reference_200
    path = tmp_path / "modes.csv"
    _write_csv(path, *_modes_table(schmidt.grid, schmidt.signal_modes[:2]))
    lines = path.read_text().splitlines()
    assert lines[0] == "omega,mode_1,mode_2"
    assert len(lines) == schmidt.grid.n_points + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == schmidt.grid.omega_min


@pytest.mark.parametrize("phase", [None, 1e-14, 0.3])
def test_modes_csv_equals_sample_loop(tmp_path, reference_200, phase):
    # real modes, complex modes with a round-off imaginary part (written as
    # real) and complex modes (written as re/im pairs), with signed zeros
    _, schmidt, _ = reference_200
    modes = schmidt.signal_modes[:3].copy()
    modes[0, :2] = (0.0, -0.0)
    if phase is not None:
        modes = modes * np.exp(1j * phase)
    _write_csv(tmp_path / "table.csv", *_modes_table(schmidt.grid, modes))
    loop_modes_csv(schmidt.grid, modes, tmp_path / "loop.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
