import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdcfilter as pf
from pdcfilter.errors import ConfigurationError, GridTruncationError, NumericsError
from pdcfilter.spectral import _fix_phases, quadrature_svd

from oracles import (
    GAIN_6DB,
    R_3DB,
    R_6DB,
    geometric_lambdas,
    hermite_functions,
    mehler_mode_scale,
    meshgrid_gaussian_jsa,
)


class TestFrequencyGrid:
    def test_reference_spacing(self):
        grid = pf.build_frequency_grid(100, -10, 10)
        assert grid.d_omega == pytest.approx(20 / 99, abs=1e-15)
        assert grid.n_points == 100  # reference resolution

    def test_two_point_grid(self):
        assert pf.build_frequency_grid(2, 0, 1).d_omega == 1.0

    def test_points_span_bounds(self):
        grid = pf.build_frequency_grid(7, -3.0, 4.0)
        assert grid.points[0] == -3.0 and grid.points[-1] == 4.0
        assert np.allclose(np.diff(grid.points), grid.d_omega)

    @pytest.mark.parametrize("args", [(1, 0, 1), (0, 0, 1), (10, 1, 1), (10, 2, -2)])
    def test_invalid_grid_rejected(self, args):
        with pytest.raises(ConfigurationError):
            pf.build_frequency_grid(*args)


class TestGaussianJsa:
    def test_normalized_to_1e12(self, grid100):
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        assert abs(jsa.l2_norm_sq - 1.0) <= 1e-12

    def test_diagonal_tilt_closed_form(self, grid100):
        # at theta = -pi/4 the amplitude factorizes over the +/- diagonals
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        w = grid100.points
        ws, wi = np.meshgrid(w, w, indexing="ij")
        expected = np.exp(-((ws - wi) ** 2) / (4 * 36)) * np.exp(-((ws + wi) ** 2) / (4 * 4))
        expected /= np.sqrt(np.sum(expected**2) * grid100.d_omega**2)
        assert np.max(np.abs(jsa.values - expected)) < 1e-12

    def test_anticorrelation_sign(self, grid100):
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        w = grid100.points
        anti = abs(w - 5.0).argmin(), abs(w + 5.0).argmin()
        corr = abs(w - 5.0).argmin(), abs(w - 5.0).argmin()
        assert jsa.values[anti] > 10 * jsa.values[corr]

    def test_separable_when_symmetric(self, grid100):
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(3.0, 3.0, 0.0), grid100)
        schmidt = pf.schmidt_decompose(jsa, n_retained=3)
        assert schmidt.lambdas[0] == pytest.approx(1.0, abs=1e-10)
        assert schmidt.lambdas[1] < 1e-8

    @pytest.mark.parametrize("n", [101, 600, 1600])
    @pytest.mark.parametrize("theta", [-np.pi / 4 - 0.1, -np.pi / 4 + 0.1, 0.0])
    @pytest.mark.parametrize("sigma_a, sigma_b", [(4.0, 1.5), (6.0, 2.5)])
    def test_equals_meshgrid_builder(self, n, theta, sigma_a, sigma_b):
        # the benchmark's width and tilt range ends; theta = 0 lays the wide
        # axis along the window, so the truncation guard is relaxed for it
        grid = pf.build_frequency_grid(n, -10.0, 10.0)
        params = pf.GaussianJsaParams(sigma_a, sigma_b, theta)
        jsa = pf.build_gaussian_jsa(params, grid, max_truncated_mass=1.0)
        assert np.array_equal(jsa.values, meshgrid_gaussian_jsa(params, grid))

    def test_built_in_two_grid_buffers(self):
        n = 800
        grid = pf.build_frequency_grid(n, -10.0, 10.0)
        params = pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4)
        tracemalloc.start()
        try:
            pf.build_gaussian_jsa(params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8

    def test_truncation_refused(self):
        tight = pf.build_frequency_grid(64, -3, 3)
        with pytest.raises(GridTruncationError):
            pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), tight)

    @pytest.mark.parametrize("sigma_a", [0.01, 1e-100])
    def test_under_resolution_refused(self, sigma_a):
        # d_omega = 0.41: the one sample on the ridge carries more |f|^2
        # mass than the analytic integral, so off_grid is far below zero
        coarse = pf.build_frequency_grid(50, -10, 10)
        with pytest.raises(GridTruncationError, match="under-resolved"):
            pf.build_gaussian_jsa(pf.GaussianJsaParams(sigma_a, 2.0, -np.pi / 4), coarse)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            pf.GaussianJsaParams(0.0, 2.0, 0.0)


# amplitudes of the reference state (sigma_a 6, sigma_b 2, [-10, 10]) above
# the 1e-14 lambda_1 noise floor, at n = 100, 383, 384 and 800 alike
_REFERENCE_EXCITED = 23


def _count_routes(monkeypatch, n) -> dict:
    """Sketch widths and dense n x n SVDs that the decompositions take from now on."""
    import pdcfilter.spectral as spectral

    calls = {"rungs": [], "dense": 0}
    sketched_svd, svd = spectral._sketched_svd, np.linalg.svd

    def sketch(a, k, rng):
        calls["rungs"].append(k)
        return sketched_svd(a, k, rng)

    def dense(a, *args, **kwargs):
        calls["dense"] += np.shape(a) == (n, n)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "_sketched_svd", sketch)
    monkeypatch.setattr(np.linalg, "svd", dense)
    return calls


class TestSchmidtDecompose:
    def test_orthonormal_and_parseval(self, reference_200):
        _, schmidt, _ = reference_200
        dw = schmidt.grid.d_omega
        for modes in (schmidt.signal_modes, schmidt.idler_modes):
            gram = (modes @ modes.conj().T) * dw
            assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10
        assert abs(np.sum(schmidt.lambdas**2) - 1.0) < 1e-10

    def test_descending_and_tail(self, reference_200):
        _, schmidt, _ = reference_200
        assert np.all(np.diff(schmidt.lambdas) <= 1e-14)
        tail = float(np.sum(schmidt.lambdas[schmidt.n_retained :] ** 2))
        assert schmidt.tail_weight == pytest.approx(tail, abs=0)

    def test_reconstruction_residual(self, reference_200):
        jsa, schmidt, _ = reference_200
        k = schmidt.n_retained
        approx = (schmidt.signal_modes[:k].T * schmidt.lambdas[:k]) @ schmidt.idler_modes[:k]
        resid = float(np.sum(np.abs(jsa.values - approx) ** 2) * schmidt.grid.d_omega**2)
        assert resid <= schmidt.tail_weight + 1e-10

    def test_geometric_spectrum(self, reference_wide):
        # closed-form oracle: amplitude ratio (6-2)/(6+2) = 0.5, lambda_1 = sqrt(3)/2
        _, schmidt, _ = reference_wide
        ratios = schmidt.lambdas[1:6] / schmidt.lambdas[:5]
        assert np.max(np.abs(ratios - 0.5)) < 1e-3
        expected = geometric_lambdas(6, 6.0, 2.0)
        assert np.max(np.abs(schmidt.lambdas[:6] - expected)) < 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="the default [-10, 10] window clips modes 4+; the geometric law only "
        "holds there to ~3e-2",
    )
    def test_geometric_spectrum_default_bounds(self, reference_200):
        _, schmidt, _ = reference_200
        ratios = schmidt.lambdas[1:6] / schmidt.lambdas[:5]
        assert np.max(np.abs(ratios - 0.5)) < 1e-3

    def test_mode_shapes_match_hermite_functions(self, reference_wide):
        _, schmidt, _ = reference_wide
        grid = schmidt.grid
        scale = mehler_mode_scale(6.0, 2.0)
        h = hermite_functions(6, grid.points / scale) / np.sqrt(scale)
        for k in range(6):
            overlap = abs(grid.overlap(schmidt.signal_modes[k], h[k]))
            assert overlap > 1 - 1e-6

    def test_idler_sign_alternation(self, reference_wide):
        # odd modes of the idler carry an extra -1 relative to the signal
        _, schmidt, _ = reference_wide
        grid = schmidt.grid
        for k in range(6):
            sign = np.real(grid.overlap(schmidt.signal_modes[k], schmidt.idler_modes[k]))
            assert sign == pytest.approx((-1.0) ** k, abs=1e-9)

    def test_phase_convention_deterministic(self, grid100):
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        a = pf.schmidt_decompose(jsa, 5)
        b = pf.schmidt_decompose(jsa, 5)
        assert np.array_equal(a.signal_modes, b.signal_modes)
        # the highest-frequency sample within 1e-8 of the peak is real positive
        mag = np.abs(a.signal_modes[:5])
        lead = np.max(mag, axis=1)
        idx = [np.flatnonzero(m >= p * (1 - 1e-8))[-1] for m, p in zip(mag, lead)]
        picked = a.signal_modes[np.arange(5), idx]
        assert np.allclose(np.real(picked), lead) and np.all(np.real(picked) > 0)

    @pytest.mark.parametrize("skew", [1e-13, -1e-13])
    def test_odd_mode_sign_ignores_round_off(self, grid100, skew):
        # the mirror peaks of an odd mode tie; which one round-off makes
        # larger must not decide the sign
        w = grid100.points
        odd = w * np.exp(-(w**2) / 2) * (1 + skew * (w > 0))
        for mode in (odd, -odd):
            signal, idler = _fix_phases(mode[None, :], mode[None, :])
            assert signal[0, np.argmin(np.abs(w - 1.0))] > 0
            assert np.array_equal(idler, signal)

    def test_refinement_stability_wide(self):
        # doubling the resolution moves retained amplitudes by < 1e-6 once the
        # window holds the modes
        lams = {}
        for n in (100, 200):
            grid = pf.build_frequency_grid(n, -20, 20)
            jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
            lams[n] = pf.schmidt_decompose(jsa, 10).lambdas[:10]
        assert np.max(np.abs(lams[200] - lams[100])) < 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="boundary clipping on [-10, 10] dominates the refinement error "
        "(~2e-4 per doubling)",
    )
    def test_refinement_stability_default_bounds(self):
        lams = {}
        for n in (100, 200):
            grid = pf.build_frequency_grid(n, -10, 10)
            jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
            lams[n] = pf.schmidt_decompose(jsa, 10).lambdas[:10]
        assert np.max(np.abs(lams[200] - lams[100])) < 1e-6

    @staticmethod
    def _assert_sketch_matches_dense_svd(n):
        grid = pf.build_frequency_grid(n, -10, 10)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        schmidt = pf.schmidt_decompose(jsa, 10)
        k = schmidt.n_modes
        assert k < grid.n_points
        dw = grid.d_omega
        u, s, vh = np.linalg.svd(jsa.values * dw)
        assert np.max(np.abs(schmidt.lambdas - s[:k])) < 1e-12
        # same phase convention on both routes, so the modes coincide.  Modes
        # below 1e-3 lambda_1 are left out: there the dense SVD's own vector
        # error, eps lambda_1 / gap, reaches 1e-12
        _, signal, idler = quadrature_svd(jsa.values, grid)
        m = int(np.sum(s >= 1e-3 * s[0]))
        assert np.max(np.abs(schmidt.signal_modes[:m] - signal[:m])) < 1e-12
        assert np.max(np.abs(schmidt.idler_modes[:m] - idler[:m])) < 1e-12

    def test_leading_triples_match_dense_svd(self):
        self._assert_sketch_matches_dense_svd(800)

    @pytest.mark.parametrize("n", [400, 600])
    def test_small_grid_sketch_matches_dense_svd(self, n):
        # the 48-column rung fits the n/8 budget from n = 384
        self._assert_sketch_matches_dense_svd(n)

    # ids: n, whether the sketch runs
    @pytest.mark.parametrize(
        "n, rungs, dense", [pytest.param(383, [], 1, id="383-False"), pytest.param(384, [48], 0, id="384-True")]
    )
    def test_sketch_budget_boundary(self, n, rungs, dense, monkeypatch):
        grid = pf.build_frequency_grid(n, -10, 10)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        calls = _count_routes(monkeypatch, n)
        assert pf.schmidt_decompose(jsa, 10).n_modes == _REFERENCE_EXCITED
        assert calls == {"rungs": rungs, "dense": dense}

    @pytest.mark.parametrize("n", [100, 800])
    def test_keeps_reported_and_excited_pairs_on_every_route(self, n):
        # the dense SVD at n = 100 computes 100 triples and the sketch at
        # n = 800 48; both keep the 23 above the noise floor
        grid = pf.build_frequency_grid(n, -10, 10)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        s = np.linalg.svd(jsa.values * grid.d_omega, compute_uv=False)
        assert int(np.sum(s > 1e-14 * s[0])) == _REFERENCE_EXCITED
        for n_retained, rows in ((10, _REFERENCE_EXCITED), (30, 30)):
            schmidt = pf.schmidt_decompose(jsa, n_retained)
            assert schmidt.n_modes == rows
            assert schmidt.n_excited == _REFERENCE_EXCITED
            assert schmidt.signal_modes.shape == schmidt.idler_modes.shape == (rows, n)
        tail = pf.schmidt_decompose(jsa, 10).tail_weight
        assert tail == pytest.approx(np.sum(s[10:] ** 2), rel=1e-12, abs=0)

    def test_rerun_bit_identical(self):
        grid = pf.build_frequency_grid(800, -10, 10)
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
        a = pf.schmidt_decompose(jsa, 10)
        b = pf.schmidt_decompose(jsa, 10)
        assert a.n_modes < grid.n_points
        for name in ("lambdas", "signal_modes", "idler_modes"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    # ids: n, rank, triples the route computes
    @pytest.mark.parametrize(
        "n, rank, rungs, dense",
        [
            pytest.param(1600, 80, [48, 96], 0, id="1600-80-96"),
            pytest.param(800, 80, [48], 1, id="800-80-800"),
            pytest.param(1200, 80, [48, 96], 0, id="1200-80-96"),
        ],
    )
    def test_sketch_grows_with_numerical_rank(self, n, rank, rungs, dense, monkeypatch):
        # slowly decaying spectrum of the given rank: the first 48-column
        # sketch ends above the noise floor, so it must double; the rungs
        # 48 + 96 fit the n/8 budget at n = 1200 but exceed it at n = 800,
        # where the dense SVD takes over
        grid = pf.build_frequency_grid(n, -10, 10)
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.standard_normal((n, rank)))
        v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
        values = (u * 0.95 ** np.arange(rank)) @ v.T
        values /= np.sqrt(np.sum(values**2) * grid.d_omega**2)
        jsa = pf.JsaMatrix(values, grid)
        calls = _count_routes(monkeypatch, n)
        schmidt = pf.schmidt_decompose(jsa, 5)
        assert calls == {"rungs": rungs, "dense": dense}
        # every route keeps the rank's excited pairs and none below the floor
        assert schmidt.n_modes == schmidt.n_excited == rank
        s = np.linalg.svd(values * grid.d_omega, compute_uv=False)
        assert np.max(np.abs(schmidt.lambdas - s[:rank])) < 1e-12

    def test_small_grid_takes_dense_svd(self, grid100, monkeypatch):
        # a 48-column sketch exceeds n/8 of a 100-point grid
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        calls = _count_routes(monkeypatch, grid100.n_points)
        schmidt = pf.schmidt_decompose(jsa, 10)
        assert calls == {"rungs": [], "dense": 1}
        lambdas, signal, idler = quadrature_svd(jsa.values, grid100)
        k = schmidt.n_modes
        assert k == _REFERENCE_EXCITED
        assert np.array_equal(schmidt.lambdas, lambdas[:k])
        assert np.array_equal(schmidt.signal_modes, signal[:k])
        assert np.array_equal(schmidt.idler_modes, idler[:k])
        assert schmidt.tail_weight == float(np.sum(lambdas[10:] ** 2))

    def test_n_retained_bounds(self, grid100):
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        with pytest.raises(ConfigurationError):
            pf.schmidt_decompose(jsa, 0)
        with pytest.raises(ConfigurationError):
            pf.schmidt_decompose(jsa, 101)


class TestGainAndDb:
    def test_zero_gain(self, reference_200):
        _, schmidt, _ = reference_200
        zero = pf.apply_gain(schmidt, 0.0)
        assert np.all(zero.r_values == 0)

    def test_linearity(self, reference_200):
        _, schmidt, _ = reference_200
        doubled = pf.apply_gain(schmidt, 2.0)
        single = pf.apply_gain(schmidt, 1.0)
        assert np.allclose(doubled.r_values, 2 * single.r_values)

    def test_six_db_gain_value(self, reference_wide):
        # inverse of the dB formula: B = (6 ln10 / 20) / lambda_1 = 0.79764
        _, schmidt, gain = reference_wide
        assert gain == pytest.approx(GAIN_6DB, abs=2e-7)
        assert schmidt.r_values[0] == pytest.approx(R_6DB, abs=1e-12)

    def test_negative_gain_rejected(self, reference_200):
        _, schmidt, _ = reference_200
        with pytest.raises(ConfigurationError):
            pf.apply_gain(schmidt, -0.1)

    def test_db_reference_points(self):
        assert pf.squeezing_db(0.0) == 0.0
        assert pf.squeezing_db(R_6DB) == pytest.approx(6.0, abs=1e-12)
        assert pf.squeezing_db(R_3DB) == pytest.approx(3.0, abs=1e-12)
        assert pf.squeezing_db(0.6908) == pytest.approx(6.000, abs=1e-3)

    def test_db_roundtrip(self):
        assert pf.r_for_squeezing_db(pf.squeezing_db(0.37)) == pytest.approx(0.37, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=1e-6, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_db_strictly_increasing(self, r, step):
        assert pf.squeezing_db(r + step) > pf.squeezing_db(r)

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigurationError):
            pf.squeezing_db(-0.1)

    def test_missing_gain_guard(self, grid100):
        jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid100)
        schmidt = pf.schmidt_decompose(jsa, 5)
        ident = pf.make_identity_filter(grid100)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 2)
        with pytest.raises(ConfigurationError):
            pf.filtered_projections(schmidt, ident, ident, basis)

    def test_gain_beyond_precision_rejected(self, reference_200):
        # beyond about 80 dB e^(-2r) is below the round-off of cosh(2r):
        # refused before any arithmetic
        _, schmidt, _ = reference_200
        pf.apply_gain(schmidt, pf.gain_for_target_db(schmidt, 79.0))
        for db in (81.0, 200.0, 1e6):
            with pytest.raises(NumericsError):
                pf.apply_gain(schmidt, pf.gain_for_target_db(schmidt, db))
