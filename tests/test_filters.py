import dataclasses
import warnings

import numpy as np
import pytest

import pdcfilter as pf
from pdcfilter.errors import ConfigurationError

from oracles import (
    complete_kernels,
    dense_uv_kernels,
    dense_values,
    factored_ladder_rows,
    full_schmidt,
    ladder_rows,
    row_commutator_defects,
    wick_covariance,
)


class TestFilterFactories:
    def test_rect_edges_transmit(self):
        # integer grid so the passband edges land exactly on samples
        grid = pf.build_frequency_grid(100, 0.0, 99.0)
        filt = pf.make_rect_filter(50.0, 2.0, grid)
        assert filt.transmission[49] == 1.0 and filt.transmission[51] == 1.0
        assert filt.transmission[48] == 0.0 and filt.transmission[52] == 0.0

    def test_rect_wider_than_span_is_identity(self, grid100):
        filt = pf.make_rect_filter(0.0, 100.0, grid100)
        assert np.all(filt.transmission == 1.0)

    def test_rect_zero_width(self, grid100):
        # no grid point sits exactly at 0.05, so nothing passes
        filt = pf.make_rect_filter(0.05, 0.0, grid100)
        assert np.all(filt.transmission == 0.0)
        on_point = pf.make_rect_filter(float(grid100.points[30]), 0.0, grid100)
        assert np.sum(on_point.transmission) == 1.0

    def test_rect_negative_width_rejected(self, grid100):
        with pytest.raises(ConfigurationError):
            pf.make_rect_filter(0.0, -1.0, grid100)

    def test_gauss_peak_and_fwhm(self, grid100):
        center = float(grid100.points[50])
        fwhm = 8 * grid100.d_omega
        filt = pf.make_gauss_filter(center, fwhm, grid100)
        assert filt.transmission[50] == 1.0
        assert filt.transmission[54] == pytest.approx(0.5, abs=1e-12)
        assert filt.transmission[46] == pytest.approx(0.5, abs=1e-12)

    def test_gauss_wide_limit(self, grid100):
        filt = pf.make_gauss_filter(0.0, 1e6, grid100)
        assert np.min(filt.transmission) > 1 - 1e-9

    def test_gauss_bad_fwhm(self, grid100):
        # fwhm^2 would be 0 or overflow the Python float
        for fwhm in (0.0, 1e-300, 1e300):
            with pytest.raises(ConfigurationError):
                pf.make_gauss_filter(0.0, fwhm, grid100)

    @pytest.mark.parametrize("center", [1e160, -1e300])
    def test_gauss_far_center_blocks_without_warning(self, grid100, center):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filt = pf.make_gauss_filter(center, 4.0, grid100)
        assert np.all(filt.transmission == 0.0)

    def test_flat_filter(self, grid100):
        filt = pf.make_flat_filter(0.7, grid100)
        assert np.all(filt.transmission == 0.7)
        with pytest.raises(ConfigurationError):
            pf.make_flat_filter(1.2, grid100)

    def test_transmission_above_one_rejected(self, grid100):
        with pytest.raises(ConfigurationError):
            pf.Filter(np.full(grid100.n_points, 1.01), grid100)


class TestMeasurementBasis:
    def test_orthonormality_enforced(self, grid100):
        bad = np.ones((2, grid100.n_points))
        with pytest.raises(ConfigurationError):
            pf.MeasurementBasis(bad, bad, grid100)

    def test_from_schmidt(self, reference_200):
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        assert basis.n_modes == 5


class TestUvKernels:
    """The dense oracle kernels, which the factored projections are checked against."""

    def test_zero_gain_full_kernel_is_identity(self, reference_200):
        # all cosh(r)=1 terms over the complete mode family sum to the grid delta
        jsa, schmidt, _ = reference_200
        lambdas, signal, idler = full_schmidt(dense_values(jsa), jsa.grid)
        kernels = dense_uv_kernels(signal, idler, 0.0 * lambdas)
        dw = schmidt.grid.d_omega
        n = schmidt.grid.n_points
        assert np.max(np.abs(kernels.u_signal - np.eye(n) / dw)) < 1e-9 / dw
        assert np.max(np.abs(kernels.v_signal)) < 1e-12

    def test_single_mode_gain(self, reference_200):
        jsa, schmidt, _ = reference_200
        lambdas, signal, idler = full_schmidt(dense_values(jsa), jsa.grid)
        r = np.zeros_like(lambdas)
        r[0] = 0.9
        kernels = dense_uv_kernels(signal, idler, r)
        psi0, phi0 = schmidt.signal_modes[0], schmidt.idler_modes[0]
        expected_v = np.sinh(0.9) * np.outer(psi0.conj(), phi0.conj())
        assert np.max(np.abs(kernels.v_signal - expected_v)) < 1e-10

    def test_diagonal_action(self, reference_200, kernels_200):
        # quadrature-projecting the kernels back on the modes recovers cosh(r_k)
        _, schmidt, _ = reference_200
        dw = schmidt.grid.d_omega
        for k in range(5):
            psi = schmidt.signal_modes[k]
            val = (psi @ kernels_200.u_signal @ psi.conj()) * dw * dw
            assert abs(val - np.cosh(schmidt.r_values[k])) < 1e-10


def _complex_basis(grid, n_modes, seed=5):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid.n_points, n_modes)) + 1j * rng.standard_normal(
        (grid.n_points, n_modes)
    )
    q, _ = np.linalg.qr(z)
    return pf.MeasurementBasis(q.T / np.sqrt(grid.d_omega), q.T[::-1] / np.sqrt(grid.d_omega), grid)


_FILTERS = {
    "identity": lambda g: pf.make_identity_filter(g),
    "rect": lambda g: pf.make_rect_filter(0.0, 4.0, g),
    "gauss": lambda g: pf.make_gauss_filter(0.5, 3.0, g),
    "flat": lambda g: pf.make_flat_filter(0.6, g),
    "blocking": lambda g: pf.make_blocking_filter(g),
}


def _gram_sums(proj):
    """The record's Gram sums per arm: UU + RR, VV, and the cross term W + M.

    UU + RR is the vacuum identity plus VV, as ``assemble_covariance`` takes it.
    """
    r = proj.schmidt.r_values
    ca, cb = proj.overlap_signal, proj.overlap_idler
    vv_a = (ca * np.sinh(r) ** 2) @ ca.conj().T
    vv_b = (cb * np.sinh(r) ** 2) @ cb.conj().T
    return {
        "uu_rr_signal": np.eye(proj.n_modes) + vv_a,
        "uu_rr_idler": np.eye(proj.n_modes) + vv_b,
        "vv_signal": vv_a,
        "vv_idler": vv_b,
        "cross": 2 * (ca * np.cosh(r) * np.sinh(r)) @ cb.T,
    }


def _oracle_gram_sums(rows, dw):
    """The same Gram sums integrated over the grid from the oracle's ladder rows."""

    def gram(x, y):
        return dw * (x @ y.conj().T)

    return {
        "uu_rr_signal": gram(rows.u_signal, rows.u_signal) + gram(rows.r_signal, rows.r_signal),
        "uu_rr_idler": gram(rows.u_idler, rows.u_idler) + gram(rows.r_idler, rows.r_idler),
        "vv_signal": gram(rows.v_signal, rows.v_signal),
        "vv_idler": gram(rows.v_idler, rows.v_idler),
        "cross": dw * (rows.u_signal @ rows.v_idler.T + rows.v_signal @ rows.u_idler.T),
    }


class TestFactoredAgainstDense:
    @pytest.mark.parametrize("kind", sorted(_FILTERS))
    @pytest.mark.parametrize("target_db", [0.0, 6.0])
    @pytest.mark.parametrize("basis_kind", ["schmidt", "complex"])
    def test_projections_and_covariance_match(self, reference_200, kind, target_db, basis_kind):
        # the record's k-pair Gram sums and covariance against the ladder rows
        # of dense kernels summed over the complete mode family
        jsa, schmidt0, _ = reference_200
        grid = schmidt0.grid
        gain = pf.gain_for_target_db(schmidt0, target_db)
        schmidt = pf.apply_gain(schmidt0, gain)
        kernels = complete_kernels(jsa, gain)
        filt = _FILTERS[kind](grid)
        if basis_kind == "schmidt":
            basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        else:
            basis = _complex_basis(grid, 5)
        proj = pf.filtered_projections(schmidt, filt, filt, basis)
        record = _gram_sums(proj)
        oracle = _oracle_gram_sums(ladder_rows(kernels, filt, filt, basis), grid.d_omega)
        for name in record:
            assert np.max(np.abs(record[name] - oracle[name])) < 1e-12, name
        sigma = pf.assemble_covariance(proj).sigma
        assert np.max(np.abs(sigma - wick_covariance(kernels, filt, filt, basis))) <= 1e-12


class TestFilteredProjections:
    def test_record_has_no_grid_axis(self, reference_200, rect4_200):
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        k = schmidt.n_modes
        assert proj.overlap_signal.shape == proj.overlap_idler.shape == (4, k)
        assert proj.grid is schmidt.grid and proj.n_modes == 4
        arrays = [v for v in vars(proj).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2
        assert all(schmidt.grid.n_points not in a.shape for a in arrays)

    def test_identity_filter_schmidt_basis(self, reference_200):
        # unfiltered, the Schmidt modes overlap only their own pair: the
        # record of an ideal EPR source
        _, schmidt, _ = reference_200
        ident = pf.make_identity_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
        proj = pf.filtered_projections(schmidt, ident, ident, basis)
        own = np.eye(4, schmidt.n_modes)
        assert np.max(np.abs(proj.overlap_signal - own)) < 1e-10
        assert np.max(np.abs(proj.overlap_idler - own)) < 1e-10

    def test_blocking_filter(self, reference_200):
        _, schmidt, _ = reference_200
        block = pf.make_blocking_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, block, block, basis)
        assert np.max(np.abs(proj.overlap_signal)) == 0.0
        assert np.max(np.abs(proj.overlap_idler)) == 0.0

    def test_grid_mismatch_rejected(self, reference_200, grid100):
        _, schmidt, _ = reference_200
        filt = pf.make_identity_filter(grid100)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 2)
        with pytest.raises(ConfigurationError):
            pf.filtered_projections(schmidt, filt, filt, basis)
        ident = pf.make_identity_filter(schmidt.grid)
        unit_modes = pf.MeasurementBasis.from_shared(np.eye(2, 100) / np.sqrt(grid100.d_omega), grid100)
        with pytest.raises(ConfigurationError):
            pf.filtered_projections(schmidt, ident, ident, unit_modes)

    def test_overlap_quadrature_against_loop(self, reference_200, rect4_200):
        # same integrals evaluated through an explicit python loop; guards the
        # vectorized contraction against transcription slips
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        dw = schmidt.grid.d_omega
        n = schmidt.grid.n_points
        for k in range(3):
            for j in range(schmidt.n_modes):
                acc = 0.0
                for i in range(n):
                    acc += (
                        basis.signal_fns[k, i]
                        * rect4_200.transmission[i]
                        * np.conj(schmidt.signal_modes[j, i])
                    )
                assert abs(proj.overlap_signal[k, j] - acc * dw) < 1e-12

    def test_commutators_exact_with_full_kernels(self, reference_200, rect4_200):
        # bosonic commutation constraint: int|u|^2 - int|v|^2 + int|r|^2 = 1
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        assert np.max(np.abs(pf.commutator_defects(proj))) < 1e-12

    def test_commutator_defect_on_idler_arm_caught(self, reference_200, rect4_200):
        # an idler Schmidt mode of norm 1.01 behind a blocked signal arm: only
        # the idler arm's measured modes see a Schmidt pair, so only its row reports
        _, schmidt, _ = reference_200
        modes = schmidt.idler_modes.copy()
        modes[0] *= 1.01
        bad = dataclasses.replace(schmidt, idler_modes=modes)
        block = pf.make_blocking_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        defects = pf.commutator_defects(pf.filtered_projections(bad, block, rect4_200, basis))
        assert defects.shape == (2, 3)
        assert np.max(np.abs(defects[0])) == 0.0
        assert defects[1, 0] > 1e-4

    def test_commutator_defects_match_oracle_rows(self, reference_200, kernels_200, rect4_200):
        # the k-pair formula against the grid integrals of the oracle's rows
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        rows = ladder_rows(kernels_200, rect4_200, rect4_200, basis)
        oracle = row_commutator_defects(rows, schmidt.grid.d_omega)
        assert np.max(np.abs(pf.commutator_defects(proj) - oracle)) < 1e-12

    @pytest.mark.parametrize("arm", ["signal_modes", "idler_modes"])
    def test_scaled_schmidt_row_caught(self, reference_200, rect4_200, arm):
        # a Schmidt row of norm 1.01 breaks the orthonormality the covariance
        # formula assumes: both measured arms see it, as the grid integrals
        # of the identity-plus-rank-k rows do
        _, schmidt, _ = reference_200
        modes = getattr(schmidt, arm).copy()
        modes[0] *= 1.01
        bad = dataclasses.replace(schmidt, **{arm: modes})
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        defects = pf.commutator_defects(pf.filtered_projections(bad, rect4_200, rect4_200, basis))
        rows = factored_ladder_rows(bad, rect4_200, rect4_200, basis)
        assert np.max(np.abs(defects - row_commutator_defects(rows, schmidt.grid.d_omega))) < 1e-12
        assert np.max(np.abs(defects[0])) > 1e-4
        assert np.max(np.abs(defects[1])) > 1e-4

    def test_contraction_bounds(self, reference_200, rect4_200):
        # int |u_k|^2 = int |T f_k|^2 + sum_j |c_kj|^2 sinh^2 r_j: filtering
        # cannot raise it, and the kernel norm cosh r_max bounds it
        _, schmidt, _ = reference_200
        dw = schmidt.grid.d_omega
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        ident = pf.make_identity_filter(schmidt.grid)
        sh2 = np.sinh(schmidt.r_values) ** 2

        def u_norms(filt):
            proj = pf.filtered_projections(schmidt, filt, filt, basis)
            passed = dw * np.sum(np.abs(basis.signal_fns * filt.transmission) ** 2, axis=1)
            return passed + np.abs(proj.overlap_signal) ** 2 @ sh2

        filtered, unfiltered = u_norms(rect4_200), u_norms(ident)
        r_max = float(np.max(schmidt.r_values))
        assert np.all(filtered <= unfiltered + 1e-12)
        assert np.all(filtered <= np.cosh(r_max) ** 2 + 1e-12)
