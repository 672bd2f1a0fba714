import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdcfilter as pf
from pdcfilter.errors import ConfigurationError

from oracles import dense_projections, dense_uv_kernels, full_schmidt


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

    @given(
        center=st.floats(min_value=-8, max_value=8),
        width=st.floats(min_value=0, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_energy_split_rect(self, center, width):
        grid = pf.build_frequency_grid(64, -10, 10)
        filt = pf.make_rect_filter(center, width, grid)
        split = np.abs(filt.transmission) ** 2 + filt.reflection**2
        assert np.max(np.abs(split - 1.0)) == 0.0

    @given(
        center=st.floats(min_value=-5, max_value=5),
        fwhm=st.floats(min_value=0.1, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_energy_split_gauss(self, center, fwhm):
        grid = pf.build_frequency_grid(64, -10, 10)
        filt = pf.make_gauss_filter(center, fwhm, grid)
        split = np.abs(filt.transmission) ** 2 + filt.reflection**2
        assert np.max(np.abs(split - 1.0)) < 1e-15

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
        lambdas, signal, idler = full_schmidt(jsa)
        kernels = dense_uv_kernels(signal, idler, 0.0 * lambdas)
        dw = schmidt.grid.d_omega
        n = schmidt.grid.n_points
        assert np.max(np.abs(kernels.u_signal - np.eye(n) / dw)) < 1e-9 / dw
        assert np.max(np.abs(kernels.v_signal)) < 1e-12

    def test_single_mode_gain(self, reference_200):
        jsa, schmidt, _ = reference_200
        lambdas, signal, idler = full_schmidt(jsa)
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
}


class TestFactoredAgainstDense:
    @pytest.mark.parametrize("kind", sorted(_FILTERS))
    @pytest.mark.parametrize("target_db", [0.0, 6.0])
    @pytest.mark.parametrize("basis_kind", ["schmidt", "complex"])
    def test_projections_and_covariance_match(self, reference_200, kind, target_db, basis_kind):
        # factored identity-plus-rank-k kernels against dense n x n kernels
        # summed over the complete mode family
        jsa, schmidt0, _ = reference_200
        grid = schmidt0.grid
        gain = pf.gain_for_target_db(schmidt0, target_db)
        schmidt = pf.apply_gain(schmidt0, gain)
        lambdas, signal, idler = full_schmidt(jsa)
        kernels = dense_uv_kernels(signal, idler, gain * lambdas)
        filt = _FILTERS[kind](grid)
        if basis_kind == "schmidt":
            basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        else:
            basis = _complex_basis(grid, 5)
        proj = pf.filtered_projections(schmidt, filt, filt, basis)
        dense = dense_projections(proj, kernels)
        for name in ("u_signal", "v_signal", "u_idler", "v_idler"):
            assert np.max(np.abs(getattr(proj, name) - getattr(dense, name))) < 1e-12
        sigma = pf.assemble_covariance(proj).sigma
        assert np.max(np.abs(sigma - pf.assemble_covariance(dense).sigma)) <= 1e-12


class TestFilteredProjections:
    def test_identity_filter_schmidt_basis(self, reference_200):
        _, schmidt, _ = reference_200
        ident = pf.make_identity_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 4)
        proj = pf.filtered_projections(schmidt, ident, ident, basis)
        for k in range(4):
            r = schmidt.r_values[k]
            assert np.max(np.abs(proj.u_signal[k] - np.cosh(r) * schmidt.signal_modes[k])) < 1e-10
            assert np.max(
                np.abs(proj.v_signal[k] - np.sinh(r) * schmidt.idler_modes[k].conj())
            ) < 1e-10
            assert np.max(np.abs(proj.r_signal[k])) == 0.0

    def test_blocking_filter(self, reference_200):
        _, schmidt, _ = reference_200
        block = pf.make_blocking_filter(schmidt.grid)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, block, block, basis)
        assert np.max(np.abs(proj.u_signal)) == 0.0
        assert np.max(np.abs(proj.v_idler)) == 0.0
        assert np.max(np.abs(proj.r_signal - basis.signal_fns)) == 0.0

    def test_reflected_amplitude_pointwise(self, reference_200, rect4_200):
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        expected = basis.signal_fns * rect4_200.reflection
        assert np.array_equal(proj.r_signal, expected)

    def test_grid_mismatch_rejected(self, reference_200, grid100):
        _, schmidt, _ = reference_200
        filt = pf.make_identity_filter(grid100)
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 2)
        with pytest.raises(ConfigurationError):
            pf.filtered_projections(schmidt, filt, filt, basis)

    def test_overlap_quadrature_against_loop(self, reference_200, kernels_200, rect4_200):
        # same integrals evaluated through an explicit python loop; guards the
        # vectorized contraction against transcription slips
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        dw = schmidt.grid.d_omega
        n = schmidt.grid.n_points
        for k in range(3):
            reference = np.zeros(n, dtype=kernels_200.u_signal.dtype)
            for j in range(n):
                acc = 0.0
                for i in range(n):
                    acc += basis.signal_fns[k, i] * rect4_200.transmission[i] * kernels_200.u_signal[i, j]
                reference[j] = acc * dw
            assert np.max(np.abs(proj.u_signal[k] - reference)) < 1e-12

    def test_commutators_exact_with_full_kernels(self, reference_200, rect4_200):
        # bosonic commutation constraint: int|u|^2 - int|v|^2 + int|r|^2 = 1
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        assert np.max(np.abs(pf.commutator_defects(proj))) < 1e-12

    def test_commutator_defect_on_idler_arm_caught(self, reference_200, rect4_200):
        _, schmidt, _ = reference_200
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 3)
        proj = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        bad = dataclasses.replace(proj, u_idler=1.01 * proj.u_idler)
        defects = pf.commutator_defects(bad)
        assert defects.shape == (2, 3)
        assert np.max(np.abs(defects[0])) < 1e-12
        assert np.min(np.abs(defects[1])) > 1e-3

    def test_contraction_bounds(self, reference_200, rect4_200):
        _, schmidt, _ = reference_200
        dw = schmidt.grid.d_omega
        basis = pf.MeasurementBasis.from_schmidt(schmidt, 5)
        ident = pf.make_identity_filter(schmidt.grid)
        filtered = pf.filtered_projections(schmidt, rect4_200, rect4_200, basis)
        unfiltered = pf.filtered_projections(schmidt, ident, ident, basis)
        r_max = float(np.max(schmidt.r_values))
        for k in range(5):
            norm_f = np.sum(np.abs(filtered.u_signal[k]) ** 2) * dw
            norm_u = np.sum(np.abs(unfiltered.u_signal[k]) ** 2) * dw
            assert norm_f <= norm_u + 1e-12
            assert norm_f <= np.cosh(r_max) ** 2 + 1e-12
