import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdcfilter as pf
from pdcfilter.cli import _record_table, _write_csv
from pdcfilter.errors import ConfigurationError
from pdcfilter.metrics import SqueezingEntry

from oracles import R_6DB, lossy_epr_block


def _filtered_cov(schmidt, filt, n_modes):
    basis = pf.MeasurementBasis.from_schmidt(schmidt, n_modes)
    proj = pf.filtered_projections(schmidt, filt, filt, basis)
    return pf.assemble_covariance(proj)


class TestEprVariances:
    def test_vacuum(self):
        entry = pf.squeezing_report(0.5 * np.eye(4))[0]
        assert (entry.delta2_minus, entry.delta2_plus) == (1.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_unfiltered_closed_form(self, r):
        entry = pf.squeezing_report(lossy_epr_block(1.0, r))[0]
        d2m, d2p = entry.delta2_minus, entry.delta2_plus
        assert d2m == pytest.approx(np.exp(-2 * r), rel=1e-12)
        assert d2p == pytest.approx(np.exp(2 * r), rel=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_flat_loss_closed_form(self, eta, r):
        entry = pf.squeezing_report(lossy_epr_block(eta, r))[0]
        d2m, d2p = entry.delta2_minus, entry.delta2_plus
        assert d2m == pytest.approx(eta * np.exp(-2 * r) + 1 - eta, rel=1e-12)
        assert d2p == pytest.approx(eta * np.exp(2 * r) + 1 - eta, rel=1e-12)


class TestModeSqueezing:
    def test_vacuum_zero_db(self):
        entry = pf.squeezing_report(0.5 * np.eye(4))[0]
        assert entry.squeezing_db == 0.0

    def test_six_db_minus_combination(self):
        entry = pf.squeezing_report(lossy_epr_block(1.0, R_6DB))[0]
        assert entry.squeezing_db == pytest.approx(6.0, abs=1e-9)
        assert entry.combination == "minus"

    def test_sign_flipped_idler_moves_to_plus(self, reference_200):
        # measuring with an idler mode of opposite sign lands the squeezing in
        # the plus combination; the report must follow it there
        _, schmidt, _ = reference_200
        ident = pf.make_identity_filter(schmidt.grid)
        flipped = pf.MeasurementBasis(
            schmidt.signal_modes[:1], -schmidt.idler_modes[:1], schmidt.grid
        )
        proj = pf.filtered_projections(schmidt, ident, ident, flipped)
        entry = pf.squeezing_report(pf.assemble_covariance(proj))[0]
        assert entry.combination == "plus"
        assert entry.squeezing_db == pytest.approx(6.0, abs=1e-9)

    def test_own_basis_always_minus(self, reference_200):
        # measuring signal and idler in their own decomposition modes cancels
        # the idler sign flips: every pair is a plain minus-squeezed EPR block
        _, schmidt, _ = reference_200
        ident = pf.make_identity_filter(schmidt.grid)
        cov = _filtered_cov(schmidt, ident, 4)
        combos = [entry.combination for entry in pf.squeezing_report(cov)]
        assert combos == ["minus"] * 4

    def test_shared_basis_alternates_with_idler_parity(self, reference_200):
        # one common mode set for both arms exposes the idler sign flips:
        # antisymmetric modes squeeze in the plus combination
        _, schmidt, _ = reference_200
        ident = pf.make_identity_filter(schmidt.grid)
        shared = pf.MeasurementBasis.from_shared(schmidt.signal_modes[:4], schmidt.grid)
        proj = pf.filtered_projections(schmidt, ident, ident, shared)
        cov = pf.assemble_covariance(proj)
        combos = [entry.combination for entry in pf.squeezing_report(cov)]
        assert combos == ["minus", "plus", "minus", "plus"]

    def test_negative_db_reported_as_is(self):
        thermal = 0.8 * np.eye(4)  # above-vacuum noise in both combinations
        entry = pf.squeezing_report(thermal)[0]
        assert entry.squeezing_db == pytest.approx(-10 * math.log10(1.6), abs=1e-12)


class TestPurity:
    def test_vacuum(self):
        assert pf.purity(0.5 * np.eye(16)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_pure_epr_block(self, r):
        assert pf.purity(lossy_epr_block(1.0, r)) == pytest.approx(1.0, abs=1e-9)

    def test_half_loss_on_6db_frozen_value(self):
        # nu = sqrt(A^2 - E^2) with A, E from the eta = 1/2 lossy block
        value = pf.purity(lossy_epr_block(0.5, R_6DB))
        assert value == pytest.approx(0.641821710937252, abs=1e-12)

    @pytest.mark.parametrize(
        "eta,expected",
        [(0.25, 0.7049457792068292), (0.9, 0.832706422405189)],
    )
    def test_lossy_frozen_values(self, eta, expected):
        assert pf.purity(lossy_epr_block(eta, R_6DB)) == pytest.approx(expected, abs=1e-12)

    def test_det_and_symplectic_routes_agree(self, reference_200, rect4_200):
        _, schmidt, _ = reference_200
        cov = _filtered_cov(schmidt, rect4_200, 6)
        p = pf.purity(cov)
        nu = cov.symplectic_eigenvalues
        assert p == pytest.approx(float(np.prod(1.0 / (2 * nu))), abs=1e-9)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(pf.NumericsError):
            pf.purity(np.zeros((4, 4)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200])
    def test_non_finite_gap_rejected(self, scale):
        # far below vacuum both routes overflow to inf, and their gap
        # inf - inf is NaN, which no tolerance may pass
        with np.errstate(over="ignore"), pytest.raises(pf.NumericsError, match="cross-check"):
            pf.purity(scale * np.eye(4))


class TestSingleModeCharacter:
    def test_single_squeezed_mode_is_infinite(self):
        entries = [
            SqueezingEntry(1, 0.5, 2.0, 3.0, "minus"),
            SqueezingEntry(2, 1.0, 1.0, 0.0, "minus"),
        ]
        assert pf.single_mode_character(entries) == math.inf

    def test_two_equal_modes(self):
        entries = [
            SqueezingEntry(1, 0.5, 2.0, 3.0, "minus"),
            SqueezingEntry(2, 0.5, 2.0, 3.0, "minus"),
        ]
        assert pf.single_mode_character(entries) == 1.0

    def test_antisqueezed_modes_clamped(self):
        entries = [
            SqueezingEntry(1, 0.5, 2.0, 3.0, "minus"),
            SqueezingEntry(2, 1.2, 1.4, -1.0, "minus"),
            SqueezingEntry(3, 0.7, 1.6, 1.5, "minus"),
        ]
        assert pf.single_mode_character(entries) == pytest.approx(2.0, abs=1e-12)

    def test_geometric_five_mode_value(self, reference_wide):
        # 6 / (3 + 1.5 + 0.75 + 0.375) = 16/15 on a window holding the modes
        _, schmidt, _ = reference_wide
        ident = pf.make_identity_filter(schmidt.grid)
        cov = _filtered_cov(schmidt, ident, 5)
        smc = pf.single_mode_character(pf.squeezing_report(cov))
        assert smc == pytest.approx(16.0 / 15.0, abs=2e-6)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            pf.single_mode_character([])


class TestInvariants:
    def test_uncertainty_product(self, reference_200):
        _, schmidt, _ = reference_200
        for width in (2.0, 4.0, 8.0):
            filt = pf.make_rect_filter(0.0, width, schmidt.grid)
            cov = _filtered_cov(schmidt, filt, 5)
            for entry in pf.squeezing_report(cov):
                assert entry.delta2_minus * entry.delta2_plus >= 1 - 1e-9

    def test_first_mode_db_monotone_under_nested_filters(self, reference_200):
        _, schmidt, _ = reference_200
        previous = math.inf
        for width in (20.0, 12.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.0):
            filt = pf.make_rect_filter(0.0, width, schmidt.grid)
            cov = _filtered_cov(schmidt, filt, 5)
            first = pf.squeezing_report(cov)[0].squeezing_db
            assert first <= previous + 1e-6
            previous = first

    def test_filtered_never_beats_unfiltered_per_mode(self, reference_200):
        _, schmidt, _ = reference_200
        unfiltered_db = pf.squeezing_db(schmidt.r_values[:5])
        for width in (12.0, 8.0, 6.0, 4.0, 2.0):
            filt = pf.make_rect_filter(0.0, width, schmidt.grid)
            cov = _filtered_cov(schmidt, filt, 5)
            dbs = np.array([e.squeezing_db for e in pf.squeezing_report(cov)])
            assert np.all(dbs <= unfiltered_db + 1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="spectral reshaping can feed first-mode squeezing into a fixed "
        "higher mode as the passband narrows (mode 3, widths 8 -> 6); "
        "per-mode monotonicity only holds for mode 1",
    )
    def test_all_modes_monotone_under_nested_filters(self, reference_200):
        _, schmidt, _ = reference_200
        previous = np.full(5, math.inf)
        for width in (20.0, 12.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.0):
            filt = pf.make_rect_filter(0.0, width, schmidt.grid)
            cov = _filtered_cov(schmidt, filt, 5)
            dbs = np.array([e.squeezing_db for e in pf.squeezing_report(cov)])
            assert np.all(dbs <= previous + 1e-6)
            previous = dbs

    def test_variance_bounds_identical_filters(self, reference_200):
        # squeezed variance interpolates between exp(-2r) and vacuum
        _, schmidt, _ = reference_200
        rng = np.random.default_rng(7)
        floor = np.exp(-2 * schmidt.r_values[:5]) - 1e-9
        for _ in range(12):
            width = rng.uniform(0.5, 25.0)
            center = rng.uniform(-1.0, 1.0)
            filt = pf.make_rect_filter(center, width, schmidt.grid)
            cov = _filtered_cov(schmidt, filt, 5)
            d2m = np.array([min(entry.delta2_minus, entry.delta2_plus) for entry in pf.squeezing_report(cov)])
            assert np.all(d2m >= floor)
            assert np.all(d2m <= 1 + 1e-9)


def test_squeezing_csv(tmp_path):
    entries = [SqueezingEntry(1, 0.5, 2.0, 3.0103, "minus")]
    path = tmp_path / "squeezing.csv"
    _write_csv(path, *_record_table(SqueezingEntry, entries))
    text = path.read_text().splitlines()
    assert text[0] == "mode_index,delta2_minus,delta2_plus,squeezing_db,combination"
    assert text[1].startswith("1,0.5,2,3.0103")
