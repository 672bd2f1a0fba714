import numpy as np
import pytest

import pdcfilter as pf

from oracles import complete_kernels


@pytest.fixture(scope="session")
def grid100():
    return pf.build_frequency_grid(100, -10.0, 10.0)


@pytest.fixture(scope="session")
def grid200():
    return pf.build_frequency_grid(200, -10.0, 10.0)


@pytest.fixture(scope="session")
def wide_grid():
    # bounds that contain the reference modes to round-off; see test comments
    return pf.build_frequency_grid(200, -20.0, 20.0)


def _reference_state(grid, n_retained=10, target_db=6.0):
    jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
    schmidt = pf.schmidt_decompose(jsa, n_retained=n_retained)
    gain = pf.gain_for_target_db(schmidt, target_db)
    return jsa, pf.apply_gain(schmidt, gain), gain


@pytest.fixture(scope="session")
def reference_100(grid100):
    """(jsa, schmidt at 6 dB, gain) on the 100-point default grid."""
    return _reference_state(grid100)


@pytest.fixture(scope="session")
def reference_200(grid200):
    return _reference_state(grid200)


@pytest.fixture(scope="session")
def reference_wide(wide_grid):
    return _reference_state(wide_grid)


@pytest.fixture(scope="session")
def kernels_200(reference_200):
    """Dense oracle kernels of the 200-point reference state at 6 dB."""
    jsa, _, gain = reference_200
    return complete_kernels(jsa, gain)


@pytest.fixture(scope="session")
def rect4_200(grid200):
    return pf.make_rect_filter(0.0, 4.0, grid200)


@pytest.fixture(scope="session")
def rect4_100(grid100):
    return pf.make_rect_filter(0.0, 4.0, grid100)
