"""Gaussian-state model of spectrally filtered type-II parametric down-conversion.

The library discretizes a joint spectral amplitude on a frequency grid,
Schmidt-decomposes it into broadband two-mode squeezers, applies spectral
filters as frequency-dependent beam splitters, and assembles the covariance
matrix of the filtered state in an arbitrary measurement basis.  On top of
that it computes EPR squeezing, purity, and single-mode character, and finds
filter-adapted bases by two independent routes: an SVD of the filter-masked
amplitude and a genetic search over orthonormal mode sets.
"""

__version__ = "0.1.0"

from .basis_opt import svd_effective_basis
from .covariance import (
    CovarianceMatrix,
    assemble_covariance,
    check_physicality,
    symplectic_form,
)
from .errors import ConfigurationError, GridTruncationError, NumericsError, PhysicalityError
from .filters import (
    Filter,
    MeasurementBasis,
    ProjectionSet,
    commutator_defects,
    filtered_projections,
    make_blocking_filter,
    make_flat_filter,
    make_gauss_filter,
    make_identity_filter,
    make_rect_filter,
)
from .genetic import (
    GaParams,
    OptimizedBasis,
    StateContext,
    ga_optimize_basis,
    make_state_context,
)
from .metrics import (
    SqueezingEntry,
    purity,
    single_mode_character,
    squeezing_report,
)
from .spectral import (
    FrequencyGrid,
    GaussianJsa,
    GaussianJsaParams,
    SchmidtData,
    apply_gain,
    build_frequency_grid,
    build_gaussian_jsa,
    gain_for_target_db,
    r_for_squeezing_db,
    schmidt_decompose,
    squeezing_db,
)
from .cli import (
    RunConfig,
    RunReport,
    TradeoffRecord,
    run_single,
    sweep_tradeoff,
    export_report,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "CovarianceMatrix",
    "Filter",
    "FrequencyGrid",
    "GaParams",
    "GaussianJsa",
    "GaussianJsaParams",
    "GridTruncationError",
    "MeasurementBasis",
    "NumericsError",
    "OptimizedBasis",
    "PhysicalityError",
    "ProjectionSet",
    "RunConfig",
    "RunReport",
    "SchmidtData",
    "SqueezingEntry",
    "StateContext",
    "TradeoffRecord",
    "apply_gain",
    "assemble_covariance",
    "build_frequency_grid",
    "build_gaussian_jsa",
    "check_physicality",
    "commutator_defects",
    "export_report",
    "filtered_projections",
    "ga_optimize_basis",
    "gain_for_target_db",
    "make_blocking_filter",
    "make_flat_filter",
    "make_gauss_filter",
    "make_identity_filter",
    "make_rect_filter",
    "make_state_context",
    "purity",
    "r_for_squeezing_db",
    "run_single",
    "schmidt_decompose",
    "single_mode_character",
    "squeezing_db",
    "squeezing_report",
    "svd_effective_basis",
    "sweep_tradeoff",
    "symplectic_form",
]
