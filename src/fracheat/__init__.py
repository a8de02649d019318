"""fracheat: pseudospectral laboratory for u_t = D^{2a}u -/+ u^2 on large tori."""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigError,
    DegenerateWindowError,
    DimensionError,
    DomainError,
    ResolutionError,
    SymmetryError,
)
from .grid import (
    SpectralField,
    TorusGrid,
    apply_semigroup,
    dealiased_product,
    dealiased_square,
    fractional_symbol,
    from_spectral,
    l2_norm,
    pair_with_test_function,
    to_spectral,
)
from .dyadic import (
    AlgebraReport,
    DyadicPartition,
    NormReport,
    algebra_constant,
    besov_norm,
    eta,
    lp_block,
    make_partition,
    modulation_norm,
    phi_profile,
    sobolev_norm,
    spacetime_besov_norm,
    x_norm,
)
from .trajectory import Trajectory
from .config import SolveConfig
from .picard import (
    duhamel_kernel,
    hs_norm_from_hat_scan,
    picard_terms,
    second_iterate_hat,
    theta,
)
from .evolution import (
    IterationReport,
    dilation_rescale,
    duhamel_integrate,
    fixed_point_solve,
    integral_residual,
    smoothing_constant,
)
from .families import (
    CascadeReport,
    FamilySpec,
    build_family,
    build_phi_N,
    build_phi_NR,
    build_psi_N,
    pairing_lower_bound,
    phi_hat_profile,
    psi_hat_profile,
    verify_cascade,
)
from .experiments import (
    ExperimentRecord,
    ExponentFit,
    emit_report,
    fit_exponent,
    run_experiment,
)

__all__ = [
    "__version__",
    "BudgetError", "ConfigError", "DegenerateWindowError", "DimensionError",
    "DomainError", "ResolutionError", "SymmetryError",
    "SpectralField", "TorusGrid",
    "apply_semigroup", "dealiased_product", "dealiased_square",
    "fractional_symbol", "from_spectral", "l2_norm",
    "pair_with_test_function", "to_spectral",
    "AlgebraReport", "DyadicPartition", "NormReport", "algebra_constant",
    "besov_norm", "eta", "lp_block", "make_partition", "modulation_norm",
    "phi_profile", "sobolev_norm", "spacetime_besov_norm", "x_norm",
    "Trajectory",
    "SolveConfig",
    "duhamel_kernel", "hs_norm_from_hat_scan", "picard_terms",
    "second_iterate_hat", "theta",
    "IterationReport", "dilation_rescale", "duhamel_integrate",
    "fixed_point_solve", "integral_residual", "smoothing_constant",
    "CascadeReport", "FamilySpec", "build_family", "build_phi_N",
    "build_phi_NR", "build_psi_N", "pairing_lower_bound", "phi_hat_profile",
    "psi_hat_profile", "verify_cascade",
    "ExperimentRecord", "ExponentFit", "emit_report", "fit_exponent",
    "run_experiment",
]
