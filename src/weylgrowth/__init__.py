"""Exact enumeration of Kac-Moody Weyl groups by word length.

Builds generalized Cartan matrices for the classical, affine-A, and
over-extended HA families, counts their Weyl groups by walking a parabolic
quotient W^J depth-first, each element named by a canonical nonnegative
root-lattice vector, and analyzes the resulting growth series: closed-form
Poincare polynomials for finite and affine types, and polynomial-quotient
fits for the hyperbolic ones.
"""

from .algebra import (
    AlgebraDescriptor,
    CartanMatrixError,
    GeneralizedCartanMatrix,
    NotFiniteError,
    RankOutOfRangeError,
    UnknownFamilyError,
    build_catalog,
    gcm_from_json,
    invariant_degrees,
    is_finite_type,
    load_gcm_file,
    validate_gcm,
    weyl_group_order,
)
from .series import (
    InsufficientOrderError,
    IntPolynomial,
    NonUnitConstantTermError,
    RatioFitResult,
    TruncatedSeries,
    affine_poincare,
    cyclotomic_polynomial,
    cyclotomic_trial_division,
    expand_factored,
    finite_poincare,
    ratio_fit,
    series_div,
    series_mul,
)
from .weyl import (
    CheckpointMismatchError,
    GrowthSeries,
    LevelCheckpoint,
    LevelTooLargeError,
    enumerate_levels,
    gamma_reflect,
    gcm_digest,
    level_sets,
    weyl_orbit_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraDescriptor",
    "CartanMatrixError",
    "CheckpointMismatchError",
    "GeneralizedCartanMatrix",
    "GrowthSeries",
    "InsufficientOrderError",
    "IntPolynomial",
    "LevelCheckpoint",
    "LevelTooLargeError",
    "NonUnitConstantTermError",
    "NotFiniteError",
    "RankOutOfRangeError",
    "RatioFitResult",
    "TruncatedSeries",
    "UnknownFamilyError",
    "affine_poincare",
    "build_catalog",
    "cyclotomic_polynomial",
    "cyclotomic_trial_division",
    "enumerate_levels",
    "expand_factored",
    "finite_poincare",
    "gamma_reflect",
    "gcm_digest",
    "gcm_from_json",
    "invariant_degrees",
    "is_finite_type",
    "level_sets",
    "load_gcm_file",
    "ratio_fit",
    "series_div",
    "series_mul",
    "validate_gcm",
    "weyl_group_order",
    "weyl_orbit_oracle",
]
