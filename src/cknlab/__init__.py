"""Numerical verification lab for submanifold functional inequalities."""

from .constants import (
    ParameterSet,
    hoffman_spruck_constant,
    hoffman_spruck_optimal,
    interpolation_constants,
    solve_balance,
    weighted_sobolev_constants,
)
from .geometry import AmbientSpace, Domain, Field
from .inequalities import CATALOG_IDS, InequalityReport, evaluate
from .search import TightnessResult, maximize_ratio
from .warp import CurvatureProfile, WarpingFunction, solve_warping

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace", "CATALOG_IDS", "CurvatureProfile", "Domain", "Field",
    "InequalityReport", "ParameterSet", "TightnessResult", "WarpingFunction",
    "evaluate", "hoffman_spruck_constant", "hoffman_spruck_optimal",
    "interpolation_constants", "maximize_ratio", "solve_balance",
    "solve_warping", "weighted_sobolev_constants",
]
