"""Multiresolution B-spline wavelet collocation for the viscous Burgers equation."""

from .approx import (
    LevelSplit,
    split_levels,
    truncate,
)
from .basis import (
    BasisIndex,
    BasisSpec,
    basis_matrix,
)
from .bench import (
    CaseDefinition,
    Case3Report,
    ErrorReport,
    RunResult,
    case_definition,
    error_metrics,
    oscillation_excess,
    run_case,
    spec_for_points,
)
from .errors import (
    ConditioningError,
    DivergenceError,
    SeriesAccuracyError,
)
from .oracle import ExactSolutionSpec, exact_u, table_values
from .solver import (
    SolverConfig,
    assemble_lhs,
    initial_coefficients,
    solve,
)

__all__ = [
    "BasisIndex",
    "BasisSpec",
    "Case3Report",
    "CaseDefinition",
    "ConditioningError",
    "DivergenceError",
    "ErrorReport",
    "ExactSolutionSpec",
    "LevelSplit",
    "RunResult",
    "SeriesAccuracyError",
    "SolverConfig",
    "assemble_lhs",
    "basis_matrix",
    "case_definition",
    "error_metrics",
    "exact_u",
    "initial_coefficients",
    "oscillation_excess",
    "run_case",
    "solve",
    "spec_for_points",
    "split_levels",
    "table_values",
    "truncate",
]
