"""Exact bivariate mixed-type multiple orthogonal polynomials on the step-line.

Build the moment matrix of a q x p measure matrix, factorize it in exact
rational arithmetic, read off the biorthogonal polynomial families, and verify
every structural identity (orthogonality, band recurrences, Christoffel-
Darboux and ABC formulas) with zero tolerance.
"""

from .bipoly import BiPoly, PolyMatrix, shift_monomial
from .cdkernel import (
    CDBlocks,
    cd_blocks,
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
    kernel_eval,
)
from .errors import Breakdown, ConfigError, DepthError, SingularMatrix
from .families import (
    FamilyA,
    FamilyB,
    check_biorthogonality,
    check_orthogonality,
    extract_families,
    pairing_matrix,
    validate_degree_structure,
)
from .gaussborel import Factorization, factorize
from .measures import Discrete, MeasureMatrix, MomentTable, RectDensity, measure_from_json
from .moments import MomentTruncation, assemble_moments
from .rational import as_rat, format_rat, parse_rat, rat
from .recurrence import (
    RecurrenceTruncation,
    build_recurrence,
    check_dual_form,
    check_recurrence_matrix,
    check_recurrences,
    recurrence_n_max,
    required_depth,
    validate_band,
)
from .stepline import (
    GradedIndex,
    floor_f,
    in_complement_J,
    n_minus_big,
    n_plus,
    pair_of,
    pos_of,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "Breakdown",
    "CDBlocks",
    "ConfigError",
    "DepthError",
    "Discrete",
    "Factorization",
    "FamilyA",
    "FamilyB",
    "GradedIndex",
    "MeasureMatrix",
    "MomentTable",
    "MomentTruncation",
    "PolyMatrix",
    "RecurrenceTruncation",
    "RectDensity",
    "SingularMatrix",
    "as_rat",
    "assemble_moments",
    "build_recurrence",
    "cd_blocks",
    "check_abc",
    "check_biorthogonality",
    "check_cd_formula",
    "check_dual_form",
    "check_orthogonality",
    "check_projection",
    "check_recurrence_matrix",
    "check_recurrences",
    "check_reproduction",
    "extract_families",
    "factorize",
    "floor_f",
    "format_rat",
    "in_complement_J",
    "kernel_eval",
    "measure_from_json",
    "n_minus_big",
    "n_plus",
    "pair_of",
    "pairing_matrix",
    "parse_rat",
    "pos_of",
    "rat",
    "recurrence_n_max",
    "required_depth",
    "shift_monomial",
    "validate_band",
    "validate_degree_structure",
]
