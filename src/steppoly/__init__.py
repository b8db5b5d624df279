"""Exact bivariate mixed-type multiple orthogonal polynomials on the step-line.

Build the moment matrix of a q x p measure matrix, factorize it in exact
rational arithmetic, read off the biorthogonal polynomial families, and verify
every structural identity (orthogonality, band recurrences, Christoffel-
Darboux and ABC formulas) with zero tolerance.
"""

from .families import check_biorthogonality, extract_families, pairing_matrix
from .gaussborel import factorize
from .moments import assemble_moments
from .rational import rat
from .recurrence import build_recurrence, required_depth

__version__ = "0.1.0"

# The names the README's library quick start imports; everything else is
# imported from its submodule.
__all__ = [
    "assemble_moments",
    "build_recurrence",
    "check_biorthogonality",
    "extract_families",
    "factorize",
    "pairing_matrix",
    "rat",
    "required_depth",
]
