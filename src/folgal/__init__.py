"""folgal: exact Galois analysis of plane foliations and line self-maps.

The package decides whether the Gauss map of a holomorphic foliation of the
complex projective plane is a Galois covering, classifies Galois self-maps
of the line by their finite Möbius deck groups, and emits verifiable
certificates: fibre-polynomial roots, deck transformations, inflection
divisors, local singularity invariants, branching types, genus, and a
numeric monodromy cross-check.
"""

from .analyze import AnalysisResult, analyze
from .foliation import (
    DegenerateFoliationError,
    PlaneFoliation,
    from_strings,
    from_vector_field,
    inflection_divisor,
    invariant_line_test,
    singular_locus,
    tangency_on_line,
)
from .galois import (
    GaloisVerdict,
    deck_transformations,
    discriminant_square_test,
    detect_symmetry,
    extremal_type_report,
    gauss_fiber_polynomial,
    generic_polar_genus,
    lr_deformation,
    reduce_to_p1,
    tangent_dim_bound_g3,
    verdict,
)
from .klein1d import BinaryRationalMap, classify, ramification_profile, regular_type_test
from .local import branch_count, classify_singularities, polar_curve, vanishing_and_tangency_order
from .multipoly import MultiPoly
from .numberfield import QQ, FieldSplit, NumberField, extend
from .polyops import (
    discriminant,
    is_square_over_closure,
    mpoly_gcd,
    perfect_power_part,
    resultant,
    squarefree_decompose,
)

# The numeric monodromy names load numpy, so they are imported on first use.
_MONODROMY_NAMES = ("cross_check", "monodromy_of_foliation")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_MONODROMY_NAMES))
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MONODROMY_NAMES:
        from . import monodromy

        return getattr(monodromy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
