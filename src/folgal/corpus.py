"""Named foliations and line maps used by the regression and acceptance suites."""

from __future__ import annotations

from fractions import Fraction

from .foliation import PlaneFoliation, from_strings
from .galois import lr_deformation
from .klein1d import BinaryRationalMap
from .linalg import rank
from .numberfield import QQ
from .parsing import parse_poly, parse_rational

# (field spec, A, B) triples; names describe the geometry, not provenance.
FOLIATION_SPECS = {
    # degree-3, quasi-homogeneous of weights (2, 3), cyclic deck group,
    # extremal branching 3(3)_1, genus 1
    "cyclic_cubic_qh23": ("g^2-g+1", "x*y", "g*y^2+x^3"),
    # degree-3, weights (1, 2), convex-transverse mix; extremal, genus 1
    "parabola_cubic_qh12": (None, "y+x^2", "-1/3*x^3"),
    # degree-4 with a singularity of non-integral characteristic order 3/2
    "halfchi_quartic": ("g^2-4*g+6", "(y^2+x^3)*x", "(g/6*y^2+4*x^3)*g*y"),
    # homogeneous power families (cyclic deck groups)
    "fermat_3": (None, "x^3", "y^3"),
    "fermat_4": (None, "x^4", "y^4"),
    "fermat_5": (None, "x^5", "y^5"),
    # perturbed power family: radial singularities break the Galois property
    "fermat_3_perturbed": (None, "x^3-x", "y^3-y"),
    # degree-4 pencil of cubics through nine base points
    "hessian_pencil_4": (None, "-x*(2*y^3-x^3-1)", "y*(2*x^3-y^3-1)"),
    # degree-5 modular foliation over Q(sqrt 5)
    "modular_quintic": (
        "g^2-5",
        "(x^2-1)*(x^2-(g-2)^2)*(x+g*y)",
        "(y^2-1)*(y^2-(g-2)^2)*(y+g*x)",
    ),
    # homogeneous dihedral families (degree 2n)
    "dihedral_4": (None, "(x^2+y^2)^2", "(x^2-y^2)^2"),
    "dihedral_6": (None, "(x^3+y^3)^2", "(x^3-y^3)^2"),
    # homogeneous tetrahedral (degree 12) and octahedral (degree 24)
    "tetrahedral_12": (
        "g^2+3",
        "(x^4+2*g*x^2*y^2+y^4)^3",
        "(x^4-2*g*x^2*y^2+y^4)^3",
    ),
    "octahedral_24": (None, "(x^8+14*x^4*y^4+y^8)^3", "(x*y*(x^4-y^4))^4"),
    # homogeneous icosahedral (degree 60)
    "icosahedral_60": (
        None,
        "(x^20-228*x^15*y^5+494*x^10*y^10+228*x^5*y^15+y^20)^3",
        "(x*y*(x^10+11*x^5*y^5-y^10))^5",
    ),
    # quasi-homogeneous convex member of the extremal family, weights (d-1, d)
    "convex_qh_34": (None, "x^5", "y^4+x^4*y"),
}


def foliation(name: str) -> PlaneFoliation:
    spec = FOLIATION_SPECS[name]
    return from_strings(*spec)


MAP_SPECS = {
    "power_3": (None, "z^3"),
    "power_5": (None, "z^5"),
    "power_7": (None, "z^7"),
    "dihedral_2": (None, "((z^2+1)^2)/(4*z^2)"),
    "dihedral_3": (None, "((z^3+1)^2)/(4*z^3)"),
    "dihedral_4": (None, "((z^4+1)^2)/(4*z^4)"),
    "tetrahedral": ("g^2+3", "((z^4+2*g*z^2+1)^3)/((z^4-2*g*z^2+1)^3)"),
    "octahedral": (None, "((z^8+14*z^4+1)^3)/(108*z^4*(z^4-1)^4)"),
    "icosahedral": (
        None,
        "((z^20-228*z^15+494*z^10+228*z^5+1)^3)/(-1728*z^5*(z^10+11*z^5-1)^5)",
    ),
    "cusp_cubic": (None, "z^3-z^2"),
}


def line_map(name: str) -> BinaryRationalMap:
    field_spec, text = MAP_SPECS[name]
    if field_spec:
        from .foliation import field_from_spec

        field = field_from_spec(field_spec)
    else:
        field = QQ
    rf = parse_rational(text, field, ("z",))
    return BinaryRationalMap.make(rf.num, rf.den)


def random_deformation_member(rng, degree: int) -> PlaneFoliation:
    """Random member of the extremal deformation family of x^d dx + y^d dy.

    Draws a rank-2 mixing matrix with entries in [-3, 3] and two independent
    affine forms with coefficients in [-2, 2], redrawing dependent choices,
    then deforms by :func:`~folgal.galois.lr_deformation`.  The same ``rng``
    state always gives the same member.
    """
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)
        )
        if rank([list(r) for r in rows], QQ) == 2:
            break
    while True:
        u = parse_poly(
            f"{rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*y + {rng.randint(-2, 2)}",
            QQ,
            ("x", "y"),
        )
        v = parse_poly(
            f"{rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*y + {rng.randint(-2, 2)}",
            QQ,
            ("x", "y"),
        )
        mono = [(0, 0), (1, 0), (0, 1)]
        m = [
            [u.terms.get(e, Fraction(0)) for e in mono],
            [v.terms.get(e, Fraction(0)) for e in mono],
        ]
        if rank(m, QQ) == 2:
            break
    F0 = from_strings(None, f"x^{degree}", f"y^{degree}")
    return lr_deformation(F0, u, v, rows)
