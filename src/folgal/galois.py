"""Galois decision procedures for plane foliations.

Routes: the translation-fiber polynomial and its discriminant (complete in
degrees 2 and 3), continuous-symmetry detection with reduction to a self-map
of the line, and the local sufficient/necessary conditions on inflection
orders and singularity invariants (complete in prime degree).  Certificates
are symbolic and machine-checkable; deck transformations are verified
against the Gauss map before being returned.  A homogeneous foliation
reduces along the Euler field in closed form, to its line map up to a
Möbius map, which is classified once; a Galois one takes its branching
type from that classification, and genus 0.  For
extremal Galois certificates the branching follows from the genus of a
generic polar by Riemann-Hurwitz; that genus is read from delta invariants
at the foliation's singular points, the base locus of the net of polars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from sympy import isprime
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_cyclotomic_poly

from .foliation import (
    AFFINE,
    PROJ,
    InflectionReport,
    PlaneFoliation,
    from_vector_field,
    inflection_divisor,
)
from .klein1d import BinaryRationalMap, WeightedBranchingType, classify
from .linalg import kernel_basis, mat_mul, mat_vec, rank as matrix_rank
from .local import _polar_pool, classify_singularities
from .multipoly import MultiPoly, NotDivisible, evaluate_at
from .numberfield import QQ, adjoin_root, coordinates, invert
from .polyops import is_irreducible, is_square_over_closure, mpoly_gcd
from .ratfunc import RationalFunction, compose_poly
from .sympy_bridge import factor_irreducible

XYT = ("x", "y", "t")


class UseAnotherMethod(Exception):
    """The requested route does not apply to this foliation."""


@dataclass
class GaloisVerdict:
    status: str  # "galois" | "not_galois" | "inconclusive"
    method: str
    degree: int
    certificate: dict = dc_field(default_factory=dict)

    @property
    def is_galois(self):
        return self.status == "galois"

    def __str__(self):
        return f"{self.status} via {self.method}"


# -- translation-fiber polynomial -----------------------------------------------------


def _fiber_polynomial(A: MultiPoly, B: MultiPoly, target, trim=None) -> MultiPoly:
    """``A * B(x + tA, y + tB) - B * A(x + tA, y + tB)`` over the variables
    ``target``, which hold those of ``A`` and ``B`` and ``t``.  ``A`` and
    ``B`` are substituted in their own variables; ``trim``, when given, is
    applied to both shifted fields before the products."""
    field = A.field
    At, Bt = A.with_vars(target), B.with_vars(target)
    t = MultiPoly.variable(field, target, "t")
    shift = {
        "x": MultiPoly.variable(field, target, "x") + t * At,
        "y": MultiPoly.variable(field, target, "y") + t * Bt,
    }
    Ash = A.substitute(shift, target=target)
    Bsh = B.substitute(shift, target=target)
    if trim is not None:
        Ash, Bsh = trim(Ash), trim(Bsh)
    return At * Bsh - Bt * Ash


def gauss_fiber_polynomial(F: PlaneFoliation) -> MultiPoly:
    """P(x, y, t) comparing the field at (x, y) and at (x + tA, y + tB).

    Its roots in t locate the other points of the Gauss fibre through
    (x, y) along the common tangent line; t divides P identically.
    """
    P = _fiber_polynomial(F.A, F.B, XYT)
    if not P.substitute({"t": 0}).is_zero():
        raise AssertionError("t must divide the fibre polynomial")
    return P


def discriminant_square_test(F: PlaneFoliation) -> GaloisVerdict:
    """Complete Galois test in degrees 2 and 3 via the fibre discriminant."""
    d = F.degree
    if d not in (2, 3):
        raise UseAnotherMethod("discriminant test applies to degrees 2 and 3 only")
    P = gauss_fiber_polynomial(F)
    t = MultiPoly.variable(F.field, XYT, "t")
    Q = P.exact_div(t)
    tdeg = Q.degree_in("t")
    coeffs = [c.with_vars(AFFINE if c.vars != AFFINE else c.vars)
              for c in Q.univariate_coeffs("t")]
    coeffs = [c.drop_vars([v for v in c.vars if v == "t"]) if "t" in c.vars else c
              for c in coeffs]

    if d == 2:
        if tdeg != 1:
            raise UseAnotherMethod("degenerate fibre polynomial in degree 2")
        a0, a1 = coeffs
        root = RationalFunction(-a0, a1)
        # P = t (a1 t + a0), so num/den is a root when a1 num + a0 den == 0
        if a1 * root.num + a0 * root.den:
            raise AssertionError("fibre root failed the identity a1 * num + a0 * den == 0")
        cert = {"fiber_polynomial": P, "roots": [root]}
        return GaloisVerdict("galois", "discriminant_square", d, cert)

    if tdeg != 2:
        raise UseAnotherMethod("fibre polynomial dropped t-degree; use another method")
    a1, a2, a3 = coeffs
    disc = a2 * a2 - 4 * a1 * a3
    ok, root_or_witness, unit = is_square_over_closure(disc)
    if not ok:
        return GaloisVerdict(
            "not_galois",
            "discriminant_square",
            d,
            {"discriminant": disc, "odd_multiplicity_factor": root_or_witness},
        )
    cert = {
        "discriminant": disc,
        "square_root_witness": root_or_witness,
        "unit": unit,
        "a2": a2,
        "a3": a3,
        "fiber_polynomial": P,
    }
    check_root_identity(cert)
    return GaloisVerdict("galois", "discriminant_square", d, cert)


def check_root_identity(cert: dict) -> None:
    """Check the identity that proves the two fibre roots of a degree-3 certificate.

    With ``P = t Q``, ``Q = a3 t^2 + a2 t + a1`` and ``disc = a2^2 - 4 a1 a3``,
    ``4 a3 Q((-a2 +- sqrt(unit) r) / (2 a3)) = unit r^2 - disc``, so
    ``unit r^2 == disc`` proves that both are roots of ``P``, without
    adjoining ``sqrt(unit)``.
    """
    r = cert["square_root_witness"]
    if (r * r).scale(cert["unit"]) != cert["discriminant"]:
        raise AssertionError("fibre roots failed the identity unit * r^2 == disc")


def _cubic_fibre_roots(F: PlaneFoliation, cert: dict) -> list[RationalFunction]:
    """The two roots ``(-a2 +- sqrt(unit) r) / (2 a3)`` of a degree-3
    certificate, over ``F.field`` with ``sqrt(unit)`` adjoined when it is not
    there already.

    ``sqrt(unit)`` is a root of the first irreducible factor of
    ``T^2 - unit``; over Q, for a square ``unit``, that factor is ``T - s``
    with ``s >= 0``.
    """
    check_root_identity(cert)
    unit, r, a2, a3 = (cert[k] for k in ("unit", "square_root_witness", "a2", "a3"))
    probe = MultiPoly.from_dict(F.field, ("T",), {(2,): 1, (0,): -unit})
    field, srt = adjoin_root(factor_irreducible(probe)[0][0], "q")
    r, a2, a3 = (c.to_field(field) for c in (r, a2, a3))
    delta = r.scale(srt)
    return [
        RationalFunction(-a2 + delta, a3 * 2),
        RationalFunction(-a2 - delta, a3 * 2),
    ]


# -- local sufficient/necessary conditions --------------------------------------------


@dataclass
class LocalTypeReport:
    sufficient: bool
    necessary: bool
    verdict: GaloisVerdict
    invariants: list
    transverse_orders: list
    # the inflection divisor, when the chi test did not decide first
    inflection: InflectionReport | None = None


def extremal_type_report(F: PlaneFoliation) -> LocalTypeReport:
    """Sufficient (top contact order everywhere) and necessary (orders divide
    the degree) local conditions, with the verdict they imply.

    The transverse contact orders come from the inflection divisor's
    squarefree parts; only a not-Galois witness factors a part into its
    irreducible components."""
    d = F.degree
    invs = classify_singularities(F)
    chi_ok = all(not inv.violates_local_condition for inv in invs)
    chi_extremal = all(inv.chi == 1 or inv.chi == d for inv in invs)
    prime = isprime(d)

    if not chi_ok:
        witness = next(inv for inv in invs if inv.violates_local_condition)
        verdict = GaloisVerdict(
            "not_galois",
            "local_conditions",
            d,
            {
                "witness_point": str(witness.point),
                "chi": witness.chi,
                "invariants": invs,
            },
        )
        return LocalTypeReport(False, False, verdict, invs, [])

    report = inflection_divisor(F)
    orders = sorted({p.rho for p in report.parts if p.kind == "transverse"})
    sufficient = chi_extremal and all(rho == d for rho in orders)
    necessary = chi_ok and all(d % rho == 0 for rho in orders)

    if sufficient:
        verdict = GaloisVerdict(
            "galois",
            "local_conditions",
            d,
            {"extremal": True, "invariants": invs, "transverse_orders": orders},
        )
    elif not necessary:
        # the witness is an irreducible component: only this branch factors
        bad = next(c for c in report.transverse() if d % c.rho != 0)
        verdict = GaloisVerdict(
            "not_galois",
            "local_conditions",
            d,
            {"witness_component": str(bad.curve), "rho": bad.rho,
             "invariants": invs},
        )
    elif prime:
        # in prime degree the sufficient condition is also necessary
        verdict = GaloisVerdict(
            "not_galois",
            "local_conditions",
            d,
            {"prime_degree": True, "extremal": False, "invariants": invs},
        )
    else:
        verdict = GaloisVerdict(
            "inconclusive",
            "local_conditions",
            d,
            {"invariants": invs, "transverse_orders": orders},
        )
    return LocalTypeReport(sufficient, necessary, verdict, invs, orders, report)


# -- infinitesimal symmetries ------------------------------------------------------------


@dataclass
class InfinitesimalSymmetry:
    """Projective vector field R with [R, X] = epsilon X.

    ``coeffs`` are the 8 trace-free matrix coordinates
    (t1, t2, m12, m21, h1, h2, m31, m32) in the chart field, ``epsilon`` the
    eigenvalue, ``normal_form`` one of 'weighted' (case A), 'shear' (case B),
    'parabolic' (case C), with parameters, and ``transformed`` the foliation
    in the normalizing chart together with the 3x3 change matrix.
    """

    coeffs: list
    epsilon: object
    normal_form: str | None = None
    weights: tuple | None = None
    chart_change: list | None = None
    transformed: PlaneFoliation | None = None
    epsilon_normalized: object | None = None  # epsilon rescaled to integer weights
    note: str = ""


def _sl3_basis_fields(field):
    """Affine vector-field pairs of the 8 trace-free matrix generators."""
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    one = MultiPoly.constant(field, AFFINE, 1)
    zero = MultiPoly.zero(field, AFFINE)
    return [
        (one, zero),        # translation d/dx        (m13)
        (zero, one),        # translation d/dy        (m23)
        (y, zero),          # y d/dx                  (m12)
        (zero, x),          # x d/dy                  (m21)
        (x, zero),          # x d/dx                  (m11 - m33)
        (zero, y),          # y d/dy                  (m22 - m33)
        (-(x * x), -(x * y)),  # quadratic row        (m31)
        (-(x * y), -(y * y)),  # quadratic row        (m32)
    ]


def _lie_bracket(R, F: PlaneFoliation):
    Rx, Ry = R
    A, B = F.A, F.B
    RA = Rx * A.derivative("x") + Ry * A.derivative("y")
    RB = Rx * B.derivative("x") + Ry * B.derivative("y")
    XRx = A * Rx.derivative("x") + B * Rx.derivative("y")
    XRy = A * Ry.derivative("x") + B * Ry.derivative("y")
    return (RA - XRx, RB - XRy)


def detect_symmetry(F: PlaneFoliation) -> list[InfinitesimalSymmetry]:
    """Kernel of the joint linear system [R, X] = epsilon X, normalized."""
    field = F.field
    basis = _sl3_basis_fields(field)
    columns = [_lie_bracket(R, F) for R in basis]
    columns.append((-F.A, -F.B))  # the epsilon column
    monomials = set()
    for colA, colB in columns:
        monomials |= set(colA.terms) | set(colB.terms)
    monomials = sorted(monomials)
    zero = field.zero()
    rows = []
    for which in (0, 1):
        for mono in monomials:
            row = [col[which].terms.get(mono, zero) for col in columns]
            if any(row):
                rows.append(row)
    if not rows:
        return []
    return [_attach_normal_form(F, vec) for vec in kernel_basis(rows, field)]


def _matrix_from_coords(coords):
    """Traceless 3x3 matrix from the 8 coordinates."""
    t1, t2, m12, m21, h1, h2, m31, m32 = coords
    m33 = -(h1 + h2) * Fraction(1, 3)
    m11 = h1 + m33
    m22 = h2 + m33
    return [
        [m11, m12, t1],
        [m21, m22, t2],
        [m31, m32, m33],
    ]


def _char_poly_roots(field, M):
    """Eigenvalues of a 3x3 matrix, with multiplicity, when all of them lie in
    the field; None otherwise."""
    # char poly: det(M - L I) expanded over field[L]
    L = MultiPoly.variable(field, ("L",), "L")

    def entry(i, j):
        base = MultiPoly.constant(field, ("L",), M[i][j])
        return base - L if i == j else base

    rows = [[entry(i, j) for j in range(3)] for i in range(3)]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    roots = []
    for fac, mult in factor_irreducible(det):
        deg = fac.degree_in("L")
        coeffs = fac.coefficients("L")
        if deg == 1:
            roots.extend([-coeffs[0]] * mult)
        else:
            return None  # irrational eigenvalue ratios handled by caller
    return roots


def _attach_normal_form(F: PlaneFoliation, vec) -> InfinitesimalSymmetry:
    """The symmetry with coordinates ``vec[:8]`` and eigenvalue ``vec[8]``,
    with its normal form, chart change and transformed foliation: weighted
    when its matrix ``M`` has ``M^3 != 0``, else parabolic when ``M^2 != 0``,
    else shear.  A symmetry with no normal form keeps the reason in
    ``note``."""
    field = F.field
    sym = InfinitesimalSymmetry(coeffs=list(vec[:8]), epsilon=vec[8])
    M = _matrix_from_coords(sym.coeffs)
    M2 = mat_mul(M, M)
    weights = eps_normalized = None
    try:
        if any(map(any, mat_mul(M2, M))):
            form = "weighted"
            cols, weights, eps_normalized = _normalize_weighted(field, M, sym.epsilon)
        elif any(map(any, M2)):
            form, cols = "parabolic", _normalize_parabolic(field, M, M2)
        else:
            form, cols = "shear", _normalize_shear(field, M)
        transformed = transform_foliation(F, cols)
    except NotImplementedError as exc:
        sym.note = f"normal form unavailable: {exc}"
        return sym
    sym.normal_form, sym.weights, sym.chart_change = form, weights, cols
    sym.transformed, sym.epsilon_normalized = transformed, eps_normalized
    return sym


def transform_foliation(F: PlaneFoliation, T_cols) -> PlaneFoliation:
    """Pull the foliation back by the projective change with column vectors
    ``T_cols`` over ``F.field`` (the new chart's frame); returns the new
    foliation.

    The pulled-back triple ``T^t (omega o T)`` stays saturated, so no gcd
    is taken.  Since ``T^t`` is invertible, a common factor of the new
    triple divides each component of ``omega o T``; composed with
    ``T^-1``, a ring automorphism, it becomes a common factor of
    ``omega``'s components, which have gcd 1.
    :func:`~folgal.foliation.from_vector_field` saturates its result all
    the same.

    The identity change returns ``F`` itself: ``omega o T = omega`` and
    ``T^t = I``, so the new triple is ``F.triple``, whose chart ``z = 1``
    gives back ``(A, B)``, already saturated; the pull-back and the
    saturation gcd would rebuild ``F``."""
    if all(T_cols[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3)):
        return F
    work = F.field
    a, b, c = F.triple
    X3 = [MultiPoly.variable(work, PROJ, v) for v in PROJ]
    images = mat_vec(list(zip(*T_cols)), X3)
    sub = dict(zip(PROJ, images))
    comps = [p.substitute(sub, target=PROJ) for p in (a, b, c)]
    # omega' = T^t (omega o T)
    new_a, new_b = mat_vec(T_cols[:2], comps)
    # affine field from the new triple
    Anew = -_at_z1(new_b)
    Bnew = _at_z1(new_a)
    return from_vector_field(Anew, Bnew, work)


def _at_z1(p: MultiPoly) -> MultiPoly:
    q = p.dehomogenize("z")
    return q.permute_to(AFFINE) if q.vars != AFFINE else q


def _normalize_weighted(field, M, epsilon):
    """``(cols, weights, epsilon_normalized)`` of a diagonalizable ``M`` with
    rational eigenvalues: eigenvector columns, the least eigenvalue's last,
    the coprime integer weights ``(alpha, beta)``, ``alpha <= beta``, of the
    other two over it, and ``epsilon`` rescaled to those weights (None when
    both weights vanish)."""
    if any(M[i][j] for i in range(3) for j in range(3) if i != j):
        eigen = _char_poly_roots(field, M)
        if eigen is None:
            raise NotImplementedError("irrational eigenvalue ratios")
    else:
        eigen = [M[i][i] for i in range(3)]  # a diagonal M needs no char poly
    distinct = []
    for ev in eigen:
        if all(ev != d for d in distinct):
            distinct.append(ev)
    # eigenvectors per distinct eigenvalue; diagonalizability required
    flat = []
    for ev in distinct:
        shifted = [list(row) for row in M]
        for i in range(3):
            shifted[i][i] = M[i][i] - ev
        kern = kernel_basis(shifted, field)
        mult = sum(1 for e in eigen if e == ev)
        if len(kern) != mult:
            raise NotImplementedError(
                "non-diagonalizable symmetry with repeated eigenvalue"
            )
        for v in kern:
            flat.append((ev, v))

    try:
        rats = [QQ.coerce(ev) for ev, _ in flat]
    except TypeError:
        raise NotImplementedError("eigenvalues outside the rationals") from None
    order = sorted(range(3), key=lambda i: rats[i])
    base = order[0]
    xi, yi = order[1], order[2]  # convention: alpha <= beta
    w1 = rats[xi] - rats[base]
    w2 = rats[yi] - rats[base]
    denlcm = math.lcm(w1.denominator, w2.denominator)
    a_int = int(w1 * denlcm)
    b_int = int(w2 * denlcm)
    g = math.gcd(a_int, b_int)
    alpha, beta = a_int // g, b_int // g
    cols = [list(flat[xi][1]), list(flat[yi][1]), list(flat[base][1])]
    eps_normalized = None
    if w1:
        eps_normalized = epsilon * Fraction(alpha) / w1
    elif w2:
        eps_normalized = epsilon * Fraction(beta) / w2
    return cols, (alpha, beta), eps_normalized


def _unit_not_killed(N, field):
    """The first unit vector that the nonzero matrix ``N`` does not kill."""
    for k in range(3):
        w = [field.zero()] * 3
        w[k] = field.one()
        if any(mat_vec(N, w)):
            return w


def _normalize_shear(field, M):
    """Chart columns ``[M w, w, v]`` of ``M`` with ``M^2 = 0 != M``: ``w`` a
    unit vector outside ``ker M`` and ``v`` in ``ker M`` independent of
    ``M w``."""
    w = _unit_not_killed(M, field)
    img = mat_vec(M, w)
    for v in kernel_basis(M, field):
        if matrix_rank([img, list(v)], field) == 2:
            return [img, w, list(v)]
    raise AssertionError("rank-1 nilpotent without a second kernel vector")


def _normalize_parabolic(field, M, M2):
    """Chart columns ``[M^2 w, M w, w]`` of ``M`` with ``M^3 = 0 != M^2``:
    ``w`` a unit vector outside ``ker M^2``."""
    w = _unit_not_killed(M2, field)
    return [mat_vec(M2, w), mat_vec(M, w), w]


# -- reduction to a self-map of the line ---------------------------------------------


class ReductionDegenerate(Exception):
    pass


def _bezout_pair(alpha: int, beta: int):
    """(gamma, delta) with alpha*delta - beta*gamma = 1 for coprime
    alpha, beta >= 0, from the extended Euclidean algorithm's
    alpha*s + beta*t = 1 as delta = s, gamma = -t."""
    a, b, s0, s1, t0, t1 = alpha, beta, 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    if a != 1:
        raise ValueError("weights must be coprime")
    return -t0, s0


def _monomial_rf(field, exponent: int) -> RationalFunction:
    z = MultiPoly.variable(field, ("z",), "z")
    one = MultiPoly.constant(field, ("z",), 1)
    if exponent >= 0:
        return RationalFunction(z**exponent, one, reduce=False)
    return RationalFunction(one, z ** (-exponent), reduce=False)


def reduce_to_p1(F: PlaneFoliation, sym: InfinitesimalSymmetry) -> BinaryRationalMap:
    """Quotient self-map of the line induced by the Gauss map along the
    symmetry's first integral; its deck group matches the foliation's."""
    if sym.normal_form is None:
        raise ReductionDegenerate(f"symmetry has no usable normal form: {sym.note}")
    Fn = sym.transformed
    field = Fn.field
    d = F.degree
    if Fn.degree != d:
        raise ReductionDegenerate("chart change altered the degree")
    A, B = Fn.A, Fn.B
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    C = y * A - x * B

    if sym.normal_form == "weighted":
        alpha, beta = sym.weights
        gamma, delta = _bezout_pair(alpha, beta)
        sub = {"x": _monomial_rf(field, gamma), "y": _monomial_rf(field, delta)}
        Az, Bz, Cz = (compose_poly(p, sub) for p in (A, B, C))
        if Az.is_zero() or Bz.is_zero() or Cz.is_zero():
            raise ReductionDegenerate("a coefficient vanished along the section")
        # Az^alpha (-Bz)^(-beta) Cz^(beta - alpha), 0 <= alpha <= beta, which
        # make reduces once
        num = Az.num**alpha * Bz.den**beta * Cz.num ** (beta - alpha)
        den = Az.den**alpha * (-Bz.num) ** beta * Cz.den ** (beta - alpha)
    elif sym.normal_form == "shear":
        # X = P(y) d/dx + Q(y) (x d/dx + y d/dy): A = P + xQ, B = yQ
        if B.degree_in("x") > 0:
            raise ReductionDegenerate("shear normal form violated")
        ydiv = MultiPoly.variable(field, ("y",), "y")
        By = B.drop_vars(["x"])
        if not ydiv.divides(By):
            raise ReductionDegenerate("shear normal form violated (B not divisible by y)")
        Qp = By.exact_div(ydiv)
        Qxy = Qp.with_vars(AFFINE).permute_to(AFFINE)
        Pxy = A - x * Qxy
        if Pxy.degree_in("x") > 0:
            raise ReductionDegenerate("shear normal form violated (P depends on x)")
        Pz = Pxy.drop_vars(["x"]).rename_vars({"y": "z"})
        Qz = Qp.rename_vars({"y": "z"})
        num, den = -Qz, Pz
    elif sym.normal_form == "parabolic":
        # X = P(w)(y d/dx + d/dy) + Q(w) d/dx with w = y^2 - 2x
        Pw = _express_in_parabola(B)
        if Pw is None:
            raise ReductionDegenerate("parabolic normal form violated")
        yP = y * _eval_w(Pw, field)
        Qw = _express_in_parabola(A - yP)
        if Qw is None:
            raise ReductionDegenerate("parabolic normal form violated (Q)")
        z = MultiPoly.variable(field, ("z",), "z")
        Pz = Pw.rename_vars({"w": "z"})
        Qz = Qw.rename_vars({"w": "z"})
        num, den = Qz * Qz - z * Pz * Pz, Pz * Pz
    else:
        raise ReductionDegenerate(f"unknown normal form {sym.normal_form}")

    fmap = BinaryRationalMap.make(num, den)
    if fmap.degree != d:
        raise ReductionDegenerate(
            f"reduction degenerate: degree dropped to {fmap.degree} from {d}"
        )
    return fmap


def _express_in_parabola(p: MultiPoly):
    """Rewrite p(x, y) as a polynomial in w = y^2 - 2x, or None."""
    field = p.field
    wy = ("w", "y")
    w = MultiPoly.variable(field, wy, "w")
    y = MultiPoly.variable(field, wy, "y")
    half = Fraction(1, 2)
    xin = (y * y - w).scale(half)
    q = p.substitute({"x": xin, "y": y}, target=wy)
    if q.degree_in("y") > 0:
        return None
    return q.drop_vars(["y"])


def _eval_w(pw: MultiPoly, field) -> MultiPoly:
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    wval = y * y - x.scale(2)
    return pw.substitute({"w": wval}, target=AFFINE)


# -- deck transformations --------------------------------------------------------------


@dataclass
class DeckTransformation:
    tau_x: RationalFunction
    tau_y: RationalFunction
    verified: bool = False

    def __str__(self):
        return f"(x, y) -> ({self.tau_x}, {self.tau_y})"


def verify_deck(F: PlaneFoliation, tau: DeckTransformation) -> bool:
    """Symbolic identity G o tau = G for the affine Gauss map G = (-B/C, A/C).

    With tau = (Nx/Dx, Ny/Dy), the projective point [X:Y:Z] = [Nx Dy : Ny Dx :
    Dx Dy] and A, B, C = yA - xB homogenised to one degree n,
    P(tau) = P^h(X, Y, Z)/Z^n, so the identity is checked with denominators
    cleared: B^h(X, Y, Z) C == B C^h(X, Y, Z), the same with A, and
    C^h(X, Y, Z) != 0.
    """
    field = tau.tau_x.num.field
    A, B = F.A.to_field(field), F.B.to_field(field)
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    C = y * A - x * B
    n = max(f.total_degree() for f in (A, B, C))
    nx, dx = tau.tau_x.num, tau.tau_x.den
    ny, dy = tau.tau_y.num, tau.tau_y.den
    At, Bt, Ct = evaluate_at(
        [f.homogenize("z", n) for f in (A, B, C)], [nx * dy, ny * dx, dx * dy]
    )
    return not Ct.is_zero() and Bt * C == B * Ct and At * C == A * Ct


def _mobius_forms(m, top: MultiPoly, bottom: MultiPoly):
    """``(a top + b bottom, c top + e bottom)`` for m = [[a, b], [c, e]]: the
    numerator and denominator of the Möbius map at ``top / bottom``."""
    if not m[0][0] * m[1][1] - m[0][1] * m[1][0]:
        raise ValueError("singular Möbius matrix")
    return (
        top.scale(m[0][0]) + bottom.scale(m[0][1]),
        top.scale(m[1][0]) + bottom.scale(m[1][1]),
    )


def decks_from_roots(F: PlaneFoliation, roots) -> list[DeckTransformation]:
    """tau = (x + tA, y + tB) for each rational fibre root t(x, y), verified."""
    out = []
    field = roots[0].num.field if roots else F.field
    A, B = F.A.to_field(field), F.B.to_field(field)
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    identity = DeckTransformation(
        RationalFunction.from_poly(x), RationalFunction.from_poly(y), True
    )
    out.append(identity)
    for root in roots:
        tau = DeckTransformation(
            RationalFunction(root.num * A + x * root.den, root.den),
            RationalFunction(root.num * B + y * root.den, root.den),
        )
        tau.verified = verify_deck(F, tau)
        if not tau.verified:
            raise AssertionError("deck transformation failed verification")
        out.append(tau)
    return out


# Möbius generator matrices of the finite deck groups, over generator fields
# declared by (name, min poly coefficients low-to-high, embedding hint).


def _cyclotomic_coeffs(n: int):
    """The n-th cyclotomic polynomial's coefficients below the leading 1,
    low to high, from sympy's dense integer kernel."""
    coeffs = [Fraction(c) for c in reversed(dup_zz_cyclotomic_poly(n, ZZ))]
    lead = coeffs.pop()
    assert lead == 1
    return coeffs


def _mobius_generators(tag: str, d: int, base_field):
    """``(K, generator matrices [[a, b], [c, e]])`` over an extension K of
    base_field, one pair for each irreducible factor over base_field of the
    polynomial whose root the table needs; a root of a linear factor lies in
    base_field, any other factor is adjoined as a layer named ``c`` (or
    ``c1``, ... when that is taken)."""
    if tag == "cyclic":
        coeffs = _cyclotomic_coeffs(d)
    elif tag == "dihedral":
        coeffs = _cyclotomic_coeffs(d // 2)
    elif tag == "tetrahedral" or tag == "octahedral":
        coeffs = [Fraction(1), Fraction(0)]  # i^2 + 1
    elif tag == "icosahedral":
        coeffs = _cyclotomic_coeffs(5)
    else:
        raise ValueError(f"no Möbius generators for {tag}")
    poly = MultiPoly.from_dict(
        base_field, ("T",), {(i,): c for i, c in enumerate(list(coeffs) + [1])}
    )
    for fac, _ in factor_irreducible(poly):
        K, root = adjoin_root(fac, "c", start=0)
        zero, one = K.zero(), K.one()
        if tag == "cyclic":
            yield K, [[[root, zero], [zero, one]]]
        elif tag == "dihedral":
            inv = [[zero, one], [one, zero]]          # z -> 1/z
            rot = [[root, zero], [zero, one]]          # z -> zeta z
            yield K, [inv, rot]
        elif tag == "icosahedral":
            zeta = root
            phi = zeta + zeta**4  # golden section (sqrt5 - 1)/2
            sigma = [[-one, phi], [phi, one]]          # z -> (phi - z)/(phi z + 1)
            tau = [[-zeta, phi * zeta], [phi, one]]    # z -> (phi - z) zeta/(phi z + 1)
            yield K, [sigma, tau]
        else:
            i = root
            tau = [[one, i], [one, -i]]                # z -> (z+i)/(z-i)
            if tag == "tetrahedral":
                sigma = [[-one, zero], [zero, one]]    # z -> -z
            else:
                sigma = [[i, -one], [one, -i]]         # z -> (iz-1)/(z-i)
            yield K, [sigma, tau]


def _mat_normalize(m, field):
    flat = [m[0][0], m[0][1], m[1][0], m[1][1]]
    pivot = next(v for v in flat if v)
    inv = invert(field, pivot)
    return tuple(tuple(v * inv for v in row) for row in m)


def _mobius_close(gens, field, cap: int):
    one, zero = field.one(), field.zero()
    idm = _mat_normalize([[one, zero], [zero, one]], field)
    seen = {idm}
    frontier = [idm]
    gens_n = [_mat_normalize(g, field) for g in gens]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens_n:
                pn = _mat_normalize(mat_mul(g, h), field)
                if pn not in seen:
                    seen.add(pn)
                    nxt.append(pn)
                    if len(seen) > cap:
                        raise AssertionError("Möbius closure exceeded expected order")
        frontier = nxt
    return sorted(seen, key=lambda m: [coordinates(c) for row in m for c in row])


def _fixes_line_map(num: MultiPoly, den: MultiPoly, m, n: int) -> bool:
    """Whether ``num/den o w == num/den`` symbolically, for slices ``num``,
    ``den`` in ``z`` of degree at most ``n`` and w = (a z + b)/(c z + e),
    m = [[a, b], [c, e]]: with W1 = a z + b, W0 = c z + e and P^h the slice P
    homogenised to n, P(w) = P^h(W1, W0)/W0^n, so the identity is
    num^h(W1, W0) den == den^h(W1, W0) num.

    :func:`decks_from_line_decks` checks the table generators with it, on the
    reduced line map.  On the unreduced slices A1 = A(1, z), B1 = B(1, z) of
    a homogeneous foliation it is the Gauss-map identity of the lift.  By
    homogeneity, G o tau = G for the lift tau of w is equivalent to the
    univariate identities (C = yA - xB)

        A(w)(A(z) w - B(z)) = A(z) C(w),    B(w)(A(z) w - B(z)) = B(z) C(w),

    that is, with Aw = A1^h(W1, W0), Bw = B1^h(W1, W0), mid = A1 W1 - B1 W0
    and Cw = Aw W1 - Bw W0, to Aw mid == A1 Cw and Bw mid == B1 Cw.  But
    Aw mid - A1 Cw = W0 (A1 Bw - Aw B1) and Bw mid - B1 Cw = W1 (A1 Bw - Aw B1),
    and W0, W1 are nonzero because m is nonsingular, so both hold exactly
    when Aw B1 == A1 Bw: this identity with num, den = B1, A1.
    """
    W1, W0 = _mobius_forms(m, MultiPoly.variable(num.field, ("z",), "z"), num.one_like())
    Nw, Dw = evaluate_at([f.homogenize("w", n) for f in (num, den)], [W1, W0])
    return Nw * den == Dw * num


def _cancel_common_lines(C: MultiPoly, D: MultiPoly, Q: MultiPoly):
    """``(C/g, D/g)`` for g = gcd(C, D), with C = Ay - Bx, D = A W1 - B W0
    and the fixed-line form Q = x W1 - y W0 of a Möbius matrix m.

    Q is zero only when m is scalar; then W0, W1 = (s x, s y), D = s C and
    g = C.  Otherwise let a line p through the origin, with direction
    (x0, y0), divide both C and D.  A and B are coprime, since the foliation
    is saturated, so (A(p), B(p)) is not zero, and C(p) = D(p) = 0 make
    (x0, y0) and (W0(p), W1(p)) both parallel to it; hence Q(p) = 0, and
    every linear factor of g divides Q.  So g is found from r = gcd(C, Q), a
    form of degree at most 2, without Euclid on C and D: while h = gcd(r, D)
    is not constant, divide C and D by h and set r = gcd(r, C).  The loop
    keeps r = gcd(Q, C) for the current C, so a common factor of the current
    C and D, being one of the original pair, divides r and hence h; when h
    is constant the quotients are coprime.  A line dividing g to a higher
    power than r takes more than one round; each round lowers deg C.
    """
    if Q.is_zero():
        return C.one_like(), D.exact_div(C)
    r = mpoly_gcd(C, Q)
    while not r.is_constant():
        h = mpoly_gcd(r, D)
        if h.is_constant():
            break
        C, D = C.exact_div(h), D.exact_div(h)
        r = mpoly_gcd(r, C)
    return C, D


def _mobius_deck_group(F: PlaneFoliation, klein):
    """``(K, group)``: the normalized Möbius deck group of the line map of a
    homogeneous foliation, over the field K of the table generators, closed
    from generators that pass :func:`_fixes_line_map` on the reduced map.

    The line map is the one kept on ``F`` (:func:`_line_map_class`), its
    coefficients moved into ``K``.  It stays reduced there with no new gcd:
    ``num`` and ``den`` are coprime over ``F.field``, so ``u num + v den = 1``
    for some polynomials ``u``, ``v`` over ``F.field``, and that identity
    holds over ``K`` too; the denominator stays monic."""
    tag, order = klein.tag, klein.order
    degree = F.degree if tag in ("cyclic", "dihedral") else order
    phi, _ = _line_map_class(F)  # the line map whose decks we lift
    working = None
    for K, gens in _mobius_generators(tag, degree, F.field):
        gmap = BinaryRationalMap(phi.num.to_field(K), phi.den.to_field(K))
        for conj in _conjugation_pool(K):
            cand = [_conj_mat(conj, g) for g in gens]
            if all(_fixes_line_map(gmap.num, gmap.den, g, gmap.degree) for g in cand):
                working = cand
                break
        if working is not None:
            break
    if working is None:
        raise UseAnotherMethod(
            "table generators do not fix the reduced map; conjugation search failed"
        )
    group = _mobius_close(working, K, cap=4 * order)
    if len(group) != order:
        raise AssertionError(
            f"Möbius group has order {len(group)}, expected {order}"
        )
    return K, group


def decks_from_line_decks(F: PlaneFoliation, klein):
    """Lift the deck group of the line reduction of a homogeneous foliation.

    Uses tau(x, y) = [(Ay - Bx)/(A w(y/x) - B)] (1, w(y/x)) for each Möbius
    deck w of B(1, z)/A(1, z).  With w(y/x) = W1/W0, W1 = a y + b x,
    W0 = c y + e x and D = A W1 - B W0, tau = (C W0/D, C W1/D) for
    C = Ay - Bx.  Both coordinates are put in lowest terms with one gcd,
    taken through the fixed lines of w (:func:`_cancel_common_lines`):
    after g = gcd(C, D), the linear form W is either a factor of D/g or
    prime to it.

    Every lift is verified from the generators.  The table generators
    w1, w2 pass :func:`_fixes_line_map` on the reduced line map f = b/a, and
    f o w1 = f o w2 = f gives f o (w1 o w2) = f, so every element of the
    group that :func:`_mobius_close` builds from exact products fixes f;
    the closure has the expected order, so it is the whole deck group.
    With A1 = A(1, z) = h a and B1 = B(1, z) = h b (the scalar of f's monic
    denominator taken into h), homogenising to n = deg h + deg f splits each
    evaluation in the notation of :func:`_fixes_line_map`:
    Aw = h^h(W1, W0) a^h(W1, W0) and Bw = h^h(W1, W0) b^h(W1, W0), so
    Aw B1 - A1 Bw = h^h(W1, W0) h (a^h(W1, W0) b - a b^h(W1, W0)), which the
    reduced identity makes zero for every group element; that docstring
    shows the unreduced identity is the Gauss-map identity G o tau = G of
    the lift.
    """
    if not F.is_homogeneous():
        raise UseAnotherMethod("line-deck lifting needs a homogeneous foliation")
    K, group = _mobius_deck_group(F, klein)
    A = F.A.to_field(K)
    B = F.B.to_field(K)
    x = MultiPoly.variable(K, AFFINE, "x")
    y = MultiPoly.variable(K, AFFINE, "y")
    C = A * y - B * x
    out = []
    for m in group:
        W1, W0 = _mobius_forms(m, y, x)
        Cg, Dg = _cancel_common_lines(C, A * W1 - B * W0, x * W1 - y * W0)
        out.append(DeckTransformation(
            _times_linear(Cg, Dg, W0), _times_linear(Cg, Dg, W1), verified=True
        ))
    return out


def _times_linear(num: MultiPoly, den: MultiPoly, W: MultiPoly) -> RationalFunction:
    """``num W / den`` in lowest terms, for coprime ``num``, ``den`` and a
    linear form ``W``, which either divides ``den`` or is prime to it."""
    try:
        return RationalFunction(num, den.exact_div(W), reduce=False)
    except NotDivisible:
        return RationalFunction(num * W, den, reduce=False)


def _conjugation_pool(K):
    zero, one = K.coerce(0), K.one()
    identity = [[one, zero], [zero, one]]
    inv = [[zero, one], [one, zero]]             # z -> 1/z
    neg = [[-one, zero], [zero, one]]            # z -> -z
    neginv = [[zero, -one], [one, zero]]         # z -> -1/z
    return [identity, inv, neg, neginv]


def _conj_mat(c, g):
    inv = [[c[1][1], -c[0][1]], [-c[1][0], c[0][0]]]
    return mat_mul(mat_mul(inv, g), c)


def _restrict_homog(p: MultiPoly, K) -> MultiPoly:
    q = p.to_field(K)
    return q.substitute({"x": 1, "y": MultiPoly.variable(K, AFFINE, "y")}).drop_vars(["x"]).rename_vars({"y": "z"})


def line_map(A: MultiPoly, B: MultiPoly, K) -> BinaryRationalMap:
    """The self-map ``B(1, z)/A(1, z)`` of the line of directions, in the
    coordinate ``z = y/x``, that homogeneous ``A``, ``B`` of one degree
    induce: the line through the origin of slope ``z`` goes to the
    direction ``[A : B]`` of the field along it."""
    return BinaryRationalMap.make(_restrict_homog(B, K), _restrict_homog(A, K))


def _line_map_class(F: PlaneFoliation):
    """``(phi, classify(phi))`` for the line map ``phi`` of a homogeneous
    foliation over ``F.field``, built once and kept on ``F``.

    Its readers are the symmetry route (:func:`symmetry_verdict`), the
    branching (:func:`branching_and_genus`) and the Möbius decks
    (:func:`_mobius_deck_group`); ``F.A`` and ``F.B`` are never changed
    after ``F`` is built, so the pair stays the line map's."""
    if F._line_map is None:
        phi = line_map(F.A, F.B, F.field)
        F._line_map = (phi, classify(phi))
    return F._line_map


def deck_transformations(F: PlaneFoliation, verdict: GaloisVerdict):
    """Verified birational deck transformations from a symbolic certificate."""
    if not verdict.is_galois:
        raise ValueError("deck transformations need a Galois verdict")
    roots = verdict.certificate.get("roots")
    if roots:
        return decks_from_roots(F, roots)
    if "square_root_witness" in verdict.certificate:
        return decks_from_roots(F, _cubic_fibre_roots(F, verdict.certificate))
    klein = verdict.certificate.get("klein")
    if klein is not None and F.is_homogeneous():
        return decks_from_line_decks(F, klein.klein)
    raise UseAnotherMethod(
        "no deck realization implemented for this certificate type"
    )


# -- deformations of homogeneous foliations --------------------------------------------


def lr_deformation(F: PlaneFoliation, u: MultiPoly, v: MultiPoly, rows) -> PlaneFoliation:
    """Deformation of a homogeneous field by a linear substitution, a mixing
    matrix, and a radial multiple:

        (aA + bB)(u, v) d/dx + (cA + dB)(u, v) d/dy + (lA + mB)(u, v) R

    with rows = ((a, c, l), (b, d, m)) linearly independent and u, v
    independent polynomials of degree at most one.
    """
    if not F.is_homogeneous():
        raise ValueError("deformation applies to homogeneous foliations")
    field = F.field
    u = u.with_vars(AFFINE) if u.vars != AFFINE else u
    v = v.with_vars(AFFINE) if v.vars != AFFINE else v
    if u.total_degree() > 1 or v.total_degree() > 1:
        raise ValueError("substitution polynomials must have degree at most 1")
    mono = [(0, 0), (1, 0), (0, 1)]
    mat = [[p.terms.get(e, field.zero()) for e in mono] for p in (u, v)]
    if matrix_rank(mat, field) < 2:
        raise ValueError("substitution polynomials are linearly dependent")
    rmat = [[field.coerce(c) for c in row] for row in rows]
    if matrix_rank(rmat, field) < 2:
        raise ValueError("mixing rows are linearly dependent")
    sub = {"x": u, "y": v}
    Au = F.A.substitute(sub)
    Bu = F.B.substitute(sub)
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    radial = Au.scale(rmat[0][2]) + Bu.scale(rmat[1][2])
    Anew = Au.scale(rmat[0][0]) + Bu.scale(rmat[1][0]) + x * radial
    Bnew = Au.scale(rmat[0][1]) + Bu.scale(rmat[1][1]) + y * radial
    return from_vector_field(Anew, Bnew, field)


# -- tangent space bound in degree 3 ----------------------------------------------------


def _u3_basis(field):
    """24 basis vector fields of the degree-3 structured space in (x, y)."""
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    zero = MultiPoly.zero(field, AFFINE)
    monos3 = [
        MultiPoly.from_dict(field, AFFINE, {(i, j): 1})
        for i in range(4)
        for j in range(4 - i)
    ]
    cubics = [
        MultiPoly.from_dict(field, AFFINE, {(i, 3 - i): 1}) for i in range(4)
    ]
    basis = [(m, zero) for m in monos3]
    basis += [(zero, m) for m in monos3]
    basis += [(x * c, y * c) for c in cubics]
    return basis


def _disc_first_order(F: PlaneFoliation, Y):
    """d/de of the fibre discriminant of X + e Y at e = 0 (degree 3 only)."""
    field = F.field
    XYE = ("x", "y", "e")
    Ya, Yb = Y
    e = MultiPoly.variable(field, XYE, "e")
    Ae = F.A.with_vars(XYE) + e * Ya.with_vars(XYE)
    Be = F.B.with_vars(XYE) + e * Yb.with_vars(XYE)
    P = _mod_e2(_fiber_polynomial(Ae, Be, ("x", "y", "t", "e"), trim=_mod_e2))
    # coefficients a_i = a_i0 + e a_i1 of P/t = a_1 + a_2 t + a_3 t^2
    tc = P.univariate_coeffs("t")
    if len(tc) < 4:
        tc = tc + [MultiPoly.zero(field, XYE)] * (4 - len(tc))
    a = {}
    for i in (1, 2, 3):
        ci = tc[i]
        for k in (0, 1):
            part = ci.univariate_coeffs("e")
            val = part[k] if len(part) > k else MultiPoly.zero(field, ("x", "y"))
            a[(i, k)] = val.with_vars(AFFINE).permute_to(AFFINE) if val.vars != AFFINE else val
    gamma = (
        a[(2, 0)] * a[(2, 1)] * 2
        - (a[(1, 0)] * a[(3, 1)] + a[(1, 1)] * a[(3, 0)]) * 4
    )
    return gamma


def _mod_e2(p: MultiPoly) -> MultiPoly:
    """``p`` modulo ``e^2``."""
    idx = p.vars.index("e")
    terms = {exp: c for exp, c in p.terms.items() if exp[idx] <= 1}
    return MultiPoly(p.field, p.vars, terms)


def _poly_remainder(p: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Remainder of graded-lex division by a single divisor."""
    if divisor.is_zero():
        raise ZeroDivisionError
    div_exp, div_coeff = divisor.leading_term()
    inv = invert(p.field, div_coeff)
    rem = MultiPoly.zero(p.field, p.vars)
    work = p
    while work.terms:
        exp, coeff = work.leading_term()
        qexp = tuple(a - b for a, b in zip(exp, div_exp))
        if any(q < 0 for q in qexp):
            piece = MultiPoly(p.field, p.vars, {exp: coeff})
            rem = rem + piece
            work = work - piece
            continue
        piece = MultiPoly(p.field, p.vars, {qexp: coeff * inv})
        work = work - piece * divisor
    return rem


def tangent_dim_bound_g3(F: PlaneFoliation) -> int:
    """Upper bound for the tangent dimension of the degree-3 Galois locus at F.

    Dimension of { Y : delta | d/de disc(X + e Y) } modulo the line spanned
    by X, computed as a corank of an exact linear system.
    """
    if F.degree != 3:
        raise UseAnotherMethod("tangent bound is defined for degree 3")
    disc = discriminant_square_test(F)
    if not disc.is_galois:
        raise ValueError("tangent bound needs a Galois foliation")
    delta = disc.certificate.get("square_root_witness")
    if delta is None:
        raise ValueError("certificate lacks the square-root witness")
    if delta.field is not F.field:
        raise ValueError("witness lives in an extension; unexpected for this route")
    basis = _u3_basis(F.field)
    columns = []
    for Y in basis:
        gamma = _disc_first_order(F, Y)
        rem = _poly_remainder(gamma, delta)
        columns.append(rem)
    monomials = sorted(set().union(*[set(c.terms) for c in columns]))
    zero = F.field.zero()
    matrix = [
        [col.terms.get(m, zero) for col in columns] for m in monomials
    ]
    rk = matrix_rank(matrix, F.field) if matrix else 0
    return 24 - rk - 1


# -- genus of the generic polar ---------------------------------------------------------


def generic_polar_genus(F: PlaneFoliation) -> int:
    """Geometric genus of a generic polar curve, via delta invariants.

    The polar through ``q`` is the curve of points whose leaf's tangent line
    passes through ``q``; it is linear in ``q``, so the polars form a net of
    curves of degree ``d + 1`` whose base locus is the singular locus of the
    foliation.  By Bertini's theorem (Hartshorne, *Algebraic Geometry*,
    III.10.9 and Remark 10.9.2) a generic member of that net is smooth off
    its base locus, so only the foliation's singular points can carry delta
    invariants.  The germs there come from the foliation's one pool
    (:class:`folgal.local._PolarPool`), built from the jet at each
    point as ``A (qV - v qW) - B (qU - u qW)`` and resolved once, for the
    singularity table too; a germ of lowest degree 1 has delta 0 at once.
    Reducible polars are skipped, and two in a row must agree.  A polar
    counts as irreducible by :func:`~folgal.polyops.is_irreducible`: the
    factor degrees of its images on lines mod small primes usually prove it,
    and only the other polars are factored.
    """
    d = F.degree
    pool = _polar_pool(F)
    last = None
    for index in range(12):
        if not is_irreducible(pool.polar(index)):
            continue
        total_delta = sum(
            sp.class_size * pool.branches_and_delta(index, k)[1]
            for k, sp in enumerate(pool.points)
        )
        genus = d * (d - 1) // 2 - total_delta
        if genus == last:
            return genus
        last = genus
    raise RuntimeError("polar genus could not be stabilized")


def branching_and_genus(F: PlaneFoliation, verdict: GaloisVerdict):
    """(weighted branching type, genus) of a Galois foliation's generic polar
    over the pencil of lines through its base point.

    Homogeneous foliations (``F.is_homogeneous()``: ``c_bar = 0``, ``A`` and
    ``B`` homogeneous of degree ``d``) read both off the line map
    ``phi = B(1, z)/A(1, z)`` (``line_map``), which has degree ``d`` because
    the saturated ``A`` and ``B`` are coprime:

    - *Branching.*  The leaf through ``p`` has the direction
      ``phi(l) = [A(p) : B(p)]``, where ``l`` is the line through the origin
      and ``p``; as ``A`` and ``B`` have the same degree, the direction is
      constant along ``l``.  For a generic base point ``q``, the polar
      ``P_q`` is the set of ``p`` whose tangent line passes through ``q``,
      i.e. ``q - p`` is parallel to ``phi(l)``.  On each ``l`` with
      ``phi(l) != l`` (all but the finitely many invariant lines) exactly
      one point qualifies: where ``l`` meets the line through ``q`` of
      direction ``phi(l)``.  So ``l`` parametrizes ``P_q`` birationally.  A
      line of the pencil ``M`` through ``q`` is determined by its direction,
      which parametrizes ``M``.  In these parameters the polar map
      ``P_q -> M``, ``p`` to its tangent line, is ``l -> phi(l)``: its
      branching type is ``classify(phi).branching``.
    - *Genus.*  The same parametrization by lines through the origin makes
      every polar rational, so the genus is 0.

    ``classify(phi)`` is the one kept on ``F`` by :func:`_line_map_class`;
    the symmetry route's certificate carries the same outcome, as
    ``-1/phi = m o phi`` for the Möbius map ``m(w) = -1/w`` over
    ``F.field`` has the class, branching type and genus of ``phi`` (proof
    in :func:`symmetry_verdict`), so a homogeneous analysis classifies
    once.

    When ``phi`` is not Galois while ``verdict`` is, the routes disagree,
    which is an ``AssertionError``.  Homogeneous ``A`` and ``B`` of
    different degrees do not qualify: the direction turns along each line
    through the origin, and ``y^2 d/dx + x d/dy`` has polars of genus 1.
    They take the extremal rule below.

    Extremal certificates (prime degree, degree 2 and the top-contact local
    certificate) take the genus of a generic polar and the branching by
    Riemann-Hurwitz.  Other inputs return None and defer to numeric
    monodromy.
    """
    if not verdict.is_galois:
        return None
    d = F.degree
    if F.is_homogeneous():
        _, outcome = _line_map_class(F)
        if not outcome.klein.is_galois():
            raise AssertionError(
                f"decision routes disagree: {verdict.method}:galois, "
                f"line map:{outcome.klein}"
            )
        return outcome.branching, 0
    if not (verdict.certificate.get("extremal") or isprime(d)):
        return None
    g = generic_polar_genus(F)
    if d == 1:
        return WeightedBranchingType(1, {}), g  # a degree-one Gauss map has no branching
    two_c = 2 * d - 2 + 2 * g
    if two_c % (d - 1):
        raise AssertionError("genus incompatible with an extremal covering")
    c = two_c // (d - 1)
    bw = WeightedBranchingType(d, {(d,): c})
    return bw, g


# -- the decision cascade ----------------------------------------------------------------


def symmetry_verdict(F: PlaneFoliation) -> GaloisVerdict | None:
    """Verdict of the symmetry-reduction route: the Klein class of the line
    map of the first symmetry that has a normal form and reduces without
    degenerating; None when no symmetry does.

    A homogeneous foliation of degree ``d >= 2`` takes the Euler field in
    closed form (:func:`_euler_verdict`); any other input runs
    :func:`detect_symmetry` and :func:`reduce_to_p1`.

    The Euler route reduces along ``R = (x d/dx + y d/dy)/(d - 1)``.
    *Symmetry.*  ``A`` and ``B`` are homogeneous of degree ``d``, so by
    Euler's relation ``R(A) = d A/(d - 1)`` while ``X(R_x) = A/(d - 1)``,
    and likewise for ``B``: ``[R, X] = X``, which is checked exactly.  In
    the coordinates of :func:`_sl3_basis_fields` ``R`` is
    ``(0, 0, 0, 0, 1/(d-1), 1/(d-1), 0, 0)`` with ``epsilon = 1``.
    *Normal form.*  Its matrix is ``diag(h/3, h/3, -2h/3)``, ``h = 1/(d-1)``,
    so :func:`_normalize_weighted` takes the weights ``(1, 1)``, the
    identity chart change (the eigenvectors are ``e1``, ``e2`` for ``h/3``
    and ``e3`` for ``-2h/3``), ``transformed = F`` and
    ``epsilon_normalized = epsilon / h = d - 1``.
    *Reduction.*  :func:`_bezout_pair` gives ``(gamma, delta) = (-1, 0)``
    for ``(1, 1)``, so :func:`reduce_to_p1` restricts to the section
    ``x -> 1/z``, ``y -> 1`` and takes ``ghat = Az / (-Bz)`` (``C`` enters
    to the power ``beta - alpha = 0``).  By homogeneity ``A(1/z, 1) =
    z^-d A(1, z)``, and the same for ``B``, so ``ghat = A(1, z)/(-B(1, z))
    = -1/phi`` for the line map ``phi = B(1, z)/A(1, z)``.  ``phi`` is in
    lowest terms, so ``-1/phi = phi.den / (-phi.num)`` is too; dividing
    both by ``-lc(phi.num)`` makes the denominator monic, as
    :class:`~folgal.klein1d.BinaryRationalMap` keeps it, and no gcd is
    taken.
    *Class.*  ``-1/phi = m o phi`` for the Möbius map ``m(w) = -1/w`` over
    ``F.field``.  The two maps have the same fibres, so the same critical
    points and ramification profiles, and ``m`` moves each branch value to
    one of the same degree over ``F.field``: the Klein class, the weighted
    branching type and the genus coincide, and the certificate carries
    ``classify(phi)``, kept on ``F`` by :func:`_line_map_class`, whose
    branch records name the branch values of ``phi``; reports print only
    the class and the branching type."""
    if F.is_homogeneous() and F.degree >= 2:
        return _euler_verdict(F)
    for sym in detect_symmetry(F):
        if sym.normal_form is None:
            continue
        try:
            fmap = reduce_to_p1(F, sym)
        except ReductionDegenerate:
            continue
        outcome = classify(fmap)
        status = "galois" if outcome.klein.is_galois() else "not_galois"
        return GaloisVerdict(
            status,
            "symmetry_reduction",
            F.degree,
            {"symmetry": sym, "reduction": fmap, "klein": outcome},
        )
    return None


def _euler_verdict(F: PlaneFoliation) -> GaloisVerdict:
    """The symmetry route of a homogeneous foliation of degree ``d >= 2``,
    in closed form; :func:`symmetry_verdict` proves it."""
    d = F.degree
    field = F.field
    h = Fraction(1, d - 1)
    R = (MultiPoly.variable(field, AFFINE, "x").scale(h),
         MultiPoly.variable(field, AFFINE, "y").scale(h))
    if _lie_bracket(R, F) != (F.A, F.B):
        raise AssertionError("the Euler field fails [R, X] = X")
    zero, one = field.zero(), field.one()
    sym = InfinitesimalSymmetry(
        coeffs=[zero] * 4 + [field.coerce(h)] * 2 + [zero] * 2,
        epsilon=one,
        normal_form="weighted",
        weights=(1, 1),
        chart_change=[[one, zero, zero], [zero, one, zero], [zero, zero, one]],
        transformed=F,
        epsilon_normalized=field.coerce(d - 1),
    )
    phi, outcome = _line_map_class(F)
    inv = invert(field, phi.num.leading_coefficient())
    fmap = BinaryRationalMap(phi.den.scale(-inv), phi.num.scale(inv))
    status = "galois" if outcome.klein.is_galois() else "not_galois"
    return GaloisVerdict(
        status,
        "symmetry_reduction",
        d,
        {"symmetry": sym, "reduction": fmap, "klein": outcome},
    )


def low_degree_verdict(d: int) -> GaloisVerdict | None:
    """The Galois verdict that degrees 1 and 2 get without a certificate, as
    every covering of degree at most 2 is Galois; None in higher degree."""
    reason = {1: "degree one", 2: "degree-two coverings are Galois"}.get(d)
    if reason is None:
        return None
    return GaloisVerdict("galois", "low_degree", d, {"reason": reason})


def verdict(F: PlaneFoliation) -> GaloisVerdict:
    """Symbolic decision cascade.

    Order: the discriminant test in degrees 2 and 3, the low-degree verdict,
    symmetry reduction, then the local conditions (complete for prime
    degree).  Returns an inconclusive verdict only for composite degree
    without usable symmetry where the local conditions split.
    """
    d = F.degree
    if d in (2, 3):
        try:
            return discriminant_square_test(F)
        except UseAnotherMethod:
            pass
    low = low_degree_verdict(d)
    if low is not None:
        return low
    sym_verdict = symmetry_verdict(F)
    if sym_verdict is not None:
        return sym_verdict
    report = extremal_type_report(F)
    return report.verdict
