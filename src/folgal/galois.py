"""Galois decision procedures for plane foliations.

Routes: the translation-fiber polynomial and its discriminant (complete in
degrees 2 and 3), continuous-symmetry detection with reduction to a self-map
of the line, and the local sufficient/necessary conditions on inflection
orders and singularity invariants (complete in prime degree).  Certificates
are symbolic and machine-checkable; deck transformations are verified
against the Gauss map before being returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .foliation import (
    AFFINE,
    PROJ,
    PlaneFoliation,
    from_vector_field,
    inflection_divisor,
)
from .klein1d import BinaryRationalMap, WeightedBranchingType, classify
from .linalg import kernel_basis, rank as matrix_rank
from .local import classify_singularities, germ_delta, polar_curve
from .multipoly import MultiPoly, NotDivisible, evaluate_at
from .numberfield import FieldElement, NumberField, RationalField, extend, fresh_name, invert
from .polyops import is_square_over_closure, mpoly_gcd, squarefree_part
from .ratfunc import RationalFunction, compose_poly
from .solve2d import common_zeros
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


def gauss_fiber_polynomial(F: PlaneFoliation) -> MultiPoly:
    """P(x, y, t) comparing the field at (x, y) and at (x + tA, y + tB).

    Its roots in t locate the other points of the Gauss fibre through
    (x, y) along the common tangent line; t divides P identically.
    """
    field = F.field
    A3 = F.A.with_vars(XYT)
    B3 = F.B.with_vars(XYT)
    x = MultiPoly.variable(field, XYT, "x")
    y = MultiPoly.variable(field, XYT, "y")
    t = MultiPoly.variable(field, XYT, "t")
    xs = x + t * A3
    ys = y + t * B3
    Ash = F.A.substitute({"x": xs, "y": ys}, target=XYT)
    Bsh = F.B.substitute({"x": xs, "y": ys}, target=XYT)
    P = A3 * Bsh - B3 * Ash
    if not P.substitute({"t": 0}).is_zero():
        raise AssertionError("t must divide the fibre polynomial")
    return P


def _field_sqrt(field, value):
    """Square root of a field constant inside the field, or None."""
    if isinstance(field, RationalField):
        v = Fraction(value)
        if v < 0:
            return None
        num = math.isqrt(v.numerator)
        den = math.isqrt(v.denominator)
        if num * num == v.numerator and den * den == v.denominator:
            return Fraction(num, den)
        return None
    probe = MultiPoly.from_dict(
        field, ("T",), {(2,): field.coerce(1), (0,): -field.coerce(value)}
    )
    for fac, _ in factor_irreducible(probe):
        if fac.degree_in("T") == 1:
            coeffs = [c.constant_value() for c in fac.univariate_coeffs("T")]
            return -coeffs[0]
    return None


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
    there already."""
    check_root_identity(cert)
    unit, r, a2, a3 = (cert[k] for k in ("unit", "square_root_witness", "a2", "a3"))
    srt = _field_sqrt(F.field, unit)
    if srt is None:
        field = extend(F.field, fresh_name(F.field, "q"), [-F.field.coerce(unit), 0])
        srt = field.gen()
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


def extremal_type_report(F: PlaneFoliation, seed: int = 7) -> LocalTypeReport:
    """Sufficient (top contact order everywhere) and necessary (orders divide
    the degree) local conditions, with the verdict they imply."""
    d = F.degree
    invs = classify_singularities(F, seed=seed)
    chi_ok = all(not inv.violates_local_condition for inv in invs)
    chi_extremal = all(inv.chi == 1 or inv.chi == d for inv in invs)
    prime = _is_prime(d)

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
    trans = report.transverse()
    orders = sorted({c.rho for c in trans})
    sufficient = chi_extremal and all(c.rho == d for c in trans)
    necessary = chi_ok and all(d % c.rho == 0 for c in trans)

    if sufficient:
        verdict = GaloisVerdict(
            "galois",
            "local_conditions",
            d,
            {"extremal": True, "invariants": invs, "transverse_orders": orders},
        )
    elif not necessary:
        bad = next(c for c in trans if d % c.rho != 0)
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
    return LocalTypeReport(sufficient, necessary, verdict, invs, orders)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


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
    zero = Fraction(0) if isinstance(field, RationalField) else field.zero()
    rows = []
    for which in (0, 1):
        for mono in monomials:
            row = [col[which].terms.get(mono, zero) for col in columns]
            if any(row):
                rows.append(row)
    if not rows:
        return []
    one = Fraction(1) if isinstance(field, RationalField) else field.one()
    kernel = kernel_basis(rows, field, zero, one)
    return [_normalize_symmetry(F, vec) for vec in kernel]


def _matrix_from_coords(field, coords):
    """Traceless 3x3 matrix from the 8 coordinates."""
    t1, t2, m12, m21, h1, h2, m31, m32 = coords

    def co(v):
        return v if not isinstance(field, RationalField) else Fraction(v)

    third = Fraction(1, 3)
    if isinstance(field, RationalField):
        m33 = -(h1 + h2) * third
    else:
        m33 = -(h1 + h2) * field.coerce(third)
    m11 = h1 + m33
    m22 = h2 + m33
    return [
        [m11, m12, t1],
        [m21, m22, t2],
        [m31, m32, m33],
    ]


def _normalize_symmetry(F: PlaneFoliation, vec) -> InfinitesimalSymmetry:
    field = F.field
    coords, eps = list(vec[:8]), vec[8]
    sym = InfinitesimalSymmetry(coeffs=coords, epsilon=eps)
    M = _matrix_from_coords(field, coords)
    try:
        _attach_normal_form(F, sym, M)
    except NotImplementedError as exc:
        sym.note = f"normal form unavailable: {exc}"
    return sym


def _char_poly_roots(field, M):
    """Eigenvalues of a 3x3 matrix over the field, with the field possibly
    extended by one certified quadratic/cubic factor; None when the needed
    extension is unsupported."""
    # char poly: det(M - L I) expanded over field[L]
    one = MultiPoly.constant(field, ("L",), 1)
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
    work_field = field
    for fac, mult in factor_irreducible(det):
        deg = fac.degree_in("L")
        coeffs = [c.constant_value() for c in fac.univariate_coeffs("L")]
        if deg == 1:
            roots.extend([-coeffs[0]] * mult)
        else:
            return None, None  # irrational eigenvalue ratios handled by caller
    return work_field, roots


def _attach_normal_form(F: PlaneFoliation, sym: InfinitesimalSymmetry, M):
    field = F.field
    M2 = _mat_mul(field, M, M)
    M3 = _mat_mul(field, M2, M)
    if _mat_is_zero(M3):
        if _mat_is_zero(M2):
            _normalize_shear(F, sym, M)
        else:
            _normalize_parabolic(F, sym, M, M2)
        return
    work_field, eigen = _char_poly_roots(field, M)
    if eigen is None:
        raise NotImplementedError("irrational eigenvalue ratios")
    _normalize_weighted(F, sym, M, eigen)


def _mat_mul(field, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for k in range(1, n):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def _mat_is_zero(M):
    return all(not e for row in M for e in row)


def _mat_vec(M, v):
    return [sum_prod(M[i], v) for i in range(len(M))]


def sum_prod(row, v):
    acc = row[0] * v[0]
    for a, b in zip(row[1:], v[1:]):
        acc = acc + a * b
    return acc


def _kernel_of_matrix(field, M):
    zero = Fraction(0) if isinstance(field, RationalField) else field.zero()
    one = Fraction(1) if isinstance(field, RationalField) else field.one()
    return kernel_basis([list(r) for r in M], field, zero, one)


def transform_foliation(F: PlaneFoliation, T_cols) -> tuple[PlaneFoliation, list]:
    """Pull the foliation back by the projective change with column vectors
    ``T_cols`` (the new chart's frame); returns the new foliation."""
    field = F.A.field if not T_cols or not isinstance(T_cols[0][0], FieldElement) else T_cols[0][0].field
    work = field if isinstance(field, (NumberField, RationalField)) else F.field
    a, b, c = F.triple
    if isinstance(work, NumberField) and a.field is not work:
        a, b, c = (p.to_field(work) for p in (a, b, c))
    X3 = [MultiPoly.variable(work, PROJ, v) for v in PROJ]
    images = []
    for i in range(3):
        acc = MultiPoly.zero(work, PROJ)
        for j in range(3):
            acc = acc + X3[j].scale(T_cols[j][i])
        images.append(acc)
    sub = {"x": images[0], "y": images[1], "z": images[2]}
    comps = [p.substitute(sub, target=PROJ) for p in (a, b, c)]
    # omega' = T^t (omega o T)
    new_a = comps[0].scale(T_cols[0][0]) + comps[1].scale(T_cols[0][1]) + comps[2].scale(T_cols[0][2])
    new_b = comps[0].scale(T_cols[1][0]) + comps[1].scale(T_cols[1][1]) + comps[2].scale(T_cols[1][2])
    new_c = comps[0].scale(T_cols[2][0]) + comps[1].scale(T_cols[2][1]) + comps[2].scale(T_cols[2][2])
    g = mpoly_gcd(mpoly_gcd(new_a, new_b), new_c)
    if not g.is_constant():
        new_a, new_b, new_c = (p.exact_div(g) for p in (new_a, new_b, new_c))
    # affine field from the new triple
    Anew = -_at_z1(new_b)
    Bnew = _at_z1(new_a)
    return from_vector_field(Anew, Bnew, work), T_cols


def _at_z1(p: MultiPoly) -> MultiPoly:
    q = p.dehomogenize("z")
    return q.permute_to(AFFINE) if q.vars != AFFINE else q


def _normalize_weighted(F, sym, M, eigen):
    field = F.field
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
        kern = _kernel_of_matrix(field, shifted)
        mult = sum(1 for e in eigen if e == ev)
        if len(kern) != mult:
            raise NotImplementedError(
                "non-diagonalizable symmetry with repeated eigenvalue"
            )
        for v in kern:
            flat.append((ev, v))

    def as_rat(val):
        if isinstance(val, Fraction):
            return val
        return val.rational_value()

    rats = [as_rat(ev) for ev, _ in flat]
    if any(r is None for r in rats):
        raise NotImplementedError("eigenvalues outside the rationals")
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
    Fn, _ = transform_foliation(F, cols)
    sym.normal_form = "weighted"
    sym.weights = (alpha, beta)
    sym.chart_change = cols
    sym.transformed = Fn
    if w1:
        sym.epsilon_normalized = sym.epsilon * Fraction(alpha) / w1
    elif w2:
        sym.epsilon_normalized = sym.epsilon * Fraction(beta) / w2


def _normalize_shear(F, sym, M):
    field = F.field
    # M^2 = 0, M != 0: columns v1 = M w, v2 = w, v3 in ker M independent
    img = None
    wvec = None
    zero = Fraction(0) if isinstance(field, RationalField) else field.zero()
    one = Fraction(1) if isinstance(field, RationalField) else field.one()
    for k in range(3):
        w = [zero] * 3
        w[k] = one
        mv = _mat_vec(M, w)
        if any(mv):
            img, wvec = mv, w
            break
    kern = _kernel_of_matrix(field, M)
    third = None
    for v in kern:
        mat = [list(img), list(v)]
        if matrix_rank(mat, field) == 2:
            third = v
            break
    if third is None:
        raise AssertionError("rank-1 nilpotent without a second kernel vector")
    cols = [list(img), list(wvec), list(third)]
    Fn, _ = transform_foliation(F, cols)
    sym.normal_form = "shear"
    sym.chart_change = cols
    sym.transformed = Fn


def _normalize_parabolic(F, sym, M, M2):
    field = F.field
    zero = Fraction(0) if isinstance(field, RationalField) else field.zero()
    one = Fraction(1) if isinstance(field, RationalField) else field.one()
    wvec = None
    for k in range(3):
        w = [zero] * 3
        w[k] = one
        if any(_mat_vec(M2, w)):
            wvec = w
            break
    v2 = _mat_vec(M, wvec)
    v1 = _mat_vec(M2, wvec)
    cols = [list(v1), list(v2), list(wvec)]
    Fn, _ = transform_foliation(F, cols)
    sym.normal_form = "parabolic"
    sym.chart_change = cols
    sym.transformed = Fn


# -- reduction to a self-map of the line ---------------------------------------------


class ReductionDegenerate(Exception):
    pass


def _bezout_pair(alpha: int, beta: int):
    """(gamma, delta) with alpha*delta - beta*gamma = 1."""
    g, s, t = _xgcd(alpha, beta)
    if g != 1:
        raise ValueError("weights must be coprime")
    # alpha*s + beta*t = 1  ->  delta = s, gamma = -t
    return -t, s


def _xgcd(a: int, b: int):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, s, t = _xgcd(b, a % b)
    return g, t, s - (a // b) * t


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
        Az = compose_poly(A, sub)
        Bz = compose_poly(B, sub)
        Cz = compose_poly(C, sub)
        if Az.is_zero() or Bz.is_zero() or Cz.is_zero():
            raise ReductionDegenerate("a coefficient vanished along the section")
        ghat = (Az**alpha) * ((-Bz) ** (-beta)) * (Cz ** (beta - alpha))
    elif sym.normal_form == "shear":
        # X = P(y) d/dx + Q(y) (x d/dx + y d/dy): A = P + xQ, B = yQ
        ucoeffs = B.univariate_coeffs("x")
        if len(ucoeffs) > 1:
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
        z = MultiPoly.variable(field, ("z",), "z")
        Pz = Pxy.drop_vars(["x"]).rename_vars({"y": "z"})
        Qz = Qp.rename_vars({"y": "z"})
        ghat = RationalFunction(-Qz, Pz)
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
        one = MultiPoly.constant(field, ("z",), 1)
        ghat = RationalFunction(Qz * Qz - z * Pz * Pz, Pz * Pz)
    else:
        raise ReductionDegenerate(f"unknown normal form {sym.normal_form}")

    fmap = BinaryRationalMap.make(ghat.num, ghat.den)
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


def _verify_line_deck_lift(F: PlaneFoliation, m, K) -> bool:
    """G o tau = G for a homogeneous foliation and tau lifted from the Möbius
    deck w = (a z + b)/(c z + e), m = [[a, b], [c, e]], of the reduced line map.

    By homogeneity the identity is equivalent to the pair of univariate
    identities (with affine slices P(z) = P(1, z) and C = yA - xB):

        A(w)(A(z) w - B(z)) = A(z) C(w)
        B(w)(A(z) w - B(z)) = B(z) C(w)

    With W1 = a z + b, W0 = c z + e and P^h the slice P(z) homogenised to
    n = max(deg A(z), deg B(z)), P(w) = P^h(W1, W0)/W0^n, so clearing
    denominators gives the polynomial identities
    A^h(W1, W0)(A(z) W1 - B(z) W0) = A(z) C^h(W1, W0), the same with B, where
    C^h(W1, W0) = A^h(W1, W0) W1 - B^h(W1, W0) W0.
    """
    A1, B1 = _restrict_homog(F.A, K), _restrict_homog(F.B, K)
    n = max(A1.total_degree(), B1.total_degree())
    W1, W0 = _mobius_forms(m, MultiPoly.variable(K, ("z",), "z"), A1.one_like())
    Aw, Bw = evaluate_at([f.homogenize("w", n) for f in (A1, B1)], [W1, W0])
    Cw = Aw * W1 - Bw * W0
    mid = A1 * W1 - B1 * W0
    return Aw * mid == A1 * Cw and Bw * mid == B1 * Cw


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
    import sympy as sp

    z = sp.Symbol("z")
    poly = sp.Poly(sp.cyclotomic_poly(n, z), z)
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in
              [sp.Rational(v) for v in poly.all_coeffs()]]
    coeffs.reverse()
    lead = coeffs.pop()
    assert lead == 1
    return coeffs


def _mobius_generators(tag: str, d: int, base_field):
    """``(K, generator matrices [[a, b], [c, e]])`` over an extension K of
    base_field, one pair for each choice of the root the table needs."""
    if tag == "cyclic":
        for K, zeta in _adjoined_roots(base_field, _cyclotomic_coeffs(d)):
            yield K, [[[zeta, K.coerce(0)], [K.coerce(0), K.one()]]]
    elif tag == "dihedral":
        for K, zeta in _adjoined_roots(base_field, _cyclotomic_coeffs(d // 2)):
            zero, one = K.coerce(0), K.one()
            inv = [[zero, one], [one, zero]]          # z -> 1/z
            rot = [[zeta, zero], [zero, one]]          # z -> zeta z
            yield K, [inv, rot]
    elif tag == "tetrahedral" or tag == "octahedral":
        for K, i in _adjoined_roots(base_field, [Fraction(1), Fraction(0)]):  # i^2+1
            zero, one = K.coerce(0), K.one()
            tau = [[one, i], [one, -i]]                # z -> (z+i)/(z-i)
            if tag == "tetrahedral":
                sigma = [[-one, zero], [zero, one]]    # z -> -z
            else:
                sigma = [[i, -one], [one, -i]]         # z -> (iz-1)/(z-i)
            yield K, [sigma, tau]
    elif tag == "icosahedral":
        for K, zeta in _adjoined_roots(base_field, _cyclotomic_coeffs(5)):
            phi = zeta + zeta**4  # golden section (sqrt5 - 1)/2
            zero, one = K.coerce(0), K.one()
            sigma = [[-one, phi], [phi, one]]          # z -> (phi - z)/(phi z + 1)
            tau = [[-zeta, phi * zeta], [phi, one]]    # z -> (phi - z) zeta/(phi z + 1)
            yield K, [sigma, tau]
    else:
        raise ValueError(f"no Möbius generators for {tag}")


def _adjoined_roots(base_field, coeffs):
    """``(K, root)`` for each irreducible factor over base_field of the monic
    polynomial with low-to-high coefficients ``coeffs`` (leading 1 implied).

    A linear factor gives its root in K = base_field.  Any other factor is
    adjoined as a layer named ``c`` (or ``c1``, ... when that is taken).
    """
    poly = MultiPoly.from_dict(
        base_field, ("T",), {(i,): c for i, c in enumerate(list(coeffs) + [1])}
    )
    name = fresh_name(base_field, "c", start=0)
    for fac, _ in factor_irreducible(poly):
        low = [c.constant_value() for c in fac.univariate_coeffs("T")][:-1]
        if len(low) == 1:
            yield base_field, -low[0]
        else:
            K = extend(base_field, name, low)
            yield K, K.gen()


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
                prod = [
                    [g[0][0] * h[0][0] + g[0][1] * h[1][0],
                     g[0][0] * h[0][1] + g[0][1] * h[1][1]],
                    [g[1][0] * h[0][0] + g[1][1] * h[1][0],
                     g[1][0] * h[0][1] + g[1][1] * h[1][1]],
                ]
                pn = _mat_normalize(prod, field)
                if pn not in seen:
                    seen.add(pn)
                    nxt.append(pn)
                    if len(seen) > cap:
                        raise AssertionError("Möbius closure exceeded expected order")
        frontier = nxt
    return sorted(seen, key=lambda m: str(m))


def _map_fixes(fmap: BinaryRationalMap, m) -> bool:
    """Whether f o w = f symbolically for w = (a z + b)/(c z + e),
    m = [[a, b], [c, e]]: with W1 = a z + b, W0 = c z + e and N, D homogenised
    to deg f, N(W1, W0) D(z) == D(W1, W0) N(z)."""
    N, D = fmap.num, fmap.den
    W1, W0 = _mobius_forms(m, MultiPoly.variable(fmap.field, ("z",), "z"), N.one_like())
    Nw, Dw = evaluate_at([f.homogenize("w", fmap.degree) for f in (N, D)], [W1, W0])
    return Nw * D == Dw * N


def decks_from_line_decks(F: PlaneFoliation, klein, fmap: BinaryRationalMap):
    """Lift the deck group of the line reduction of a homogeneous foliation.

    Uses tau(x, y) = [(Ay - Bx)/(A w(y/x) - B)] (1, w(y/x)) for each Möbius
    deck w of B(1, z)/A(1, z); every lift is verified against the Gauss map.
    With w(y/x) = W1/W0, W1 = a y + b x, W0 = c y + e x and D = A W1 - B W0,
    tau = (C W0/D, C W1/D) for C = Ay - Bx.  Both coordinates are put in lowest
    terms with one gcd: after g = gcd(C, D), the linear form W is either a
    factor of D/g or prime to it.
    """
    if not F.c_bar.is_zero() or not (F.A.is_homogeneous() and F.B.is_homogeneous()):
        raise UseAnotherMethod("line-deck lifting needs a homogeneous foliation")
    tag, order = klein.tag, klein.order
    degree = F.degree if tag in ("cyclic", "dihedral") else order
    working = None
    for K, gens in _mobius_generators(tag, degree, F.field):
        # the line map whose decks we lift
        gmap = BinaryRationalMap.make(_restrict_homog(F.B, K), _restrict_homog(F.A, K))
        for conj in _conjugation_pool(K):
            cand = [_conj_mat(conj, g) for g in gens]
            if all(_map_fixes(gmap, g) for g in cand):
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
    A = F.A.to_field(K)
    B = F.B.to_field(K)
    x = MultiPoly.variable(K, AFFINE, "x")
    y = MultiPoly.variable(K, AFFINE, "y")
    C = A * y - B * x
    out = []
    for m in group:
        W1, W0 = _mobius_forms(m, y, x)
        D = A * W1 - B * W0
        g = mpoly_gcd(C, D)
        Cg, Dg = C.exact_div(g), D.exact_div(g)
        tau = DeckTransformation(_times_linear(Cg, Dg, W0), _times_linear(Cg, Dg, W1))
        # the Gauss-map identity reduces exactly to univariate identities
        # for homogeneous foliations; see _verify_line_deck_lift
        tau.verified = _verify_line_deck_lift(F, m, K)
        if not tau.verified:
            raise AssertionError("lifted deck failed the Gauss-map identity")
        out.append(tau)
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
    def mul(a, b):
        return [
            [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
        ]

    inv = [[c[1][1], -c[0][1]], [-c[1][0], c[0][0]]]
    return mul(mul(inv, g), c)


def _restrict_homog(p: MultiPoly, K) -> MultiPoly:
    q = p.to_field(K) if K is not p.field else p
    return q.substitute({"x": 1, "y": MultiPoly.variable(K, AFFINE, "y")}).drop_vars(["x"]).rename_vars({"y": "z"})


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
    if klein is not None and F.c_bar.is_zero() and F.A.is_homogeneous():
        return decks_from_line_decks(F, klein.klein, verdict.certificate["reduction"])
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
    if not (F.A.is_homogeneous() and F.B.is_homogeneous() and F.c_bar.is_zero()):
        raise ValueError("deformation applies to homogeneous foliations")
    field = F.field
    u = u.with_vars(AFFINE) if u.vars != AFFINE else u
    v = v.with_vars(AFFINE) if v.vars != AFFINE else v
    if u.total_degree() > 1 or v.total_degree() > 1:
        raise ValueError("substitution polynomials must have degree at most 1")
    mono = [(0, 0), (1, 0), (0, 1)]
    mat = [[_monomial_coeff(u, e) for e in mono], [_monomial_coeff(v, e) for e in mono]]
    if matrix_rank([list(r) for r in mat], field) < 2:
        raise ValueError("substitution polynomials are linearly dependent")
    (al, ga, la), (be, de, mu) = rows
    rmat = [
        [_to_coeff(field, al), _to_coeff(field, ga), _to_coeff(field, la)],
        [_to_coeff(field, be), _to_coeff(field, de), _to_coeff(field, mu)],
    ]
    if matrix_rank([list(r) for r in rmat], field) < 2:
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


def _monomial_coeff(p: MultiPoly, exp):
    zero = Fraction(0) if isinstance(p.field, RationalField) else p.field.zero()
    return p.terms.get(tuple(exp), zero)


def _to_coeff(field, v):
    if isinstance(field, RationalField):
        return Fraction(v)
    return field.coerce(v)


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
    XE = ("x", "y", "t", "e")
    A = F.A.with_vars(XE)
    B = F.B.with_vars(XE)
    Ya, Yb = Y
    e = MultiPoly.variable(field, XE, "e")
    Ae = A + e * Ya.with_vars(XE)
    Be = B + e * Yb.with_vars(XE)
    x = MultiPoly.variable(field, XE, "x")
    y = MultiPoly.variable(field, XE, "y")
    t = MultiPoly.variable(field, XE, "t")
    xs = x + t * Ae
    ys = y + t * Be
    As = _truncate_e(Ae.substitute({"x": xs, "y": ys}), 1)
    Bs = _truncate_e(Be.substitute({"x": xs, "y": ys}), 1)
    P = _truncate_e(Ae * Bs - Be * As, 1)
    # coefficients a_i = a_i0 + e a_i1 of P/t = a_1 + a_2 t + a_3 t^2
    tc = P.univariate_coeffs("t")
    if len(tc) < 4:
        tc = tc + [MultiPoly.zero(field, ("x", "y", "e"))] * (4 - len(tc))
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


def _truncate_e(p: MultiPoly, max_deg: int) -> MultiPoly:
    idx = p.vars.index("e")
    terms = {exp: c for exp, c in p.terms.items() if exp[idx] <= max_deg}
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


def tangent_dim_bound_g3(F: PlaneFoliation, verdict: GaloisVerdict | None = None) -> int:
    """Upper bound for the tangent dimension of the degree-3 Galois locus at F.

    Dimension of { Y : delta | d/de disc(X + e Y) } modulo the line spanned
    by X, computed as a corank of an exact linear system.
    """
    if F.degree != 3:
        raise UseAnotherMethod("tangent bound is defined for degree 3")
    if verdict is None:
        verdict = discriminant_square_test(F)
    if not verdict.is_galois:
        raise ValueError("tangent bound needs a Galois foliation")
    delta = verdict.certificate.get("square_root_witness")
    if delta is None:
        raise ValueError("certificate lacks the square-root witness")
    if delta.field is not F.field:
        raise ValueError("witness lives in an extension; unexpected for this route")
    basis = _u3_basis(F.field)
    rows_by_mono: dict = {}
    columns = []
    for Y in basis:
        gamma = _disc_first_order(F, Y)
        rem = _poly_remainder(gamma, delta)
        columns.append(rem)
    monomials = sorted(set().union(*[set(c.terms) for c in columns]))
    zero = Fraction(0) if isinstance(F.field, RationalField) else F.field.zero()
    matrix = [
        [col.terms.get(m, zero) for col in columns] for m in monomials
    ]
    rk = matrix_rank(matrix, F.field) if matrix else 0
    return 24 - rk - 1


# -- genus of the generic polar ---------------------------------------------------------


def _curve_singularities(curve_h: MultiPoly):
    """Singular points of a projective plane curve, one per conjugacy class."""
    from .foliation import ProjPoint, _restrict

    field = curve_h.field
    px = curve_h.derivative("x")
    py = curve_h.derivative("y")
    pz = curve_h.derivative("z")
    out = []
    # affine chart z = 1
    fx = _at_z1(px)
    fy = _at_z1(py)
    if not fx.is_zero() and not fy.is_zero() and mpoly_gcd(fx, fy).is_constant():
        pts = common_zeros(fx, fy)
    else:
        fz = _at_z1(pz)
        pts = common_zeros(fx if not fx.is_zero() else fz, fz if not fx.is_zero() else fy)
    curve_aff = _at_z1(curve_h)
    for pt in pts:
        x0, y0 = pt.xy
        cval = curve_aff.to_field(pt.point_field).eval_field({"x": x0, "y": y0}) \
            if pt.point_field is not field else curve_aff.eval_field({"x": x0, "y": y0})
        if cval:
            continue
        one = 1 if isinstance(pt.point_field, RationalField) else pt.point_field.one()
        out.append((ProjPoint.make(pt.point_field, (x0, y0, one)), pt.class_size))
    # chart x = 1 for points at infinity
    u = MultiPoly.variable(field, AFFINE, "x")
    v = MultiPoly.variable(field, AFFINE, "y")
    gy = _restrict(py, (1, u, v))
    gz = _restrict(pz, (1, u, v))
    curve_x = _restrict(curve_h, (1, u, v))
    if not gy.is_zero() and not gz.is_zero() and mpoly_gcd(gy, gz).is_constant():
        for pt in common_zeros(gy, gz):
            u0, v0 = pt.xy
            if v0:
                continue
            cval = curve_x.to_field(pt.point_field).eval_field({"x": u0, "y": v0}) \
                if pt.point_field is not field else curve_x.eval_field({"x": u0, "y": v0})
            if cval:
                continue
            one = 1 if isinstance(pt.point_field, RationalField) else pt.point_field.one()
            out.append((ProjPoint.make(pt.point_field, (one, u0, v0)), pt.class_size))
    # the point [0, 1, 0]
    probe = {"x": 0, "y": 0}
    gx_y = _restrict(px, (u, 1, v))
    gz_y = _restrict(pz, (u, 1, v))
    curve_y = _restrict(curve_h, (u, 1, v))
    if (
        not gx_y.eval_field(probe)
        and not gz_y.eval_field(probe)
        and not curve_y.eval_field(probe)
        and not _restrict(py, (u, 1, v)).eval_field(probe)
    ):
        from .foliation import ProjPoint as PP

        out.append((PP.make(field, (0, 1, 0)), 1))
    return out


def generic_polar_genus(F: PlaneFoliation, seed: int = 23) -> int:
    """Geometric genus of a generic polar curve, via delta invariants.

    Two independent random base points must agree.
    """
    rng = random.Random(seed)
    values = []
    attempts = 0
    while len(values) < 2 and attempts < 12:
        attempts += 1
        base = (
            Fraction(rng.randint(-14, 14), rng.randint(1, 3)),
            Fraction(rng.randint(-14, 14), rng.randint(1, 3)),
        )
        try:
            g = _polar_genus_once(F, base)
        except (ValueError, NotDivisible):
            continue
        values.append(g)
        if len(values) == 2 and values[0] != values[1]:
            values = [values[1]]
    if len(values) < 2:
        raise RuntimeError("polar genus could not be stabilized")
    return values[0]


def _polar_genus_once(F: PlaneFoliation, base) -> int:
    from .local import germ_delta

    d = F.degree
    pol = polar_curve(F, base)
    if pol.total_degree() != d + 1:
        raise ValueError("polar degree dropped")
    if not mpoly_gcd(pol, pol.derivative("x")).is_constant() or not mpoly_gcd(
        pol, pol.derivative("y")
    ).is_constant():
        sq = squarefree_part(pol)
        if sq.total_degree() != pol.total_degree():
            raise ValueError("polar not reduced")
    if len(factor_irreducible(pol)) != 1:
        raise ValueError("polar reducible for this base point")
    ph = pol.homogenize("z", d + 1).with_vars(PROJ).permute_to(PROJ)
    total_delta = 0
    for point, class_size in _curve_singularities(ph):
        chart = point.chart()
        u0, v0 = point.chart_coords(chart)
        if chart == "z":
            curve = _at_z1(ph)
        else:
            u = MultiPoly.variable(F.field, AFFINE, "x")
            v = MultiPoly.variable(F.field, AFFINE, "y")
            from .foliation import _restrict

            curve = _restrict(ph, (1, u, v) if chart == "x" else (u, 1, v))
        if point.point_field is not F.field:
            curve = curve.to_field(point.point_field)
        _, delta = germ_delta(curve, (u0, v0))
        total_delta += class_size * delta
    return d * (d - 1) // 2 - total_delta


def branching_and_genus(F: PlaneFoliation, verdict: GaloisVerdict, seed: int = 23):
    """(weighted branching type, genus) for extremal Galois certificates.

    Covers prime-degree Galois and the top-contact local certificate; other
    routes return None and defer to numeric monodromy.
    """
    if not verdict.is_galois:
        return None
    d = F.degree
    extremal = False
    if verdict.certificate.get("extremal"):
        extremal = True
    elif _is_prime(d):
        extremal = True
    elif d == 2:
        extremal = True
    if not extremal:
        klein = verdict.certificate.get("klein")
        if klein is not None and klein.klein.tag == "cyclic":
            # cyclic reductions of prime degree are extremal; composite ones
            # are not decided here
            pass
        return None
    g = generic_polar_genus(F, seed=seed)
    if d == 1:
        return WeightedBranchingType(1, {}), g  # a degree-one Gauss map has no branching
    two_c = 2 * d - 2 + 2 * g
    if two_c % (d - 1):
        raise AssertionError("genus incompatible with an extremal covering")
    c = two_c // (d - 1)
    bw = WeightedBranchingType(d, {(d,): c})
    return bw, g


# -- the decision cascade ----------------------------------------------------------------


def verdict(F: PlaneFoliation, seed: int = 7) -> GaloisVerdict:
    """Symbolic decision cascade.

    Order: trivial degrees, the degree-3 discriminant test, symmetry
    reduction, then the local conditions (complete for prime degree).
    Returns an inconclusive verdict only for composite degree without
    usable symmetry where the local conditions split.
    """
    d = F.degree
    if d == 1:
        return GaloisVerdict("galois", "low_degree", d, {"reason": "degree one"})
    if d == 2:
        try:
            return discriminant_square_test(F)
        except UseAnotherMethod:
            return GaloisVerdict("galois", "low_degree", d,
                                 {"reason": "degree-two coverings are Galois"})
    if d == 3:
        try:
            return discriminant_square_test(F)
        except UseAnotherMethod:
            pass
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
            d,
            {"symmetry": sym, "reduction": fmap, "klein": outcome},
        )
    report = extremal_type_report(F, seed=seed)
    return report.verdict
