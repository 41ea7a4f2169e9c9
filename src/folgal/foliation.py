"""Plane foliations: saturation, degree, Gauss map, singular locus,
inflection divisor, tangency data.

A foliation is stored through a saturated affine vector field
``X = A(x,y) d/dx + B(x,y) d/dy`` together with the homogeneous triple
``(a, b, c)`` of degree d+1 satisfying ``a x + b y + c z = 0``; the triple
is the Gauss map in homogeneous coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .linalg import rank
from .multipoly import MultiPoly, NotDivisible
from .numberfield import QQ, invert
from .polyops import mpoly_gcd, mpoly_gcd_list, squarefree_decompose
from .ratfunc import RationalFunction
from .solve2d import axis_points, common_zeros, intersection_number
from .sympy_bridge import factor_irreducible, factor_order_key

AFFINE = ("x", "y")
PROJ = ("x", "y", "z")


class DegenerateFoliationError(Exception):
    """Degree-zero input (a pencil of lines) or a zero field."""


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective plane, first nonzero coordinate scaled to 1."""

    point_field: object
    coords: tuple

    @staticmethod
    def make(point_field, coords):
        coords = [point_field.coerce(c) for c in coords]
        if not any(coords):
            raise ValueError("all coordinates vanish")
        inv = invert(point_field, next(c for c in coords if c))
        return ProjPoint(point_field, tuple(c * inv for c in coords))

    def chart(self) -> str:
        """Name of a standard chart containing the point ('z', 'x' or 'y')."""
        x0, y0, z0 = self.coords
        if z0:
            return "z"
        if x0:
            return "x"
        return "y"

    def chart_coords(self, chart: str):
        x0, y0, z0 = self.coords
        if chart == "z":
            inv = invert(self.point_field, z0)
            return (x0 * inv, y0 * inv)
        if chart == "x":
            inv = invert(self.point_field, x0)
            return (y0 * inv, z0 * inv)
        inv = invert(self.point_field, y0)
        return (x0 * inv, z0 * inv)

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"


@dataclass
class SingularPoint:
    point: ProjPoint
    multiplicity: int
    class_size: int

    @property
    def point_field(self):
        return self.point.point_field

    def __str__(self):
        return f"{self.point} (mult {self.multiplicity}, class {self.class_size})"


@dataclass
class InflectionComponent:
    curve: MultiPoly            # homogeneous in (x, y, z), squarefree; irreducible in components
    affine: MultiPoly | None    # chart-z equation; None for the line z = 0
    multiplicity: int
    kind: str                   # "invariant_line" | "transverse"

    @property
    def rho(self) -> int | None:
        """Contact order for transverse components (multiplicity + 1)."""
        return self.multiplicity + 1 if self.kind == "transverse" else None

    def degree(self) -> int:
        return self.curve.total_degree()


@dataclass
class InflectionReport:
    """Inflection divisor of a degree-``d`` foliation as squarefree parts.

    Each part is the product of the divisor's components of one multiplicity
    and one kind, and the line ``z = 0`` is a part of its own, last.  The
    parts carry all that the local route decides from: the multiplicity, so
    the contact order ``rho = multiplicity + 1``, of every transverse
    component, and which components are invariant.

    ``components`` factors each part into irreducible curves on first use
    and keeps the list on the report.  The factors inherit their part's
    multiplicity and kind and are sorted by ``factor_order_key``, with the
    line ``z = 0`` last: the list that factoring the whole inflection
    polynomial gives.  Only reports and witnesses read it.
    """

    degree: int
    parts: list
    every_point_inflectional: bool = False

    @property
    def total_degree(self) -> int:
        return sum(p.multiplicity * p.degree() for p in self.parts)

    @cached_property
    def components(self) -> list:
        affine, zline = [], []
        for part in self.parts:
            if part.affine is None:
                zline.append(part)
                continue
            for g, _ in factor_irreducible(part.affine):
                affine.append(InflectionComponent(
                    _homogenize(g), g, part.multiplicity, part.kind))
        affine.sort(key=lambda c: factor_order_key((c.affine, c.multiplicity)))
        return affine + zline

    def transverse(self):
        return [c for c in self.components if c.kind == "transverse"]


class PlaneFoliation:
    """Saturated degree-d foliation of the projective plane."""

    def __init__(self, A: MultiPoly, B: MultiPoly, degree: int,
                 a_bar, b_bar, c_bar, triple):
        self.field = A.field
        self.A = A
        self.B = B
        self.degree = degree
        self.a_bar = a_bar
        self.b_bar = b_bar
        self.c_bar = c_bar
        self.triple = triple  # (a, b, c) homogeneous of degree d+1
        self._singular_locus = None  # set by singular_locus(self)
        self._polar_pool = None  # set by local._polar_pool(self)
        self._line_map = None  # set by galois._line_map_class(self)
        self._chart_fields = {}  # chart -> (A, B), set by chart_vector_field

    def __repr__(self):
        return f"PlaneFoliation(deg {self.degree}: A={self.A}, B={self.B})"

    def is_homogeneous(self) -> bool:
        """Whether the field has no radial part (``c_bar = 0``) and ``A`` and
        ``B`` are homogeneous of the foliation's degree ``d``, so that the
        direction ``[A(tp) : B(tp)] = [A(p) : B(p)]`` is constant along each
        line through the origin.  Homogeneous ``A``, ``B`` of different
        degrees, such as ``y^2 d/dx + x d/dy``, give a direction
        ``[t^a A(p) : t^b B(p)]`` that turns along the line: that field is
        only quasi-homogeneous."""
        d = self.degree
        return (self.c_bar.is_zero()
                and self.A.is_homogeneous() and self.A.total_degree() == d
                and self.B.is_homogeneous() and self.B.total_degree() == d)

    # -- chart machinery -------------------------------------------------------

    def chart_vector_field(self, chart: str):
        """Saturated affine vector field of the foliation in a standard chart.

        Chart coordinates: 'z' -> (x, y) = (X/Z, Y/Z); 'x' -> (Y/X, Z/X);
        'y' -> (X/Y, Z/Y).  Always returned in the variables ("x", "y").

        Charts x and y need no saturation gcd.  In chart x, a common factor
        ``h(u, v)`` of ``b(1, u, v)`` and ``c(1, u, v)`` homogenizes to an
        ``H`` that ``X`` does not divide, so ``H`` divides ``b`` and ``c``,
        and by Euler's relation ``aX + bY + cZ = 0`` also ``aX``, hence
        ``a``: ``h`` is constant because the triple is saturated (asserted by
        :func:`from_vector_field`).  Chart y is the same with ``X`` and ``Y``
        exchanged.  The fields of charts x and y are computed once and kept
        on the foliation.
        """
        if chart == "z":
            return self.A, self.B
        if chart not in ("x", "y"):
            raise ValueError(f"unknown chart {chart!r}")
        if chart not in self._chart_fields:
            a, b, c = self.triple
            u = MultiPoly.variable(self.field, AFFINE, "x")
            v = MultiPoly.variable(self.field, AFFINE, "y")
            if chart == "x":
                pair = -_restrict(c, (1, u, v)), _restrict(b, (1, u, v))
            else:
                pair = -_restrict(c, (u, 1, v)), _restrict(a, (u, 1, v))
            self._chart_fields[chart] = pair
        return self._chart_fields[chart]

    def gauss_map(self):
        """Homogeneous triple and the affine chart form (-B/C, A/C), C = yA - xB."""
        x = MultiPoly.variable(self.field, AFFINE, "x")
        y = MultiPoly.variable(self.field, AFFINE, "y")
        C = y * self.A - x * self.B
        first = RationalFunction(-self.B, C)
        second = RationalFunction(self.A, C)
        return self.triple, (first, second)

    def apply_vector_field(self, h: MultiPoly) -> MultiPoly:
        """Directional derivative X(h) = A dh/dx + B dh/dy."""
        return self.A * h.derivative("x") + self.B * h.derivative("y")


def _restrict(p: MultiPoly, images) -> MultiPoly:
    """Evaluate a (x,y,z) polynomial at (images) expressed in AFFINE vars."""
    field = p.field
    mapping = {}
    for name, img in zip(PROJ, images):
        if isinstance(img, MultiPoly):
            mapping[name] = img
        else:
            mapping[name] = MultiPoly.constant(field, AFFINE, img)
    return p.substitute(mapping, target=AFFINE)


def from_vector_field(A: MultiPoly, B: MultiPoly, field=None) -> PlaneFoliation:
    """Build the saturated foliation defined by ``A d/dx + B d/dy``."""
    if field is None:
        field = A.field
    A = A.with_vars(AFFINE) if A.vars != AFFINE else A
    B = B.with_vars(AFFINE) if B.vars != AFFINE else B
    if A.is_zero() and B.is_zero():
        raise DegenerateFoliationError("zero vector field")
    g = mpoly_gcd(A, B)
    if not g.is_constant():
        A = A.exact_div(g)
        B = B.exact_div(g)
    m = max(A.total_degree(), B.total_degree())
    Am = A.homogeneous_part(m)
    Bm = B.homogeneous_part(m)
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    c_bar = None
    if not Am.is_zero() and not Bm.is_zero():
        try:
            cx = Am.exact_div(x)
            cy = Bm.exact_div(y)
            if cx == cy:
                c_bar = cx
        except NotDivisible:
            c_bar = None
    if c_bar is not None and not c_bar.is_zero():
        degree = m - 1
        a_bar = A - x * c_bar
        b_bar = B - y * c_bar
    else:
        degree = m
        c_bar = MultiPoly.zero(field, AFFINE)
        a_bar, b_bar = A, B
    if degree < 1:
        raise DegenerateFoliationError(
            "degenerate foliation: degree 0 defines a pencil of lines"
        )

    Ah = A.homogenize("z", degree + 1)
    Bh = B.homogenize("z", degree + 1)
    X3 = MultiPoly.variable(field, PROJ, "x")
    Y3 = MultiPoly.variable(field, PROJ, "y")
    Z3 = MultiPoly.variable(field, PROJ, "z")
    a = Bh
    b = -Ah
    c = (Ah * Y3 - Bh * X3).exact_div(Z3)
    euler = a * X3 + b * Y3 + c * Z3
    if not euler.is_zero():
        raise AssertionError("homogeneous triple violates the radial relation")
    if not mpoly_gcd_list([a, b, c]).is_constant():
        raise AssertionError("homogeneous triple is not saturated")
    return PlaneFoliation(A, B, degree, a_bar, b_bar, c_bar, (a, b, c))


@lru_cache(maxsize=64)
def field_from_spec(field_spec: str):
    """Number field from a minimal-polynomial string such as ``g^2-g+1``.

    The generator is the unique name occurring in the text.  The polynomial
    must be irreducible over Q, so that the quotient is a field.  Each spec
    string gives one field, so polynomials parsed over one spec in two calls
    compare equal; a reducible spec raises on every call.
    """
    import re

    from sympy.polys.domains import QQ as SQQ
    from sympy.polys.factortools import dup_irreducible_p

    from .numberfield import extend
    from .parsing import parse_min_poly

    names = sorted(set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", field_spec)))
    if len(names) != 1:
        raise ValueError(
            f"field spec must mention exactly one generator name, got {names}"
        )
    gen_name = names[0]
    coeffs = parse_min_poly(field_spec, gen_name)
    dense = [SQQ(1)] + [SQQ(c.numerator, c.denominator) for c in reversed(coeffs)]
    if not dup_irreducible_p(dense, SQQ):
        raise ValueError(f"field polynomial {field_spec} is reducible over Q")
    return extend(QQ, gen_name, coeffs)


def from_strings(field_spec: str | None, a_text: str, b_text: str) -> PlaneFoliation:
    """Build a foliation from the text format ``field; A; B``."""
    from .parsing import parse_poly

    field = field_from_spec(field_spec) if field_spec else QQ
    A = parse_poly(a_text, field, AFFINE)
    B = parse_poly(b_text, field, AFFINE)
    return from_vector_field(A, B, field)


# -- invariant lines ------------------------------------------------------------


def invariant_line_test(F: PlaneFoliation, ell: MultiPoly) -> bool:
    """Whether the line ``ell`` (affine linear, or the z-line) is invariant."""
    if ell.vars == PROJ:
        if ell.total_degree() == 1 and ell == MultiPoly.variable(F.field, PROJ, "z"):
            return F.c_bar.is_zero()
        ell = ell.dehomogenize("z")
        if ell.is_constant():
            raise ValueError("not a line")
    if ell.total_degree() != 1:
        raise ValueError("invariant-line test requires a linear polynomial")
    ell = ell.with_vars(AFFINE)
    derived = F.apply_vector_field(ell)
    if derived.is_zero():
        return True
    return ell.divides(derived)


def invariant_curve_test(F: PlaneFoliation, curve: MultiPoly) -> bool:
    """Whether the affine curve is invariant: curve | X(curve)."""
    derived = F.apply_vector_field(curve)
    return derived.is_zero() or curve.divides(derived)


# -- singular locus ----------------------------------------------------------------


def singular_locus(F: PlaneFoliation) -> tuple[SingularPoint, ...]:
    """Indeterminacy points of the Gauss map, one per conjugacy class.

    Multiplicities are local intersection numbers of the defining pair in a
    chart.  Over the classes, ``class_size * multiplicity`` must add up to
    ``d^2 + d + 1``, the number of singular points of a degree-d foliation
    counted with multiplicity; a locus that misses a point raises
    ``AssertionError``.  The affine chart gives every point with ``z != 0``
    from the certified eliminant of :func:`~folgal.solve2d.common_zeros`.
    On the line at infinity no eliminant is built: chart ``x = 1`` factors
    only ``gcd(A(u, 0), B(u, 0))`` (:func:`~folgal.solve2d.axis_points`),
    and the one remaining point ``[0 : 1 : 0]``, the origin of chart
    ``y = 1``, needs no factoring at all.  Each of these multiplicities is
    the local intersection number at the point
    (:func:`~folgal.solve2d.intersection_number`).

    The locus is solved once per foliation and kept on ``F``, so the
    singularity table and the polar genus of one analysis share it.
    """
    if F._singular_locus is None:
        points = tuple(_solve_singular_locus(F))
        d = F.degree
        total = sum(p.class_size * p.multiplicity for p in points)
        if total != d * d + d + 1:
            raise AssertionError(f"singular locus has total multiplicity {total}, "
                                 f"expected d^2 + d + 1 = {d * d + d + 1}")
        F._singular_locus = points
    return F._singular_locus


def _solve_singular_locus(F: PlaneFoliation) -> list[SingularPoint]:
    out: list[SingularPoint] = []
    # affine chart
    for pt in common_zeros(F.A, F.B):
        x0, y0 = pt.xy
        out.append(
            SingularPoint(
                ProjPoint.make(pt.point_field, (x0, y0, 1)),
                pt.multiplicity,
                pt.class_size,
            )
        )
    # chart x = 1 on the line at infinity (z coordinate 0)
    Ax, Bx = F.chart_vector_field("x")
    for pt in axis_points(Ax, Bx):
        u0, v0 = pt.xy
        out.append(
            SingularPoint(
                ProjPoint.make(pt.point_field, (1, u0, v0)),
                pt.multiplicity,
                pt.class_size,
            )
        )
    # the single remaining point [0, 1, 0]
    Ay, By = F.chart_vector_field("y")
    if not Ay.eval_field({"x": 0, "y": 0}) and not By.eval_field({"x": 0, "y": 0}):
        point = ProjPoint.make(F.field, (0, 1, 0))
        out.append(SingularPoint(point, intersection_number(Ay, By), 1))
    return out


# -- inflection divisor ----------------------------------------------------------------


def inflection_polynomial(F: PlaneFoliation) -> MultiPoly:
    """Affine inflection determinant: A X(B) - B X(A)."""
    return F.A * F.apply_vector_field(F.B) - F.B * F.apply_vector_field(F.A)


def _homogenize(g: MultiPoly) -> MultiPoly:
    """The chart-z curve ``g`` as a form in (x, y, z) of its own degree."""
    return g.homogenize("z", g.total_degree()).with_vars(PROJ).permute_to(PROJ)


def inflection_divisor(F: PlaneFoliation) -> InflectionReport:
    """The inflection divisor, split into invariant and transverse squarefree
    parts without factoring.

    The affine inflection polynomial ``f1`` splits by
    :func:`~folgal.polyops.squarefree_decompose` into coprime squarefree
    parts ``s`` of multiplicity ``m``.  Write ``s = g_1 ... g_k`` with the
    ``g_i`` irreducible and pairwise non-associate.  By the Leibniz rule
    ``X(s) = sum_i X(g_i) prod_{j != i} g_j``, and ``g_k`` divides every term
    but the k-th, so ``g_k | X(s)`` exactly when ``g_k | X(g_k) prod_{j != k}
    g_j``, that is, since the prime ``g_k`` divides no other ``g_j``, when
    ``g_k | X(g_k)``: when ``g_k`` is invariant.  As ``s`` is squarefree,
    ``inv = gcd(s, X(s))`` is therefore the product of the invariant
    components of ``s`` and ``s / inv`` that of its transverse ones.  When
    ``s | X(s)`` the gcd is ``s`` itself and is not computed.

    The line ``z = 0`` has multiplicity ``3d - deg f1``, cross-checked in
    chart x, and is invariant exactly when ``c_bar = 0``.  The parts must
    have total degree ``3d``.
    """
    d = F.degree
    f1 = inflection_polynomial(F)
    if f1.is_zero():
        return InflectionReport(degree=d, parts=[], every_point_inflectional=True)
    z_mult = 3 * d - f1.total_degree()
    if z_mult < 0:
        raise AssertionError("inflection determinant exceeds the divisor degree")

    parts: list[InflectionComponent] = []
    for s, mult in squarefree_decompose(f1):
        Xs = F.apply_vector_field(s)
        inv = s if Xs.is_zero() or s.divides(Xs) else mpoly_gcd(s, Xs)
        if not inv.is_constant():
            parts.append(InflectionComponent(_homogenize(inv), inv, mult, "invariant_line"))
        if inv is not s:
            trans = s.exact_div(inv)
            parts.append(InflectionComponent(_homogenize(trans), trans, mult, "transverse"))
    if z_mult > 0:
        zline = MultiPoly.variable(F.field, PROJ, "z")
        kind = "invariant_line" if F.c_bar.is_zero() else "transverse"
        parts.append(InflectionComponent(zline, None, z_mult, kind))
        # cross-check the infinity multiplicity in a second chart
        Ax, Bx = F.chart_vector_field("x")
        F2 = from_vector_field(Ax, Bx, F.field)
        f2 = inflection_polynomial(F2)
        v = MultiPoly.variable(F.field, AFFINE, "y")
        val = 0
        probe = f2
        while v.divides(probe):
            probe = probe.exact_div(v)
            val += 1
        if val != z_mult:
            raise AssertionError(
                f"charts disagree on the infinity component: {val} vs {z_mult}"
            )
    report = InflectionReport(degree=d, parts=parts)
    if report.total_degree != 3 * d:
        raise AssertionError(
            f"inflection divisor has degree {report.total_degree}, expected {3*d}"
        )
    return report


# -- tangency along a line ------------------------------------------------------------


@dataclass
class TangencyData:
    """Tangency divisor of the foliation on a non-invariant line.

    ``poly`` is the degree-d univariate tangency polynomial in ``t``; the
    point at parameter t is ``base + t * direction`` in homogeneous
    coordinates.
    """

    poly: MultiPoly
    base: tuple
    direction: tuple


def _line_points(F: PlaneFoliation, dual: tuple):
    """Two distinct points spanning the line u x + v y + w z = 0."""
    u, v, w = [F.field.coerce(c) for c in dual]
    zero = F.field.zero()
    candidates = [(v, -u, zero), (w, zero, -u), (zero, w, -v)]
    pts = [c for c in candidates if any(c)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p, q = pts[i], pts[j]
            if rank([p, q], F.field) == 2:
                return p, q
    raise ValueError("dual point does not define a line")


def tangency_on_line(F: PlaneFoliation, dual_point) -> TangencyData:
    """Tangency polynomial of F along the line dual to ``dual_point``.

    Raises ValueError for an invariant line.  The result has degree exactly
    d; when tangencies sit at the initially chosen chart infinity the
    parameterization is re-based internally.
    """
    if isinstance(dual_point, ProjPoint):
        dual = dual_point.coords
    else:
        dual = tuple(dual_point)
    q0, q1 = _line_points(F, dual)
    a, b, c = F.triple
    ts = ("t", "s")
    field = F.field
    t = MultiPoly.variable(field, ts, "t")
    s = MultiPoly.variable(field, ts, "s")

    def point_form(p0, p1):
        return [t.scale(c0) + s.scale(c1) for c0, c1 in zip(p0, p1)]

    def tangency_form(p0, p1):
        coords = point_form(p0, p1)
        sub = {name: img for name, img in zip(PROJ, coords)}
        omega_q1 = sum(
            (
                comp.substitute(sub, target=ts).scale(c1)
                for comp, c1 in zip((a, b, c), p1)
                if c1
            ),
            MultiPoly.zero(field, ts),
        )
        if omega_q1.is_zero():
            return None
        return omega_q1.exact_div(t)

    T = tangency_form(q0, q1)
    if T is None:
        raise ValueError("line is invariant")
    d = F.degree
    # want full degree in t when s = 1; shift q0 by multiples of q1 if needed
    for shift in range(0, 2 * d + 3):
        q0s = tuple(c0 + c1 * shift for c0, c1 in zip(q0, q1))
        Ts = tangency_form(q0s, q1)
        if Ts is None:
            raise AssertionError("re-based parameterization became invariant")
        poly_t = Ts.substitute({"s": 1}, target=ts).drop_vars(["s"])
        if poly_t.degree_in("t") == d:
            return TangencyData(poly_t, q0s, q1)
    raise AssertionError("could not reach full tangency degree by re-basing")
