"""Local invariants at singular points: vanishing order, tangency order,
polar branch count (by embedded resolution), characteristic order, and the
ramifying-singularity classification.

Everything at a singular point is read off the foliation's jet there, the
chart field translated to the point once; so are the germs of the generic
polars, from one pool per foliation (:class:`_PolarPool`, :data:`POLAR_SEED`).

The blow-up recursion also accumulates delta invariants of curve germs,
which give the geometric genus of generic polars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly
from .numberfield import adjoin_root
from .polyops import is_squarefree, squarefree_decompose, squarefree_part
from .solve2d import translate
from .foliation import AFFINE, PlaneFoliation, ProjPoint, singular_locus
from .sympy_bridge import factor_irreducible

POLAR_SEED = 7  # of every pool; beta, chi and the polar genus do not depend on it


class NotSingular(Exception):
    pass


@dataclass
class SigmaStatus:
    """Ramification class of a singular point.

    kind: 'certain' (top order, rho = degree), 'necessary_only' (the order is
    compatible with rho but certainty needs a full resolution), or
    'not_applicable' (not ramifying, or the order rules every rho out).
    """

    kind: str
    rho: int | None = None

    def __str__(self):
        if self.kind == "certain":
            return f"certain({self.rho})"
        if self.kind == "necessary_only":
            return f"necessary_only({self.rho})"
        return "not_applicable"


@dataclass
class SingularInvariants:
    point: ProjPoint
    multiplicity: int
    class_size: int
    degree: int
    nu: int
    tau: int
    beta: int
    chi: Fraction
    in_sigma_ram: bool
    sigma_rho_status: SigmaStatus

    @property
    def violates_local_condition(self) -> bool:
        """True when chi alone rules out the Galois property: chi must be a
        positive integer dividing the foliation degree."""
        return not (
            self.chi.denominator == 1 and self.degree % self.chi.numerator == 0
        )


# -- jets ---------------------------------------------------------------------------


def _jet(F: PlaneFoliation, point: ProjPoint):
    """The chart field ``(A, B)`` of the point's chart, translated to the
    point over the point's field: ``A(x + u0, y + v0)``, ``B(x + u0, y + v0)``."""
    chart = point.chart()
    u0, v0 = point.chart_coords(chart)
    return tuple(
        translate(P.to_field(point.point_field), u0, v0) for P in F.chart_vector_field(chart)
    )


def vanishing_and_tangency_order(F: PlaneFoliation, point: ProjPoint):
    """(nu, tau): first nonzero jet order, first non-radial jet order."""
    return _orders(_jet(F, point), point)


def _orders(jet, point: ProjPoint):
    At, Bt = jet
    la, lb = At.lowest_degree(), Bt.lowest_degree()
    nu = min(d for d in (la, lb) if d >= 0)
    if nu == 0:
        raise NotSingular(f"{point} is not a singular point")
    field = At.field
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    top = max(At.total_degree(), Bt.total_degree())
    for k in range(nu, top + 1):
        det = At.homogeneous_part(k) * y - Bt.homogeneous_part(k) * x
        if not det.is_zero():
            return nu, k
    raise AssertionError("tangency order not found below the degree bound")


# -- blow-up resolution of a curve germ --------------------------------------------


def _per_root_sum(poly: MultiPoly, worker):
    """Sum worker(root_field, root) over the roots of a squarefree monic
    univariate polynomial.

    Conjugate roots contribute equal values, so each irreducible class is
    evaluated once and weighted by its degree.
    """
    total_b = 0
    total_d = 0
    for fac, mult in factor_irreducible(poly):
        assert mult == 1, "polynomial was squarefree"
        b, dlt = worker(*adjoin_root(fac, "b"))
        total_b += fac.total_degree() * b
        total_d += fac.total_degree() * dlt
    return total_b, total_d


def resolve_germ(germ: MultiPoly, depth: int = 0):
    """(branch count, delta invariant) of a reduced germ at the origin.

    Recursive blow-up: distinct tangent directions split the count, repeated
    directions recurse on the strict transform.  delta accumulates
    m(m-1)/2 over every infinitely near point of multiplicity m.
    """
    if depth > 60:
        raise RuntimeError("blow-up recursion exceeded the depth bound")
    m = germ.lowest_degree()
    if m < 1:
        raise ValueError("germ does not vanish at the origin")
    if m == 1:
        return 1, 0
    field = germ.field
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    cone = germ.homogeneous_part(m)
    # direction polynomial: cone(1, t); the x = 0 direction is the degree drop
    q_terms = {}
    for e, c in cone.terms.items():
        q_terms[(e[1],)] = c
    q = MultiPoly(field, ("T",), q_terms)
    qdeg = q.degree_in("T")
    vertical_mult = m - qdeg
    branches = 0
    delta = m * (m - 1) // 2

    if vertical_mult == 1:
        branches += 1
    elif vertical_mult >= 2:
        strict = germ.substitute({"x": x * y}).exact_div(y**m)
        b, dlt = resolve_germ(strict, depth + 1)
        branches += b
        delta += dlt

    if qdeg >= 1 and is_squarefree(q):
        branches += qdeg
    elif qdeg >= 1:
        for fac, mult in squarefree_decompose(q):
            fdeg = fac.degree_in("T")
            if fdeg == 0:
                continue
            if mult == 1:
                branches += fdeg
                continue

            def worker(fld, tau, _germ=germ, _m=m, _depth=depth):
                g = _germ.to_field(fld)
                xx = MultiPoly.variable(fld, AFFINE, "x")
                yy = MultiPoly.variable(fld, AFFINE, "y")
                shift = yy + MultiPoly.constant(fld, AFFINE, tau)
                strict = g.substitute({"y": xx * shift}).exact_div(xx**_m)
                return resolve_germ(strict, _depth + 1)

            b, dlt = _per_root_sum(fac.monic(), worker)
            branches += b
            delta += dlt
    return branches, delta


def branch_count(curve: MultiPoly, point) -> int:
    """Number of local analytic branches of the reduced curve at the point."""
    x0, y0 = point
    germ = translate(curve, x0, y0)
    if germ.eval_field({"x": 0, "y": 0}):
        raise ValueError("curve does not pass through the point")
    return resolve_germ(squarefree_part(germ))[0]


def germ_delta(curve: MultiPoly, point):
    """(branches, delta) of the germ of ``curve`` at ``point``.  ``curve``
    must be reduced, as the germs of a :class:`_PolarPool` are."""
    x0, y0 = point
    return resolve_germ(translate(curve, x0, y0))


# -- polar curves ---------------------------------------------------------------------


def polar_curve(F: PlaneFoliation, base) -> MultiPoly:
    """Affine equation A(x,y)(y-b) - B(x,y)(x-a) of the polar through (a,b)."""
    a0, b0 = base
    x = MultiPoly.variable(F.field, AFFINE, "x")
    y = MultiPoly.variable(F.field, AFFINE, "y")
    return F.A * (y - b0) - F.B * (x - a0)


class _PolarPool:
    """Generic polars of one foliation, read at its singular points, where
    every polar passes; one pool per foliation, kept on ``F``.

    The polar through ``q = [qX : qY : qZ]`` is ``a qX + b qY + c qZ = 0``
    for the foliation's triple.  In a chart with coordinates ``(u, v) =
    (U/W, V/W)``, where ``(U, V, W)`` is ``(X, Y, Z)`` for chart z,
    ``(Y, Z, X)`` for chart x and ``(X, Z, Y)`` for chart y, Euler's relation
    ``aX + bY + cZ = 0`` makes it ``A (qV - v qW) - B (qU - u qW)`` up to
    sign, ``(A, B)`` being the chart field.  With the jet at the point
    (:func:`_jet`, ``u = x + u0``, ``v = y + v0``) that formula gives each
    germ: no polar is restricted to a chart, moved into a point field or
    translated.

    Each polar, through a random ``[qX : qY : 1]`` drawn from
    :data:`POLAR_SEED`, is kept only when it is squarefree over the base
    field, which one squarefree image mod a prime proves in most cases
    (:func:`~folgal.polyops.is_squarefree`); a reduced curve stays reduced
    over every extension and in every chart, so germs need no gcd work.
    Each (polar, point) germ is resolved once: the singularity table reads
    its branch count and the polar genus its delta.
    """

    def __init__(self, F: PlaneFoliation):
        self.F = F
        self.rng = random.Random(POLAR_SEED)
        self.points = singular_locus(F)
        self.jets = [_jet(F, sp.point) for sp in self.points]
        self.bases = []     # (qX, qY) of each polar
        self.polars = []    # its affine equation, polar_curve(F, base)
        self.resolved = {}  # (polar index, point index) -> (branches, delta)

    def polar(self, index: int) -> MultiPoly:
        while len(self.polars) <= index:
            self._new_entry()
        return self.polars[index]

    def _new_entry(self):
        F = self.F
        for _ in range(12):
            base = (
                Fraction(self.rng.randint(-12, 12), self.rng.randint(1, 4)),
                Fraction(self.rng.randint(-12, 12), self.rng.randint(1, 4)),
            )
            pol = polar_curve(F, base)
            if pol.total_degree() != F.degree + 1:
                continue
            if not is_squarefree(pol):
                continue  # non-reduced polar: base point not generic
            self.bases.append(base)
            self.polars.append(pol)
            return
        raise RuntimeError("could not find a generic polar base point")

    def germ(self, index: int, k: int) -> MultiPoly:
        """Germ of polar ``index`` at singular point ``k``, at the origin."""
        self.polar(index)
        qX, qY = self.bases[index]
        point = self.points[k].point
        chart = point.chart()
        qU, qV, qW = {"z": (qX, qY, 1), "x": (qY, 1, qX), "y": (qX, 1, qY)}[chart]
        u0, v0 = point.chart_coords(chart)
        At, Bt = self.jets[k]
        x = MultiPoly.variable(At.field, AFFINE, "x")
        y = MultiPoly.variable(At.field, AFFINE, "y")
        return At * ((qV - v0 * qW) - y * qW) - Bt * ((qU - u0 * qW) - x * qW)

    def branches_and_delta(self, index: int, k: int):
        if (index, k) not in self.resolved:
            self.resolved[index, k] = germ_delta(self.germ(index, k), (0, 0))
        return self.resolved[index, k]


def _polar_pool(F: PlaneFoliation) -> _PolarPool:
    if F._polar_pool is None:
        F._polar_pool = _PolarPool(F)
    return F._polar_pool


def _polar_branches_at(pool: _PolarPool, k: int) -> int:
    """Branch count of a generic polar at singular point ``k``: two polars in
    a row must agree."""
    last = None
    for index in range(6):
        b = pool.branches_and_delta(index, k)[0]
        if b == last:
            return b
        last = b
    raise RuntimeError("polar branch counts kept disagreeing; degenerate point?")


# -- classification --------------------------------------------------------------------


def classify_singularities(F: PlaneFoliation) -> list[SingularInvariants]:
    """nu, tau, beta, chi and the ramification status for every singular class."""
    out = []
    d = F.degree
    pool = _polar_pool(F)
    for k, sp in enumerate(pool.points):
        nu, tau = _orders(pool.jets[k], sp.point)
        beta = _polar_branches_at(pool, k)
        chi = Fraction(tau, beta)
        in_ram = chi > 1
        if not in_ram:
            status = SigmaStatus("not_applicable")
        elif chi == d:
            status = SigmaStatus("certain", d)
        elif chi.denominator == 1 and d % chi.numerator == 0:
            status = SigmaStatus("necessary_only", int(chi))
        else:
            status = SigmaStatus("not_applicable")
        out.append(
            SingularInvariants(
                point=sp.point,
                multiplicity=sp.multiplicity,
                class_size=sp.class_size,
                degree=d,
                nu=nu,
                tau=tau,
                beta=beta,
                chi=chi,
                in_sigma_ram=in_ram,
                sigma_rho_status=status,
            )
        )
    return out
