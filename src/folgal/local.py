"""Local invariants at singular points: vanishing order, tangency order,
polar branch count (by embedded resolution), characteristic order, and the
ramifying-singularity classification.

The blow-up recursion also accumulates delta invariants of curve germs,
which downstream code uses for geometric genus of generic polars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly
from .numberfield import adjoin_root
from .polyops import squarefree_decompose, squarefree_part
from .foliation import AFFINE, PROJ, PlaneFoliation, ProjPoint, \
    _restrict, singular_locus
from .sympy_bridge import factor_irreducible


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


# -- germs ------------------------------------------------------------------------


def _lift_pair(F: PlaneFoliation, chart: str, point_field):
    Ac, Bc = F.chart_vector_field(chart)
    return Ac.to_field(point_field), Bc.to_field(point_field)


def _translate(p: MultiPoly, x0, y0) -> MultiPoly:
    field = p.field
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    mapping = {}
    if x0:
        mapping["x"] = x + MultiPoly.constant(field, AFFINE, x0)
    if y0:
        mapping["y"] = y + MultiPoly.constant(field, AFFINE, y0)
    return p.substitute(mapping) if mapping else p


def vanishing_and_tangency_order(F: PlaneFoliation, point: ProjPoint):
    """(nu, tau): first nonzero jet order, first non-radial jet order."""
    chart = point.chart()
    Ac, Bc = _lift_pair(F, chart, point.point_field)
    u0, v0 = point.chart_coords(chart)
    At = _translate(Ac, u0, v0)
    Bt = _translate(Bc, u0, v0)
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
    factors = [(poly, 1)] if poly.total_degree() == 1 else factor_irreducible(poly)
    total_b = 0
    total_d = 0
    for fac, mult in factors:
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

    if qdeg >= 1:
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
    germ = _translate(curve, x0, y0)
    if germ.eval_field({"x": 0, "y": 0}):
        raise ValueError("curve does not pass through the point")
    germ = squarefree_part(germ)
    b, _ = resolve_germ(germ)
    return b


def germ_delta(curve: MultiPoly, point):
    """(branches, delta) of the germ of ``curve`` at ``point``.

    ``curve`` must be reduced, as the polars of a :class:`_PolarPool` are:
    a squarefree polynomial stays squarefree over every extension field and
    after a translation, so its germ needs no gcd work here.
    """
    x0, y0 = point
    return resolve_germ(_translate(curve, x0, y0))


# -- polar curves ---------------------------------------------------------------------


def polar_curve(F: PlaneFoliation, base) -> MultiPoly:
    """Affine equation A(x,y)(y-b) - B(x,y)(x-a) of the polar through (a,b)."""
    a0, b0 = base
    field = F.field
    x = MultiPoly.variable(field, AFFINE, "x")
    y = MultiPoly.variable(field, AFFINE, "y")
    ca = MultiPoly.constant(field, AFFINE, a0)
    cb = MultiPoly.constant(field, AFFINE, b0)
    return F.A * (y - cb) - F.B * (x - ca)


def polar_in_chart(F: PlaneFoliation, base, chart: str) -> MultiPoly:
    pol = polar_curve(F, base)
    if pol.total_degree() != F.degree + 1:
        raise ValueError("polar dropped degree; pick another base point")
    if chart == "z":
        return pol
    ph = pol.homogenize("z", F.degree + 1).with_vars(PROJ).permute_to(PROJ)
    u = MultiPoly.variable(F.field, AFFINE, "x")
    v = MultiPoly.variable(F.field, AFFINE, "y")
    if chart == "x":
        return _restrict(ph, (1, u, v))
    return _restrict(ph, (u, 1, v))


class _PolarPool:
    """Generic polars of one foliation, drawn from a seeded generator.  All
    singular points of one classification run share one pool, and
    :func:`folgal.galois.generic_polar_genus` draws from a pool of its own.
    Both only look at a polar at the foliation's singular points, where
    every polar passes.

    Each entry is verified squarefree over the base field once; chart
    restrictions of a reduced projective curve stay reduced, so the germs
    need no further gcd work.
    """

    def __init__(self, F: PlaneFoliation, rng: random.Random):
        self.F = F
        self.rng = rng
        self.entries = []  # list of dicts chart -> chart polynomial
        self.charts_cache: list[dict] = []

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
            reduced = squarefree_part(pol)
            if reduced.total_degree() != pol.total_degree():
                continue  # non-reduced polar: base point not generic
            self.entries.append(base)
            self.charts_cache.append({"z": pol.monic()})
            return
        raise RuntimeError("could not find a generic polar base point")

    def chart_polar(self, index: int, chart: str) -> MultiPoly:
        while len(self.entries) <= index:
            self._new_entry()
        cache = self.charts_cache[index]
        if chart not in cache:
            cache[chart] = polar_in_chart(self.F, self.entries[index], chart).monic()
        return cache[chart]


def _polar_branches_at(point: ProjPoint, pool: _PolarPool) -> int:
    """Branch count of a generic polar at the point, with a genericity re-check."""
    chart = point.chart()
    u0, v0 = point.chart_coords(chart)
    seen = []
    for index in range(6):
        pol = pool.chart_polar(index, chart)
        pol = pol.to_field(point.point_field)
        germ = _translate(pol, u0, v0)
        if germ.eval_field({"x": 0, "y": 0}):
            continue  # polar misses the point: not generic enough here
        b, _ = resolve_germ(germ)
        seen.append(b)
        if len(seen) >= 2:
            if seen[-1] == seen[-2]:
                return seen[-1]
            seen = [seen[-1]]
    raise RuntimeError("polar branch counts kept disagreeing; degenerate point?")


# -- classification --------------------------------------------------------------------


def classify_singularities(F: PlaneFoliation, seed: int = 7) -> list[SingularInvariants]:
    """nu, tau, beta, chi and the ramification status for every singular class."""
    out = []
    d = F.degree
    pool = _PolarPool(F, random.Random(seed))
    for sp in singular_locus(F):
        nu, tau = vanishing_and_tangency_order(F, sp.point)
        beta = _polar_branches_at(sp.point, pool)
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
