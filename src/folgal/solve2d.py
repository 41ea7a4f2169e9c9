"""Common zeros of two coprime bivariate polynomials, exactly.

Points are produced one representative per conjugacy class over the working
field: each record carries the (possibly extended) field of definition, the
class size, and the local intersection multiplicity, obtained from resultant
valuations after a shear that is verified to separate the points.

After the shear, the eliminant is factored into irreducible factors ``h``.
Over every field, the fibre over a root ``xi`` of ``h`` is the Euclidean gcd
of ``F(xi, y)`` and ``G(xi, y)`` over the point field ``K(xi)``.  If it has
degree ``j``, the point ``(xi, eta)`` is certified by checking that
``(y - eta)^j`` divides both fibres exactly.

Points on the axis ``y = 0`` (the line at infinity in the charts of
:func:`folgal.foliation.singular_locus`) come from :func:`axis_points`,
without an eliminant.  Their abscissae are the roots of the small gcd
``g = gcd(F(x, 0), G(x, 0))``; each irreducible factor ``h`` of ``g`` is one
class of points ``(xi, 0)``, and the multiplicity is the local intersection
number there, :func:`intersection_number` of the pair translated to
``(xi, 0)`` over ``K(xi)``.

:func:`intersection_number` follows Fulton (Algebraic Curves, 3.3).  Let
``m`` and ``n`` be the orders of ``F`` and ``G`` at the origin.  If their
tangent cones ``F_m`` and ``G_n`` are coprime, ``I_0(F, G) = m n``
(property 5); otherwise ``I_0 > m n`` and Fulton's algorithm runs on the
jets of order ``N``, terms of higher degree dropped after every step,
starting at ``N = 2 m n`` and doubling ``N`` up to the Bezout bound
``deg F deg G``.  Truncation is exact.  Let ``M`` be the maximal ideal of
the local ring ``O`` at the origin, let a run end with the count
``c <= N``, and let ``J`` be the ideal that the pair generates just after
some truncation.  Working back from the end, ``dim O/J`` is what the run
counted after that point, at most ``c``, so ``M^c`` lies in ``J`` and
``M^(N+1)`` in ``M J``.  The dropped terms lie in ``M^(N+1)``, so the ideal
``I`` of the pair before the truncation lies in ``J`` and ``J`` in
``I + M J``; Nakayama's lemma gives ``I = J``.  No truncation changes the
ideal, and ``c`` is exact.  At the Bezout bound the true number is at most
``N``, so ``M^N`` lies in the ideal of every pair the run meets, each
truncation keeps that ideal by the same argument, and the run decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly
from .numberfield import adjoin_root, divide_root, poly_gcd
from .polyops import mpoly_gcd, resultant
from .sympy_bridge import factor_irreducible, factor_order_key


class ShearFailure(Exception):
    pass


@dataclass
class PlanePoint:
    """A common zero with its field of definition.

    ``xy`` are coordinates in ``point_field`` (an extension of the input
    field, or the input field itself); ``class_size`` is the degree of the
    conjugacy class; ``multiplicity`` the local intersection number.
    """

    point_field: object
    xy: tuple
    multiplicity: int
    class_size: int


def _eval_x(p: MultiPoly, var_x: str, value, target_field):
    """Substitute ``var_x`` = value (element of target_field); keep other var."""
    other = [v for v in p.vars if v != var_x][0]
    coeffs = p.univariate_coeffs(var_x)  # polys in `other`
    deg_other = max(c.degree_in(other) for c in coeffs)
    out = [target_field.coerce(0)] * (deg_other + 1)
    xpow = target_field.coerce(1)
    for c in coeffs:
        for e, val in c.terms.items():
            out[e[0]] = out[e[0]] + target_field.coerce(val) * xpow
        xpow = xpow * value
    while out and not out[-1]:
        out.pop()
    return out


# shears x -> x + lam y, tried in turn until one separates the points
_SHEARS = tuple(Fraction(v) for v in (
    "0", "5/7", "-3/11", "1", "7/3", "-11/5", "13/4", "-1", "-17/9", "23/2", "-29/13", "31/8",
))


def common_zeros(F: MultiPoly, G: MultiPoly) -> list[PlanePoint]:
    """All common zeros of a coprime pair in the affine plane, with
    multiplicity.

    Coprime binary forms need no eliminant.  A form vanishes at a point
    ``(x0, y0) != 0`` exactly when the linear form ``y0 x - x0 y`` divides
    it, and forms coprime over the field stay coprime over its closure, so
    the origin is their only common zero.  Their tangent cones there are the
    forms themselves, coprime, so the intersection number is
    ``deg F deg G`` (Fulton, Algebraic Curves, 3.3, property 5), which is
    also Bezout's count.  A nonzero constant, a form of degree 0, has no
    zero."""
    if F.vars != G.vars or len(F.vars) != 2:
        raise ValueError("expected two bivariate polynomials in one ring")
    if F.is_zero() or G.is_zero():
        raise ValueError("zero polynomial")
    if not mpoly_gcd(F, G).is_constant():
        raise ValueError("inputs share a factor; zero set is not finite")
    if F.is_homogeneous() and G.is_homogeneous():
        if F.is_constant() or G.is_constant():
            return []
        origin = (F.field.zero(), F.field.zero())
        return [PlanePoint(F.field, origin, F.total_degree() * G.total_degree(), 1)]
    for lam in _SHEARS:
        try:
            return _common_zeros_sheared(F, G, lam)
        except ShearFailure:
            continue
    raise RuntimeError("no generic shear found; inputs may be degenerate")


def _common_zeros_sheared(F: MultiPoly, G: MultiPoly, lam: Fraction):
    var_x, var_y = F.vars
    field = F.field
    x = MultiPoly.variable(field, F.vars, var_x)
    y = MultiPoly.variable(field, F.vars, var_y)
    if lam:
        shear = {var_x: x + y.scale(lam)}
        Fs = F.substitute(shear)
        Gs = G.substitute(shear)
    else:
        Fs, Gs = F, G
    # require y-regularity: top coefficient in y must be constant
    for P in (Fs, Gs):
        if P.degree_in(var_y) != P.total_degree():
            raise ShearFailure("not regular in second variable")
    if Fs.is_constant() or Gs.is_constant():
        return []
    res = resultant(Fs, Gs, var_y)
    if res.is_zero():
        raise ValueError("resultant vanished for coprime inputs")
    if res.is_constant():
        return []
    points = []
    for fac, mult in factor_irreducible(res.monic()):
        xi_field, xi = adjoin_root(fac, "r")
        fy = _eval_x(Fs, var_x, xi, xi_field)
        gy = _eval_x(Gs, var_x, xi, xi_field)
        g = poly_gcd(fy, gy, xi_field)
        k = len(g) - 1
        if k < 1:
            raise ShearFailure("eliminant root without a matching point")
        eta = -g[k - 1] / k
        # the fibre gcd has degree k, so it is (y - eta)^k exactly when that
        # power divides both fibres
        if not (_linear_power_divides(fy, eta, k) and _linear_power_divides(gy, eta, k)):
            raise ShearFailure("two points share a sheared abscissa")
        x0 = xi + eta * lam
        points.append(PlanePoint(xi_field, (x0, eta), mult, fac.degree_in(var_x)))
    return points


def axis_points(F: MultiPoly, G: MultiPoly) -> list[PlanePoint]:
    """The common zeros of a coprime pair on the axis ``y = 0`` of the second
    variable, one per class, each with its local intersection number; in
    the order that :func:`factor_irreducible` gives the classes' factors with
    those numbers as multiplicities."""
    var_x, var_y = F.vars
    g = mpoly_gcd(_on_axis(F, var_y), _on_axis(G, var_y))
    if g.is_zero():
        raise ValueError("inputs share the axis; zero set is not finite")
    found = []
    for h, _ in factor_irreducible(g):
        K, xi = adjoin_root(h, "r")
        mult = intersection_number(*(translate(P.to_field(K), xi, 0) for P in (F, G)))
        found.append((h, mult, PlanePoint(K, (xi, K.zero()), mult, h.degree_in(var_x))))
    found.sort(key=lambda t: factor_order_key(t[:2]))
    return [pt for _, _, pt in found]


def translate(p: MultiPoly, x0, y0) -> MultiPoly:
    """``p(x + x0, y + y0)`` in the two variables ``x, y`` of ``p``."""
    mapping = {
        name: MultiPoly.variable(p.field, p.vars, name) + c
        for name, c in zip(p.vars, (x0, y0)) if c
    }
    return p.substitute(mapping) if mapping else p


def _on_axis(P: MultiPoly, var_y: str) -> MultiPoly:
    """``P`` with ``var_y = 0``."""
    i = P.vars.index(var_y)
    return MultiPoly(P.field, P.vars, {e: c for e, c in P.terms.items() if not e[i]})


def intersection_number(F: MultiPoly, G: MultiPoly) -> int:
    """``I_0(F, G)``, the intersection number at the origin of two bivariate
    polynomials with no common component through it: ``m n`` when the
    tangent cones are coprime, else Fulton's algorithm on jets of doubling
    order (see the module docstring).  Two linear cones ``a x + b y`` and
    ``c x + d y`` are coprime exactly when ``a d - b c`` is nonzero, which
    needs no gcd."""
    m, n = F.lowest_degree(), G.lowest_degree()
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if not (m and n):
        return 0
    cone_f, cone_g = F.homogeneous_part(m), G.homogeneous_part(n)
    if m == n == 1:
        (a, b), (c, d) = ([cone.terms.get(e, 0) for e in ((1, 0), (0, 1))]
                          for cone in (cone_f, cone_g))
        coprime = bool(a * d - b * c)
    else:
        coprime = mpoly_gcd(cone_f, cone_g).is_constant()
    if coprime:
        return m * n
    # shared tangent lines make I_0 > m n, so a first run at N = m n is
    # bound to stop undecided
    bezout = F.total_degree() * G.total_degree()
    N = 2 * m * n
    while True:
        N = min(N, bezout)
        found = _fulton(F.terms, G.terms, N)
        if found is not None:
            return found
        if N == bezout:
            raise ValueError("inputs share a component through the origin")
        N *= 2


def _fulton(F: dict, G: dict, N: int):
    """Fulton's algorithm on the jets of order ``N`` of the term dicts ``F``
    and ``G`` (exponents ``(i, j)`` of ``x^i y^j``): the count when it ends
    at most ``N``, else None.

    A pair with a unit counts 0.  When ``P(x, 0) = 0``, ``P = y H`` and
    ``I_0(P, Q) = ord_x Q(x, 0) + I_0(H, Q)``.  Otherwise the restriction of
    higher degree in ``x`` loses its top term to a multiple ``c x^k`` of the
    other polynomial, which keeps the ideal; terms of degree above ``N`` are
    dropped after each such step."""

    P, Q = ({e: c for e, c in T.items() if sum(e) <= N} for T in (F, G))
    total = 0
    while P and Q:
        if (0, 0) in P or (0, 0) in Q:
            return total
        p = {i: c for (i, j), c in P.items() if not j}
        q = {i: c for (i, j), c in Q.items() if not j}
        if not q:
            P, Q, p, q = Q, P, q, p
        if not q:
            return None  # y divides both jets
        if not p:
            total += min(q)
            if total > N:
                return None
            P = {(i, j - 1): c for (i, j), c in P.items()}
            continue
        if max(p) > max(q):
            P, Q, p, q = Q, P, q, p
        k = max(q) - max(p)
        c = q[max(q)] / p[max(p)]
        for (i, j), a in P.items():
            if i + k + j <= N:
                e = (i + k, j)
                v = Q[e] - c * a if e in Q else -c * a
                if v:
                    Q[e] = v
                else:
                    del Q[e]
    return None


def _linear_power_divides(f: list, eta, k: int) -> bool:
    """Whether ``(y - eta)^k`` divides the coefficient list ``f`` (low to high,
    highest coefficient nonzero), by ``k`` synthetic divisions."""
    if len(f) <= k:
        return False
    for _ in range(k):
        f = divide_root(f, eta)
        if f is None:
            return False
    return True
