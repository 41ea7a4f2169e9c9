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

With ``on_axis`` only the points on the axis ``y = 0`` are wanted (the line
at infinity in the charts of :func:`folgal.foliation.singular_locus`), and the
eliminant is not factored.  The shear ``x -> x + lam y`` fixes the axis
pointwise, so the abscissae of those points are the roots of the small gcd
``g = gcd(F(x, 0), G(x, 0))``, and its irreducible factors ``h`` are
eliminant factors.  Once the fibre over a root of ``h`` is certified to be
the one point ``(xi, 0)``, the intersection number there is the valuation of
the eliminant at ``xi`` (Fulton, Algebraic Curves, 3.3): the multiplicity of
``h`` in the eliminant, found by repeated exact division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly, NotDivisible
from .numberfield import adjoin_root, poly_gcd
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


def common_zeros(F: MultiPoly, G: MultiPoly, on_axis: bool = False) -> list[PlanePoint]:
    """All common zeros of a coprime pair in the affine plane, with
    multiplicity; with ``on_axis``, only those on the axis ``y = 0`` of the
    second variable."""
    if F.vars != G.vars or len(F.vars) != 2:
        raise ValueError("expected two bivariate polynomials in one ring")
    if F.is_zero() or G.is_zero():
        raise ValueError("zero polynomial")
    if not mpoly_gcd(F, G).is_constant():
        raise ValueError("inputs share a factor; zero set is not finite")
    for lam in _SHEARS:
        try:
            return _common_zeros_sheared(F, G, lam, on_axis)
        except ShearFailure:
            continue
    raise RuntimeError("no generic shear found; inputs may be degenerate")


def _common_zeros_sheared(F: MultiPoly, G: MultiPoly, lam: Fraction, on_axis: bool = False):
    var_x, var_y = F.vars
    field = F.field
    if on_axis:
        axis_gcd = mpoly_gcd(_on_axis(F, var_y), _on_axis(G, var_y))
        if axis_gcd.is_constant():
            return []
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
    res = res.monic()
    factors = _axis_factors(axis_gcd, res) if on_axis else factor_irreducible(res)
    points = []
    for fac, mult in factors:
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
        if on_axis and eta:
            raise ArithmeticError("a common zero over an axis root lies off the axis")
        x0 = xi + eta * lam
        points.append(PlanePoint(xi_field, (x0, eta), mult, fac.degree_in(var_x)))
    return points


def _on_axis(P: MultiPoly, var_y: str) -> MultiPoly:
    """``P`` with ``var_y = 0``."""
    i = P.vars.index(var_y)
    return MultiPoly(P.field, P.vars, {e: c for e, c in P.terms.items() if not e[i]})


def _axis_factors(axis_gcd: MultiPoly, res: MultiPoly) -> list:
    """The irreducible factors ``h`` of ``axis_gcd``, each with its
    multiplicity in the eliminant ``res``, in the order that
    :func:`factor_irreducible` gives them in ``res``."""
    out = []
    for h, _ in factor_irreducible(axis_gcd):
        mult, rest = 0, res
        while True:
            try:
                rest = rest.exact_div(h)
            except NotDivisible:
                break
            mult += 1
        if not mult:
            raise ArithmeticError("an axis root is not a root of the eliminant")
        out.append((h, mult))
    return sorted(out, key=factor_order_key)


def _linear_power_divides(f: list, eta, k: int) -> bool:
    """Whether ``(y - eta)^k`` divides the coefficient list ``f`` (low to high,
    highest coefficient nonzero), by ``k`` synthetic divisions."""
    if len(f) <= k:
        return False
    for _ in range(k):
        acc, quo = None, []
        for c in reversed(f):
            acc = c if acc is None else c + acc * eta
            quo.append(acc)
        if acc:
            return False
        f = quo[-2::-1]
    return True
