"""Common zeros of two coprime bivariate polynomials, exactly.

Points are produced one representative per conjugacy class over the working
field: each record carries the (possibly extended) field of definition, the
class size, and the local intersection multiplicity, obtained from resultant
valuations after a shear that is verified to separate the points.

After the shear, the eliminant is factored into irreducible factors ``h``.
Over Q, the fibre over a root ``xi`` of ``h`` is read from the subresultant
chain in ``y`` (von zur Gathen-Gerhard, Modern Computer Algebra, 6.10-6.11):
the fibre gcd has degree ``j``, the least index whose principal subresultant
coefficient is nonzero modulo ``h``, and it is ``S_j(xi, y)`` up to a unit.
That scan, and ``eta`` read from ``S_j``, are polynomial arithmetic over Q
modulo ``h``.  Over a number-field tower the fibre gcd is a Euclidean gcd over
``Q(xi)``.  Either way the point ``(xi, eta)`` is certified by checking that
``(y - eta)^j`` divides both fibres exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy.polys.densearith import dup_mul, dup_mul_ground, dup_rem
from sympy.polys.domains import QQ as SQQ
from sympy.polys.euclidtools import dup_invert

from .multipoly import MultiPoly
from .numberfield import RationalField, extend, fresh_name
from .polyops import mpoly_gcd, resultant, subresultant_chain
from .sympy_bridge import factor_irreducible, to_dense


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


def _univ_coeff_list(p: MultiPoly, var: str):
    return [c.constant_value() for c in p.univariate_coeffs(var)]


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


def common_zeros(F: MultiPoly, G: MultiPoly, max_shears: int = 12) -> list[PlanePoint]:
    """All common projective-chart zeros of a coprime pair, with multiplicity."""
    if F.vars != G.vars or len(F.vars) != 2:
        raise ValueError("expected two bivariate polynomials in one ring")
    if F.is_zero() or G.is_zero():
        raise ValueError("zero polynomial")
    if not mpoly_gcd(F, G).is_constant():
        raise ValueError("inputs share a factor; zero set is not finite")

    candidates = [
        Fraction(0),
        Fraction(5, 7),
        Fraction(-3, 11),
        Fraction(1),
        Fraction(7, 3),
        Fraction(-11, 5),
        Fraction(13, 4),
        Fraction(-1),
        Fraction(-17, 9),
        Fraction(23, 2),
        Fraction(-29, 13),
        Fraction(31, 8),
    ]
    for trial in range(max_shears):
        lam = candidates[trial % len(candidates)]
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
    chain = None
    if isinstance(field, RationalField):
        res, chain = _fibre_chain(Fs, Gs, var_x, var_y)
    else:
        res = resultant(Fs, Gs, var_y)
    if res.is_zero():
        raise ValueError("resultant vanished for coprime inputs")
    if res.is_constant():
        return []
    res = res.monic()
    points = []
    for fac, mult in factor_irreducible(res):
        coeffs = _univ_coeff_list(fac, var_x)
        deg = len(coeffs) - 1
        if deg == 1:
            xi_field = field
            xi = -coeffs[0]
        else:
            xi_field = extend(field, fresh_name(field, "r"), coeffs[:-1])
            xi = xi_field.gen()
        fy = _eval_x(Fs, var_x, xi, xi_field)
        gy = _eval_x(Gs, var_x, xi, xi_field)
        if chain is not None:
            k, eta = _fibre_from_chain(chain, to_dense(fac, [var_x]), xi_field)
        else:
            g = _monic_gcd_coeffs(fy, gy, xi_field)
            k = len(g) - 1
            eta = _scalar_div(-g[k - 1], k, xi_field) if k >= 1 else None
        if k < 1:
            raise ShearFailure("eliminant root without a matching point")
        # the fibre gcd has degree k, so it is (y - eta)^k exactly when that
        # power divides both fibres
        if not (_linear_power_divides(fy, eta, k) and _linear_power_divides(gy, eta, k)):
            raise ShearFailure("two points share a sheared abscissa")
        x0 = xi + _scalar_mul(eta, lam, xi_field)
        points.append(PlanePoint(xi_field, (x0, eta), mult, deg))
    return points


def _fibre_chain(Fs: MultiPoly, Gs: MultiPoly, var_x: str, var_y: str):
    """``(res, chain)`` for a pair over Q that is regular in ``var_y``.

    ``res`` is the resultant in ``var_y``.  ``chain`` lists ``(j, lead, nxt)``
    by increasing ``j > 0``: the coefficients of ``y^j`` and ``y^(j-1)``, dense
    over Q in ``var_x``, of each regular subresultant ``S_j``, closed by the
    input of lower degree ``m`` in ``var_y``: the fibre gcd is that input when
    every principal coefficient below ``m`` vanishes.
    """
    members = subresultant_chain(Fs, Gs, var_y)
    res = members[0][1] if members and members[0][0] == 0 else Fs.zero_like()
    low = min((Gs, Fs), key=lambda P: P.degree_in(var_y))
    chain = []
    for j, S in members + [(low.degree_in(var_y), low)]:
        if j:
            coeffs = S.univariate_coeffs(var_y)
            chain.append((j, to_dense(coeffs[j], [var_x]), to_dense(coeffs[j - 1], [var_x])))
    return res, chain


def _fibre_from_chain(chain, h: list, xi_field):
    """``(j, eta)`` over a root ``xi`` of the irreducible eliminant factor ``h``
    (dense over Q), from a chain of :func:`_fibre_chain`.

    ``j`` is the least index whose principal coefficient is nonzero modulo
    ``h``, so the fibre gcd is ``S_j(xi, y)`` up to a unit.  If that gcd is
    ``(y - eta)^j``, its coefficients of ``y^j`` and ``y^(j-1)`` give ``eta``,
    computed over Q modulo ``h``.  ``(0, None)`` when no index qualifies.
    """
    for j, lead, nxt in chain:
        lead = dup_rem(lead, h, SQQ)
        if lead:
            break
    else:
        return 0, None
    eta = dup_mul(dup_rem(nxt, h, SQQ), dup_invert(lead, h, SQQ), SQQ)
    eta = dup_mul_ground(dup_rem(eta, h, SQQ), SQQ(-1, j), SQQ)
    eta = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(eta)]
    if isinstance(xi_field, RationalField):
        return j, eta[0] if eta else Fraction(0)
    return j, xi_field.element(eta + [Fraction(0)] * (xi_field.degree - len(eta)))


def _scalar_div(val, k: int, field):
    if isinstance(field, RationalField):
        return Fraction(val) / k
    return val / field.coerce(k)


def _scalar_mul(val, lam: Fraction, field):
    if isinstance(field, RationalField):
        return Fraction(val) * lam
    return val * field.coerce(lam)


def _monic_gcd_coeffs(f: list, g: list, field):
    """Monic univariate gcd of coefficient lists (low to high) over ``field``.

    Only the fibres over a number-field tower take it; over Q the fibre gcd
    is read from the subresultant chain.
    """
    fp, gp = (
        MultiPoly(field, ("y",), {(k,): c for k, c in enumerate(a)}) for a in (f, g)
    )
    return [c.constant_value() for c in mpoly_gcd(fp, gp).univariate_coeffs("y")]


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
