"""Common zeros of two coprime bivariate polynomials, exactly.

Points are produced one representative per conjugacy class over the working
field: each record carries the (possibly extended) field of definition, the
class size, and the local intersection multiplicity, obtained from resultant
valuations after a shear that is verified to separate the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly
from .numberfield import NumberField, RationalField, extend
from .polyops import mpoly_gcd, resultant
from .sympy_bridge import FactorUnavailable, factor_irreducible


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


def _fresh_gen_name(field) -> str:
    used = set()
    fld = field
    while isinstance(fld, NumberField):
        used.add(fld.name)
        fld = fld.base
    k = 1
    while f"r{k}" in used:
        k += 1
    return f"r{k}"


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
    var_x, var_y = F.vars
    field = F.field

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
    res = resultant(Fs, Gs, var_y)
    if res.is_zero():
        raise ValueError("resultant vanished for coprime inputs")
    if res.is_constant():
        return []
    res = res.monic()
    try:
        factors = factor_irreducible(res)
    except FactorUnavailable as exc:
        raise RuntimeError(f"cannot factor eliminant: {exc}") from None

    points = []
    for fac, mult in factors:
        coeffs = _univ_coeff_list(fac, var_x)
        deg = len(coeffs) - 1
        if deg == 1:
            xi_field = field
            xi = -coeffs[0]
        else:
            name = _fresh_gen_name(field)
            xi_field = extend(field, name, coeffs[:-1], certified=True)
            xi = xi_field.gen()
        fy = _eval_x(Fs, var_x, xi, xi_field)
        gy = _eval_x(Gs, var_x, xi, xi_field)
        g = _monic_gcd_coeffs(fy, gy, xi_field)
        k = len(g) - 1
        if k < 1:
            raise ShearFailure("eliminant root without a matching point")
        # the fibre gcd must be a perfect k-th power of a linear factor
        eta = _scalar_div(-g[k - 1], k, xi_field)
        if not _is_linear_power(g, eta, xi_field):
            raise ShearFailure("two points share a sheared abscissa")
        x0 = xi + _scalar_mul(eta, lam, xi_field)
        points.append(PlanePoint(xi_field, (x0, eta), mult, deg))
    return points


def _scalar_div(val, k: int, field):
    if isinstance(field, RationalField):
        return Fraction(val) / k
    return val / field.coerce(k)


def _scalar_mul(val, lam: Fraction, field):
    if isinstance(field, RationalField):
        return Fraction(val) * lam
    return val * field.coerce(lam)


def _monic_gcd_coeffs(f: list, g: list, field):
    """Monic univariate gcd of coefficient lists (low to high) over ``field``."""
    fp, gp = (
        MultiPoly(field, ("y",), {(k,): c for k, c in enumerate(a)}) for a in (f, g)
    )
    return [c.constant_value() for c in mpoly_gcd(fp, gp).univariate_coeffs("y")]


def _is_linear_power(g: list, eta, field) -> bool:
    """Check g(y) == (y - eta)^k for the monic coefficient list g."""
    k = len(g) - 1
    acc = [field.coerce(1)] if not isinstance(field, RationalField) else [Fraction(1)]
    lin = [-eta, acc[0]]
    for _ in range(k):
        new = [acc[0] * 0] * (len(acc) + 1)
        for i, c in enumerate(acc):
            new[i] = new[i] + c * (-eta)
            new[i + 1] = new[i + 1] + c
        acc = new
    return list(acc) == list(g)
