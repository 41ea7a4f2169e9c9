import random
from fractions import Fraction

import pytest

from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ, extend
from folgal.ratfunc import RationalFunction, compose_poly

K_G = extend(QQ, "g", [Fraction(3), Fraction(0)], certified=True)  # g^2 + 3 = 0
TOWER = extend(K_G, "c", [K_G.coerce(1), K_G.coerce(0)], certified=True)  # c^2 + 1 = 0


def _coeff(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    g, c = field.coerce(field.base.gen()), field.gen()
    return field.coerce(rng.randint(-3, 3)) + g * rng.randint(-2, 2) + c * rng.randint(-2, 2)


def _poly(rng, field, names, terms, max_exp):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_exp) for _ in names)
        out[exp] = _coeff(rng, field)
    return MultiPoly(field, names, out)


def _eager_compose(p, mapping):
    """Reference: term by term, reducing after every product and sum."""
    sample = next(iter(mapping.values()))
    target = sample.num.vars
    result = RationalFunction.from_poly(MultiPoly.zero(p.field, target))
    for e, c in p.terms.items():
        term = RationalFunction.from_poly(MultiPoly.constant(p.field, target, c))
        for name, k in zip(p.vars, e):
            term = term * mapping[name] ** k
        result = result + term
    return result


# over the tower the images are univariate, as in the reduction to the line
@pytest.mark.parametrize(
    "field, target", [(QQ, ("s", "t")), (TOWER, ("z",))], ids=["QQ", "tower"]
)
def test_compose_poly_matches_eager_reference(field, target):
    rng = random.Random(11)
    for _ in range(8):
        p = _poly(rng, field, ("x", "y"), 4, 3)
        mapping = {}
        for name in ("x", "y"):
            den = _poly(rng, field, target, 2, 1)
            if den.is_zero():
                den = den.one_like()
            mapping[name] = RationalFunction(_poly(rng, field, target, 2, 2), den)
        got = compose_poly(p, mapping)
        want = _eager_compose(p, mapping)
        assert got.num == want.num and got.den == want.den


def test_compose_poly_keeps_unmapped_variables():
    z = MultiPoly.variable(QQ, ("x", "z"), "z")
    x = MultiPoly.variable(QQ, ("x", "z"), "x")
    p = x * z + z * z
    got = compose_poly(p, {"z": RationalFunction(x, x + 1)})
    # x * x/(x+1) + x^2/(x+1)^2 = (x^3 + 2x^2)/(x+1)^2
    assert got == RationalFunction(x**3 + x * x * 2, (x + 1) ** 2)
    assert got.den == (x + 1) ** 2
