import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.domains import QQ as SQQ

from folgal import polyops, sympy_bridge
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ, NumberField, extend
from folgal.sympy_bridge import factor_irreducible

VARS = ("x", "y")

# (modulus coefficients c0..c_{n-1} of the monic modulus, embedding)
FIELDS = {
    "sqrt2": ((-2, 0), 2**0.5),
    "i": ((1, 0), 1j),
    "zeta5": ((1, 1, 1, 1), complex(0.309017, 0.951057)),
}


def _field(name):
    coeffs, emb = FIELDS[name]
    return NumberField(QQ, "a", coeffs, emb)


def _poly(field, terms):
    """Polynomial in x, y from {(i, j): [rational coordinates in 1, a, ...]}."""
    return MultiPoly(field, VARS, {e: field.element(
        list(c) + [0] * (field.degree - len(c))) for e, c in terms.items()})


def _sympy_factors(p):
    """The oracle: sympy's factor_list over QQ<a>, as monic MultiPolys."""
    field = p.field
    a = sp.Symbol("a")
    modulus = sp.Poly([1] + [sp.Rational(c) for c in reversed(field.min_poly)], a)
    dom = SQQ.alg_field_from_poly(modulus, alias="a")
    rep = {e: dom([SQQ(v.numerator, v.denominator) for v in reversed(c.rep)])
           for e, c in p.terms.items()}
    _, factors = sp.Poly.from_dict(rep, *sp.symbols("x y"), domain=dom).factor_list()
    out = Counter()
    for f, mult in factors:
        terms = {}
        for e, c in f.rep.to_dict().items():
            coords = [Fraction(int(v.numerator), int(v.denominator)) for v in reversed(c.to_list())]
            terms[e] = field.element(coords + [0] * (field.degree - len(coords)))
        out[MultiPoly(field, VARS, terms).monic()] += mult
    return out


def _random_factor(rng, field, linear_only=False):
    """A small factor of degree 1 or 2 with coefficients in the field."""
    def coeff():
        return [rng.randint(-2, 2) for _ in range(field.degree)]

    deg = 1 if linear_only else rng.choice((1, 1, 2))
    terms = {(deg, 0): [1]}
    for e in [(i, j) for i in range(deg + 1) for j in range(deg + 1) if i + j <= deg]:
        if e != (deg, 0) and rng.random() < 0.6:
            terms[e] = coeff()
    return _poly(field, terms)


def _random_product(rng, field):
    prod = MultiPoly.constant(field, VARS, 1)
    for _ in range(rng.randint(2, 3)):
        prod = prod * _random_factor(rng, field)
    return prod


def _assert_matches_oracle(p):
    ours = Counter({f: m for f, m in factor_irreducible(p)})
    assert ours == _sympy_factors(p)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_norm_factors_match_sympy_on_random_products(name, seed):
    rng = random.Random(seed * 101 + len(name))
    _assert_matches_oracle(_random_product(rng, _field(name)))


def test_rational_factors_split_over_the_field():
    field = _field("sqrt2")
    # (x^2 - 2) (y^2 - 2) (x + a y), with x^2 - 2 and y^2 - 2 over Q
    p = _poly(field, {(2, 0): [1], (0, 0): [-2]}) * _poly(field, {(0, 2): [1], (0, 0): [-2]})
    p = p * _poly(field, {(1, 0): [1], (0, 1): [0, 1]})
    _assert_matches_oracle(p)
    assert len(factor_irreducible(p)) == 5


def test_norm_not_squarefree_at_shift_zero():
    # (x - a)(x - a^2) over Q(zeta5) has no factor over Q, but both factors
    # have the norm x^4 + x^3 + x^2 + x + 1
    field = _field("zeta5")
    p = _poly(field, {(1, 0): [1], (0, 0): [0, -1]}) * _poly(field, {(1, 0): [1], (0, 0): [0, 0, -1]})
    norm = sympy_bridge._norm(p)
    cyclotomic = MultiPoly(QQ, VARS, {(k, 0): Fraction(1) for k in range(5)})
    assert norm == cyclotomic**2
    _assert_matches_oracle(p)


def test_squarefree_input_with_no_good_small_shift():
    # over Q(zeta5), with r5 = 1 + 2a + 2a^4 = -1 - 2a^2 - 2a^3 = sqrt 5:
    # (x - r5)(x - 10 + a)(x + 10 - a)(x - 20 + 2a)(x + 20 - 2a).  The shift
    # x -> x - s a with s in 0, +-1, +-2 moves a root to a rational number,
    # and r5 has a double norm at s = 0, so no shift of norm at most two
    # works; the squarefree split returns the input, and the search goes on
    # to s = 3
    field = _field("zeta5")
    p = _poly(field, {(1, 0): [1], (0, 0): [1, 0, 2, 2]})
    for c in ([-10, 1], [10, -1], [-20, 2], [20, -2]):
        p = p * _poly(field, {(1, 0): [1], (0, 0): c})
    _assert_matches_oracle(p)
    assert len(factor_irreducible(p)) == 5


def test_non_squarefree_input_takes_the_squarefree_fallback(monkeypatch):
    calls = []
    original = polyops.squarefree_decompose

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(polyops, "squarefree_decompose", counted)
    field = _field("i")
    lin = _poly(field, {(1, 0): [1], (0, 0): [0, -1]})          # x - i
    other = _poly(field, {(0, 1): [1], (1, 0): [0, 1], (0, 0): [1]})  # y + i x + 1
    p = lin**2 * other
    _assert_matches_oracle(p)
    assert sorted(m for _, m in factor_irreducible(p)) == [1, 2]
    assert calls


def test_non_squarefree_input_makes_one_norm_per_squarefree_part(monkeypatch):
    # halfchi_quartic's inflection polynomial over Q(g) is two lines over Q
    # times a transverse cubic cubed.  The lines need no norm, and the split
    # comes before the shift search, so the cube takes one norm: that of the
    # cubic at shift 0
    from folgal import corpus
    from folgal.foliation import inflection_polynomial

    f1 = inflection_polynomial(corpus.foliation("halfchi_quartic"))
    norms = []
    original = sympy_bridge._norm

    def counted(p):
        norms.append(p)
        return original(p)

    monkeypatch.setattr(sympy_bridge, "_norm", counted)
    factors = factor_irreducible(f1)
    assert [(f.total_degree(), m) for f, m in factors] == [(1, 1), (1, 1), (3, 3)]
    assert len(norms) == 1 and norms[0].total_degree() == 3


def test_norm_of_quadratic_is_a2_minus_c_b2():
    field = _field("sqrt2")
    A = _poly(field, {(2, 0): [1], (0, 1): [3], (0, 0): [-1]})
    B = _poly(field, {(1, 1): [2], (0, 0): [5]})
    alpha = MultiPoly.constant(field, VARS, field.gen())
    norm = sympy_bridge._norm(A + alpha * B)
    rational = lambda f: f.map_coefficients(lambda c: c.rational_value(), QQ)
    assert norm == rational(A) ** 2 - rational(B) ** 2 * MultiPoly.constant(QQ, VARS, 2)


def test_dropped_factor_fails_the_product_check(monkeypatch):
    original = sympy_bridge._factor_by_shift

    def drop_last(p):
        return original(p)[:-1]

    monkeypatch.setattr(sympy_bridge, "_factor_by_shift", drop_last)
    field = _field("sqrt2")
    p = _poly(field, {(1, 0): [1], (0, 0): [0, 1]}) * _poly(field, {(0, 1): [1], (0, 0): [1, 1]})
    with pytest.raises(ArithmeticError):
        factor_irreducible(p)


# Q(sqrt 2)(i): s^2 = 2, then i^2 = -1 over Q(s)
TOWER_TEXTS = ["x^4+1", "(x^2+1)*(x^2-2)*(x^2-3)", "x^2+y^2", "(x-s)^2*(x+i)", "x^3-2"]


@pytest.mark.parametrize("text", TOWER_TEXTS)
def test_tower_factors_match_sympy(text):
    from folgal.parsing import parse_poly

    root2 = extend(QQ, "s", [Fraction(-2), Fraction(0)])
    tower = extend(root2, "i", [root2.coerce(1), root2.coerce(0)])
    p = parse_poly(text, tower, VARS)
    ours = factor_irreducible(p)
    prod = p.one_like()
    for f, m in ours:
        assert f.field is tower
        prod = prod * f**m
    assert prod == p.monic()
    x, y = sp.symbols("x y")
    expr = sp.sympify(text.replace("^", "**"), locals={"s": sp.sqrt(2), "i": sp.I})
    _, theirs = sp.factor_list(expr, x, y, extension=[sp.sqrt(2), sp.I])
    assert sorted((f.total_degree(), m) for f, m in ours) == sorted(
        (sp.Poly(f, x, y).total_degree(), m) for f, m in theirs)
