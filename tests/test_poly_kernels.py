"""The polynomial kernels of ``numberfield`` against plain references.

Products and exact quotients over Q are compared with a schoolbook loop on
Fractions, products over a tower with one built from ``FieldElement``
arithmetic, and the squarefree decomposition over Q with sympy's
``sqf_list``.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from folgal.multipoly import MultiPoly, NotDivisible
from folgal.numberfield import QQ, extend
from folgal.parsing import parse_poly
from folgal.polyops import squarefree_decompose

NAMES = ("x", "y", "z")


def _schoolbook(a: MultiPoly, b: MultiPoly) -> dict:
    """The product's terms, one field operation at a time."""
    coerce = a.field.coerce
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            terms[e] = terms.get(e, 0) + coerce(ca) * coerce(cb)
    return {e: c for e, c in terms.items() if c}


_rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _rational_poly(draw, max_terms=8, max_exp=4, nonzero=False):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in NAMES))
    terms = draw(st.dictionaries(exps, _rational, min_size=1 if nonzero else 0,
                                 max_size=max_terms))
    p = MultiPoly.from_dict(QQ, NAMES, terms)
    if nonzero and p.is_zero():
        p = MultiPoly.constant(QQ, NAMES, Fraction(-7, 3))
    return p


def _assert_reduced_fractions(p: MultiPoly):
    for c in p.terms.values():
        assert type(c) is Fraction and c != 0


@given(_rational_poly(), _rational_poly())
@settings(max_examples=80, deadline=None)
def test_product_over_q_matches_the_fraction_schoolbook(a, b):
    got = a * b
    _assert_reduced_fractions(got)
    assert got.terms == _schoolbook(a, b)


@given(_rational_poly(), _rational_poly(nonzero=True), _rational)
@settings(max_examples=80, deadline=None)
def test_exact_quotient_over_q_recovers_the_cofactor(a, b, unit):
    # unit * b has content and, half the time, a negative leading coefficient
    divisor = b.scale(unit) if unit else b
    product = MultiPoly(QQ, NAMES, _schoolbook(a, divisor))
    got = product.exact_div(divisor)
    _assert_reduced_fractions(got)
    assert got == a
    if not divisor.is_constant():
        with pytest.raises(NotDivisible):
            (product + MultiPoly.constant(QQ, NAMES, 1)).exact_div(divisor)


def test_exact_quotient_by_a_divisor_with_content_and_negative_lead():
    p = lambda s: parse_poly(s, QQ, ("x", "y"))  # noqa: E731
    divisor = p("-4*x^2*y + 6*x - 10/3")  # content 2/3, leading coefficient -4
    cofactor = p("3/7*x*y^2 - 5*y + 1/2")
    assert (divisor * cofactor).exact_div(divisor) == cofactor
    # the primitive part of 2x + 2 is x + 1, so a quotient can be non-integral
    assert p("x + 1").exact_div(p("2*x + 2")) == p("1/2")


def test_exact_quotient_failures():
    p = lambda s: parse_poly(s, QQ, ("x", "y"))  # noqa: E731
    # the leading coefficient divides at every step, and the remainder 2 stays
    with pytest.raises(NotDivisible):
        p("x^2 + 1").exact_div(p("x + 1"))
    # 2 does not divide the leading coefficient 1 of x + 1
    with pytest.raises(NotDivisible):
        p("x + 1").exact_div(p("2*x + 1"))
    # a quotient exponent would be negative
    with pytest.raises(NotDivisible):
        p("y^3").exact_div(p("x + y"))
    with pytest.raises(NotDivisible):
        p("x").exact_div(p("x^2"))
    with pytest.raises(ZeroDivisionError):
        p("x + 1").exact_div(p("0"))


# -- towers ------------------------------------------------------------------------------


def _zeta5():
    return extend(QQ, "z5", [1, 1, 1, 1])


def _tower_g_c():
    # Q(g)(c) with g^2 = -3 and c^2 = -1
    inner = extend(QQ, "g", [3, 0])
    return extend(inner, "c", [inner.one(), inner.zero()])


TOWERS = {"zeta5": _zeta5, "g_c": _tower_g_c}


@st.composite
def _tower_polys(draw):
    field = TOWERS[draw(st.sampled_from(sorted(TOWERS)))]()
    layers = field.chain()

    def scalar():
        # an element of a random layer of the tower, or a plain rational
        k = draw(st.integers(0, len(layers)))
        if k == 0:
            return draw(_rational)
        layer = layers[k - 1]
        coords = [draw(_rational) for _ in range(layer.size)]
        acc = layer.zero()
        for i, c in enumerate(coords):
            acc = acc + c * _basis(layer, i)
        return acc

    def poly():
        exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
        keys = draw(st.lists(exps, max_size=6, unique=True))
        return MultiPoly(field, ("x", "y"), {e: scalar() for e in keys})

    return field, poly(), poly()


def _basis(layer, i):
    """Basis monomial ``i`` of ``layer``'s power basis over Q."""
    if layer.base is QQ:
        return layer.gen() ** i
    s = layer.base.size
    return layer.gen() ** (i // s) * layer.coerce(_basis(layer.base, i % s))


@given(_tower_polys())
@settings(max_examples=40, deadline=None)
def test_product_over_towers_matches_field_element_arithmetic(drawn):
    field, a, b = drawn
    got = a * b
    assert all(c.field is field for c in got.terms.values())
    assert got.terms == _schoolbook(a, b)
    if b:
        assert MultiPoly(field, a.vars, _schoolbook(a, b)).exact_div(b) == a


# -- squarefree decomposition over Q --------------------------------------------------------


def _sympy_expr(p: MultiPoly, gens):
    return sum((sp.Rational(c.numerator, c.denominator) * sp.Mul(*(g**k for g, k in zip(gens, e)))
                for e, c in p.terms.items()), sp.Integer(0))


@pytest.mark.parametrize("f, g, h", [
    ("x^2 + y + 1", "x*y - 2", "3*x - y^2 + 1/2"),
    ("x - y", "x + y", "x*y + 5"),
    ("y^2 + 1", "x^3 - 2*y", "x"),
    ("2*x - 3", "y - 1/4", "x^2 + x*y + y^2"),
])
def test_squarefree_decomposition_over_q_matches_sympy(f, g, h):
    p = lambda s: parse_poly(s, QQ, ("x", "y"))  # noqa: E731
    planted = p(f) ** 3 * p(g) ** 2 * p(h) * p("-5/6")
    dec = squarefree_decompose(planted)
    assert dec.reconstruct(planted) == planted
    gens = sp.symbols("x y")
    _, want = sp.sqf_list(_sympy_expr(planted, gens), *gens)
    got = {m: sp.Poly(_sympy_expr(part, gens), *gens).monic() for part, m in dec}
    assert got == {m: sp.Poly(part, *gens).monic() for part, m in want}
    assert sorted(got) == [1, 2, 3]
