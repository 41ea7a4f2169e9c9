from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folgal.multipoly import MultiPoly, NotDivisible, poly_str, variables
from folgal.numberfield import QQ, extend
from folgal.parsing import ParseError, parse_min_poly, parse_poly, parse_rational


def rand_poly(draw, names=("x", "y"), max_terms=6, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in names
        )
        coeff = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=5)),
        )
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return MultiPoly.from_dict(QQ, names, terms)


@st.composite
def poly_strategy(draw):
    return rand_poly(draw)


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) - q == p
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_exact_division_undoes_multiplication(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@given(poly_strategy())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(p):
    text = poly_str(p)
    again = parse_poly(text, QQ, ("x", "y"))
    assert again == p
    assert poly_str(again) == text


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_eval_distributes(p, q):
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2)}
    lhs = (p * q + p).eval_field(point)
    rhs = p.eval_field(point) * q.eval_field(point) + p.eval_field(point)
    assert lhs == rhs


def test_substitute_composition():
    x, y = variables(QQ, ("x", "y"))
    p = x * x + y
    img = p.substitute({"x": x + y, "y": x * y})
    assert img == (x + y) ** 2 + x * y


def test_homogenize_dehomogenize():
    p = parse_poly("x^3 + x*y - 2", QQ, ("x", "y"))
    h = p.homogenize("z")
    assert h.is_homogeneous() and h.total_degree() == 3
    assert h.dehomogenize("z") == p


def test_univariate_views_roundtrip():
    p = parse_poly("x^2*y + 3*x - y^2 + 1", QQ, ("x", "y"))
    coeffs = p.univariate_coeffs("x")
    rebuilt = MultiPoly.from_univariate(coeffs, "x", position=0)
    assert rebuilt.permute_to(("x", "y")) == p


def test_field_coefficient_roundtrip():
    K = extend(QQ, "g", parse_min_poly("g^2-g+1", "g"))
    p = parse_poly("g*y^2 + (1 - g)*x + 1/2", K, ("x", "y"))
    assert parse_poly(poly_str(p), K, ("x", "y")) == p


def test_parse_rational_function():
    rf = parse_rational("(x^2 - y^2)/(x - y)", QQ, ("x", "y"))
    assert rf.is_polynomial()
    assert rf.as_poly() == parse_poly("x + y", QQ, ("x", "y"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_poly("x + $", QQ, ("x",))
    with pytest.raises(ParseError):
        parse_poly("x + w", QQ, ("x",))


def test_not_divisible():
    x, y = variables(QQ, ("x", "y"))
    with pytest.raises(NotDivisible):
        (x * x + y).exact_div(x + 1)


def test_monic_uses_graded_lex_leading_term():
    p = parse_poly("2*x*y^2 + 4*x^2", QQ, ("x", "y"))
    # grlex: x*y^2 (deg 3) beats x^2
    assert p.monic() == parse_poly("x*y^2 + 2*x^2", QQ, ("x", "y"))
