from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folgal.multipoly import MultiPoly, variables
from folgal.numberfield import QQ, extend
from folgal.parsing import parse_min_poly, parse_poly
from folgal.polyops import (
    DegenerateResultant,
    _gcd_content_prs,
    discriminant,
    is_square_over_closure,
    mpoly_gcd,
    perfect_power_part,
    resultant,
    squarefree_decompose,
    subresultant_chain,
    sylvester_matrix,
)


def brute_determinant(rows):
    """Cofactor-expansion determinant; independent oracle for resultants."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    zero = rows[0][0].zero_like()
    total = zero
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * brute_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@st.composite
def small_poly(draw, names=("x", "y"), max_terms=4, max_exp=3):
    n = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in names)
        c = draw(st.integers(min_value=-5, max_value=5))
        terms[exp] = terms.get(exp, 0) + c
    return MultiPoly.from_dict(QQ, names, {e: Fraction(c) for e, c in terms.items()})


# -- gcd ---------------------------------------------------------------------


def test_gcd_simple_cases():
    x, y = variables(QQ, ("x", "y"))
    assert mpoly_gcd(x * x - y * y, x - y) == x - y
    assert mpoly_gcd(x * y, MultiPoly.zero(QQ, ("x", "y"))) == x * y
    assert mpoly_gcd((x + y) * 3, (x + y) * x) == x + y


def test_gcd_over_extension_is_one():
    K = extend(QQ, "g", parse_min_poly("g^2-g+1", "g"))
    p = parse_poly("x*y", K, ("x", "y"))
    q = parse_poly("g*y^2 + x^3", K, ("x", "y"))
    g = mpoly_gcd(p, q)
    assert g.is_constant() and g.constant_value() == K.one()


@given(small_poly(), small_poly(), small_poly())
@settings(max_examples=25, deadline=None)
def test_gcd_divides_and_cofactors_coprime(p, q, h):
    if p.is_zero() or q.is_zero() or h.is_zero():
        return
    a, b = p * h, q * h
    g = mpoly_gcd(a, b)
    ca = a.exact_div(g)
    cb = b.exact_div(g)
    assert mpoly_gcd(ca, cb).is_constant()
    assert h.divides(g) or g.divides(h) or mpoly_gcd(g, h) == h.monic()
    # h always divides the gcd
    assert g.exact_div(mpoly_gcd(g, h.monic())).divides(g)
    assert h.monic().divides(g)


TRIVARIATE = ("x", "y", "t")


@given(
    small_poly(names=TRIVARIATE, max_terms=3, max_exp=2),
    small_poly(names=TRIVARIATE, max_terms=3, max_exp=2),
    small_poly(names=TRIVARIATE, max_terms=3, max_exp=2),
)
@settings(max_examples=20, deadline=None)
def test_dense_gcd_matches_content_prs(a, b, h):
    # the discriminant route's shape: (x, y, t) over Q; the dense kernel is
    # checked against the content + subresultant route kept for towers
    p, q = a * h, b * h
    if p.is_constant() or q.is_constant():
        return
    g = mpoly_gcd(p, q)
    assert g == _gcd_content_prs(p, q).monic()
    assert h.monic().divides(g)


@st.composite
def binary_form(draw, names=("t", "x", "y")):
    # a form in x, y inside a ring that also has the absent variable t
    k = draw(st.integers(min_value=0, max_value=3))
    coeffs = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(k + 1)]
    return MultiPoly.from_dict(
        QQ, names, {(0, k - j, j): Fraction(c) for j, c in enumerate(coeffs)}
    )


Q_I = extend(QQ, "c", [Fraction(1), Fraction(0)])  # c^2 + 1 = 0


@given(binary_form(), binary_form(), binary_form())
@settings(max_examples=30, deadline=None)
def test_binary_form_gcd_over_tower_matches_dense(a, b, h):
    # rational binary forms coerced into Q(i) take the tower's binary-form
    # route; their gcd is the one over Q, given by the dense kernel
    p, q = a * h, b * h
    if p.is_zero() or q.is_zero() or p.is_constant() or q.is_constant():
        return
    g = mpoly_gcd(p, q)
    assert mpoly_gcd(p.to_field(Q_I), q.to_field(Q_I)) == g.to_field(Q_I)


def test_binary_form_gcd_keeps_factor_over_tower():
    names = ("t", "x", "y")
    h = parse_poly("x - c*y", Q_I, names)
    x = parse_poly("x", Q_I, names)
    p = x * x * h * parse_poly("x + 2*y", Q_I, names)
    q = x * h * parse_poly("y*(y^2 + 3*x^2)", Q_I, names)
    g = mpoly_gcd(p, q)
    assert h.divides(g)
    # y^2 + 3x^2 does not split over Q(i), so x h is the whole gcd
    assert g == (x * h).monic()
    assert g == _gcd_content_prs(q, p)


# -- resultants ---------------------------------------------------------------


def test_resultant_known_values():
    z, y = variables(QQ, ("z", "y"))
    assert resultant(z * z + 1, z - y, "z") == y * y + 1
    # 5x5 Sylvester determinant expanded by hand: 27 y^2
    assert resultant(z**3 - y, 3 * z * z, "z") == 27 * y * y
    r = resultant(z - 1, z + 1, "z")
    assert r.is_constant() and abs(Fraction(r.constant_value())) == 2
    # Res(y + 2, y^5 + 1) is y^5 + 1 at the root y = -2, i.e. -31; swapping
    # the arguments multiplies it by (-1)^(1*5)
    assert resultant(y + 2, y**5 + 1, "y") == -31
    assert resultant(y**5 + 1, y + 2, "y") == 31


def test_resultant_degenerate():
    x, y = variables(QQ, ("x", "y"))
    with pytest.raises(DegenerateResultant):
        resultant(y, y * y, "x")


@given(small_poly(names=("z", "y"), max_exp=2), small_poly(names=("z", "y"), max_exp=2))
@settings(max_examples=20, deadline=None)
def test_resultant_matches_brute_sylvester(p, q):
    if p.degree_in("z") < 1 or q.degree_in("z") < 1:
        return
    fast = resultant(p, q, "z")
    slow = brute_determinant(sylvester_matrix(p, q, "z"))
    assert fast == slow


@st.composite
def z_poly(draw, max_deg=3):
    """Polynomial in ``(z, y)`` of degree 1..max_deg in ``z``, coefficients
    of degree at most 2 in ``y``."""
    deg = draw(st.integers(min_value=1, max_value=max_deg))
    terms = {}
    for k in range(deg + 1):
        for j in range(3):
            terms[(k, j)] = Fraction(draw(st.integers(min_value=-3, max_value=3)))
    if not any(terms[(deg, j)] for j in range(3)):
        terms[(deg, 0)] = Fraction(1)
    return MultiPoly.from_dict(QQ, ("z", "y"), terms)


@given(z_poly(), z_poly())
@example(
    MultiPoly.from_dict(QQ, ("z", "y"), {(1, 0): 1, (0, 1): 2}),
    MultiPoly.from_dict(QQ, ("z", "y"), {(3, 0): 1, (0, 0): 1, (1, 1): -1}),
)
@settings(max_examples=30, deadline=None)
def test_resultant_matches_brute_sylvester_odd_degrees(p, q):
    # degrees up to 3 in z reach odd x odd pairs with deg p < deg q, where
    # the argument order changes the sign of sympy's resultant
    assert resultant(p, q, "z") == brute_determinant(sylvester_matrix(p, q, "z"))


def brute_subresultant(p, q, var, j):
    """``S_j(p, q)`` from its definition: ``deg q - j`` shifted rows of ``p``
    over ``deg p - j`` of ``q``; the coefficient of ``var^k`` is the minor on
    the first ``deg p + deg q - 2j - 1`` columns and the column of ``var^k``."""
    fc = [c.with_vars(p.vars) for c in reversed(p.univariate_coeffs(var))]
    gc = [c.with_vars(p.vars) for c in reversed(q.univariate_coeffs(var))]
    n, m = len(fc) - 1, len(gc) - 1
    width = n + m - j
    zero = p.zero_like()
    rows = []
    for coeffs, count in ((fc, m - j), (gc, n - j)):
        for i in range(count):
            row = [zero] * width
            row[i:i + len(coeffs)] = coeffs
            rows.append(row)
    size = n + m - 2 * j
    v = MultiPoly.variable(p.field, p.vars, var)
    total = zero
    for k in range(j + 1):
        minor = [row[:size - 1] + [row[width - 1 - k]] for row in rows]
        total = total + brute_determinant(minor) * v**k
    return total


@pytest.mark.parametrize(
    "f, g",
    [
        ("y^4 + x", "y^3 + x*y + 1"),
        # defective: S_4 has degree 3, so S_3 is its regular multiple
        ("y^3*(y^3 - y - 1) + x*(-y^2 + x*y - 1)", "y^3*(y^2 - 1) + x*(2*y - 1)"),
        ("y^6 + 2*y^3 + x", "y^5 + y"),
        ("(y^2 - x)*(y^2 + 1)", "(y^2 - x)*(y + x)"),
        ("y + 2", "y^5 + x"),
        ("2*y^2 + x*y/3", "y^4/5 - x"),
    ],
)
def test_subresultant_chain_matches_determinants(f, g):
    p, q = (parse_poly(t, QQ, ("x", "y")) for t in (f, g))
    for a, b in ((p, q), (q, p)):
        chain = dict(subresultant_chain(a, b, "y"))
        for j in range(min(a.degree_in("y"), b.degree_in("y"))):
            slow = brute_subresultant(a, b, "y", j)
            if slow.degree_in("y") == j:
                assert chain.pop(j) == slow
            else:
                assert slow.is_zero() or slow.degree_in("y") < j
        assert not chain
        assert resultant(a, b, "y") == brute_subresultant(a, b, "y", 0)


@given(small_poly(names=("z", "y"), max_exp=2), small_poly(names=("z", "y"), max_exp=2))
@settings(max_examples=20, deadline=None)
def test_resultant_vanishes_iff_common_factor(p, q):
    if p.degree_in("z") < 1 or q.degree_in("z") < 1:
        return
    r = resultant(p, q, "z")
    g = mpoly_gcd(p, q)
    if g.degree_in("z") > 0:
        assert r.is_zero()
    else:
        # nonzero gcd in z: resultant may still vanish only on content overlap
        if r.is_zero():
            assert not mpoly_gcd(p, q).is_constant()


# -- discriminants ------------------------------------------------------------


def test_discriminant_quadratic():
    b, c, t = variables(QQ, ("b", "c", "t"))
    assert discriminant(t * t + b * t + c, "t") == b * b - 4 * c


def test_discriminant_sign_convention():
    x, t = variables(QQ, ("x", "t"))
    assert discriminant(t * t - x, "t") == 4 * x


def test_discriminant_degree_error():
    x, t = variables(QQ, ("x", "t"))
    with pytest.raises(ValueError):
        discriminant(t + x, "t")


# -- squarefree structure -------------------------------------------------------


def test_squarefree_known():
    x, y = variables(QQ, ("x", "y"))
    dec = squarefree_decompose((x + y) ** 2 * (x - y) ** 3)
    assert [(str(f), m) for f, m in dec] == [("x + y", 2), ("x - y", 3)]
    dec2 = squarefree_decompose(x * x * y**4)
    assert [(str(f), m) for f, m in dec2] == [("x", 2), ("y", 4)]


@given(small_poly(), small_poly(), st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_squarefree_reconstructs(p, q, k):
    if p.is_zero() or q.is_zero():
        return
    target = p * q**k
    dec = squarefree_decompose(target)
    assert dec.reconstruct(target) == target
    for f, _ in dec:
        inner = squarefree_decompose(f)
        assert all(m == 1 for _, m in inner)


@given(small_poly())
@settings(max_examples=30, deadline=None)
def test_square_detection(p):
    if p.is_zero():
        return
    ok, root, unit = is_square_over_closure(p * p)
    assert ok
    assert (root * root).scale(unit) == p * p


def test_square_detection_counterexample():
    x, y = variables(QQ, ("x", "y"))
    p = (x + 2 * y) ** 2
    ok, witness, _ = is_square_over_closure(p * (x - y))
    assert not ok
    assert witness == (x - y)


def test_square_example_from_quadratic():
    x, y = variables(QQ, ("x", "y"))
    ok, root, unit = is_square_over_closure(4 * x * x + 4 * x * y + y * y)
    assert ok and unit == 4
    assert root == x + y * Fraction(1, 2)


def test_perfect_power():
    x, y = variables(QQ, ("x", "y"))
    assert perfect_power_part((x * x - 1) ** 3, 3) == x * x - 1
    assert perfect_power_part(x * x * y, 2) is None


def test_perfect_power_over_extension():
    K = extend(QQ, "g", parse_min_poly("g^2+3", "g"))
    base = parse_poly("z^4 + 2*g*z^2 + 1", K, ("z",))
    cube = base**3
    assert perfect_power_part(cube, 3) == base.monic()
