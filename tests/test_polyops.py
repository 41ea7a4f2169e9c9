import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.densearith import dmp_neg
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_resultant

from folgal import numberfield, polyops
from folgal.multipoly import MultiPoly, variables
from folgal.numberfield import QQ, extend
from folgal.parsing import parse_min_poly, parse_poly
from folgal.polyops import (
    DegenerateResultant,
    _coprime_image,
    _gcd_content_prs,
    _gcd_rational,
    _squarefree_yun,
    _yun_recursion,
    content_in,
    discriminant,
    is_irreducible,
    is_square_over_closure,
    is_squarefree,
    mpoly_gcd,
    perfect_power_part,
    resultant,
    squarefree_decompose,
)
from folgal.sympy_bridge import factor_irreducible, from_dense, lift, residue_map


def sylvester_matrix(p, q, var):
    """Sylvester matrix of ``p`` and ``q`` in ``var``; entries keep the full ring."""
    fc = [c.with_vars(p.vars) for c in reversed(p.univariate_coeffs(var))]
    gc = [c.with_vars(p.vars) for c in reversed(q.univariate_coeffs(var))]
    m, n = len(fc) - 1, len(gc) - 1
    zero = p.zero_like()
    rows = []
    for coeffs, count in ((fc, n), (gc, m)):
        for i in range(count):
            row = [zero] * (m + n)
            row[i:i + len(coeffs)] = coeffs
            rows.append(row)
    return rows


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
    # pairs whose subresultant chains are defective or vanish, in both orders
    p, q = (parse_poly(t, QQ, ("x", "y")) for t in (f, g))
    for a, b in ((p, q), (q, p)):
        assert resultant(a, b, "y") == brute_determinant(sylvester_matrix(a, b, "y"))


# over a tower the generators are packed with the other variables; the
# Sylvester determinant over the tower is the oracle
SQRT5 = extend(QQ, "g", [Fraction(-5), Fraction(0)])  # g^2 - 5
ZETA3 = extend(QQ, "g", [Fraction(1), Fraction(-1)])  # g^2 - g + 1
ZETA3_I = extend(ZETA3, "c", [ZETA3.one(), ZETA3.zero()])  # c^2 + 1 over Q(g)


def tower_scalar(draw, field):
    if field is QQ:
        return Fraction(draw(st.integers(min_value=-3, max_value=3)))
    return field.element([tower_scalar(draw, field.base) for _ in range(field.degree)])


@st.composite
def tower_poly(draw, field, names, deg, lead=None):
    """Degree ``deg`` in ``names[0]``, degree at most 1 in each other
    variable; ``lead`` fixes the leading coefficient in ``names[0]``."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rest = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in names[1:])
        terms[(draw(st.integers(min_value=0, max_value=deg - 1)),) + rest] = tower_scalar(draw, field)
    p = MultiPoly(field, names, terms)
    if lead is None:
        rest = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in names[1:])
        lead = MultiPoly(field, names, {(0,) + rest: field.one() + tower_scalar(draw, field)})
        if lead.is_zero():
            lead = MultiPoly.constant(field, names, 1)
    z = MultiPoly.variable(field, names, names[0])
    return p + lead * z**deg


def assert_matches_sylvester(p, q, var="z"):
    assert resultant(p, q, var) == brute_determinant(sylvester_matrix(p, q, var))


@st.composite
def univariate_odd_pair(draw):
    """Polynomials in ``z`` alone, of odd degrees with the lower first, and
    coefficients with denominators: the sign fix then applies to an integer
    resultant."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def one(deg):
        lead = draw(st.sampled_from([1, -2, Fraction(2, 3)]))
        coeffs = [draw(coeff) for _ in range(deg)] + [lead]
        return MultiPoly.from_dict(QQ, ("z", "y"), {(k, 0): c for k, c in enumerate(coeffs)})

    dp, dq = draw(st.sampled_from([(1, 3), (3, 5), (1, 5)]))
    return one(dp), one(dq)


@given(st.one_of(st.tuples(z_poly(), z_poly()), univariate_odd_pair()))
@example((parse_poly("z + 2", QQ, ("z", "y")), parse_poly("z^5 + 1", QQ, ("z", "y"))))
@settings(max_examples=30, deadline=None)
def test_rational_and_tower_resultants_agree(pair):
    # the same pair over Q and moved into Q(sqrt 5), where the generator is
    # packed too
    p, q = pair
    r = resultant(p, q, "z")
    assert resultant(p.to_field(SQRT5), q.to_field(SQRT5), "z") == r.to_field(SQRT5)


@pytest.mark.parametrize("field", [SQRT5, ZETA3_I], ids=["sqrt5", "zeta3_i"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_tower_resultant_matches_brute_sylvester(field, data):
    dp, dq = data.draw(st.integers(min_value=1, max_value=3)), data.draw(st.integers(min_value=1, max_value=3))
    p = data.draw(tower_poly(field, ("z", "y"), dp))
    q = data.draw(tower_poly(field, ("z", "y"), dq))
    assert_matches_sylvester(p, q)


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_tower_resultant_three_variables(data):
    names = ("z", "x", "y")
    p = data.draw(tower_poly(SQRT5, names, data.draw(st.integers(min_value=1, max_value=2))))
    q = data.draw(tower_poly(SQRT5, names, data.draw(st.integers(min_value=1, max_value=3))))
    p = p + parse_poly("x - g*y", SQRT5, names)  # both x and y occur
    assert_matches_sylvester(p, q)


@pytest.mark.parametrize("field", [SQRT5, ZETA3_I], ids=["sqrt5", "zeta3_i"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_tower_resultant_sign_for_odd_degrees_lower_first(field, data):
    # sympy's integer resultant is taken with the operand of higher degree
    # first; for odd x odd degrees the swap flips the sign
    dp, dq = data.draw(st.sampled_from([(1, 3), (3, 5), (1, 5)]))
    p = data.draw(tower_poly(field, ("z", "y"), dp))
    q = data.draw(tower_poly(field, ("z", "y"), dq))
    assert_matches_sylvester(p, q)
    assert resultant(q, p, "z") == -resultant(p, q, "z")


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_tower_resultant_where_a_leading_coefficient_vanishes_at_small_integers(data):
    # the leading coefficient in z vanishes at x = 0, 1 and 2
    names = ("z", "x")
    lead = parse_poly("(g + 1)*x*(x - 1)*(x - 2)", SQRT5, names)
    p = data.draw(tower_poly(SQRT5, names, 2, lead=lead))
    q = data.draw(tower_poly(SQRT5, names, data.draw(st.integers(min_value=1, max_value=3))))
    assert_matches_sylvester(p, q)
    assert_matches_sylvester(q, p)


# seeded random pairs against two oracles: the Sylvester determinant and
# sympy's dmp_resultant on the dense inputs, generators as variables


def sympy_resultant(p, q, var):
    """``Res_var(p, q)`` from sympy's ``dmp_resultant`` over ZZ on the
    lifted inputs, with the operand of higher degree first (sympy's sign
    holds only then)."""
    order = [var] + [v for v in p.vars if v != var]
    u = len(order) + len(p.field.chain()) - 1
    (a, f), (b, g) = lift(p, order), lift(q, order)
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp >= dq:
        r = dmp_resultant(f, g, u, ZZ)
    else:
        r = dmp_resultant(g, f, u, ZZ)
        if dp * dq % 2:
            r = dmp_neg(r, u - 1, ZZ) if u else -r
    return from_dense(r, order[1:], p).scale(Fraction(1, a**dq * b**dp))


ZETA5 = extend(QQ, "g", [Fraction(1)] * 4)  # g^4 + g^3 + g^2 + g + 1
SQRT_M3_I = extend(extend(QQ, "g", [Fraction(3), Fraction(0)]), "c", [1, 0])  # Q(sqrt -3)(i)


def _random_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    return field.element([_random_scalar(rng, field.base) for _ in range(field.degree)])


def _random_pair(rng, field, names):
    """Degrees 1..3 in ``names[0]``, odd x odd ones among them, in both
    orders; most of the time the leading coefficient in ``names[0]``
    vanishes at one of 0, 1, -1, 2, -2 in ``names[1]``, when there is one."""
    dp, dq = rng.choice([(1, 3), (3, 1), (3, 3), (1, 1), (2, 3), (3, 2), (1, 2), (2, 2)])
    pair = []
    for deg in (dp, dq):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            rest = tuple(rng.randint(0, 2) for _ in names[1:])
            terms[(rng.randint(0, deg - 1),) + rest] = _random_scalar(rng, field)
        lead = MultiPoly.constant(field, names, _random_scalar(rng, field) or 1)
        if len(names) > 1 and rng.random() < 0.7:
            root = rng.choice([0, 1, -1, 2, -2])
            lead = lead * (MultiPoly.variable(field, names, names[1]) - root)
        z = MultiPoly.variable(field, names, names[0])
        pair.append(MultiPoly(field, names, terms) + lead * z**deg)
    return pair


@pytest.mark.parametrize("names", [("z",), ("z", "x"), ("z", "x", "y")], ids=["1var", "2var", "3var"])
@pytest.mark.parametrize("seed", range(8))
def test_packed_resultant_matches_both_oracles_over_q(names, seed):
    rng = random.Random(seed)
    p, q = _random_pair(rng, QQ, names)
    r = resultant(p, q, "z")
    assert r == sympy_resultant(p, q, "z")
    assert r == brute_determinant(sylvester_matrix(p, q, "z"))
    assert resultant(q, p, "z") == brute_determinant(sylvester_matrix(q, p, "z"))


@pytest.mark.parametrize("field", [SQRT5, ZETA5, SQRT_M3_I], ids=["sqrt5", "zeta5", "sqrt-3_i"])
@pytest.mark.parametrize("seed", range(3))
def test_packed_resultant_matches_both_oracles_over_towers(field, seed):
    rng = random.Random(100 + seed)
    p, q = _random_pair(rng, field, ("z", "x"))
    r = resultant(p, q, "z")
    assert r == sympy_resultant(p, q, "z")
    assert r == brute_determinant(sylvester_matrix(p, q, "z"))
    assert resultant(q, p, "z") == brute_determinant(sylvester_matrix(q, p, "z"))


def test_packed_resultant_needs_its_digit_width(monkeypatch):
    # one byte per digit cannot hold the resultant's coefficients
    z, y = variables(QQ, ("z", "y"))
    monkeypatch.setattr(polyops, "_digit_bytes", lambda bound: 1)
    with pytest.raises(OverflowError):
        resultant(z**3 + 200 * y, 3 * z - y * y, "z")


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


@pytest.mark.parametrize("field, text, expected", [
    # (x^2 + 1)(x + y)^2 is the part over Q; x^2 + 1 shares x - c with (x - c)^2
    (Q_I, "(x^2+1)*(x-c)^2*(x+y)^2*(y-c)",
     [("x*y + (-c)*x + c*y + 1", 1), ("x + y", 2), ("x + (-c)", 3)]),
    # over Q(g)(c) the part over Q(g), (x^2 - x + 1)(x - g)^3 y, is split the
    # same way one layer down: x^2 - x + 1 = (x - g)(x - 1 + g)
    (ZETA3_I, "(x^2+1)*(x-c)^2*(x^2-x+1)*(x-g)^3*y",
     [("x^2*y + (-1 + g + c)*x*y + ((-1 + g)*c)*y", 1), ("x + (-c)", 3), ("x + (-g)", 4)]),
])
def test_squarefree_over_a_tower_matches_yun(field, text, expected):
    p = parse_poly(text, field, ("x", "y"))
    dec = squarefree_decompose(p)
    assert [(str(f), m) for f, m in dec] == expected
    assert dec.factors == _squarefree_yun(p)


def test_yun_with_content_in_each_variable_matches_the_plain_recursion():
    # over Q(sqrt 5): content (y^2 - g)^2 (y + 1) in x and (x - g)^3 in y,
    # around a primitive part with a square
    p = parse_poly("(y^2-g)^2*(y+1)*(x-g)^3*(x*y+g)^2*(x+y+1)", SQRT5, ("x", "y"))
    assert content_in(p, "x").total_degree() == 5
    assert content_in(p, "y").total_degree() == 3
    parts = _squarefree_yun(p)
    assert parts == _yun_recursion(p)
    assert [(str(f), m) for f, m in parts] == [
        ("x*y + y^2 + x + 2*y + 1", 1),
        ("x*y^3 + (-g)*x*y + g*y^2 - 5", 2),
        ("x + (-g)", 3),
    ]
    assert squarefree_decompose(p).reconstruct(p) == p


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


@pytest.mark.parametrize("seed", range(6))
def test_packed_quadratic_discriminant_matches_the_products(seed):
    rng = random.Random(seed)
    names = ("x", "y")

    def draw():
        return MultiPoly.from_dict(QQ, names, {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-99, 99), rng.randint(1, 12))
            for _ in range(rng.randint(0, 7))})

    c0, c1, c2 = draw(), draw(), draw()
    assert polyops.quadratic_discriminant(c0, c1, c2) == c1 * c1 - 4 * c0 * c2


# the packed square root against the squarefree path


def _squarefree_path(monkeypatch, p):
    with monkeypatch.context() as m:
        m.setattr(polyops, "_packed_square_root", lambda p: None)
        return is_square_over_closure(p)


SQUARE_BASES = ["x^2 - 3*x*y + 7/2*y - 5", "x + 1/3", "2*x^3 - 9*x*y^2 + 11*y^4 - x + 1", "-6*y^2 + x/5"]


@pytest.mark.parametrize("base", SQUARE_BASES)
@pytest.mark.parametrize("c", [1, -3, 4, Fraction(1, 7)])
def test_packed_square_root_matches_the_squarefree_path_on_squares(monkeypatch, base, c):
    p = parse_poly(base, QQ, ("x", "y"))
    square = (p * p).scale(c)
    assert polyops._packed_square_root(square) == p.monic()
    assert is_square_over_closure(square) == _squarefree_path(monkeypatch, square) == (
        True, p.monic(), square.leading_coefficient())


@pytest.mark.parametrize("text", [
    "(x^2 - 3*x*y + 7/2*y - 5)^2 * (x - y)",
    "(x + 1/3)^2 * (x^2 + 1)",
    "(2*x^3 - 9*x*y^2 + 11*y^4 - x + 1)^2 * (y + 2)^3",
    "x^2 + y^2",
    "x^3",
])
def test_packed_square_root_leaves_non_squares_to_the_squarefree_path(monkeypatch, text):
    p = parse_poly(text, QQ, ("x", "y"))
    ok, witness, unit = is_square_over_closure(p)
    assert not ok and unit is None
    assert (ok, witness, unit) == _squarefree_path(monkeypatch, p)


@pytest.mark.parametrize("value", [Fraction(5), Fraction(-1, 7), Fraction(4)])
def test_packed_square_root_of_a_constant(monkeypatch, value):
    p = MultiPoly.constant(QQ, ("x", "y"), value)
    assert is_square_over_closure(p) == _squarefree_path(monkeypatch, p) == (True, p.one_like(), value)


@pytest.mark.parametrize("seed", range(6))
def test_packed_square_root_on_seeded_squares(monkeypatch, seed):
    rng = random.Random(seed)
    names = ("x", "y") if seed % 2 else ("x",)
    terms = {tuple(rng.randint(0, 3) for _ in names): Fraction(rng.randint(-30, 30), rng.randint(1, 9))
             for _ in range(rng.randint(1, 6))}
    p = MultiPoly.from_dict(QQ, names, terms)
    if p.is_zero():
        p = p.one_like()
    for q in (p * p, (p * p).scale(Fraction(-3, 11)), p * p * (p + 1)):
        assert is_square_over_closure(q) == _squarefree_path(monkeypatch, q)


def test_a_digit_width_too_small_falls_back_to_the_squarefree_path(monkeypatch):
    x, y = variables(QQ, ("x", "y"))
    base = 3 * x * x - 200 * x * y + 7 * y - 11
    p = (base * base).scale(-3)
    calls = []
    decompose = polyops.squarefree_decompose

    def counted(q):
        calls.append(q)
        return decompose(q)

    monkeypatch.setattr(polyops, "squarefree_decompose", counted)
    assert is_square_over_closure(p) == (True, base.monic(), p.leading_coefficient())
    assert not calls  # the packed root answered
    monkeypatch.setattr(polyops, "_digit_bytes", lambda bound: 1)
    assert is_square_over_closure(p) == (True, base.monic(), p.leading_coefficient())
    assert len(calls) == 1


def test_perfect_power():
    x, y = variables(QQ, ("x", "y"))
    assert perfect_power_part((x * x - 1) ** 3, 3) == x * x - 1
    assert perfect_power_part(x * x * y, 2) is None


def test_perfect_power_over_extension():
    K = extend(QQ, "g", parse_min_poly("g^2+3", "g"))
    base = parse_poly("z^4 + 2*g*z^2 + 1", K, ("z",))
    cube = base**3
    assert perfect_power_part(cube, 3) == base.monic()


# -- coprimality certificate mod one prime ------------------------------------------
#
# mpoly_gcd answers 1 when univariate images mod one prime prove it
# (_coprime_image); everything else falls through to the sympy gcd over Q
# and the Euclidean and subresultant gcds over towers, which are the oracles.

ZETA5 = extend(QQ, "z", [1, 1, 1, 1])  # z^4 + z^3 + z^2 + z + 1
CERT_FIELDS = {"QQ": QQ, "sqrt5": SQRT5, "zeta5": ZETA5, "zeta3_i": ZETA3_I}


def _oracle_gcd(p, q):
    if p.field is QQ:
        return _gcd_rational(p, q)
    return _gcd_content_prs(p, q).monic()


@st.composite
def cert_poly(draw, field, names, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        exp = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in names)
        terms[exp] = tower_scalar(draw, field)
    return MultiPoly(field, names, terms)


def _nonconstant(*polys):
    return all(not p.is_zero() and not p.is_constant() for p in polys)


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "t")], ids=["2vars", "3vars"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_gcd_over_q_matches_the_sympy_gcd(names, data):
    a, b, h = (data.draw(cert_poly(QQ, names)) for _ in range(3))
    p, q = a * h, b * h
    if not _nonconstant(p, q):
        return
    assert mpoly_gcd(p, q) == _gcd_rational(p, q)
    if _coprime_image(p, q):
        assert _gcd_rational(p, q).is_constant()


@pytest.mark.parametrize("field", list(CERT_FIELDS.values()), ids=list(CERT_FIELDS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_certificate_never_calls_a_shared_factor_coprime(field, data):
    names = ("x", "y")
    a, b, h = (data.draw(cert_poly(field, names)) for _ in range(3))
    p, q = a * h, b * h
    if _nonconstant(p, q, h):
        assert not _coprime_image(p, q)


@pytest.mark.parametrize("field", list(CERT_FIELDS.values()), ids=list(CERT_FIELDS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_gcd_over_towers_matches_the_euclidean_gcd(field, data):
    # one variable (Euclid) and binary forms (Euclid on slices) keep the
    # oracle cheap; the general subresultant route can blow up on towers
    shape = data.draw(st.sampled_from(["univariate", "forms"]))
    if shape == "univariate":
        a, b, h = (data.draw(cert_poly(field, ("x",), max_exp=3)) for _ in range(3))
    else:
        forms = [data.draw(binary_form()).to_field(field) for _ in range(3)]
        g = tower_scalar(data.draw, field)
        a, b, h = forms[0].scale(g) if g else forms[0], forms[1], forms[2]
    p, q = a * h, b * h
    if not _nonconstant(p, q):
        return
    assert mpoly_gcd(p, q) == _oracle_gcd(p, q)


def _generator(field):
    return field.one() if field is QQ else field.gen()


@pytest.mark.parametrize("field", list(CERT_FIELDS.values()), ids=list(CERT_FIELDS))
def test_shared_factor_without_the_main_variable_falls_back(field):
    # the images in x, with y at 3, are coprime; the image in y is not
    x, y = variables(field, ("x", "y"))
    g = _generator(field)
    p, q = (y - 2) * (x + g), (y - 2) * (x - g - 1)
    assert not _coprime_image(p, q)
    assert mpoly_gcd(p, q) == _oracle_gcd(p, q) == y - 2


@pytest.mark.parametrize("field", list(CERT_FIELDS.values()), ids=list(CERT_FIELDS))
def test_leading_coefficient_vanishing_at_the_point_falls_back(field):
    # x goes to 2 in the image in y, where lc_y(p) = x - 2 vanishes
    x, y = variables(field, ("x", "y"))
    g = _generator(field)
    p, q = (x - 2) * y + g, y + x + g
    assert not _coprime_image(p, q)
    assert mpoly_gcd(p, q) == _oracle_gcd(p, q) == p.one_like()


@pytest.mark.parametrize("field", list(CERT_FIELDS.values()), ids=list(CERT_FIELDS))
def test_prime_in_a_denominator_falls_back(field):
    prime, _ = residue_map(field)
    x, y = variables(field, ("x", "y"))
    p, q = x * y + Fraction(1, prime) * _generator(field), x + y
    assert not _coprime_image(p, q)
    assert _coprime_image(x * y + _generator(field), q)
    assert mpoly_gcd(p, q) == _oracle_gcd(p, q) == p.one_like()


@pytest.mark.parametrize("field", [SQRT5, ZETA5, ZETA3_I], ids=["sqrt5", "zeta5", "zeta3_i"])
@pytest.mark.parametrize("text", [
    "(x - {g})*(x^2 + {g}*x + 3)*(x^3 - 2 - {g})",
    "(x^2 - 5*{g})*(x + {g}*y + 1)*(x*y - {g})",
    "x^5 - x + {g}",
])
def test_squarefree_part_over_a_layer_makes_no_euclidean_division(monkeypatch, field, text):
    # Yun's derivative gcds of a squarefree part are certified mod one prime;
    # no factor lies over the base field, whose part would need a real gcd
    p = parse_poly(text.format(g=field.name), field, ("x", "y"))
    calls = []
    real = numberfield.poly_divmod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numberfield, "poly_divmod", counted)
    dec = squarefree_decompose(p)
    assert [m for _, m in dec] == [1]
    assert not calls


# -- squarefree and irreducible from line images mod p --------------------------------
#
# is_squarefree and is_irreducible answer True from images on lines mod a
# prime when those prove it; every other input takes the exact route, which
# is the oracle: squarefree_decompose and factor_irreducible.

PREDICATE_FIELDS = {"QQ": QQ, "sqrt5": SQRT5, "zeta3_i": ZETA3_I}


def _counting(monkeypatch, name):
    from folgal import polyops

    calls = []
    real = getattr(polyops, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyops, name, counted)
    return calls


@pytest.mark.parametrize("field", list(PREDICATE_FIELDS.values()), ids=list(PREDICATE_FIELDS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_predicates_match_the_decompositions(field, data):
    a, b = (data.draw(cert_poly(field, ("x", "y"), max_exp=2)) for _ in range(2))
    shape = data.draw(st.sampled_from(["one", "product", "square", "square times"]))
    p = {"one": a, "product": a * b, "square": a * a, "square times": a * a * b}[shape]
    if not _nonconstant(p):
        return
    assert is_squarefree(p) == all(m == 1 for _, m in squarefree_decompose(p))
    factors = factor_irreducible(p)
    assert is_irreducible(p) == (len(factors) == 1 and factors[0][1] == 1)


@pytest.mark.parametrize("field", list(PREDICATE_FIELDS.values()), ids=list(PREDICATE_FIELDS))
@pytest.mark.parametrize("text", ["x^3 + y^2 + {g}", "x^2*y + y^3 - {g}*x + 1", "y^4 - x - {g}"])
def test_images_prove_an_irreducible_input(monkeypatch, field, text):
    p = parse_poly(text.format(g=_generator(field)), field, ("x", "y"))
    gcds = _counting(monkeypatch, "_derivative_gcd")
    factors = _counting(monkeypatch, "factor_irreducible")
    assert is_squarefree(p) and is_irreducible(p)
    assert not gcds and not factors


@pytest.mark.parametrize("field", list(PREDICATE_FIELDS.values()), ids=list(PREDICATE_FIELDS))
def test_a_square_or_a_product_is_never_proved(field):
    x, y = variables(field, ("x", "y"))
    g = _generator(field)
    f, h = x**2 + y + g, y**2 - x * g + 1
    assert not is_squarefree(f * f * h)
    assert is_squarefree(f * h) and not is_irreducible(f * h)
    assert not is_irreducible(f * f)


def test_x4_plus_1_is_irreducible_through_the_factorization(monkeypatch):
    # x^4 + 1 is a product of factors of degree 1 or 2 mod every prime
    calls = _counting(monkeypatch, "factor_irreducible")
    x, y = variables(QQ, ("x", "y"))
    assert is_irreducible(x**4 + 1)
    assert len(calls) == 1
    assert not is_irreducible(x**4 + 4)  # (x^2 + 2x + 2)(x^2 - 2x + 2)


def test_a_denominator_divisible_by_the_prime_falls_back(monkeypatch):
    from folgal import polyops

    x, y = variables(QQ, ("x", "y"))
    prime, _ = residue_map(QQ)
    gcds = _counting(monkeypatch, "_derivative_gcd")
    assert is_squarefree(x**3 + y**2 + Fraction(1, prime))
    assert len(gcds) == 1
    small = 1
    for q in polyops._SMALL_PRIMES:
        small *= q
    factors = _counting(monkeypatch, "factor_irreducible")
    assert is_irreducible(x**3 + y**2 + Fraction(1, small))
    assert len(factors) == 1


def test_lines_where_the_top_form_vanishes_are_skipped(monkeypatch):
    from folgal import polyops

    x, y = variables(QQ, ("x", "y"))
    top = x.one_like()
    for slope, _ in polyops._LINES:
        top = top * (y - x.scale(slope))
    p = top + x + 1  # irreducible and squarefree; no line keeps its degree
    assert not list(polyops._line_images(p, 101, (1,)))
    gcds = _counting(monkeypatch, "_derivative_gcd")
    assert is_squarefree(p)
    assert len(gcds) == 1
    factors = _counting(monkeypatch, "factor_irreducible")
    assert is_irreducible(p)
    assert len(factors) == 1
