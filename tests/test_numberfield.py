import ast
import math
import operator
import pathlib
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folgal import numberfield
from folgal.linalg import kernel_basis, lll, mat_mul, mat_vec, rref
from folgal.multipoly import MultiPoly
from folgal.numberfield import (
    QQ,
    FieldElement,
    FieldSplit,
    adjoin_root,
    coordinates,
    extend,
    poly_invmod,
)
from folgal.parsing import parse_poly
from folgal.sympy_bridge import factor_irreducible


@pytest.fixture
def K_zeta():
    # zeta^2 - zeta + 1 = 0, zeta = (1 + i sqrt 3)/2
    return extend(QQ, "g", [Fraction(1), Fraction(-1)])


def test_generator_satisfies_min_poly(K_zeta):
    z = K_zeta.gen()
    assert z * z - z + 1 == K_zeta.zero()


def test_embedding_picks_positive_imaginary_root(K_zeta):
    assert complex(K_zeta.gen()).imag > 0


def test_inverse_roundtrip(K_zeta):
    z = K_zeta.gen()
    for elem in [z, z - 1, 2 * z + 3, z * z + z]:
        assert elem * elem.inverse() == K_zeta.one()


def test_zero_inverse_raises(K_zeta):
    with pytest.raises(ZeroDivisionError):
        K_zeta.zero().inverse()


def test_tower_arithmetic(K_zeta):
    # adjoin a square root of zeta on top
    M = extend(K_zeta, "s", [-K_zeta.gen(), K_zeta.coerce(0)])
    s = M.gen()
    assert s * s == M.coerce(K_zeta.gen())
    inv = (s + 1).inverse()
    assert (s + 1) * inv == M.one()
    approx = complex(s) ** 2 - complex(K_zeta.gen())
    assert abs(approx) < 1e-9


def test_zero_divisor_triggers_split():
    # extend checks only squarefreeness; inverting a zero divisor of a
    # reducible modulus is an internal error that names the factors
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])  # u^2 - 1, reducible
    u = L.gen()
    with pytest.raises(FieldSplit):
        (u - 1).inverse()


def test_rational_value_detection(K_zeta):
    assert K_zeta.coerce(Fraction(3, 7)).rational_value() == Fraction(3, 7)
    assert K_zeta.gen().rational_value() is None


def test_non_squarefree_modulus_rejected():
    with pytest.raises(ValueError):
        extend(QQ, "u", [Fraction(1), Fraction(0), Fraction(-2), Fraction(0)])
    with pytest.raises(ValueError):
        extend(QQ, "a", [1, -2])  # (t - 1)^2


def test_squarefree_modulus_over_q_needs_no_euclid(monkeypatch):
    # over Q the squarefree check clears denominators and runs over ZZ
    def unused(*args):
        raise AssertionError("Euclid over Q")

    monkeypatch.setattr(numberfield, "poly_gcd", unused)
    K = extend(QQ, "h", [Fraction(-1, 2), Fraction(1, 3)])  # h^2 + h/3 - 1/2
    h = K.gen()
    assert h * h + h * Fraction(1, 3) == K.coerce(Fraction(1, 2))
    with pytest.raises(ValueError):
        extend(QQ, "a", [Fraction(1, 9), Fraction(2, 3)])  # (t + 1/3)^2


def test_squarefree_modulus_over_a_layer_runs_the_gcd(monkeypatch):
    sqrt2 = extend(QQ, "s", [Fraction(-2), Fraction(0)])
    s = sqrt2.gen()
    calls = []
    real = numberfield.poly_gcd

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numberfield, "poly_gcd", counted)
    extend(sqrt2, "i", [sqrt2.one(), sqrt2.zero()])  # i^2 + 1
    assert len(calls) == 1
    with pytest.raises(ValueError):
        extend(sqrt2, "t", [sqrt2.coerce(2), -2 * s])  # (t - s)^2
    assert len(calls) == 2


# -- one field interface for Q and every layer ------------------------------------


def test_qq_coerces_tower_elements_with_rational_value(K_zeta):
    assert QQ.coerce(K_zeta.coerce(3)) == 3
    with pytest.raises(TypeError):
        QQ.coerce(K_zeta.gen())


@pytest.mark.parametrize("over_tower", [False, True])
def test_kernel_basis_makes_its_scalars_from_the_field(K_zeta, over_tower):
    field = K_zeta if over_tower else QQ
    c = K_zeta.gen() if over_tower else Fraction(3)
    rows = [[field.coerce(1), field.coerce(2), c], [field.coerce(2), field.coerce(4), c * 2]]
    kernel = kernel_basis(rows, field)
    assert len(kernel) == 2
    for vec in kernel:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), field.zero()) == field.zero()
    assert kernel[0] == [field.coerce(-2), field.one(), field.zero()]


def test_matrix_products_over_a_tower_and_on_polynomial_vectors(K_zeta):
    g, one, zero = K_zeta.gen(), K_zeta.one(), K_zeta.zero()
    a = [[one, g], [zero, one]]
    b = [[g, zero], [one, g]]
    assert mat_mul(a, b) == [[g * 2, g * g], [one, g]]
    assert mat_vec(a, [one, g]) == [one + g * g, g]
    x, y = (MultiPoly.variable(K_zeta, ("x", "y"), v) for v in ("x", "y"))
    assert mat_vec(a, [x, y]) == [x + y.scale(g), y]


def _gram_schmidt(rows):
    """``(squared lengths, mu)`` of the exact Gram-Schmidt basis of ``rows``."""
    ortho, mu = [], {}
    for i, row in enumerate(rows):
        v = [Fraction(a) for a in row]
        for j, w in enumerate(ortho):
            mu[i, j] = sum(a * b for a, b in zip(row, w)) / sum(b * b for b in w)
            v = [a - mu[i, j] * b for a, b in zip(v, w)]
        ortho.append(v)
    return [sum(a * a for a in v) for v in ortho], mu


@st.composite
def _bases(draw):
    n = draw(st.integers(2, 5))
    entry = st.integers(-10**12, 10**12) | st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return rows


@given(_bases())
@example([[0, 0], [1, 2]])
@example([[2147483659, 0, 0], [1234567, 0, 1], [-1372689432, 1, 0]])
@settings(max_examples=60, deadline=None)
def test_lll_is_size_reduced_lovasz_and_keeps_the_lattice(rows):
    if sp.Matrix(rows).det() == 0:
        with pytest.raises(ValueError):
            lll(rows)
        return
    reduced = lll(rows)
    norms, mu = _gram_schmidt(reduced)
    assert all(abs(m) <= Fraction(1, 2) for m in mu.values())
    assert all(norms[k] >= (Fraction(3, 4) - mu[k, k - 1] ** 2) * norms[k - 1]
               for k in range(1, len(rows)))
    # a unimodular change of basis: integral, with determinant +-1
    change = sp.Matrix(reduced) * sp.Matrix(rows).inv()
    assert all(c.is_integer for c in change) and abs(change.det()) == 1


def test_adjoin_root_of_a_linear_factor_stays_in_the_base(K_zeta):
    factor = MultiPoly.from_dict(K_zeta, ("T",), {(1,): 1, (0,): -K_zeta.gen()})
    field, root = adjoin_root(factor, "r")
    assert field is K_zeta
    assert root == K_zeta.gen()


def test_adjoin_root_names_a_new_layer_after_the_taken_ones():
    R1 = extend(QQ, "r1", [Fraction(-2), Fraction(0)])
    factor = MultiPoly.from_dict(R1, ("T",), {(2,): 1, (0,): -3})
    field, root = adjoin_root(factor, "r")
    assert field.gen_names() == ["r1", "r2"]
    assert field.base is R1
    assert root == field.gen() and root * root == 3


@pytest.mark.parametrize("square", [Fraction(1), Fraction(9, 4), Fraction(121, 9)])
def test_root_of_a_rational_square_is_nonnegative(square):
    # the degree-3 deck route takes sqrt(unit) this way; the sign fixes the
    # order of the decks it prints
    probe = MultiPoly.from_dict(QQ, ("T",), {(2,): 1, (0,): -square})
    field, root = adjoin_root(factor_irreducible(probe)[0][0], "q")
    assert field is QQ and root >= 0 and root * root == square


def test_nested_unit_coefficients_print_like_rational_ones():
    over_i = extend(QQ, "i", [Fraction(1), Fraction(0)])
    sqrt2 = extend(QQ, "s", [Fraction(-2), Fraction(0)])
    over_tower = extend(sqrt2, "i", [sqrt2.one(), sqrt2.zero()])
    expected = ["x + (-i)*y", "x + i*y"]
    for field in (over_i, over_tower):
        factors = factor_irreducible(parse_poly("x^2+y^2", field, ("x", "y")))
        assert [str(f) for f, _ in factors] == expected


KERNEL_MODULES = {"numberfield", "polyops", "sympy_bridge"}

# multipoly.__eq__ may compare a polynomial against a plain constant
FRACTION_TESTS_ALLOWED = KERNEL_MODULES | {"multipoly"}


def test_field_type_branches_stay_in_the_arithmetic_kernels():
    """Q and every layer share one interface, so only the modules that pick
    a kernel by field (and numberfield itself) may test for RationalField,
    and, besides them, only multipoly may test a scalar for Fraction."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "folgal"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            tested = ast.unparse(node.args[1])
            if ("RationalField" in tested and path.stem not in KERNEL_MODULES) or (
                "Fraction" in tested and path.stem not in FRACTION_TESTS_ALLOWED
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"field-type branches outside the kernels: {found}"


# -- elements against a sympy oracle ------------------------------------------------


def _zeta5():
    return extend(QQ, "z", [1, 1, 1, 1])


def _sqrt_minus_3_then_i():
    inner = extend(QQ, "g", [3, 0])
    return extend(inner, "c", [inner.one(), inner.zero()])


def _non_integral_modulus():
    # h^2 + h/3 - 1/2 has discriminant 19/9, not a rational square
    return extend(QQ, "h", [Fraction(-1, 2), Fraction(1, 3)])


def _non_integral_cubic():
    # k^3 - k/2 - 1/3 has no rational root, so it is irreducible; products
    # reach k^4, whose reduction goes through k^3
    return extend(QQ, "k", [Fraction(-1, 3), Fraction(-1, 2), 0])


ORACLE_FIELDS = {"zeta5": _zeta5, "tower": _sqrt_minus_3_then_i,
                 "non_integral": _non_integral_modulus, "non_integral_cubic": _non_integral_cubic}


def _expr(value):
    """``value`` as a sympy expression in the generators, power basis."""
    if not isinstance(value, FieldElement):
        return sp.Rational(value.numerator, value.denominator)
    gen = sp.Symbol(value.field.name)
    return sum((_expr(c) * gen**i for i, c in enumerate(value.rep)), sp.Integer(0))


def _normal_form(expr, field):
    """``expr`` reduced by the triangular set of moduli, top layer first; the
    moduli are monic in distinct generators, so they form a lex Groebner basis."""
    layers = field.chain()[::-1]
    gens = [sp.Symbol(layer.name) for layer in layers]
    moduli = [
        gen**layer.degree + sum((_expr(c) * gen**i for i, c in enumerate(layer.min_poly)), 0)
        for gen, layer in zip(gens, layers)
    ]
    _, rem = sp.reduced(sp.expand(expr), moduli, *gens, order="lex")
    return sp.expand(rem)


def _from_coordinates(field, coords):
    """The element with :func:`coordinates` ``coords``."""
    if field is QQ:
        return coords[0]
    size = len(coords) // field.degree
    chunks = [coords[i * size:(i + 1) * size] for i in range(field.degree)]
    return field.element([_from_coordinates(field.base, c) for c in chunks])


def _total_degree(field):
    return math.prod(layer.degree for layer in field.chain())


_rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _field_and_elements(draw, count=2):
    name = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    field = ORACLE_FIELDS[name]()
    n = _total_degree(field)
    elems = [
        _from_coordinates(field, draw(st.lists(_rational, min_size=n, max_size=n)))
        for _ in range(count)
    ]
    return field, elems


def _assert_lowest_terms(value):
    if not isinstance(value, FieldElement):
        return
    # one representation on every layer: ints over the whole tower's basis
    assert len(value.num) == _total_degree(value.field)
    assert all(type(a) is int for a in value.num) and type(value.den) is int
    assert value.den > 0 and math.gcd(value.den, *value.num) == 1


@given(_field_and_elements())
@settings(max_examples=40, deadline=None)
def test_ring_operations_match_the_sympy_oracle(drawn):
    field, (a, b) = drawn
    for got, want in ((a + b, _expr(a) + _expr(b)), (a - b, _expr(a) - _expr(b)),
                      (a * b, _expr(a) * _expr(b)), (-a, -_expr(a))):
        _assert_lowest_terms(got)
        assert sp.expand(_expr(got) - _normal_form(want, field)) == 0
    assert coordinates(a * b) == coordinates(b * a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert (a == b) == (_normal_form(_expr(a) - _expr(b), field) == 0)


@given(_field_and_elements(count=1))
@settings(max_examples=30, deadline=None)
def test_inverse_matches_the_sympy_oracle(drawn):
    field, (a,) = drawn
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    _assert_lowest_terms(inv)
    assert _normal_form(_expr(a) * _expr(inv), field) == 1
    assert inv * a == field.one()


@given(_field_and_elements(count=1), _rational)
@settings(max_examples=30, deadline=None)
def test_coordinates_and_rational_value_match_the_oracle(drawn, q):
    field, (a,) = drawn
    layers = field.chain()[::-1]
    gens = [sp.Symbol(layer.name) for layer in layers]
    poly = sp.Poly(_expr(a), *gens)
    # coordinates run over the top layer's powers first, lowest power first
    exponents = [()]
    for layer in layers:
        exponents = [e + (i,) for e in exponents for i in range(layer.degree)]
    want = [poly.coeff_monomial(tuple(e)) for e in exponents]
    assert [sp.Rational(c.numerator, c.denominator) for c in coordinates(a)] == want
    expected = want[0] if not any(want[1:]) else None
    assert a.rational_value() == expected

    lifted = field.coerce(q)
    built = _from_coordinates(field, [q] + [Fraction(0)] * (_total_degree(field) - 1))
    _assert_lowest_terms(lifted)
    assert lifted == built and hash(lifted) == hash(built)
    assert lifted.rational_value() == q
    assert a * q == a * lifted and hash(a * q) == hash(lifted * a)


def test_oracle_moduli_are_irreducible():
    k = sp.Symbol("k")
    assert sp.Poly(6 * k**3 - 3 * k - 2, k).is_irreducible
    assert not sp.sqrt(sp.Rational(19, 9)).is_rational


def test_non_integral_modulus_reduces_exactly():
    K = _non_integral_modulus()
    h = K.gen()
    # h^2 = 1/2 - h/3
    assert h * h == K.element([Fraction(1, 2), Fraction(-1, 3)])
    assert (h * h).den == 6
    assert h * h + h / 3 - Fraction(1, 2) == K.zero()


@given(_field_and_elements())
@settings(max_examples=40, deadline=None)
def test_complex_value_respects_sum_and_product(drawn):
    field, (a, b) = drawn
    x, y = complex(a), complex(b)
    assert abs(complex(a + b) - (x + y)) <= 1e-9 * max(1.0, abs(x) + abs(y))
    assert abs(complex(a * b) - x * y) <= 1e-9 * max(1.0, abs(x) * abs(y))
    # the value of the base-layer view, each layer's generator at its embedding
    horner = sum(complex(c) * field.embedding**i for i, c in enumerate(a.rep))
    assert abs(x - horner) <= 1e-9 * max(1.0, abs(x))


@given(st.lists(_rational, min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_base_layer_elements_coerce_into_the_tower_by_zero_padding(coords):
    tower = _sqrt_minus_3_then_i()
    value = tower.base.element(coords)
    lifted = tower.coerce(value)
    built = tower.element([value, 0])
    _assert_lowest_terms(lifted)
    assert lifted == built and hash(lifted) == hash(built)
    assert lifted.num == value.num + (0, 0) and lifted.den == value.den


@given(st.lists(_rational, min_size=2, max_size=2), st.lists(_rational, min_size=4, max_size=4))
# g and c: the generators of g^2 + 3 and of c^2 + 1 over Q(g)
@example([0, 1], [0, 0, 1, 0])
@settings(max_examples=30, deadline=None)
def test_lower_layer_operand_on_either_side(low_coords, top_coords):
    # between two FieldElements Python tries no reflected method, so a
    # lower layer's element on the left must move up by itself
    tower = _sqrt_minus_3_then_i()
    low = tower.base.element(low_coords)
    top = tower.element([tower.base.element(top_coords[:2]), tower.base.element(top_coords[2:])])
    up = tower.coerce(low)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b, ua, ub in ((low, top, up, top), (top, low, top, up)):
            if op is operator.truediv and not b:
                continue
            got = op(a, b)
            _assert_lowest_terms(got)
            assert got.field is tower and got == op(ua, ub)
    assert low == up and up == low
    assert (low == top) == (up == top) and (top == low) == (top == up)


def test_hash_agrees_with_equality_across_layers_and_fractions():
    # == holds between layers of one tower and against Fractions, so the
    # hash must too: each set below holds one value
    tower = _sqrt_minus_3_then_i()
    K = tower.base
    g = K.gen()
    assert g == tower.coerce(g) and len({g, tower.coerce(g)}) == 1
    assert K.coerce(3) == Fraction(3) and len({K.coerce(3), Fraction(3)}) == 1
    assert len({tower.coerce(Fraction(-2, 7)), K.coerce(Fraction(-2, 7)), Fraction(-2, 7)}) == 1
    assert {Fraction(1, 2): "half"}[K.coerce(Fraction(1, 2))] == "half"
    assert {tower.coerce(g / 5 + 1): "low"}[g / 5 + 1] == "low"


def test_degree_one_layer_agrees_with_q():
    two = extend(QQ, "g", [-2])  # g - 2
    g = two.gen()
    assert g == 2 and str(g) == "2" and g.rational_value() == 2
    for p, q in ((Fraction(3, 4), Fraction(-5, 6)), (Fraction(7), Fraction(1, 9))):
        a, b = two.coerce(p), two.coerce(q)
        for got, want in ((a + b, p + q), (a - b, p - q), (a * b, p * q), (a / b, p / q)):
            assert got == want and str(got) == str(want)
            _assert_lowest_terms(got)
    assert two.from_poly([1, 1, 1]) == 7
    over_g = parse_poly("g*x^2 - y/g + g^3", two, ("x", "y"))
    over_q = parse_poly("2*x^2 - y/2 + 8", QQ, ("x", "y"))
    assert str(over_g) == str(over_q)


# -- inverses by an integer solve, against the Euclidean inverse --------------------


def _sqrt5():
    return extend(QQ, "r", [-5, 0])


INVERSE_FIELDS = dict(ORACLE_FIELDS, sqrt5=_sqrt5)
SQRT5 = _sqrt5()
_tall = st.integers(min_value=-10**40, max_value=10**40)


@st.composite
def _field_and_tall_element(draw):
    """An element with coordinates of up to 40 digits over a denominator of
    up to 20, or a rational one."""
    field = INVERSE_FIELDS[draw(st.sampled_from(sorted(INVERSE_FIELDS)))]()
    n = _total_degree(field)
    rational = draw(st.booleans())
    coords = [draw(_tall)] + [0 if rational else draw(_tall) for _ in range(n - 1)]
    return field, field._make(coords, draw(st.integers(min_value=1, max_value=10**20)))


@given(_field_and_tall_element())
@example((SQRT5, SQRT5._make([10**30 + 7, 3**60], 11**15)))
@settings(max_examples=40, deadline=None)
def test_inverse_matches_the_euclidean_inverse(drawn):
    field, a = drawn
    if not a:
        return
    base = field.base
    rep = poly_invmod(a.rep, list(field.min_poly) + [base.one()], base)
    inv = a.inverse()
    _assert_lowest_terms(inv)
    assert inv == field.element(rep + [base.zero()] * (field.degree - len(rep)))
    assert a * inv == field.one()


@given(st.lists(st.lists(_rational, min_size=4, max_size=4), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rref_over_q_matches_sympy(rows):
    # the integer elimination gives the one reduced echelon form
    got, pivots = rref(rows, QQ)
    want, want_pivots = sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row]
                                   for row in rows]).rref()
    assert list(pivots) == list(want_pivots)
    assert [[sp.Rational(v.numerator, v.denominator) for v in row] for row in got] == \
        want.tolist()
    assert all(type(v) is Fraction for row in got for v in row)
