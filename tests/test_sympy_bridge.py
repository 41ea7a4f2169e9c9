import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.domains import QQ as SQQ

from folgal import polyops, sympy_bridge
from folgal.multipoly import MultiPoly, NotDivisible
from folgal.numberfield import QQ, NumberField, extend
from folgal.sympy_bridge import factor_irreducible

VARS = ("x", "y")

# (modulus coefficients c0..c_{n-1} of the monic modulus, embedding)
FIELDS = {
    "sqrt2": ((-2, 0), 2**0.5),
    "sqrt5": ((-5, 0), 5**0.5),
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
    # (x + a)(y^2 + a x + 1) over Q(sqrt 2): the line comes from the root
    # finder and the quadratic from the shift search; a factor dropped on
    # either path must fail the product check
    field = _field("sqrt2")
    line = _poly(field, {(1, 0): [1], (0, 0): [0, 1]})
    quadratic = _poly(field, {(0, 2): [1], (1, 0): [0, 1], (0, 0): [1]})
    p = line * quadratic
    assert sympy_bridge._linear_factors(p) == ([line], quadratic)
    drops = {"_linear_factors": lambda out: (out[0][:-1], out[1]),
             "_factor_by_shift": lambda out: out[:-1]}
    for name, drop in drops.items():
        original = getattr(sympy_bridge, name)
        with monkeypatch.context() as patch:
            patch.setattr(sympy_bridge, name, lambda q, f=original, drop=drop: drop(f(q)))
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


# -- linear factors from roots mod one prime ------------------------------------------

# the first prime above 2^31 is 2147483659, and 5 is a square mod it, so it is
# the first prime that Q(sqrt 5)'s root finder tries
FIRST_PRIME = 2147483659


def _element(rng, field, size=3):
    return field.element([rng.randint(-size, size) for _ in range(field.degree)])


def _line(field, cx, cy, c0):
    """``cx x + cy y + c0`` with coefficients in the field."""
    return MultiPoly(field, VARS, {(1, 0): cx, (0, 1): cy, (0, 0): c0})


def _random_lines(rng, field, shape, count):
    one, zero = field.one(), field.zero()
    slope = _element(rng, field)
    lines = set()
    while len(lines) < count:
        c = _element(rng, field)
        line = {
            "roots": lambda: _line(field, one, zero, c),
            "vertical": lambda: _line(field, one, zero, c),
            "horizontal": lambda: _line(field, zero, one, c),
            "parallel": lambda: _line(field, -slope, one, c),
            "general": lambda: _line(field, _element(rng, field), one, c),
        }[shape]()
        lines.add(line.monic())
    return sorted(lines, key=str)


def _curves(rng, field, univariate):
    """Irreducible factors of degree 2 and 3 with no line among them: over
    Q(sqrt 5) and Q(zeta5), 2, 3 and 7 are not squares and 2 not a cube."""
    x, y = (MultiPoly.variable(field, VARS, v) for v in VARS)
    t = MultiPoly.constant(field, VARS, _element(rng, field))
    if univariate:
        return [(x - t) ** 2 - 3, (x + t) ** 3 - 2, x**2 - 7]
    return [y**2 - x.scale(3) - t, x**2 + y**2 - 3, y**2 - x**3 - t - 2]


def _linear_part(rng, field, shape, lines, curves):
    """A squarefree product of ``lines`` lines of the shape and ``curves``
    of the curves above."""
    factors = _random_lines(rng, field, shape, lines)
    factors += _curves(rng, field, shape == "roots")[:curves]
    part = MultiPoly.constant(field, VARS, 1)
    for f in factors:
        part = part * f
    return part


def _assert_lines_match_the_norms(part):
    lines, cofactor = sympy_bridge._linear_factors(part)
    oracle = sympy_bridge._factor_by_shift(part)
    assert len(set(lines)) == len(lines)
    assert set(lines) == {f for f in oracle if f.total_degree() == 1}
    rest = part.one_like()
    for f in oracle:
        if f.total_degree() > 1:
            rest = rest * f
    assert cofactor.monic() == rest
    return lines


@pytest.mark.parametrize("name", ["sqrt5", "zeta5"])
@pytest.mark.parametrize("shape", ["roots", "vertical", "horizontal", "parallel", "general"])
@pytest.mark.parametrize("lines,curves", [(0, 2), (2, 1), (3, 0)], ids=["none", "some", "only"])
def test_linear_factors_match_the_norms(name, shape, lines, curves):
    field = _field(name)
    rng = random.Random(f"{name}-{shape}-{lines}")
    if name == "zeta5":
        curves = min(curves, 1)
    part = _linear_part(rng, field, shape, lines, curves)
    assert len(_assert_lines_match_the_norms(part)) == lines


@pytest.mark.parametrize("name", ["sqrt5", "zeta5"])
def test_roots_too_large_for_one_prime_go_to_the_norms(name):
    # a root of height 10^15 has no short vector in a lattice of determinant
    # about 2^31; it stays in the cofactor, and the norms factor it exactly
    field = _field(name)
    x = MultiPoly.variable(field, VARS, "x")
    big = field.element([10**15 + 7] + [10**15 - 3] * (field.degree - 1))
    small = field.element([1, -1] + [0] * (field.degree - 2))
    part = (x - big) * (x - small) * (x**2 - 3)
    lines, cofactor = sympy_bridge._linear_factors(part)
    assert lines == [x - small]
    assert cofactor == (x - big) * (x**2 - 3)
    ours = Counter(dict(factor_irreducible(part)))
    assert ours == Counter({x - big: 1, x - small: 1, x**2 - 3: 1})


@pytest.mark.parametrize("coords", [(3, -2), (0, 1), (-7, 0), (Fraction(1, 2), Fraction(1, 2))])
def test_rebuild_finds_a_small_root_from_its_image(coords):
    field = _field("sqrt5")
    p, images = next(sympy_bridge._find_residue_map(field))
    s = images[1]
    assert s * s % p == 5
    xi = field.element(coords)
    assert sympy_bridge._rebuild(sympy_bridge.residue(xi, p, images), images, p, field) == xi


def _primes_rebuilt_with(monkeypatch):
    used = []
    original = sympy_bridge._rebuild

    def rebuild(r, images, p, field):
        used.append(p)
        return original(r, images, p, field)

    monkeypatch.setattr(sympy_bridge, "_rebuild", rebuild)
    return used


def test_a_prime_in_a_denominator_is_skipped(monkeypatch):
    field = _field("sqrt5")
    assert next(sympy_bridge._find_residue_map(field))[0] == FIRST_PRIME
    used = _primes_rebuilt_with(monkeypatch)
    x = MultiPoly.variable(field, VARS, "x")
    a = MultiPoly.constant(field, VARS, field.gen())
    part = (x - Fraction(1, FIRST_PRIME)) * (x - a) * (x**2 - 3)
    lines, _ = sympy_bridge._linear_factors(part)
    assert x - a in lines
    assert used and FIRST_PRIME not in used
    _assert_matches_oracle(part)


@pytest.mark.parametrize("univariate", [True, False])
def test_a_prime_that_kills_the_leading_coefficient_is_skipped(monkeypatch, univariate):
    field = _field("sqrt5")
    used = _primes_rebuilt_with(monkeypatch)
    x, y = (MultiPoly.variable(field, VARS, v) for v in VARS)
    a = MultiPoly.constant(field, VARS, field.gen())
    if univariate:
        line, part = x - a, (x.scale(FIRST_PRIME) - 1) * (x - a)
    else:
        # the top coefficient of the leading coefficient in y is FIRST_PRIME
        line, part = y - a, ((x * y).scale(FIRST_PRIME) + 1) * (y - a)
    assert line in sympy_bridge._linear_factors(part)[0]
    assert used and FIRST_PRIME not in used


# -- past each cap of the root finder, what it does not find goes to the norms --------


def _capped_part(bivariate):
    """Over a fresh Q(sqrt 5): two lines with coefficients outside Q, times
    a curve with no line."""
    field = _field("sqrt5")
    x, y = (MultiPoly.variable(field, VARS, v) for v in VARS)
    a = MultiPoly.constant(field, VARS, field.gen())
    if bivariate:
        return (y - x * a - 1) * (y + x - a) * (x**2 + y**2 - 3)
    return (x - a) * (x + a + 2) * (x**2 - 3)


def _assert_capped_run_matches(monkeypatch, part, cap, value):
    # the unpatched run fills the certificate primes of the field and of Q,
    # which QQ keeps for every later test, and the field's prime walk, which
    # _PRIME_TRIES still caps
    before = Counter(dict(factor_irreducible(part)))
    assert before == _sympy_factors(part)
    monkeypatch.setattr(sympy_bridge, cap, value)
    assert sympy_bridge._linear_factors(part) == ([], part)
    assert Counter(dict(factor_irreducible(part))) == before


@pytest.mark.parametrize("bivariate", [False, True])
def test_no_suitable_prime_sends_the_part_to_the_norms(monkeypatch, bivariate):
    _assert_capped_run_matches(monkeypatch, _capped_part(bivariate), "_PRIME_TRIES", 0)


def test_roots_that_no_shift_splits_go_to_the_norms(monkeypatch):
    _assert_capped_run_matches(monkeypatch, _capped_part(False), "_SPLIT_TRIES", 0)


def test_fewer_than_three_kept_abscissas_send_the_lines_to_the_norms(monkeypatch):
    _assert_capped_run_matches(monkeypatch, _capped_part(True), "_ABSCISSA_TRIES", 2)


def test_a_candidate_line_that_does_not_divide_is_skipped(monkeypatch):
    # crossings of three different lines at the first three abscissas lie on
    # one line that is no factor; its exact division fails, and the search
    # goes on to the three true lines
    field = _field("sqrt5")
    x, y = (MultiPoly.variable(field, VARS, v) for v in VARS)
    a = MultiPoly.constant(field, VARS, field.gen())
    lines = [(y - x.scale(m) - c - a).monic() for m, c in ((-1, 2), (1, 1), (2, -3))]
    part = lines[0] * lines[1] * lines[2] * (x**2 + y**2 - 3)
    rejected = []
    original = MultiPoly.exact_div

    def exact_div(self, divisor):
        try:
            return original(self, divisor)
        except NotDivisible:
            rejected.append(divisor)
            raise

    monkeypatch.setattr(MultiPoly, "exact_div", exact_div)
    found, cofactor = sympy_bridge._linear_factors(part)
    monkeypatch.undo()
    assert rejected and not set(rejected) & set(lines)
    assert sorted(found, key=str) == sorted(lines, key=str)
    assert cofactor.monic() == x**2 + y**2 - 3
    _assert_matches_oracle(part)


@pytest.mark.parametrize("tower", ["sqrt5", "zeta5", "two_layers"])
def test_residue_map_is_the_first_map_of_the_prime_search(tower):
    if tower == "two_layers":
        root2 = extend(QQ, "s", [Fraction(-2), Fraction(0)])
        field = extend(root2, "i", [root2.coerce(1), root2.coerce(0)])
    else:
        field = _field(tower)
    first = next(sympy_bridge._find_residue_map(field))
    assert sympy_bridge.residue_map(field) == first
    assert len(first[1]) == field.size


def test_a_second_part_over_the_same_field_searches_no_primes(monkeypatch):
    field = _field("sqrt5")
    x, y = (MultiPoly.variable(field, VARS, v) for v in VARS)
    a = MultiPoly.constant(field, VARS, field.gen())
    first = (x - a) * (x + a + 2) * (x**2 - 3)
    lines, _ = sympy_bridge._linear_factors(first)
    assert len(lines) == 2
    calls = []
    original = sympy_bridge.nextprime
    monkeypatch.setattr(sympy_bridge, "nextprime", lambda p: calls.append(p) or original(p))
    # the first part kept the field's maps; the next parts walk them again
    later = [(y - x * a - 1) * (y + x - a) * (x**2 + y**2 - 3),
             (x - 3 * a) * (x + 1) * (x**2 - 3)]
    for part in later:
        found, cofactor = sympy_bridge._linear_factors(part)
        assert len(found) == 2 and not cofactor.is_constant()
    assert calls == []
    assert sympy_bridge.residue_map(field) == next(sympy_bridge._find_residue_map(field))


def test_a_tower_gives_no_lines():
    root2 = extend(QQ, "s", [Fraction(-2), Fraction(0)])
    tower = extend(root2, "i", [root2.coerce(1), root2.coerce(0)])
    x = MultiPoly.variable(tower, VARS, "x")
    part = x**2 + 1
    assert sympy_bridge._linear_factors(part) == ([], part)
    assert len(factor_irreducible(part)) == 2


def test_modular_quintic_makes_no_norm(monkeypatch):
    # every factor that analyze and the report's components ask for over
    # Q(sqrt 5) is linear or lies over Q, so the root finder takes them all
    from folgal import corpus
    from folgal.analyze import analyze
    from folgal.report import analysis_report

    norms = []
    original = sympy_bridge._norm
    monkeypatch.setattr(sympy_bridge, "_norm", lambda p: norms.append(p) or original(p))
    report = analysis_report(analyze(corpus.foliation("modular_quintic"), numeric=False), {})
    components = report["inflection"]["components"]
    assert len(components) == 15  # 14 lines of the affine chart and z = 0
    assert {c["kind"] for c in components} == {"invariant_line"}
    assert norms == []


# -- distinct-degree factorization mod p --------------------------------------------


@pytest.mark.parametrize("prime", [7, 101, int(sp.nextprime(2**31))])
def test_factor_degrees_match_sympys_distinct_degree_split(prime):
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_p
    from sympy.polys.domains import ZZ

    rng = random.Random(prime)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 12)
        f = [1] + [rng.randrange(prime) for _ in range(n)]
        if not gf_sqf_p(f, prime, ZZ):
            continue
        expected = sorted(d for g, d in gf_ddf_zassenhaus(f, prime, ZZ)
                          for _ in range((len(g) - 1) // d))
        assert sympy_bridge._gf_factor_degrees(f, prime) == expected, f
        checked += 1


def test_factor_degrees_of_products_of_known_factors():
    # x^2 + 1 is irreducible mod 7; (x - 1)(x - 2)(x^2 + 1)(x^3 + x + 1)
    # has one factor of each degree 1, 1, 2, 3 mod 7
    from sympy.polys.galoistools import gf_mul
    from sympy.polys.domains import ZZ

    f = [1]
    for g in ([1, 6], [1, 5], [1, 0, 1], [1, 0, 1, 1]):
        f = gf_mul(f, g, 7, ZZ)
    assert sympy_bridge._gf_factor_degrees(f, 7) == [1, 1, 2, 3]


@pytest.mark.parametrize("seed", range(5))
def test_lift_over_q_matches_clearing_the_dense_form(seed):
    from sympy.polys.densetools import dmp_clear_denoms
    from sympy.polys.domains import ZZ

    rng = random.Random(seed)
    terms = {(rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             for _ in range(8)}
    p = MultiPoly(QQ, VARS, terms)
    for order in (["x", "y"], ["y", "x"]):
        den, f = dmp_clear_denoms(sympy_bridge.to_dense(p, order), 1, SQQ, ZZ, convert=True)
        assert sympy_bridge.lift(p, order) == (int(den), f)
