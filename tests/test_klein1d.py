import random
from fractions import Fraction

import pytest

from folgal import corpus, klein1d
from folgal.klein1d import (
    BinaryRationalMap,
    WeightedBranchingType,
    classify,
    ramification_profile,
    regular_type_test,
)
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ, adjoin_root, extend
from folgal.parsing import parse_rational
from folgal.polyops import squarefree_decompose
from folgal.sympy_bridge import factor_irreducible

Q_I = extend(QQ, "g", [Fraction(1), Fraction(0)])  # g^2 + 1


def make_map(text, field=QQ):
    rf = parse_rational(text, field, ("z",))
    return BinaryRationalMap.make(rf.num, rf.den)


def test_power_maps():
    for n in (3, 5, 7):
        out = classify(corpus.line_map(f"power_{n}"))
        assert str(out.klein) == f"Cyclic({n})"
        assert out.branching.entries == {(n,): 2}
        assert out.genus == 0


def test_cusp_cubic_profile():
    f = corpus.line_map("cusp_cubic")
    records = ramification_profile(f)
    by_locus = {("infinity" if r.locus is None else str(r.locus)): r.profile for r in records}
    assert by_locus["infinity"] == (3,)
    assert by_locus["y"] == (2, 1)
    assert by_locus["y + 4/27"] == (2, 1)
    ok, witness, _ = regular_type_test(f)
    assert not ok and witness.profile == (2, 1)
    out = classify(f)
    assert not out.klein.is_galois()
    assert out.genus == 0


def test_dihedral_rows():
    for n in (2, 3, 4):
        out = classify(corpus.line_map(f"dihedral_{n}"))
        assert str(out.klein) == f"Dihedral({n})"
        if n == 2:
            assert out.branching.entries == {(2, 2): 3}
        else:
            assert out.branching.entries == {(2,) * n: 2, (n, n): 1}
        assert out.genus == 0


def test_tetrahedral_row():
    out = classify(corpus.line_map("tetrahedral"))
    assert out.klein.tag == "tetrahedral"
    assert out.branching.entries == {(2,) * 6: 1, (3,) * 4: 2}
    assert out.branching.size() == 6 * 1 + 8 * 2
    assert out.genus == 0


def test_octahedral_row():
    out = classify(corpus.line_map("octahedral"))
    assert out.klein.tag == "octahedral"
    assert out.branching.entries == {(2,) * 12: 1, (3,) * 8: 1, (4,) * 6: 1}
    assert out.branching.size() == 12 * 1 + 8 * 2 + 6 * 3
    assert out.genus == 0


def test_icosahedral_row():
    out = classify(corpus.line_map("icosahedral"))
    assert out.klein.tag == "icosahedral"
    assert out.branching.entries == {(2,) * 30: 1, (3,) * 20: 1, (5,) * 12: 1}
    assert out.genus == 0


def test_riemann_hurwitz_identity_random_maps():
    rng = random.Random(6)
    done = 0
    while done < 12:
        d = rng.randint(2, 5)
        num = {(rng.randint(0, d),): Fraction(rng.randint(-4, 4)) for _ in range(3)}
        den = {(rng.randint(0, d),): Fraction(rng.randint(-4, 4)) for _ in range(3)}
        N = MultiPoly.from_dict(QQ, ("z",), num)
        D = MultiPoly.from_dict(QQ, ("z",), den)
        if N.is_zero() or D.is_zero():
            continue
        try:
            f = BinaryRationalMap.make(N, D)
        except ValueError:
            continue
        if f.degree < 2:
            continue
        records = ramification_profile(f)
        total = sum(r.weight * sum(e - 1 for e in r.profile) for r in records)
        assert total == 2 * f.degree - 2
        for r in records:
            assert sum(r.profile) == f.degree
        done += 1


def test_moebius_invariance_of_classification():
    rng = random.Random(8)
    base = classify(corpus.line_map("power_3"))
    for _ in range(10):
        while True:
            a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
            if a * d - b * c != 0:
                break
        z = MultiPoly.variable(QQ, ("z",), "z")
        num = z.scale(a) + MultiPoly.constant(QQ, ("z",), b)
        den = z.scale(c) + MultiPoly.constant(QQ, ("z",), d)
        # left and right composition with the Möbius map
        from folgal.ratfunc import RationalFunction, compose_poly

        mob = RationalFunction(num, den)
        f = corpus.line_map("power_3")
        fn = compose_poly(f.num, {"z": mob})
        fd = compose_poly(f.den, {"z": mob})
        right = BinaryRationalMap.make(
            (fn * RationalFunction.from_poly(fd.den)).num,
            (fd * RationalFunction.from_poly(fn.den)).num,
        )
        out = classify(right)
        assert str(out.klein) == str(base.klein)
        assert out.branching.entries == base.branching.entries


def test_classification_needs_degree_match():
    # a regular-type-looking map of mismatched degree must not classify as a
    # platonic row; z^4 is cyclic, not dihedral
    out = classify(make_map("z^4"))
    assert str(out.klein) == "Cyclic(4)"


def test_weighted_branching_formatting():
    bw = WeightedBranchingType(3, {(3,): 3})
    assert str(bw) == "3(3)_1"
    assert bw.size() == 6


@pytest.mark.parametrize("text, loci", [
    ("z^3+3*z^2", {"y", "y - 4"}),
    ("z^5-5*z", {"y - 4", "y + 4", "y + 4*i", "y + (-4*i)"}),
])
def test_branch_loci_over_a_tower_are_irreducible(text, loci):
    # over Q(sqrt 2)(i) every finite branch locus is linear, with weight 1
    # and the profile it has over Q
    root2 = extend(QQ, "s", [Fraction(-2), Fraction(0)])
    tower = extend(root2, "i", [root2.coerce(1), root2.coerce(0)])
    finite = [r for r in ramification_profile(make_map(text, tower)) if r.locus is not None]
    assert {str(r.locus) for r in finite} == loci
    assert all(r.weight == 1 for r in finite)
    over_q = {r.profile for r in ramification_profile(make_map(text)) if r.locus is not None}
    assert {r.profile for r in finite} == over_q


def test_value_annihilator_below_the_ring_dimension():
    # w = (z^3 + 2z^2)/(z + 2) = z^2 modulo (z^2 - 2)(z^2 - 3)(z - 1) takes the
    # values 2, 3 and 1, so its minimal polynomial has degree 3 in a ring of
    # dimension 5
    import sympy as sp

    from folgal.klein1d import _value_annihilator

    z = sp.symbols("z")
    mod = sp.Poly(sp.expand((z**2 - 2) * (z**2 - 3) * (z - 1)), z)
    num, den = sp.Poly(z**3 + 2 * z**2, z), sp.Poly(z + 2, z)
    coeffs = lambda p: [Fraction(int(c)) for c in reversed(p.all_coeffs())]
    ann, _ = _value_annihilator(coeffs(num), coeffs(den), coeffs(mod), QQ)
    assert ann == [-6, 11, -6, 1]
    # brute force: the powers w^k, reduced modulo mod, satisfy the relation,
    # and the powers below its degree are independent
    w = (num * sp.invert(den, mod)).rem(mod)
    powers = [(w**k).rem(mod) for k in range(len(ann))]
    assert sum((p * sp.Rational(c) for p, c in zip(powers, ann)), sp.Poly(0, z)).is_zero
    rows = [[p.coeff_monomial(z**i) for i in range(mod.degree())] for p in powers[:-1]]
    assert sp.Matrix(rows).rank() == len(ann) - 1


def _power_matrix_minimal_polynomial(num, den, mod):
    """The minimal polynomial of w = num/den modulo mod, from the reduced row
    echelon form of the full matrix of the powers w^0, ..., w^n: its first
    free column expresses the first dependent power in the ones before."""
    import sympy as sp

    z = mod.gen
    n = mod.degree()
    w = (num * sp.invert(den, mod)).rem(mod)
    powers = [(w**k).rem(mod) for k in range(n + 1)]
    matrix = sp.Matrix([[p.coeff_monomial(z**i) for p in powers] for i in range(n)])
    reduced, pivots = matrix.rref()
    k = next(j for j in range(n + 1) if j not in pivots)
    return [-reduced[i, k] for i in range(k)] + [1], powers[: k + 1]


@pytest.mark.parametrize("num, den, mod, degree", [
    # w = z^2 + 1 is 2 at both roots of z^2 - 1: one value
    ("z^2 + 1", "1", "z^2 - 1", 1),
    # w = z^2/(z + 3) modulo the irreducible z^3 - 2: all three values distinct
    ("z^2", "z + 3", "z^3 - 2", 3),
])
def test_value_annihilator_matches_the_full_power_matrix(num, den, mod, degree):
    import sympy as sp

    from folgal.klein1d import _value_annihilator

    z = sp.symbols("z")
    polys = [sp.Poly(sp.sympify(t), z) for t in (num, den, mod)]
    coeffs = lambda p: [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    ann, powers = _value_annihilator(*(coeffs(p) for p in polys), QQ)
    expected, expected_powers = _power_matrix_minimal_polynomial(*polys)
    assert len(ann) == degree + 1
    assert ann == expected
    assert powers == [coeffs(p) if not p.is_zero else [] for p in expected_powers]


def _oracle_profile(f, locus):
    """The profile over the roots of ``locus`` (``None`` for infinity) by
    decomposing the fibre: adjoin a root ``v`` of the locus and
    squarefree-decompose ``num - v den`` over that field, or ``den`` for the
    value infinity; the degree the fibre polynomial lacks is the index at
    z = infinity."""
    if locus is None:
        fib = f.den
    else:
        field, v = adjoin_root(locus, "w")
        fib = f.num.to_field(field) - f.den.to_field(field).scale(v)
    parts = [f.degree - fib.total_degree()] if fib.total_degree() < f.degree else []
    for fac, mult in squarefree_decompose(fib):
        parts.extend([mult] * fac.total_degree())
    return tuple(sorted(parts, reverse=True))


def _check_against_the_fibres(f):
    """Records whose profiles match the decomposed fibres, over distinct
    irreducible loci that hold all the ramification."""
    records = ramification_profile(f)
    loci = [r.locus for r in records if r.locus is not None]
    assert len({str(locus) for locus in loci}) == len(loci)
    assert all(factor_irreducible(locus) == [(locus, 1)] for locus in loci)
    total = 0
    for r in records:
        profile = _oracle_profile(f, r.locus)
        assert r.profile == profile
        assert r.weight == (1 if r.locus is None else r.locus.total_degree())
        total += r.weight * sum(e - 1 for e in profile)
    assert total == 2 * f.degree - 2
    return records


@pytest.mark.parametrize("text, expected", [
    # the part z^2 - 1 has the annihilator y^2 - 4 with two factors;
    # infinity is critical with value infinity
    ("z^3 - 3*z", ["y - 2: (2, 1) (weight 1)", "y + 2: (2, 1) (weight 1)",
                   "infinity: (3,) (weight 1)"]),
    # a critical pole, and infinity critical with the finite value 1
    ("(z^2 + 1)/z^2", ["y - 1: (2,) (weight 1)", "infinity: (2,) (weight 1)"]),
    # infinity critical with a finite value, next to a cubic locus
    ("(z^3 + 2)/(z^3 + z)", ["y^3 + 27*y - 27: (2, 1) (weight 3)", "y - 1: (2, 1) (weight 1)"]),
    # a double pole among the critical points
    ("(z^3 + 1)/z^2", ["y^3 - 27/4: (2, 1) (weight 3)", "infinity: (2, 1) (weight 1)"]),
    # the degree-5 finite part has an annihilator of full degree
    ("(z^4 + z + 1)/(z^2 - 3)", [
        "y^5 - 71/3*y^4 + 1537/12*y^3 + 397/3*y^2 + 45*y + 229/48: (2, 1, 1) (weight 5)",
        "infinity: (2, 1, 1) (weight 1)"]),
])
def test_counted_profiles_on_each_path(text, expected):
    records = _check_against_the_fibres(make_map(text))
    assert [str(r) for r in records] == expected


@pytest.mark.parametrize("field, seed", [(QQ, 11), (Q_I, 12)])
def test_counted_profiles_match_the_fibres_on_random_maps(field, seed):
    rng = random.Random(seed)

    def coefficient():
        c = str(rng.randint(-4, 4))
        return f"({c} + {rng.randint(-2, 2)}*g)" if field is Q_I and rng.random() < 0.5 else c

    def poly(deg):
        terms = [f"{coefficient()}*z^{i}" for i in range(deg) if rng.random() < 0.6]
        return " + ".join(terms + [f"{rng.randint(1, 4)}*z^{deg}"])

    done = 0
    while done < 8:
        d = rng.randint(2, 7)
        f = make_map(f"({poly(d)})/({poly(rng.randint(0, d))})", field)
        if f.degree < 2:
            continue
        _check_against_the_fibres(f)
        done += 1


@pytest.mark.parametrize("text", ["z^3 - 3*z", "(z^4 + z + 1)/(z^2 - 3)"])
def test_a_wrong_value_locus_is_caught(monkeypatch, text):
    original = klein1d._value_annihilator

    def shifted(num, den, modulus, fld):
        ann, powers = original(num, den, modulus, fld)
        return [ann[0] + 1] + ann[1:], powers

    monkeypatch.setattr(klein1d, "_value_annihilator", shifted)
    with pytest.raises(AssertionError):
        ramification_profile(make_map(text))
