import random
from fractions import Fraction

import pytest

from folgal import corpus
from folgal.klein1d import (
    BinaryRationalMap,
    WeightedBranchingType,
    classify,
    ramification_profile,
    regular_type_test,
)
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ, extend
from folgal.parsing import parse_rational


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
    ann = _value_annihilator(coeffs(num), coeffs(den), coeffs(mod), QQ)
    assert ann == [-6, 11, -6, 1]
    # brute force: the powers w^k, reduced modulo mod, satisfy the relation,
    # and the powers below its degree are independent
    w = (num * sp.invert(den, mod)).rem(mod)
    powers = [(w**k).rem(mod) for k in range(len(ann))]
    assert sum((p * sp.Rational(c) for p, c in zip(powers, ann)), sp.Poly(0, z)).is_zero
    rows = [[p.coeff_monomial(z**i) for i in range(mod.degree())] for p in powers[:-1]]
    assert sp.Matrix(rows).rank() == len(ann) - 1
