from fractions import Fraction

import pytest

from folgal.numberfield import (
    QQ,
    FieldSplit,
    extend,
    run_with_splitting,
    split_field,
)


@pytest.fixture
def K_zeta():
    # zeta^2 - zeta + 1 = 0, zeta = (1 + i sqrt 3)/2
    return extend(QQ, "g", [Fraction(1), Fraction(-1)], certified=True)


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
    M = extend(K_zeta, "s", [-K_zeta.gen(), K_zeta.coerce(0)], certified=True)
    s = M.gen()
    assert s * s == M.coerce(K_zeta.gen())
    inv = (s + 1).inverse()
    assert (s + 1) * inv == M.one()
    approx = complex(s) ** 2 - complex(K_zeta.gen())
    assert abs(approx) < 1e-9


def test_zero_divisor_triggers_split():
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])  # u^2 - 1, reducible
    u = L.gen()
    with pytest.raises(FieldSplit):
        (u - 1).inverse()


def test_run_with_splitting_covers_both_branches():
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])
    u = L.gen()

    def compute(fld, proj):
        uu = proj(u)
        if uu - 1:
            return ("inv", (uu - 1).inverse().rational_value())
        return ("root", 1)

    results = run_with_splitting(L, compute)
    tags = sorted(r for _, r in results)
    assert ("inv", Fraction(-1, 2)) in tags
    assert ("root", 1) in tags


def test_split_field_projects_tower():
    L = extend(QQ, "u", [Fraction(-4), Fraction(0)])  # u^2 = 4
    M = extend(L, "v", [L.gen(), L.coerce(0)])  # v^2 = -u
    v = M.gen()
    new_top, project = split_field(M, L, [Fraction(-2), Fraction(1)])  # u -> 2
    pv = project(v)
    assert pv * pv == new_top.coerce(-2)


def test_rational_value_detection(K_zeta):
    assert K_zeta.coerce(Fraction(3, 7)).rational_value() == Fraction(3, 7)
    assert K_zeta.gen().rational_value() is None


def test_non_squarefree_modulus_rejected():
    with pytest.raises(ValueError):
        extend(QQ, "u", [Fraction(1), Fraction(0), Fraction(-2), Fraction(0)])


def test_gcd_split_event_is_structured():
    from folgal.parsing import parse_poly
    from folgal.polyops import mpoly_gcd

    # reducible modulus: u^2 - 1 = (u - 1)(u + 1)
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])
    p = parse_poly("x^2 - 1", L, ("x",))

    def branch_gcds(q):
        def compute(fld, proj):
            pp = p.map_coefficients(proj, fld)
            qq = q.map_coefficients(proj, fld)
            return mpoly_gcd(pp, qq)

        return run_with_splitting(L, compute)

    # x - u is monic and x^2 - 1 = (x + u)(x - u) + (u^2 - 1) with u^2 - 1 = 0,
    # so the Euclidean step inverts nothing: under D5 there is no split, and
    # x - u is the gcd on both branches (x - 1 at u = 1, x + 1 at u = -1)
    q_monic = parse_poly("x - u", L, ("x",))
    assert mpoly_gcd(p, q_monic) == q_monic
    [(fld, g)] = branch_gcds(q_monic)
    assert fld is L
    assert g == q_monic

    # q = (x - u)((u - 1) x + 1) has the degree of p and the zero divisor
    # u - 1 as leading coefficient: the first division step must invert u - 1,
    # so FieldSplit surfaces from inside the gcd (structured outcome, no crash)
    q = parse_poly("(x - u)*((u - 1)*x + 1)", L, ("x",))
    with pytest.raises(FieldSplit) as info:
        mpoly_gcd(p, q)
    split = info.value
    assert split.field is L
    # factors as coefficient tuples, constant term first: u - 1 and u + 1
    assert {split.f1, split.f2} == {(-1, 1), (1, 1)}

    # u = 1: q = x - 1, gcd x - 1; u = -1: q = (x + 1)(1 - 2x), gcd x + 1
    results = sorted(str(g) for _, g in branch_gcds(q))
    assert results == ["x + 1", "x - 1"]


def test_gcd_with_zero_divisor_constant_splits():
    from folgal.parsing import parse_poly
    from folgal.polyops import mpoly_gcd

    # u - 1 is a zero divisor modulo u^2 - 1: the constant shortcut must
    # invert it, since at u = 1 it vanishes and the gcd becomes x - 1
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])
    p = parse_poly("u - 1", L, ("x",))
    q = parse_poly("x - 1", L, ("x",))
    with pytest.raises(FieldSplit):
        mpoly_gcd(p, q)

    def compute(fld, proj):
        return mpoly_gcd(p.map_coefficients(proj, fld), q.map_coefficients(proj, fld))

    # each branch field is u + c0 over QQ, so u = -c0 there
    by_u = {-fld.min_poly[0]: str(g) for fld, g in run_with_splitting(L, compute)}
    assert by_u == {1: "x - 1", -1: "1"}


def test_gcd_of_binary_forms_splits_on_zero_divisor():
    from folgal.parsing import parse_poly
    from folgal.polyops import mpoly_gcd

    # both inputs are forms in x, y, so the Euclidean gcd of the slices at
    # x = 1 runs, (u - 1) against y: inverting u - 1 must split
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])
    p = parse_poly("(u - 1)*x^2", L, ("x", "y"))
    q = parse_poly("x^2*y", L, ("x", "y"))
    with pytest.raises(FieldSplit):
        mpoly_gcd(p, q)

    def compute(fld, proj):
        return mpoly_gcd(p.map_coefficients(proj, fld), q.map_coefficients(proj, fld))

    # u = 1: p = 0 and the gcd is q itself; u = -1: p = -2 x^2
    by_u = {-fld.min_poly[0]: str(g) for fld, g in run_with_splitting(L, compute)}
    assert by_u == {1: "x^2*y", -1: "x^2"}

    # the slices (u + 1) y^3 and y have gcd y on both branches, but the power
    # of x the inputs share depends on whether u + 1 vanishes
    p = parse_poly("(u + 1)*y^3", L, ("x", "y"))
    with pytest.raises(FieldSplit):
        mpoly_gcd(p, q)
    by_u = {-fld.min_poly[0]: str(g) for fld, g in run_with_splitting(L, compute)}
    assert by_u == {1: "y", -1: "x^2*y"}
