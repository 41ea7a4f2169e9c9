import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folgal import foliation as fol
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ
from folgal.parsing import parse_poly


def poly(text, field=QQ):
    return parse_poly(text, field, ("x", "y"))


def test_degree_and_radial_part():
    F = fol.from_strings(None, "x^3", "y^3")
    assert F.degree == 3
    assert F.c_bar.is_zero()
    # radial component present: A = x^2 + x*c, B = y^2*... use x*(x^2), y*(x^2)
    G = fol.from_strings(None, "y^2 + x*x^2", "1 + y*x^2")
    assert G.degree == 2
    assert G.c_bar == poly("x^2")


def test_degenerate_rejected():
    with pytest.raises(fol.DegenerateFoliationError):
        fol.from_strings(None, "x", "y")
    with pytest.raises(fol.DegenerateFoliationError):
        fol.from_strings(None, "x*y", "y*y")  # saturates to the same pencil


def test_saturation():
    F = fol.from_strings(None, "x^2*(x+y)", "x^2*(y^3+1)")
    assert F.A == poly("x+y")


def test_euler_relation_exact():
    F = fol.from_strings("g^2-g+1", "x*y", "g*y^2+x^3")
    a, b, c = F.triple
    X = MultiPoly.variable(F.field, fol.PROJ, "x")
    Y = MultiPoly.variable(F.field, fol.PROJ, "y")
    Z = MultiPoly.variable(F.field, fol.PROJ, "z")
    assert (a * X + b * Y + c * Z).is_zero()


def test_gauss_map_forms_agree():
    F = fol.from_strings(None, "x^3", "y^3")
    (a, b, c), (g1, g2) = F.gauss_map()
    # the affine pair is the triple in the incidence chart z = p x + q y,
    # i.e. (p, q) = (-a/c, -b/c) on z = 1
    az = a.dehomogenize("z").permute_to(("x", "y"))
    bz = b.dehomogenize("z").permute_to(("x", "y"))
    cz = c.dehomogenize("z").permute_to(("x", "y"))
    from folgal.ratfunc import RationalFunction

    assert g1 == RationalFunction(-az, cz)
    assert g2 == RationalFunction(-bz, cz)


def test_singular_locus_power_cubic():
    F = fol.from_strings(None, "x^3", "y^3")
    pts = fol.singular_locus(F)
    names = sorted(str(sp.point) for sp in pts)
    assert names == sorted(
        ["[0, 0, 1]", "[1, 0, 0]", "[0, 1, 0]", "[1, 1, 0]", "[1, -1, 0]"]
    )
    assert sum(sp.multiplicity * sp.class_size for sp in pts) == 13


def test_singular_locus_parabola_cubic():
    F = fol.from_strings(None, "y+x^2", "-1/3*x^3")
    pts = fol.singular_locus(F)
    names = sorted(str(sp.point) for sp in pts)
    assert names == ["[0, 0, 1]", "[0, 1, 0]"]
    assert sum(sp.multiplicity * sp.class_size for sp in pts) == 13


@pytest.mark.parametrize("degree", [2, 3])
def test_singular_multiplicity_total(degree):
    rng = random.Random(degree * 17)
    for _ in range(3):
        terms = {}
        for _ in range(5):
            i = rng.randint(0, degree)
            j = rng.randint(0, degree - i)
            terms[(i, j)] = Fraction(rng.randint(-4, 4))
        A = MultiPoly.from_dict(QQ, ("x", "y"), terms)
        terms = {}
        for _ in range(5):
            i = rng.randint(0, degree)
            j = rng.randint(0, degree - i)
            terms[(i, j)] = Fraction(rng.randint(-4, 4))
        B = MultiPoly.from_dict(QQ, ("x", "y"), terms)
        try:
            F = fol.from_vector_field(A, B, QQ)
        except fol.DegenerateFoliationError:
            continue
        d = F.degree
        total = sum(
            sp.multiplicity * sp.class_size for sp in fol.singular_locus(F)
        )
        assert total == d * d + d + 1


def test_inflection_power_cubic():
    F = fol.from_strings(None, "x^3", "y^3")
    rep = fol.inflection_divisor(F)
    assert rep.total_degree == 9
    assert all(c.kind == "invariant_line" for c in rep.components)
    curves = sorted(str(c.curve) for c in rep.components)
    assert curves == sorted(["x", "y", "x - y", "x + y", "z"])


def test_inflection_parabola_cubic():
    F = fol.from_strings(None, "y+x^2", "-1/3*x^3")
    rep = fol.inflection_divisor(F)
    trans = rep.transverse()
    assert sorted(str(c.affine) for c in trans) == ["x", "x^2 + 3/2*y"]
    assert all(c.multiplicity == 2 and c.rho == 3 for c in trans)
    zline = [c for c in rep.components if c.affine is None]
    assert zline and zline[0].kind == "invariant_line" and zline[0].multiplicity == 3


def test_inflection_halfchi_quartic():
    from folgal import corpus

    F = corpus.foliation("halfchi_quartic")
    rep = fol.inflection_divisor(F)
    trans = rep.transverse()
    assert len(trans) == 1 and trans[0].multiplicity == 3 and trans[0].rho == 4


def test_inflection_degree_on_random_foliations():
    rng = random.Random(5)
    produced = 0
    while produced < 20:
        d = rng.randint(1, 4)
        terms_a = {
            (rng.randint(0, d), rng.randint(0, d)): Fraction(rng.randint(-3, 3))
            for _ in range(4)
        }
        terms_b = {
            (rng.randint(0, d), rng.randint(0, d)): Fraction(rng.randint(-3, 3))
            for _ in range(4)
        }
        terms_a = {k: v for k, v in terms_a.items() if sum(k) <= d}
        terms_b = {k: v for k, v in terms_b.items() if sum(k) <= d}
        A = MultiPoly.from_dict(QQ, ("x", "y"), terms_a)
        B = MultiPoly.from_dict(QQ, ("x", "y"), terms_b)
        try:
            F = fol.from_vector_field(A, B, QQ)
            rep = fol.inflection_divisor(F)
        except (fol.DegenerateFoliationError, RuntimeError):
            continue
        if rep.every_point_inflectional:
            continue
        produced += 1
        assert rep.total_degree == 3 * F.degree


def test_inflection_components_invariance_consistency():
    from folgal import corpus

    for name in ("cyclic_cubic_qh23", "parabola_cubic_qh12", "fermat_3"):
        F = corpus.foliation(name)
        rep = fol.inflection_divisor(F)
        for comp in rep.components:
            if comp.affine is None:
                assert (comp.kind == "invariant_line") == F.c_bar.is_zero()
            elif comp.affine.total_degree() == 1:
                assert (comp.kind == "invariant_line") == fol.invariant_line_test(
                    F, comp.affine
                )
            elif comp.kind == "transverse":
                # transverse components are never invariant curves
                assert not fol.invariant_curve_test(F, comp.affine)


def test_invariant_line_tests():
    F = fol.from_strings(None, "x^3", "y^3")
    assert fol.invariant_line_test(F, poly("y - x"))
    assert not fol.invariant_line_test(F, poly("y - 2*x"))
    with pytest.raises(ValueError):
        fol.invariant_line_test(F, poly("1"))
    zline = MultiPoly.variable(QQ, fol.PROJ, "z")
    assert fol.invariant_line_test(F, zline)


def test_tangency_on_line_degree():
    F = fol.from_strings(None, "x^3", "y^3")
    td = fol.tangency_on_line(F, (0, 1, -1))  # the line y = z
    assert td.poly.degree_in("t") == 3
    with pytest.raises(ValueError):
        fol.tangency_on_line(F, (1, 0, 0))  # x = 0 is invariant


def test_tangency_degree_on_random_lines():
    F = fol.from_strings("g^2-g+1", "x*y", "g*y^2+x^3")
    rng = random.Random(3)
    for _ in range(6):
        dual = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        if not any(dual[:2]):
            continue
        td = fol.tangency_on_line(F, dual)
        assert td.poly.degree_in("t") == F.degree


def test_field_spec_must_be_irreducible():
    assert fol.field_from_spec("g^2-g+1").degree == 2
    with pytest.raises(ValueError, match="reducible"):
        fol.field_from_spec("u^2-4")
