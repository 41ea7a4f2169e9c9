import random
from fractions import Fraction

import pytest

from folgal import corpus
from folgal import foliation as fol
from folgal import local as loc
from folgal.numberfield import QQ
from folgal.parsing import parse_poly


def poly(text, field=QQ):
    return parse_poly(text, field, ("x", "y"))


# -- branch counting ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("y^2 - x^2", 2),
        ("y^2 - x^3", 1),
        ("y^2 - x^4", 2),
        ("y^2 - x^5", 1),
        ("(y^2-x^3)*(y^2+x^3)", 2),
        ("y^2 + x*y + 1/3*x^2", 2),  # conjugate tangent directions
        ("y*(y-x)*(y+x)", 3),
    ],
)
def test_branch_count_known_germs(text, expected):
    assert loc.branch_count(poly(text), (0, 0)) == expected


def test_branch_count_generic_lines():
    rng = random.Random(11)
    for k in range(1, 5):
        slopes = set()
        while len(slopes) < k:
            slopes.add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        curve = poly("1")
        x = poly("x")
        y = poly("y")
        for s in slopes:
            curve = curve * (y - x.scale(s))
        assert loc.branch_count(curve, (0, 0)) == k


def test_branch_count_affine_invariance():
    rng = random.Random(23)
    germ = poly("(y^2 - x^3)*(y - x^2)")
    expected = loc.branch_count(germ, (0, 0))
    for _ in range(5):
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        x = poly("x")
        y = poly("y")
        img = germ.substitute({"x": x.scale(a) + y.scale(b), "y": x.scale(c) + y.scale(d)})
        assert loc.branch_count(img, (0, 0)) == expected


def test_branch_count_requires_incidence():
    with pytest.raises(ValueError):
        loc.branch_count(poly("y - 1"), (0, 0))


def test_delta_invariants():
    assert loc.germ_delta(poly("y^2 - x^3"), (0, 0)) == (1, 1)  # cusp
    assert loc.germ_delta(poly("y^2 - x^4"), (0, 0)) == (2, 2)  # tacnode
    assert loc.germ_delta(poly("y^2 - x^2"), (0, 0)) == (2, 1)  # node
    assert loc.germ_delta(poly("(y-x)*(y+x)*y"), (0, 0)) == (3, 3)  # triple point


# -- orders at singular points -------------------------------------------------


def test_orders_generic_linear_point():
    F = fol.from_strings(None, "x + x^3", "2*y + y^3")
    origin = [sp for sp in fol.singular_locus(F) if str(sp.point) == "[0, 0, 1]"][0]
    nu, tau = loc.vanishing_and_tangency_order(F, origin.point)
    assert (nu, tau) == (1, 1)


def test_orders_error_on_regular_point():
    F = corpus.foliation("fermat_3")
    pt = fol.ProjPoint.make(QQ, (1, 2, 1))
    with pytest.raises(loc.NotSingular):
        loc.vanishing_and_tangency_order(F, pt)


def test_halfchi_quartic_table():
    F = corpus.foliation("halfchi_quartic")
    invs = loc.classify_singularities(F)
    origin = [i for i in invs if str(i.point) == "[0, 0, 1]"][0]
    assert (origin.nu, origin.tau, origin.beta) == (3, 3, 2)
    assert origin.chi == Fraction(3, 2)
    assert origin.in_sigma_ram
    assert origin.violates_local_condition
    assert origin.sigma_rho_status.kind == "not_applicable"


def test_parabola_cubic_chi_one():
    F = corpus.foliation("parabola_cubic_qh12")
    invs = loc.classify_singularities(F)
    assert len(invs) == 2
    assert all(inv.chi == 1 for inv in invs)
    assert not any(inv.in_sigma_ram for inv in invs)


def test_power_cubic_radial_points_are_certain():
    F = corpus.foliation("fermat_3")
    invs = loc.classify_singularities(F)
    certain = [i for i in invs if i.sigma_rho_status.kind == "certain"]
    assert len(certain) == 2
    assert all(i.chi == 3 and i.nu == 1 and i.tau == 3 for i in certain)
    rest = [i for i in invs if i.sigma_rho_status.kind != "certain"]
    assert all(i.chi == 1 for i in rest)


def test_perturbed_power_cubic_violations():
    F = corpus.foliation("fermat_3_perturbed")
    invs = loc.classify_singularities(F)
    bad = [i for i in invs if i.violates_local_condition]
    # the four diagonal radial points have chi = 2, which does not divide 3
    assert len(bad) == 4
    assert all(i.chi == 2 for i in bad)


def test_chi_stable_under_seed(monkeypatch):
    # each foliation draws its polars once, so each seed gets a fresh one
    tables = []
    for seed in (1, 2):
        monkeypatch.setattr(loc, "POLAR_SEED", seed)
        F = corpus.foliation("cyclic_cubic_qh23")
        tables.append([(str(i.point), i.chi) for i in loc.classify_singularities(F)])
    a, b = tables
    assert sorted(a) == sorted(b)


def test_invariant_bounds():
    for name in ("cyclic_cubic_qh23", "halfchi_quartic", "fermat_3"):
        F = corpus.foliation(name)
        for inv in loc.classify_singularities(F):
            assert 1 <= inv.beta <= inv.nu <= inv.tau <= F.degree
            assert inv.chi >= 1
            assert inv.in_sigma_ram == (inv.chi > 1)
            if inv.sigma_rho_status.kind == "certain":
                assert inv.chi == F.degree


def test_polar_curve_formula():
    F = corpus.foliation("fermat_3")
    pol = loc.polar_curve(F, (Fraction(2), Fraction(5)))
    assert pol == poly("x^3*(y-5) - y^3*(x-2)")
    # the polar passes through the base point and through singular points
    assert not pol.eval_field({"x": 2, "y": 5})
    assert not pol.eval_field({"x": 0, "y": 0})
