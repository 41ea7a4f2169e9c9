import importlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from folgal import corpus
from folgal import foliation as fol
from folgal import galois as gal
from folgal import local
from folgal import numberfield
from folgal.analyze import analyze
from folgal.klein1d import BinaryRationalMap, classify
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ
from folgal.parsing import parse_poly
from folgal.ratfunc import RationalFunction, compose_poly
from folgal.report import analysis_report
from folgal.solve2d import common_zeros, translate
from folgal.sympy_bridge import factor_irreducible


# -- fibre polynomial -----------------------------------------------------------


def test_fiber_polynomial_basics():
    F = fol.from_strings(None, "x", "-y")
    assert F.degree == 1
    P = gal.gauss_fiber_polynomial(F)
    t = MultiPoly.variable(QQ, gal.XYT, "t")
    assert P == parse_poly("2*x*y", QQ, ("x", "y")).with_vars(gal.XYT) * t
    assert P.substitute({"t": 0}).is_zero()


def test_fiber_polynomial_roots_power_cubic():
    F = corpus.foliation("fermat_3")
    v = gal.discriminant_square_test(F)
    assert v.is_galois
    cert = v.certificate
    # unit * r^2 == disc proves both roots (-a2 +- sqrt(unit) r) / (2 a3) of
    # P / t; checked inside, re-check here, with no root built
    assert "roots" not in cert
    r = cert["square_root_witness"]
    assert (r * r).scale(cert["unit"]) == cert["discriminant"]
    a1 = gal.gauss_fiber_polynomial(F).univariate_coeffs("t")[1].with_vars(fol.AFFINE)
    assert cert["a2"] * cert["a2"] - 4 * a1 * cert["a3"] == cert["discriminant"]
    gal.check_root_identity(cert)
    # the unit -3 is not a rational square: the decks adjoin its root lazily
    assert cert["unit"] == -3
    decks = gal.deck_transformations(F, v)
    assert len(decks) == 3
    assert all(d.verified and gal.verify_deck(F, d) for d in decks)
    assert decks[1].tau_x.num.field.min_poly == (3, 0)


@pytest.mark.parametrize("key", ["square_root_witness", "unit"])
def test_tampered_cubic_certificate_fails_identity(key):
    F = corpus.foliation("fermat_3")
    v = gal.discriminant_square_test(F)
    value = v.certificate[key]
    v.certificate[key] = value + value.one_like() if key == "square_root_witness" else value * 2
    with pytest.raises(AssertionError, match="identity"):
        gal.check_root_identity(v.certificate)
    with pytest.raises(AssertionError, match="identity"):
        gal.deck_transformations(F, v)


def test_cubic_route_builds_no_field_over_q(monkeypatch):
    # the first degree-3 member of criterion 7's draw: unit -314928 is not a
    # rational square, yet the route certifies over Q without adjoining it
    rng = random.Random(20240813)
    F = corpus.random_deformation_member(rng, 3)
    assert F.degree == 3
    built = []
    monkeypatch.setattr(numberfield, "extend", lambda *a, **k: built.append(a))
    v = gal.discriminant_square_test(F)
    assert v.is_galois and not built
    assert v.certificate["unit"] == -314928
    assert all(v.certificate[k].field is F.field for k in ("square_root_witness", "a2", "a3"))


def test_discriminant_matches_closed_form():
    F = corpus.foliation("cyclic_cubic_qh23")
    v = gal.discriminant_square_test(F)
    expected = parse_poly(
        "-g*x^2*y^2*(y^2-x^3)^2*((g-1)*y^2+x^3)^2", F.field, ("x", "y")
    )
    assert v.certificate["discriminant"] == expected
    assert v.is_galois


def test_discriminant_not_square_case():
    F = corpus.foliation("fermat_3_perturbed")
    v = gal.discriminant_square_test(F)
    assert v.status == "not_galois"
    assert "odd_multiplicity_factor" in v.certificate


def test_degree_two_always_galois():
    F = fol.from_strings(None, "x^2 - y", "y^2 + x")
    v = gal.discriminant_square_test(F)
    assert v.is_galois and len(v.certificate["roots"]) == 1


def test_verdict_in_degrees_one_and_two():
    v = gal.verdict(fol.from_strings(None, "y", "x"))
    assert (v.status, v.method, v.certificate) == ("galois", "low_degree", {"reason": "degree one"})
    F = fol.from_strings(None, "x^2", "y^2")
    v = gal.verdict(F)
    assert (v.status, v.method, F.degree) == ("galois", "discriminant_square", 2)
    decks = gal.deck_transformations(F, v)
    assert len(decks) == 2 and all(t.verified for t in decks)
    cert = analysis_report(analyze(F, numeric=False), {})["verdict"]["certificate"]
    assert [set(root) for root in cert["roots"]] == [{"num", "den"}]


def test_low_degree_verdict_is_shared_by_verdict_and_analyze(monkeypatch):
    assert gal.low_degree_verdict(3) is None
    F = fol.from_strings(None, "x^2", "y^2")

    def unavailable(F):
        raise gal.UseAnotherMethod("discriminant route withheld")

    monkeypatch.setattr(gal, "discriminant_square_test", unavailable)
    monkeypatch.setattr(importlib.import_module("folgal.analyze"),
                        "discriminant_square_test", unavailable)
    expected = gal.low_degree_verdict(2)
    assert expected.certificate == {"reason": "degree-two coverings are Galois"}
    assert gal.verdict(F) == expected
    res = analyze(F, numeric=False)
    assert res.verdict == expected and "discriminant_square" not in res.routes


def test_use_another_method_guard():
    F = corpus.foliation("halfchi_quartic")
    with pytest.raises(gal.UseAnotherMethod):
        gal.discriminant_square_test(F)


# -- local conditions --------------------------------------------------------------


def test_local_report_parabola_cubic_sufficient():
    F = corpus.foliation("parabola_cubic_qh12")
    rep = gal.extremal_type_report(F)
    assert rep.sufficient and rep.necessary
    assert rep.verdict.is_galois
    assert rep.verdict.certificate["extremal"]


def test_local_report_halfchi_quartic():
    F = corpus.foliation("halfchi_quartic")
    rep = gal.extremal_type_report(F)
    assert not rep.sufficient and not rep.necessary
    assert rep.verdict.status == "not_galois"
    assert rep.verdict.certificate["chi"] == Fraction(3, 2)


def test_local_report_convex_counterexamples():
    for name in ("hessian_pencil_4", "modular_quintic"):
        F = corpus.foliation(name)
        rep = gal.extremal_type_report(F)
        assert rep.verdict.status == "not_galois", name


# -- symmetries ----------------------------------------------------------------------


def test_symmetry_weights_cyclic_cubic():
    F = corpus.foliation("cyclic_cubic_qh23")
    syms = [s for s in gal.detect_symmetry(F) if s.normal_form == "weighted"]
    assert len(syms) == 1
    assert syms[0].weights == (2, 3)
    assert syms[0].epsilon_normalized == 3


def test_symmetry_radial_for_homogeneous():
    F = corpus.foliation("fermat_4")
    syms = [s for s in gal.detect_symmetry(F) if s.normal_form == "weighted"]
    assert syms and syms[0].weights == (1, 1)
    assert syms[0].epsilon_normalized == 3  # degree - 1


def test_no_symmetry_generic():
    F = fol.from_strings(None, "x^3 - x*y + 1", "y^3 + x^2 - 7")
    assert gal.detect_symmetry(F) == []


def test_reduction_matches_closed_form():
    F = corpus.foliation("cyclic_cubic_qh23")
    sym = [s for s in gal.detect_symmetry(F) if s.normal_form == "weighted"][0]
    fmap = gal.reduce_to_p1(F, sym)
    from folgal.parsing import parse_rational

    expected = parse_rational("(-z*((1-g)*z-1)) / ((g*z+1)^3)", F.field, ("z",))
    assert fmap.num * expected.den == fmap.den * expected.num
    assert fmap.degree == 3


def test_reduction_shear_case():
    # P(y) d/dx + Q(y)(x d/dx + y d/dy) with P = y^2+1, Q = y reduces to -Q/P
    F = fol.from_strings(None, "(y^2+1) + x*y", "y*y")
    syms = gal.detect_symmetry(F)
    shear = [s for s in syms if s.normal_form == "shear"]
    assert shear
    fmap = gal.reduce_to_p1(F, shear[0])
    from folgal.parsing import parse_rational

    expected = parse_rational("(-z)/(z^2+1)", QQ, ("z",))
    assert fmap.num * expected.den == fmap.den * expected.num


def test_parabolic_normal_form():
    # the one symmetry of this cubic takes the parabolic normal form; the
    # discriminant route, complete in degree 3, decides independently of it
    F = fol.from_strings(None, "y*(y^2-2*x)+1", "y^2-2*x")
    assert F.degree == 3
    syms = gal.detect_symmetry(F)
    assert [s.normal_form for s in syms] == ["parabolic"]
    assert str(gal.reduce_to_p1(F, syms[0])) == "(-z^3 + 1) / (z^2)"
    res = analyze(F, numeric=False)
    assert {k: v.status for k, v in res.routes.items()} == {
        "discriminant_square": "not_galois",
        "symmetry_reduction": "not_galois",
        "local_conditions": "not_galois",
    }


# -- the reduction's earlier formulas, kept as oracles ------------------------------


def _xgcd_oracle(a: int, b: int):
    """The recursive extended Euclid that ``_bezout_pair`` replaced."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, s, t = _xgcd_oracle(b, a % b)
    return g, t, s - (a // b) * t


def test_bezout_pair_matches_the_recursive_euclid():
    # another pair would change the printed reduced map
    for alpha in range(40):
        for beta in range(60):
            g, s, t = _xgcd_oracle(alpha, beta)
            if g != 1:
                with pytest.raises(ValueError):
                    gal._bezout_pair(alpha, beta)
                continue
            gamma, delta = gal._bezout_pair(alpha, beta)
            assert (gamma, delta) == (-t, s)
            assert alpha * delta - beta * gamma == 1


def _reduction_oracle(F, sym) -> BinaryRationalMap:
    """``reduce_to_p1`` as it was: the reduced map built from
    RationalFunctions, each reduced by a gcd, then reduced once more."""
    Fn = sym.transformed
    field = Fn.field
    A, B = Fn.A, Fn.B
    x, y = (MultiPoly.variable(field, fol.AFFINE, v) for v in fol.AFFINE)
    z = MultiPoly.variable(field, ("z",), "z")
    if sym.normal_form == "weighted":
        alpha, beta = sym.weights
        _, s, t = _xgcd_oracle(alpha, beta)
        sub = {"x": gal._monomial_rf(field, -t), "y": gal._monomial_rf(field, s)}
        Az, Bz, Cz = (compose_poly(p, sub) for p in (A, B, y * A - x * B))
        ghat = (Az**alpha) * ((-Bz) ** (-beta)) * (Cz ** (beta - alpha))
    elif sym.normal_form == "shear":
        Qy = B.drop_vars(["x"]).exact_div(MultiPoly.variable(field, ("y",), "y"))
        P = A - x * Qy.with_vars(fol.AFFINE).permute_to(fol.AFFINE)
        Pz = P.drop_vars(["x"]).rename_vars({"y": "z"})
        ghat = RationalFunction(-Qy.rename_vars({"y": "z"}), Pz)
    else:
        Pw = gal._express_in_parabola(B)
        Qw = gal._express_in_parabola(A - y * gal._eval_w(Pw, field))
        Pz, Qz = (p.rename_vars({"w": "z"}) for p in (Pw, Qw))
        ghat = RationalFunction(Qz * Qz - z * Pz * Pz, Pz * Pz)
    return BinaryRationalMap.make(ghat.num, ghat.den)


SYMMETRIC = ["cyclic_cubic_qh23", "parabola_cubic_qh12", "halfchi_quartic", "convex_qh_34",
             "fermat_3", "fermat_4", "fermat_5", "dihedral_4", "dihedral_6",
             "tetrahedral_12", "octahedral_24", "icosahedral_60"]


@pytest.mark.parametrize("spec", SYMMETRIC + [
    (None, "(y^2+1) + x*y", "y*y"),  # shear, from test_reduction_shear_case
    (None, "y*(y^2-2*x)+1", "y^2-2*x"),  # parabolic, from test_parabolic_normal_form
])
def test_reduction_matches_the_rational_function_formula(spec):
    F = corpus.foliation(spec) if isinstance(spec, str) else fol.from_strings(*spec)
    syms = [s for s in gal.detect_symmetry(F) if s.normal_form is not None]
    assert syms
    for sym in syms:
        fmap = gal.reduce_to_p1(F, sym)
        oracle = _reduction_oracle(F, sym)
        assert (fmap.num, fmap.den) == (oracle.num, oracle.den)
        assert str(fmap) == str(oracle)


# -- decks -------------------------------------------------------------------------


def test_decks_power_cubic():
    F = corpus.foliation("fermat_3")
    v = gal.discriminant_square_test(F)
    decks = gal.deck_transformations(F, v)
    assert len(decks) == 3
    assert all(t.verified for t in decks)


def test_decks_closed_under_composition_numerically():
    F = corpus.foliation("fermat_3")
    v = gal.discriminant_square_test(F)
    decks = gal.deck_transformations(F, v)
    pt = {"x": 0.31 + 0.2j, "y": 1.17 - 0.4j}

    def apply(t, p):
        return {"x": t.tau_x.eval_complex(p), "y": t.tau_y.eval_complex(p)}

    images = [apply(t, pt) for t in decks]
    # every deck keeps the point on its fibre: G takes one value
    (a, b, c), (g1, g2) = F.gauss_map()
    base_val = (g1.eval_complex(pt), g2.eval_complex(pt))
    for img in images:
        assert abs(g1.eval_complex(img) - base_val[0]) < 1e-8
        assert abs(g2.eval_complex(img) - base_val[1]) < 1e-8
    # tau_i(tau_j(pt)) is tau_k(pt) for some deck tau_k
    for ti in decks:
        for img in images:
            comp = apply(ti, img)
            assert any(
                abs(comp["x"] - other["x"]) < 1e-8 and abs(comp["y"] - other["y"]) < 1e-8
                for other in images
            )


def test_verify_deck_rejects_tampered_decks():
    F = corpus.foliation("fermat_3")
    v = gal.discriminant_square_test(F)
    decks = gal.deck_transformations(F, v)
    for t in decks[1:]:
        assert gal.verify_deck(F, t)
        scaled = gal.DeckTransformation(t.tau_x * 2, t.tau_y * 2)
        swapped = gal.DeckTransformation(t.tau_y, t.tau_x)
        assert not gal.verify_deck(F, scaled)
        assert not gal.verify_deck(F, swapped)


def test_lifted_decks_satisfy_the_gauss_identity():
    # decks lifted from line decks are verified from the group's generators;
    # the bivariate identity must hold for each of them as well, and each
    # coordinate comes in lowest terms
    F = corpus.foliation("dihedral_4")
    decks = gal.deck_transformations(F, gal.verdict(F))
    assert len(decks) == 4
    for t in decks:
        assert gal.verify_deck(F, t)
        for coord in (t.tau_x, t.tau_y):
            assert gal.mpoly_gcd(coord.num, coord.den).is_constant()


def test_line_deck_checks_reject_matrices_outside_the_group():
    # one identity checks the table generators on the reduced line map and,
    # as the tests' oracle, the lifted decks on the unreduced slices
    F = corpus.foliation("dihedral_4")
    one, zero = Fraction(1), Fraction(0)
    A1, B1 = gal._restrict_homog(F.A, QQ), gal._restrict_homog(F.B, QQ)
    gmap = BinaryRationalMap.make(B1, A1)
    n = max(A1.total_degree(), B1.total_degree())

    def checks(m):
        return (gal._fixes_line_map(gmap.num, gmap.den, m, gmap.degree),
                gal._fixes_line_map(B1, A1, m, n))

    inside = [[[zero, one], [one, zero]], [[-one, zero], [zero, one]]]  # 1/z, -z
    for m in inside:
        assert checks(m) == (True, True)
    outside = [[2 * one, zero], [zero, one]]  # z -> 2z
    assert checks(outside) == (False, False)
    # a singular matrix is no Möbius map; both sides of the identity would
    # vanish for [[0, 0], [0, 0]]
    singular = [[zero, zero], [zero, zero]]
    with pytest.raises(ValueError):
        checks(singular)


def test_homogeneous_a_with_inhomogeneous_b_has_no_line_deck_lift():
    # A = xy is homogeneous, B = g y^2 + x^3 is not, and c_bar = 0; the
    # symmetry certificate is Galois, but there is no line map to lift
    F = corpus.foliation("cyclic_cubic_qh23")
    assert F.c_bar.is_zero() and F.A.is_homogeneous() and not F.is_homogeneous()
    v = gal.symmetry_verdict(F)
    assert v.is_galois and "klein" in v.certificate
    with pytest.raises(gal.UseAnotherMethod, match="no deck realization"):
        gal.deck_transformations(F, v)


def test_decks_tetrahedral_order_12():
    F = corpus.foliation("tetrahedral_12")
    v = gal.verdict(F)
    decks = gal.deck_transformations(F, v)
    assert len(decks) == 12
    assert all(t.verified for t in decks)


def test_decks_octahedral_order_24():
    F = corpus.foliation("octahedral_24")
    v = gal.verdict(F)
    decks = gal.deck_transformations(F, v)
    assert len(decks) == 24
    assert all(t.verified for t in decks)
    # some of these lifts have a linear factor to cancel from the denominator
    for t in decks:
        for coord in (t.tau_x, t.tau_y):
            assert gal.mpoly_gcd(coord.num, coord.den).is_constant()


@pytest.mark.parametrize(
    "spec, order",
    [
        (("g^2+1", "x^4", "y^4"), 4),
        (("g^2+1", "(x^2+y^2)^2", "(x^2-y^2)^2"), 4),
        (("g^2+3", "x^6", "y^6"), 6),
    ],
)
def test_decks_use_a_root_of_unity_already_in_the_base(spec, order, monkeypatch):
    # the root of unity the Möbius table needs lies in the base field, so no
    # layer is adjoined; any layer that is adjoined must be irreducible
    built = []
    original = numberfield.extend

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(numberfield, "extend", recording)
    F = fol.from_strings(*spec)
    decks = gal.deck_transformations(F, gal.verdict(F))
    assert len(decks) == order
    assert all(t.verified for t in decks)
    assert all(t.tau_x.num.field is F.field for t in decks)
    for layer in built:
        modulus = MultiPoly.from_dict(layer.base, ("T",), {
            (i,): c for i, c in enumerate(list(layer.min_poly) + [1])})
        assert [m for _, m in gal.factor_irreducible(modulus)] == [1]


def _line_deck_group(name):
    F = corpus.foliation(name)
    v = gal.verdict(F)
    K, group = gal._mobius_deck_group(F, v.certificate["klein"].klein)
    return F, v, K, group


@pytest.mark.parametrize("name", ["fermat_4", "fermat_5", "dihedral_4", "dihedral_6",
                                  "tetrahedral_12", "octahedral_24"])
def test_fixed_line_gcd_is_the_gcd_of_the_lift(name):
    # the lift cancels g = gcd(C, D) through the fixed lines of each group
    # element; the Euclidean gcd over the tower is the oracle
    F, _, K, group = _line_deck_group(name)
    A, B = F.A.to_field(K), F.B.to_field(K)
    x = MultiPoly.variable(K, fol.AFFINE, "x")
    y = MultiPoly.variable(K, fol.AFFINE, "y")
    C = A * y - B * x
    for m in group:
        W1, W0 = gal._mobius_forms(m, y, x)
        D = A * W1 - B * W0
        Cg, Dg = gal._cancel_common_lines(C, D, x * W1 - y * W0)
        g = C.exact_div(Cg)
        assert g.monic() == gal.mpoly_gcd(C, D)
        assert Dg * g == D


@pytest.mark.parametrize("name, order, step", [
    ("tetrahedral_12", 12, 1), ("octahedral_24", 24, 1), ("icosahedral_60", 60, 10)])
def test_decks_verified_from_generators_fix_the_unreduced_line_map(name, order, step):
    # lifts are verified from the table generators; the per-deck identity on
    # the unreduced slices, which is the Gauss-map identity of each lift, is
    # the oracle
    F, v, K, group = _line_deck_group(name)
    decks = gal.deck_transformations(F, v)
    assert len(decks) == len(group) == order
    assert all(t.verified for t in decks)
    A1, B1 = gal._restrict_homog(F.A, K), gal._restrict_homog(F.B, K)
    n = max(A1.total_degree(), B1.total_degree())
    for m in group[::step]:
        assert gal._fixes_line_map(B1, A1, m, n)


def test_generators_that_fail_the_reduced_identity_give_no_decks(monkeypatch):
    # 1/z fixes dihedral_4's line map but 2z does not, in any conjugate: the
    # generator set fails, and no deck is lifted from it
    F = corpus.foliation("dihedral_4")
    v = gal.verdict(F)

    def table(tag, d, base_field):
        one, zero = base_field.one(), base_field.zero()
        yield base_field, [[[zero, one], [one, zero]], [[2 * one, zero], [zero, one]]]

    monkeypatch.setattr(gal, "_mobius_generators", table)
    with pytest.raises(gal.UseAnotherMethod, match="conjugation search failed"):
        gal.deck_transformations(F, v)


def test_cyclotomic_coeffs_match_sympy():
    import sympy as sp

    z = sp.Symbol("z")
    for n in range(1, 31):
        coeffs = sp.Poly(sp.cyclotomic_poly(n, z), z).all_coeffs()
        assert gal._cyclotomic_coeffs(n) + [1] == [Fraction(int(c)) for c in reversed(coeffs)]


def test_cyclotomic_decks_load_no_sympy_combinatorics(run_python):
    # the dense cyclotomic kernel needs none of sympy's expression layer
    code = (
        "import sys\n"
        "from folgal import corpus\n"
        "from folgal.galois import deck_transformations, verdict\n"
        "F = corpus.foliation('fermat_4')\n"
        "assert len(deck_transformations(F, verdict(F))) == 4\n"
        "print([m for m in sys.modules if m.startswith('sympy.combinatorics')])\n"
    )
    assert run_python(code) == "[]"


# -- deformations ---------------------------------------------------------------------


def test_deformation_identity_recovers_input():
    F = corpus.foliation("fermat_3")
    u = parse_poly("x", QQ, ("x", "y"))
    v = parse_poly("y", QQ, ("x", "y"))
    Fd = gal.lr_deformation(F, u, v, ((1, 0, 0), (0, 1, 0)))
    assert Fd.A == F.A and Fd.B == F.B


def test_deformation_dependence_rejected():
    F = corpus.foliation("fermat_3")
    u = parse_poly("x", QQ, ("x", "y"))
    with pytest.raises(ValueError):
        gal.lr_deformation(F, u, u, ((1, 0, 0), (0, 1, 0)))
    v = parse_poly("y", QQ, ("x", "y"))
    with pytest.raises(ValueError):
        gal.lr_deformation(F, u, v, ((1, 0, 0), (2, 0, 0)))


def test_deformation_preserves_galois_cubic():
    rng = random.Random(77)
    for _ in range(10):
        F = corpus.random_deformation_member(rng, 3)
        v = gal.discriminant_square_test(F)
        assert v.is_galois


# -- tangent bound ------------------------------------------------------------------


def test_tangent_bound_cyclic_cubic():
    F = corpus.foliation("cyclic_cubic_qh23")
    assert gal.tangent_dim_bound_g3(F) == 9


def test_tangent_bound_power_cubic_frozen():
    # frozen regression: brute-force rank oracle (dual-number expansion with
    # sympy over the 24-dimensional coefficient space) gives rank 2
    F = corpus.foliation("fermat_3")
    assert gal.tangent_dim_bound_g3(F) == 21


def test_tangent_bound_rejects_non_galois():
    F = corpus.foliation("fermat_3_perturbed")
    with pytest.raises(ValueError):
        gal.tangent_dim_bound_g3(F)


# -- verdict cascade ---------------------------------------------------------------


def test_verdict_routes_agree_on_cubics():
    for name, expected in [
        ("cyclic_cubic_qh23", "galois"),
        ("parabola_cubic_qh12", "galois"),
        ("fermat_3_perturbed", "not_galois"),
    ]:
        F = corpus.foliation(name)
        res = analyze(F, numeric=False)
        assert res.status == expected, name
        statuses = {v.status for v in res.routes.values() if v.status != "inconclusive"}
        assert statuses == {expected}


@pytest.mark.parametrize("name, built_by_local", [("dihedral_6", True), ("halfchi_quartic", False)])
def test_analyze_builds_the_inflection_divisor_once(monkeypatch, name, built_by_local):
    # the module, not the function that folgal's namespace exports as analyze
    analyze_module = importlib.import_module("folgal.analyze")
    calls, local_reports = [], []

    def counted(F):
        calls.append(F)
        return fol.inflection_divisor(F)

    def kept(F):
        local_reports.append(gal.extremal_type_report(F))
        return local_reports[-1]

    monkeypatch.setattr(gal, "inflection_divisor", counted)
    monkeypatch.setattr(analyze_module, "inflection_divisor", counted)
    monkeypatch.setattr(analyze_module, "extremal_type_report", kept)
    res = analyze(corpus.foliation(name), numeric=False)
    assert len(calls) == 1 and len(local_reports) == 1
    assert (local_reports[0].inflection is not None) == built_by_local
    if built_by_local:
        assert res.inflection is local_reports[0].inflection
    assert res.inflection.total_degree == 3 * res.foliation.degree


def test_the_local_route_decides_without_factoring_the_divisor(monkeypatch):
    # the first three members of each degree of criterion 7's draw
    members = []
    rng = random.Random(20240813)
    for d in (3, 4, 5):
        drawn = []
        while len(drawn) < 5:
            F = corpus.random_deformation_member(rng, d)
            if F.degree == d:
                drawn.append(F)
        members += drawn[:3]

    def refuse(*args, **kwargs):
        raise AssertionError("the inflection divisor was factored")

    def outcome(res):
        routes = {k: v.status for k, v in res.routes.items()}
        return res.verdict.status, res.verdict.method, routes, res.branching, res.genus

    monkeypatch.setattr(fol, "factor_irreducible", refuse)
    results = [analyze(F, numeric=False) for F in members]
    monkeypatch.undo()
    for F, res in zip(members, results):
        assert outcome(res) == outcome(analyze(F, numeric=False))
        assert res.branching.entries == {(F.degree,): 2} and res.genus == 0
        echo = {"field": None, "A": str(F.A), "B": str(F.B)}
        rep = analysis_report(res, echo)["inflection"]
        assert rep["components"] and rep["total_degree"] == 3 * F.degree


def test_verdict_dihedral_even_family():
    F = corpus.foliation("dihedral_4")
    v = gal.verdict(F)
    assert v.is_galois and v.method == "symmetry_reduction"
    assert str(v.certificate["klein"].klein) == "Dihedral(2)"


def test_verdict_halfchi_quartic():
    F = corpus.foliation("halfchi_quartic")
    v = gal.verdict(F)
    assert v.status == "not_galois"


def test_branching_and_genus_cyclic_cubic():
    F = corpus.foliation("cyclic_cubic_qh23")
    res = analyze(F, numeric=False)
    assert str(res.branching) == "3(3)_1"
    assert res.genus == 1


def test_prime_degree_branching_needs_no_extremal_key():
    F = corpus.foliation("cyclic_cubic_qh23")
    v = gal.discriminant_square_test(F)
    assert v.is_galois and "extremal" not in v.certificate
    bw, genus = gal.branching_and_genus(F, v)
    assert (str(bw), genus) == ("3(3)_1", 1)


def test_branching_and_genus_parabola_cubic():
    F = corpus.foliation("parabola_cubic_qh12")
    res = analyze(F, numeric=False)
    assert str(res.branching) == "3(3)_1"
    assert res.genus == 1


def test_polar_genus_values():
    assert gal.generic_polar_genus(corpus.foliation("cyclic_cubic_qh23")) == 1
    assert gal.generic_polar_genus(corpus.foliation("fermat_3")) == 0
    assert gal.generic_polar_genus(corpus.foliation("convex_qh_34")) == 0


def _first_deformation_members():
    """The first criterion-7 member of each degree, drawn as the acceptance
    suite draws them."""
    rng = random.Random(20240813)
    members = []
    for d in (3, 4, 5):
        produced = 0
        while produced < 5:
            F = corpus.random_deformation_member(rng, d)
            if F.degree != d:
                continue
            if produced == 0:
                members.append(F)
            produced += 1
    return members


def _chart_polar_germ(F, base, point):
    """The polar through ``base`` restricted to the point's chart, moved into
    the point field and translated to the point."""
    pol = local.polar_curve(F, base)
    ph = pol.homogenize("z", F.degree + 1).with_vars(fol.PROJ).permute_to(fol.PROJ)
    u = MultiPoly.variable(F.field, fol.AFFINE, "x")
    v = MultiPoly.variable(F.field, fol.AFFINE, "y")
    chart = point.chart()
    images = {"z": (u, v, 1), "x": (1, u, v), "y": (u, 1, v)}[chart]
    restricted = fol._restrict(ph, images).to_field(point.point_field)
    return translate(restricted, *point.chart_coords(chart))


def test_jet_germs_equal_translated_chart_polars():
    # the pool builds each germ from the foliation's jet at the point; it must
    # be a nonzero multiple of the polar built the way the jet replaces
    foliations = [corpus.foliation(name) for name in corpus.FOLIATION_SPECS]
    charts = set()
    for F in [F for F in foliations if F.degree <= 8] + _first_deformation_members():
        pool = local._polar_pool(F)
        for k, sp in enumerate(pool.points):
            charts.add(sp.point.chart())
            for index in (0, 1):
                germ = pool.germ(index, k)
                reference = _chart_polar_germ(F, pool.bases[index], sp.point)
                assert germ.monic() == reference.monic(), (F, str(sp.point), index)
    assert charts == {"z", "x", "y"}


def test_one_analysis_draws_each_polar_once(monkeypatch):
    # the singularity table and the polar genus read the foliation's one pool
    bases = []
    polar_curve = local.polar_curve

    def counted(F, base):
        bases.append(base)
        return polar_curve(F, base)

    monkeypatch.setattr(local, "polar_curve", counted)
    res = analyze(_first_deformation_members()[0], numeric=False)
    assert res.genus == 0 and res.invariants
    assert len(bases) == len(set(bases)) > 0


def test_generic_polar_is_smooth_off_the_singular_locus():
    # the Bertini step of generic_polar_genus, checked exactly in the affine
    # chart: every singular point of the polar it starts from is a zero of
    # both A and B
    foliations = [corpus.foliation(n) for n in (
        "fermat_3", "cyclic_cubic_qh23", "parabola_cubic_qh12", "convex_qh_34",
        "halfchi_quartic")]
    checked = 0
    for F in foliations + _first_deformation_members():
        pool = local._polar_pool(F)
        P = next(pool.polar(i) for i in range(12)
                 if len(factor_irreducible(pool.polar(i))) == 1)
        for pt in common_zeros(P.derivative("x"), P.derivative("y")):
            at = dict(zip(("x", "y"), pt.xy))
            if P.to_field(pt.point_field).eval_field(at):
                continue
            checked += 1
            for part in (F.A, F.B):
                assert not part.to_field(pt.point_field).eval_field(at), (F, pt.xy)
    assert checked >= 7  # all but parabola_cubic_qh12 have an affine singular point


@pytest.mark.parametrize("name", ["hessian_pencil_4", "fermat_3_perturbed"])
def test_polar_genus_with_simple_singular_points_is_arithmetic(name):
    # a singular point of multiplicity 1 has an invertible linear part, so
    # the polar's gradient does not vanish there: the polar is smooth and its
    # genus is that of a smooth curve of degree d + 1
    F = corpus.foliation(name)
    assert all(sp.multiplicity == 1 for sp in fol.singular_locus(F))
    d = F.degree
    assert gal.generic_polar_genus(F) == d * (d - 1) // 2


@pytest.mark.parametrize("name", ["dihedral_4", "dihedral_6", "octahedral_24"])
def test_polar_genus_of_homogeneous_galois_foliations_is_zero(name):
    # a homogeneous Galois foliation is the pull-back of its line map, and
    # its polar is parametrised by the source line of that map
    genus = gal.generic_polar_genus(corpus.foliation(name))
    assert genus == 0
    assert analyze(corpus.foliation(name), numeric=False).genus == genus


@pytest.mark.parametrize("name, entries", [
    ("fermat_3", {(3,): 2}),
    ("fermat_4", {(4,): 2}),
    ("fermat_5", {(5,): 2}),
    ("dihedral_4", {(2, 2): 3}),
    ("dihedral_6", {(2, 2, 2): 2, (3, 3): 1}),
    ("tetrahedral_12", {(2,) * 6: 1, (3,) * 4: 2}),
    ("octahedral_24", {(2,) * 12: 1, (3,) * 8: 1, (4,) * 6: 1}),
    ("icosahedral_60", {(2,) * 30: 1, (3,) * 20: 1, (5,) * 12: 1}),
])
def test_homogeneous_galois_branching_is_the_line_map_branching(name, entries, monkeypatch):
    # the polar over the pencil through a generic point is the line map, so
    # the polar genus is not needed, and above degree 8 (no local route)
    # neither is the singular locus
    def unused(*args, **kwargs):
        raise AssertionError("the line map gives the branching")

    def general_path(*args, **kwargs):
        raise AssertionError("the Euler field reduces in closed form")

    monkeypatch.setattr(gal, "generic_polar_genus", unused)
    monkeypatch.setattr(gal, "detect_symmetry", general_path)
    # one classify of phi, read by the symmetry route and the branching
    classified = []

    def counted(fmap):
        classified.append(fmap)
        return classify(fmap)

    monkeypatch.setattr(gal, "classify", counted)
    F = corpus.foliation(name)
    assert F.is_homogeneous()
    res = analyze(F, numeric=False)
    assert len(classified) == 1
    assert res.status == "galois"
    assert res.branching.degree == F.degree
    assert res.branching.entries == entries
    assert res.genus == 0
    assert (F._singular_locus is None) == (F.degree > 8)


@pytest.mark.parametrize("name", ["fermat_3", "fermat_4", "fermat_5", "dihedral_4",
                                  "dihedral_6", "tetrahedral_12", "octahedral_24",
                                  "icosahedral_60"])
def test_symmetry_reduction_of_a_homogeneous_foliation_is_minus_one_over_the_line_map(name):
    # the reduced map of the radial symmetry is the Möbius image -1/phi of
    # the line map phi, so both routes see the same Klein class
    F = corpus.foliation(name)
    sym = gal.symmetry_verdict(F)
    assert sym.is_galois
    red = sym.certificate["reduction"]
    phi = gal.line_map(F.A, F.B, F.field)
    assert red.num * phi.num == -(red.den * phi.den)


HOMOGENEOUS = ["fermat_3", "fermat_4", "fermat_5", "dihedral_4", "dihedral_6",
               "tetrahedral_12", "octahedral_24", "icosahedral_60"]


@pytest.mark.parametrize("name", HOMOGENEOUS)
def test_euler_certificate_matches_the_general_symmetry_route(name):
    # the closed form must be what detection, the first normal form, the
    # reduction along it and its classification give
    F = corpus.foliation(name)
    cert = gal.symmetry_verdict(F).certificate
    sym = next(s for s in gal.detect_symmetry(F) if s.normal_form is not None)
    fmap = gal.reduce_to_p1(F, sym)
    outcome = classify(fmap)
    euler = cert["symmetry"]
    assert euler.transformed is sym.transformed is F
    for key in ("coeffs", "epsilon", "epsilon_normalized", "weights",
                "normal_form", "chart_change"):
        assert getattr(euler, key) == getattr(sym, key), key
    red = cert["reduction"]
    assert (red.num, red.den) == (fmap.num, fmap.den)
    assert red.field is F.field
    assert cert["klein"].klein == outcome.klein
    assert cert["klein"].branching == outcome.branching
    assert cert["klein"].genus == outcome.genus


@pytest.mark.parametrize("name", ["cyclic_cubic_qh23", "parabola_cubic_qh12",
                                  "halfchi_quartic", "convex_qh_34"])
def test_diagonal_eigenvalues_are_the_char_poly_roots(name):
    F = corpus.foliation(name)
    diagonal = 0
    for sym in gal.detect_symmetry(F):
        M = gal._matrix_from_coords(sym.coeffs)
        if any(M[i][j] for i in range(3) for j in range(3) if i != j):
            continue
        diagonal += 1
        roots = gal._char_poly_roots(F.field, M)
        assert Counter(roots) == Counter(M[i][i] for i in range(3))
    assert diagonal


def test_identity_chart_change_returns_the_foliation():
    F = corpus.foliation("cyclic_cubic_qh23")
    one, zero = F.field.one(), F.field.zero()
    identity = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert gal.transform_foliation(F, identity) is F
    swapped = gal.transform_foliation(F, [identity[1], identity[0], identity[2]])
    assert swapped is not F
    swap = {"x": MultiPoly.variable(F.field, fol.AFFINE, "y"),
            "y": MultiPoly.variable(F.field, fol.AFFINE, "x")}
    # x <-> y exchanges the two components of the field; the swap's
    # determinant -1 comes through the pulled-back 1-form as a sign
    expected = fol.from_vector_field(-F.B.substitute(swap), -F.A.substitute(swap))
    assert (swapped.A, swapped.B) == (expected.A, expected.B)


@pytest.mark.parametrize(
    "a, b, branching, genus",
    [
        ("x^2", "y", "2(2)_1", 0),  # line map z, of degree 1
        # line map 1/z^2 has degree 2, yet the polar through q is the smooth
        # cubic y^3 - x^2 z - q2 y^2 z + q1 x z^2
        ("y^2", "x", "4(2)_1", 1),
    ],
)
def test_homogeneous_fields_of_unequal_degrees_keep_the_extremal_rule(a, b, branching, genus):
    # A and B homogeneous of different degrees: the direction turns along
    # each line through the origin, so the line map says nothing about the
    # polars and the degree-2 extremal rule gives the branching
    F = fol.from_strings(None, a, b)
    assert F.c_bar.is_zero() and F.degree == 2 and not F.is_homogeneous()
    res = analyze(F, numeric=False)
    assert str(res.branching) == branching
    assert res.genus == gal.generic_polar_genus(F) == genus


def test_non_galois_line_map_under_a_galois_verdict_is_a_disagreement():
    F = fol.from_strings(None, "x^3", "y^3+x*y^2")
    assert F.is_homogeneous() and F.degree == 3
    claimed = gal.GaloisVerdict("galois", "symmetry_reduction", 3, {})
    with pytest.raises(AssertionError, match="routes disagree"):
        gal.branching_and_genus(F, claimed)


def test_one_analysis_solves_the_singular_locus_once(monkeypatch):
    # the singularity table and the polar genus share the locus kept on F
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return common_zeros(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("folgal") and getattr(module, "common_zeros", None) is common_zeros:
            monkeypatch.setattr(module, "common_zeros", counted)
    for F, fresh in zip(_first_deformation_members(), _first_deformation_members()):
        calls.clear()
        res = analyze(F, numeric=False)
        assert res.genus == 0 and res.branching is not None
        in_analysis = len(calls)
        calls.clear()
        assert fol.singular_locus(fresh)
        assert in_analysis == len(calls) > 0
        calls.clear()
        assert fol.singular_locus(F) is fol.singular_locus(F)
        assert not calls


# -- genus of the generic polar --------------------------------------------------------


def test_polar_genus_proves_irreducible_polars_without_factoring(monkeypatch):
    # the pool's polars of a criterion-7 member are irreducible, and their
    # images on lines mod small primes prove it: no polar is factored
    from folgal import polyops

    F = corpus.random_deformation_member(random.Random(4), 4)
    assert F.degree == 4
    inside, factored = [], []
    real_genus = gal.generic_polar_genus

    def genus(G):
        inside.append(G)
        try:
            return real_genus(G)
        finally:
            inside.remove(G)

    def counted(p):
        if inside:
            factored.append(p)
        return factor_irreducible(p)

    monkeypatch.setattr(gal, "generic_polar_genus", genus)
    monkeypatch.setattr(gal, "factor_irreducible", counted)
    monkeypatch.setattr(polyops, "factor_irreducible", counted)
    result = analyze(F)
    assert result.genus == 0
    assert F._polar_pool is not None and F._polar_pool.polars
    assert not factored
