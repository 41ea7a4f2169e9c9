"""Acceptance criteria, one test per criterion, each timed against its
budget and printing one PASS/FAIL line.

Run standalone with:  pytest -s tests/test_acceptance.py
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from folgal import corpus
from folgal import foliation as fol
from folgal import galois as gal
from folgal import local as loc
from folgal import monodromy as mon
from folgal.analyze import analyze
from folgal.klein1d import classify
from folgal.numberfield import QQ
from folgal.parsing import parse_poly

@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number:>2} {status} ({elapsed:6.2f}s <= {budget_seconds}s): {description}")
        if not failed:
            assert elapsed <= budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
            )


def test_criterion_1_cyclic_cubic_reproduction():
    with criterion(1, "degree-3 cyclic example: discriminant, verdict, b^w, genus", 10):
        F = corpus.foliation("cyclic_cubic_qh23")
        res = analyze(F, numeric=False)
        v = res.routes["discriminant_square"]
        expected = parse_poly(
            "-g*x^2*y^2*(y^2-x^3)^2*((g-1)*y^2+x^3)^2", F.field, ("x", "y")
        )
        ratio = v.certificate["discriminant"].exact_div(expected)
        assert ratio.is_constant()  # equality up to a (square) constant; here 1
        assert ratio.constant_value() == F.field.one()
        assert res.status == "galois"
        assert res.symmetry is not None
        assert str(res.symmetry.klein.klein) == "Cyclic(3)"
        assert str(res.branching) == "3(3)_1"
        assert res.genus == 1


def test_criterion_2_parabola_cubic_reproduction():
    with criterion(2, "degree-3 parabola example: I_tr, chi table, sufficiency", 10):
        F = corpus.foliation("parabola_cubic_qh12")
        rep = gal.extremal_type_report(F)
        assert rep.sufficient and rep.verdict.is_galois
        assert all(inv.chi == 1 for inv in rep.invariants)
        assert len(rep.invariants) == 2
        inflection = fol.inflection_divisor(F)
        trans = inflection.transverse()
        assert sorted(str(c.affine) for c in trans) == ["x", "x^2 + 3/2*y"]
        assert all(c.multiplicity == 2 for c in trans)  # I_tr = x^2 (3y+2x^2)^2
        res = analyze(F, numeric=False)
        assert str(res.branching) == "3(3)_1"
        assert res.genus == 1


def test_criterion_3_halfchi_quartic():
    with criterion(3, "degree-4 example: beta=2, nu=tau=3, chi=3/2, not Galois", 10):
        F = corpus.foliation("halfchi_quartic")
        invs = loc.classify_singularities(F)
        origin = [i for i in invs if str(i.point) == "[0, 0, 1]"][0]
        assert (origin.nu, origin.tau, origin.beta) == (3, 3, 2)
        assert origin.chi == Fraction(3, 2)
        v = gal.verdict(F)
        assert v.status == "not_galois"


def test_criterion_4_klein_table():
    with criterion(4, "Klein table rows: b^w columns exact, genus 0", 300):
        expected = {
            "power_3": {(3,): 2},
            "power_5": {(5,): 2},
            "power_7": {(7,): 2},
            "dihedral_2": {(2, 2): 3},
            "dihedral_3": {(2, 2, 2): 2, (3, 3): 1},
            "dihedral_4": {(2, 2, 2, 2): 2, (4, 4): 1},
            "tetrahedral": {(2,) * 6: 1, (3,) * 4: 2},
            "octahedral": {(2,) * 12: 1, (3,) * 8: 1, (4,) * 6: 1},
            "icosahedral": {(2,) * 30: 1, (3,) * 20: 1, (5,) * 12: 1},
        }
        tags = {
            "power_3": "Cyclic(3)",
            "power_5": "Cyclic(5)",
            "power_7": "Cyclic(7)",
            "dihedral_2": "Dihedral(2)",
            "dihedral_3": "Dihedral(3)",
            "dihedral_4": "Dihedral(4)",
            "tetrahedral": "Tetrahedral",
            "octahedral": "Octahedral",
            "icosahedral": "Icosahedral",
        }
        for name, entries in expected.items():
            out = classify(corpus.line_map(name))
            assert str(out.klein) == tags[name], name
            assert out.branching.entries == entries, name
            assert out.genus == 0, name


def test_criterion_5_homogeneous_families():
    with criterion(5, "homogeneous families: cyclic/dihedral/tetra/octahedral", 300):
        plan = [
            ("fermat_3", "Cyclic(3)"),
            ("fermat_4", "Cyclic(4)"),
            ("fermat_5", "Cyclic(5)"),
            ("dihedral_4", "Dihedral(2)"),
            ("dihedral_6", "Dihedral(3)"),
            ("tetrahedral_12", "Tetrahedral"),
            ("octahedral_24", "Octahedral"),
        ]
        for name, tag in plan:
            F = corpus.foliation(name)
            res = analyze(F, numeric=False)
            assert res.status == "galois", name
            assert res.symmetry is not None, name
            assert str(res.symmetry.klein.klein) == tag, (name, tag)


def test_criterion_5_extended_icosahedral():
    with criterion("5x", "degree-60 homogeneous family: icosahedral", 600):
        F = corpus.foliation("icosahedral_60")
        v = gal.verdict(F)
        assert v.is_galois
        assert str(v.certificate["klein"].klein) == "Icosahedral"


def test_criterion_6_convex_family_not_galois():
    with criterion(6, "convex counterexamples: perturbed power, pencil, modular", 90):
        for name in ("fermat_3_perturbed", "hessian_pencil_4", "modular_quintic"):
            start = time.perf_counter()
            F = corpus.foliation(name)
            v = gal.verdict(F)
            elapsed = time.perf_counter() - start
            assert v.status == "not_galois", name
            assert elapsed < 30, (name, elapsed)


def test_criterion_7_deformation_family():
    with criterion(7, "deformation family: 5 random members at d = 3, 4, 5", 450):
        rng = random.Random(20240813)
        for d in (3, 4, 5):
            produced = 0
            while produced < 5:
                F = corpus.random_deformation_member(rng, d)
                if F.degree != d:
                    continue  # degenerate draw; agreement with the family needs degree d
                start = time.perf_counter()
                res = analyze(F, numeric=False)
                elapsed = time.perf_counter() - start
                assert res.status == "galois", (d, produced)
                assert res.branching is not None and res.branching.entries == {(d,): 2}
                assert res.genus == 0
                assert elapsed < 30, (d, elapsed)
                produced += 1


def test_criterion_8_tangent_bound():
    with criterion(8, "tangent-space bound 9 at the cyclic cubic", 60):
        F = corpus.foliation("cyclic_cubic_qh23")
        assert gal.tangent_dim_bound_g3(F) == 9


def test_criterion_9_numeric_cross_checks():
    with criterion(9, "numeric monodromy orders and genus match certificates", 360):
        # order 3 for the degree-3 power field
        start = time.perf_counter()
        r = mon.cross_check(corpus.foliation("fermat_3"), seed=5)
        assert r.group_order == 3 and r.galois_flag
        assert time.perf_counter() - start < 60
        # the degree-4 counterexample: order > 4, divisible by 4
        start = time.perf_counter()
        r = mon.monodromy_of_foliation(corpus.foliation("halfchi_quartic"), seed=5)
        assert r.group_order > 4 and r.group_order % 4 == 0
        assert time.perf_counter() - start < 60
        # every certified Galois corpus entry: order == degree, genus matches
        certified = [
            ("cyclic_cubic_qh23", 1),
            ("parabola_cubic_qh12", 1),
            ("fermat_3", 0),
            ("convex_qh_34", 0),
        ]
        for name, genus in certified:
            start = time.perf_counter()
            F = corpus.foliation(name)
            r = mon.cross_check(F, seed=7)  # two independent base points agree
            assert r.group_order == F.degree, name
            assert r.numeric_genus == genus, name
            assert time.perf_counter() - start < 60, name


def test_criterion_10_property_suites():
    with criterion(10, "cross-cutting property suites", 240):
        rng = random.Random(42)
        # Riemann-Hurwitz consistency on every classified map of the table
        for name in ("power_3", "dihedral_3", "tetrahedral", "cusp_cubic"):
            out = classify(corpus.line_map(name))
            assert 2 - 2 * out.genus == 2 * corpus.line_map(name).degree - out.branching.size()
        # inflection degree 3d on random nondegenerate foliations
        from folgal.multipoly import MultiPoly

        produced = 0
        while produced < 20:
            d = rng.randint(1, 3)
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
            try:
                F = fol.from_vector_field(
                    MultiPoly.from_dict(QQ, ("x", "y"), terms_a),
                    MultiPoly.from_dict(QQ, ("x", "y"), terms_b),
                    QQ,
                )
                rep = fol.inflection_divisor(F)
            except (fol.DegenerateFoliationError, RuntimeError):
                continue
            if rep.every_point_inflectional:
                continue
            assert rep.total_degree == 3 * F.degree
            produced += 1
        # algebra invariants on randomized instances
        from folgal.polyops import is_square_over_closure, mpoly_gcd, resultant

        for _ in range(25):
            pa = {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
                for _ in range(4)
            }
            pb = {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
                for _ in range(4)
            }
            p = MultiPoly.from_dict(QQ, ("x", "y"), pa)
            q = MultiPoly.from_dict(QQ, ("x", "y"), pb)
            if p.is_zero() or q.is_zero():
                continue
            g = mpoly_gcd(p, q)
            assert g.divides(p) and g.divides(q)
            assert mpoly_gcd(p.exact_div(g), q.exact_div(g)).is_constant()
            ok, root, unit = is_square_over_closure(p * p)
            assert ok and (root * root).scale(unit) == p * p
            if p.degree_in("x") > 0 and q.degree_in("x") > 0:
                r = resultant(p, q, "x")
                assert r.is_zero() == (mpoly_gcd(p, q).degree_in("x") > 0)
        # every emitted deck transformation verifies against the Gauss map
        F = corpus.foliation("fermat_3")
        v = gal.discriminant_square_test(F)
        decks = gal.deck_transformations(F, v)
        assert all(t.verified for t in decks)
        for t in decks:
            assert gal.verify_deck(F, t)
