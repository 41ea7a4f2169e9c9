import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_resultant

from folgal import solve2d
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ, coordinates, extend
from folgal.parsing import parse_min_poly, parse_poly
from folgal.polyops import mpoly_gcd, resultant
from folgal.solve2d import axis_points, common_zeros
from folgal.sympy_bridge import from_dense, lift


def poly(text, field=QQ):
    return parse_poly(text, field, ("x", "y"))


def total(points):
    return sum(p.multiplicity * p.class_size for p in points)


def test_single_fat_point():
    pts = common_zeros(poly("x^3"), poly("y^3"))
    assert len(pts) == 1
    assert pts[0].multiplicity == 9
    assert pts[0].xy == (Fraction(0), Fraction(0))


def test_transverse_conic_line():
    pts = common_zeros(poly("x^2 + y^2 - 1"), poly("y - x"))
    assert total(pts) == 2
    for p in pts:
        # both coordinates satisfy 2 t^2 = 1
        x0, y0 = p.xy
        assert x0 == y0


def test_conjugate_points_share_abscissa():
    # x = 0, y^2 + 1 = 0 forces a shear before points separate
    pts = common_zeros(poly("x"), poly("y^2 + 1"))
    assert total(pts) == 2
    assert len(pts) == 1 and pts[0].class_size == 2
    x0, y0 = pts[0].xy
    assert not x0  # back in original coordinates x = 0
    assert y0 * y0 == pts[0].point_field.coerce(-1)


def test_tangency_multiplicity():
    pts = common_zeros(poly("y"), poly("y - x^2"))
    assert len(pts) == 1
    assert pts[0].multiplicity == 2


def test_over_extension_field():
    K = extend(QQ, "g", parse_min_poly("g^2-g+1", "g"))
    pts = common_zeros(poly("x*y", K), poly("g*y^2 + x^3", K))
    assert len(pts) == 1 and pts[0].multiplicity == 5


def test_rejects_shared_factor():
    with pytest.raises(ValueError):
        common_zeros(poly("x*y"), poly("x*(y-1)"))


def test_bezout_totals():
    # two generic conics meet in four points
    pts = common_zeros(
        poly("x^2 + y^2 - 5"), poly("x^2 - y + 1")
    )
    assert total(pts) == 4


# -- fibres: exact common zeros that account for the whole eliminant ----------


def random_regular(rng, degree):
    """Product of random factors of degree 1 or 2, each with a ``y^d`` term,
    so the product is regular in ``y``."""
    acc = poly("1")
    while degree:
        d = min(degree, rng.choice([1, 2]))
        terms = {}
        for _ in range(3):
            i = rng.randint(0, d)
            e = (i, rng.randint(0, d - i))
            terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
        terms[(0, d)] = rng.choice([1, -1, 2])
        acc = acc * MultiPoly.from_dict(QQ, ("x", "y"), terms)
        degree -= d
    return acc


def assert_points_account_for_eliminant(F, G):
    """At the first shear that separates the points, every point is a common
    zero of ``F`` and ``G`` in its point field, and the points' multiplicities
    times class sizes add up to the degree of the sheared eliminant."""
    x, y = (MultiPoly.variable(QQ, F.vars, v) for v in F.vars)
    for lam in solve2d._SHEARS:
        try:
            points = solve2d._common_zeros_sheared(F, G, lam)
        except solve2d.ShearFailure:
            continue
        for p in points:
            at = dict(zip(F.vars, p.xy))
            assert not any(P.to_field(p.point_field).eval_field(at) for P in (F, G))
        Fs, Gs = (P.substitute({"x": x + y.scale(lam)}) for P in (F, G))
        assert total(points) == resultant(Fs, Gs, "y").degree_in("x")
        return points
    raise AssertionError("no shear separates the points")


def test_fibre_points_are_exact_zeros_on_random_pairs():
    rng = random.Random(20261018)
    checked = 0
    while checked < 12:
        F = random_regular(rng, rng.randint(2, 6))
        G = random_regular(rng, rng.randint(2, 6))
        if not mpoly_gcd(F, G).is_constant():
            continue
        assert_points_account_for_eliminant(F, G)
        checked += 1


@pytest.mark.parametrize(
    "f, g, j, mult",
    [
        # tangential fibre: the gcd over x = 0 is y^2, below both degrees in y
        ("y^2*(y^3 + y - 1) + x*(y^2 - 2*x*y + 2)", "y^2*(y^2 + 1) + x*(-y + 2*x + 2)", 2, 2),
        # defective chain: degrees 6, 5 in y; the gcd over x = 0 is y^3, and
        # the subresultant S_4 has degree 3
        ("y^3*(y^3 - y - 1) + x*(-y^2 + x*y - 1)", "y^3*(y^2 - 1) + x*(2*y - 1)", 3, 4),
    ],
)
def test_chain_fibre_degree_and_point(f, g, j, mult):
    F, G = poly(f), poly(g)
    at_zero = {"x": poly("0")}
    assert mpoly_gcd(F.substitute(at_zero), G.substitute(at_zero)) == poly(f"y^{j}")
    points = assert_points_account_for_eliminant(F, G)
    assert (1, mult, (0, 0)) in [(p.class_size, p.multiplicity, p.xy) for p in points]


def test_chain_resultant_matches_dmp_resultant():
    # sympy's dmp_resultant with the higher degree first, and Sylvester's sign
    # put back by hand
    rng = random.Random(7)
    for _ in range(20):
        p, q = (random_regular(rng, rng.randint(1, 5)) for _ in range(2))
        dp, dq = p.degree_in("y"), q.degree_in("y")
        (a, f), (b, g) = (lift(P, ["y", "x"]) for P in (p, q))
        hi, lo = (g, f) if dp < dq else (f, g)
        direct = from_dense(dmp_resultant(hi, lo, 1, ZZ), ["x"], p)
        sign = (-1) ** (dp * dq) if dp < dq else 1
        assert resultant(p, q, "y") == direct.scale(Fraction(sign, a**dq * b**dp))
    y = parse_poly("y", QQ, ("y",))
    assert resultant(y + 2, y**5 + 1, "y") == -31
    assert resultant(y**5 + 1, y + 2, "y") == 31


# -- points on the axis y = 0 against the full zero set -------------------------

K5 = extend(QQ, "s", parse_min_poly("s^2-5", "s"))
# factors of F(x, 0) and G(x, 0): roots over Q, over Q(sqrt 2), over Q(zeta 3),
# a double root, and sqrt 5 (in K5, but not over Q)
AXIS_FACTORS = ("x", "x - 1", "x^2 - 2", "x^2 + x + 1", "(x - 1)^2", "x^2 - 5")


def axis_view(points):
    """Point-field degree, class size, multiplicity, the generator's minimal
    polynomial and the coordinates of each point, all as rationals."""
    out = []
    for p in points:
        K = p.point_field
        min_poly = [v for c in getattr(K, "min_poly", ()) for v in coordinates(c)]
        out.append((math.prod(layer.degree for layer in K.chain()), p.class_size,
                    p.multiplicity, min_poly, [coordinates(v) for v in p.xy]))
    return out


def assert_axis_matches_full(F, G):
    full = [p for p in common_zeros(F, G) if not p.xy[1]]
    assert axis_view(axis_points(F, G)) == axis_view(full)


@st.composite
def axis_pairs(draw):
    """``F = h a + y P`` and ``G = h b + y Q``: ``h`` divides both restrictions
    to the axis, so the pair has points there."""
    field = draw(st.sampled_from([QQ, K5]))
    coeff = st.sampled_from(["0", "1", "-1", "2"] + (["s", "1-s"] if field is K5 else []))

    def small(monomials):
        return poly(" + ".join(f"({draw(coeff)})*{m}" for m in monomials), field)

    h = poly(draw(st.sampled_from(AXIS_FACTORS)), field)
    F = h * small(["1", "x"]) + poly("y", field) * small(["1", "x", "y", "x*y", "y^2"])
    G = h * small(["1", "x"]) + poly("y", field) * small(["1", "x", "y", "x^2", "y^2"])
    assume(not F.is_zero() and not G.is_zero() and mpoly_gcd(F, G).is_constant())
    return F, G


@given(axis_pairs())
# a tangency: multiplicity 2 at the origin
@example((poly("y - x^2"), poly("y")))
# two conjugate points over Q(sqrt 2), and one over Q(sqrt 5) in K5
@example((poly("x^2 - 2 + y^2"), poly("x^2 - 2 + x*y")))
@example((poly("x^2 - 5 + x*y", K5), poly("y^2 + s*y + x^2 - 5", K5)))
# the fibre over x = 0 holds (0, 0) and (0, 1), so the first shear of the
# full zero set fails
@example((poly("y^2 - y + x"), poly("y^2 - y + x^2")))
@settings(max_examples=25, deadline=None)
def test_axis_points_match_the_axis_part_of_the_full_zero_set(pair):
    assert_axis_matches_full(*pair)


def test_axis_points_beside_a_second_point_in_the_fibre():
    # (0, 1) shares the abscissa of the axis point (0, 0)
    (pt,) = axis_points(poly("y^2 - y + x"), poly("y^2 - y + x^2"))
    assert pt.xy == (0, 0) and pt.multiplicity == 1


def test_axis_points_without_axis_points_is_empty():
    assert axis_points(poly("x^2 + y^2 - 1"), poly("y - 1/2")) == []


# -- intersection numbers at the origin against the eliminant ---------------------


def eliminant_multiplicity_at_origin(F, G):
    """The multiplicity that ``common_zeros`` reads off the sheared
    eliminant for the point (0, 0)."""
    (pt,) = [p for p in common_zeros(F, G) if not any(p.xy)]
    return pt.multiplicity


@st.composite
def origin_pairs(draw):
    """``F = y a + x^k b`` and ``G = y c + x^l e`` with small ``a, b, c, e``:
    both vanish at the origin, and ``a = c = 1``, ``b = -1``, ``e = 0`` plants
    ``y - x^k`` against ``y``.  Over K5 the degrees stay lower, as the
    eliminant is factored by norms there."""
    field = draw(st.sampled_from([QQ, K5]))
    coeff = st.sampled_from(["0", "1", "-1", "2"] + (["s", "1-s"] if field is K5 else []))

    def small():
        return poly(" + ".join(f"({draw(coeff)})*{m}" for m in ["1", "x", "y"]), field)

    top = 4 if field is QQ else 2
    k, l = draw(st.integers(1, top)), draw(st.integers(1, top))
    F = poly("y", field) * small() + poly(f"x^{k}", field) * small()
    G = poly("y", field) * small() + poly(f"x^{l}", field) * small()
    assume(not F.is_zero() and not G.is_zero() and mpoly_gcd(F, G).is_constant())
    return F, G


@given(origin_pairs())
# I = k > m n = 1: the jets double from N = 2 up to the Bezout bound 5
@example((poly("y - x^5"), poly("y")))
# cusp against its tangent line: cones y^2 and y share a line, I = 3
@example((poly("y^2 - x^3"), poly("y")))
# (x^2 - 5)^2 against y, translated to the point (sqrt 5, 0) over Q(sqrt 5)
@example(tuple(solve2d.translate(poly(f, K5), K5.gen(), 0)
               for f in ("y - (x^2 - 5)^2", "y + x*y - 3*(x^2 - 5)^2")))
@settings(max_examples=40, deadline=None)
def test_intersection_number_is_the_eliminant_valuation(pair):
    assert solve2d.intersection_number(*pair) == eliminant_multiplicity_at_origin(*pair)


@pytest.mark.parametrize("k", range(1, 8))
def test_intersection_number_of_a_planted_contact(k):
    assert solve2d.intersection_number(poly(f"y - x^{k}"), poly("y")) == k
    assert solve2d.intersection_number(poly("y"), poly(f"y - x^{k}")) == k


def test_intersection_number_off_the_origin_is_zero():
    assert solve2d.intersection_number(poly("y - 1"), poly("x")) == 0


def test_intersection_number_rejects_a_shared_component():
    with pytest.raises(ValueError):
        solve2d.intersection_number(poly("y*(y - x^2)"), poly("y*(x - 1)"))


def _eliminant_zeros(F, G):
    """The zeros from the sheared eliminant alone, as (xy, multiplicity, class)."""
    for lam in solve2d._SHEARS:
        try:
            points = solve2d._common_zeros_sheared(F, G, lam)
        except solve2d.ShearFailure:
            continue
        return [(p.xy, p.multiplicity, p.class_size) for p in points]


@pytest.mark.parametrize("name", ["fermat_3", "fermat_5", "dihedral_4", "dihedral_6",
                                  "tetrahedral_12"])
def test_coprime_forms_meet_only_at_the_origin(name):
    from folgal import corpus

    F = corpus.foliation(name)
    assert F.A.is_homogeneous() and F.B.is_homogeneous()
    (point,) = common_zeros(F.A, F.B)
    assert point.point_field is F.field and point.class_size == 1
    assert point.xy == (0, 0)
    assert point.multiplicity == F.A.total_degree() * F.B.total_degree()
    assert _eliminant_zeros(F.A, F.B) == [(point.xy, point.multiplicity, 1)]


def test_a_nonzero_constant_form_has_no_zero():
    assert common_zeros(poly("3"), poly("x^2 + y^2")) == []
    assert common_zeros(poly("x*y"), poly("-1")) == []
