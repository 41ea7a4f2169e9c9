import random
from fractions import Fraction

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_resultant

from folgal import solve2d
from folgal.multipoly import MultiPoly
from folgal.numberfield import QQ, extend
from folgal.parsing import parse_min_poly, parse_poly
from folgal.polyops import _dense_zz, mpoly_gcd, resultant
from folgal.solve2d import common_zeros
from folgal.sympy_bridge import factor_irreducible, from_dense, to_dense


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


# -- fibres from the subresultant chain against the Euclidean route ------------


def _key(v):
    return v if isinstance(v, Fraction) else v.rep


def chain_points(F, G, lam):
    try:
        pts = solve2d._common_zeros_sheared(F, G, lam)
    except solve2d.ShearFailure:
        return None
    return [
        (p.class_size, p.multiplicity, getattr(p.point_field, "min_poly", None),
         _key(p.xy[0]), _key(p.xy[1]))
        for p in pts
    ]


def euclid_points(F, G, lam):
    """The Euclidean route as the oracle: eliminant factors from the resultant,
    and the fibre over each root from a gcd over ``Q(xi)``."""
    x, y = (MultiPoly.variable(QQ, F.vars, v) for v in F.vars)
    Fs, Gs = (P.substitute({"x": x + y.scale(lam)}) for P in (F, G))
    out = []
    for fac, mult in factor_irreducible(resultant(Fs, Gs, "y").monic()):
        coeffs = [c.constant_value() for c in fac.univariate_coeffs("x")]
        if len(coeffs) == 2:
            K, xi = QQ, -coeffs[0]
        else:
            K = extend(QQ, "r1", coeffs[:-1])
            xi = K.gen()
        fibres = (solve2d._eval_x(P, "x", xi, K) for P in (Fs, Gs))
        g = solve2d._monic_gcd_coeffs(*fibres, K)
        k = len(g) - 1
        eta = -g[k - 1] / k
        if not solve2d._linear_power_divides(g, eta, k):
            return None
        min_poly = getattr(K, "min_poly", None)
        out.append((len(coeffs) - 1, mult, min_poly, _key(xi + eta * lam), _key(eta)))
    return out


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


def assert_chain_matches_euclid(F, G):
    for lam in (Fraction(0), Fraction(5, 7), Fraction(-3, 11)):
        if any(P.substitute({"x": poly(f"x + {lam}*y")}).degree_in("y")
               != P.total_degree() for P in (F, G)):
            continue
        expected = euclid_points(F, G, lam)
        assert chain_points(F, G, lam) == expected
        if expected is not None:
            return expected
    raise AssertionError("no separating shear among the first three")


def test_chain_fibres_match_euclid_on_random_pairs():
    rng = random.Random(20261018)
    checked = 0
    while checked < 12:
        F = random_regular(rng, rng.randint(2, 6))
        G = random_regular(rng, rng.randint(2, 6))
        if not mpoly_gcd(F, G).is_constant():
            continue
        assert_chain_matches_euclid(F, G)
        checked += 1


@pytest.mark.parametrize(
    "f, g, j, mult",
    [
        # tangential fibre: the gcd over x = 0 is y^2, from S_2 below deg 4
        ("y^2*(y^3 + y - 1) + x*(y^2 - 2*x*y + 2)", "y^2*(y^2 + 1) + x*(-y + 2*x + 2)", 2, 2),
        # defective chain: degrees 6, 5 in y; the gcd over x = 0 is y^3, read
        # from the regular S_3 that S_4 (of degree 3) is similar to
        ("y^3*(y^3 - y - 1) + x*(-y^2 + x*y - 1)", "y^3*(y^2 - 1) + x*(2*y - 1)", 3, 4),
    ],
)
def test_chain_fibre_degree_and_point(f, g, j, mult):
    F, G = poly(f), poly(g)
    _, chain = solve2d._fibre_chain(F, G, "x", "y")
    h = to_dense(parse_poly("x", QQ, ("x",)), ["x"])
    assert solve2d._fibre_from_chain(chain, h, QQ) == (j, Fraction(0))
    points = assert_chain_matches_euclid(F, G)
    assert (1, mult, None, Fraction(0), Fraction(0)) in points


def test_chain_resultant_matches_dmp_resultant():
    # the route the chain replaced: sympy's dmp_resultant, higher degree first
    rng = random.Random(7)
    for _ in range(20):
        p, q = (random_regular(rng, rng.randint(1, 5)) for _ in range(2))
        dp, dq = p.degree_in("y"), q.degree_in("y")
        (a, f), (b, g) = (_dense_zz(P, ["y", "x"]) for P in (p, q))
        hi, lo = (g, f) if dp < dq else (f, g)
        direct = from_dense(dmp_resultant(hi, lo, 1, ZZ), ["x"], p)
        sign = (-1) ** (dp * dq) if dp < dq else 1
        assert resultant(p, q, "y") == direct.scale(Fraction(sign, a**dq * b**dp))
    y = parse_poly("y", QQ, ("y",))
    assert resultant(y + 2, y**5 + 1, "y") == -31
    assert resultant(y**5 + 1, y + 2, "y") == 31
