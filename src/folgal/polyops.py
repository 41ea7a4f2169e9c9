"""Exact gcd, resultant, discriminant and squarefree structure for MultiPoly.

Strategy: most gcds are 1, above all Yun's ``gcd(f, f')``, so every gcd over
Q or a tower first maps both inputs to ``F_p`` for one prime ``p``
(:func:`~folgal.sympy_bridge.residue_map`) and answers 1 when univariate
images prove it (:func:`_coprime_image`, proof in its docstring); any other
image falls through to the kernels below, unchanged.  Callers that need
only a yes or no ask :func:`is_squarefree` and :func:`is_irreducible`, which
answer True from images on a few lines mod a prime when those prove it (a
squarefree image; factor degrees mod small primes that leave no proper
factor degree, proofs in their docstrings) and otherwise decide by the exact
kernels; :func:`squarefree_decompose` and the factorization itself never
take that shortcut, since a failed test would only add to their cost on
the reducible inputs they exist for.  Over Q, every gcd,
resultant and squarefree decomposition goes to
sympy's dense integer kernels on integer-cleared inputs: the heuristic gcd of
Char-Geddes-Gonnet, certified by exact cofactor products; the resultant over
ZZ (``dmp_resultant``), with Sylvester's sign; and Yun's squarefree
decomposition (``dmp_sqf_list``), certified by reconstruction and one
derivative gcd.  Over a number-field tower, resultants are interpolated from
the same integer resultants at integer points (Collins 1971), each reduced at
the generators; gcds and squarefree decompositions stay in-house, by a
Euclidean sequence in one variable or on binary forms, by content extraction
plus subresultant pseudo-remainder sequences otherwise, and by Yun's
recursion on derivative gcds once the part over the base field is split off
and decomposed there.  Polynomial products and exact quotients, over Q and
over towers alike, are the kernels of :mod:`folgal.numberfield`.
Every path is exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from sympy.polys.densearith import dmp_add_term, dmp_mul, dmp_neg, dmp_quo_ground, dmp_sub
from sympy.polys.densebasic import dmp_degree_in, dmp_ground, dmp_one, dmp_zero
from sympy.polys.densetools import dmp_eval
from sympy.polys.domains import QQ as SQQ
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_inner_gcd, dmp_resultant
from sympy.polys.sqfreetools import dmp_sqf_list

from .multipoly import MultiPoly
from .numberfield import RationalField, poly_gcd
from .sympy_bridge import (
    _gf_factor_degrees,
    _gf_gcd,
    _gf_monic,
    _gf_squarefree,
    _images_at,
    at_generators,
    base_field_part,
    factor_irreducible,
    from_dense,
    lift,
    residue,
    residue_map,
    to_dense,
)


class DegenerateResultant(Exception):
    pass


# -- dense kernels over Q -------------------------------------------------------------------


def _active_vars(p: MultiPoly, q: MultiPoly):
    out = []
    for v in p.vars:
        dp, dq = p.degree_in(v), q.degree_in(v)
        if dp > 0 or dq > 0:
            out.append((v, dp, dq))
    return out


def _gcd_rational(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd of non-constant polynomials over Q.

    sympy's dense heuristic gcd (Char-Geddes-Gonnet 1989) runs on the
    integer-cleared inputs.  Its result is certified by the exact cofactor
    identities ``h * cf == f`` and ``h * cg == g`` before it is returned.
    """
    order = [v for v, _, _ in _active_vars(p, q)]
    u = len(order) - 1
    _, f = lift(p, order)
    _, g = lift(q, order)
    h, cf, cg = dmp_inner_gcd(f, g, u, ZZ)
    if dmp_mul(h, cf, u, ZZ) != f or dmp_mul(h, cg, u, ZZ) != g:
        raise ArithmeticError("dense gcd over Q failed its cofactor check")
    return from_dense(h, order, p).monic()


def _resultant_rational(p: MultiPoly, q: MultiPoly, var: str, dp: int, dq: int) -> MultiPoly:
    """Sylvester resultant over Q of inputs of degrees ``dp, dq > 0`` in
    ``var``: :func:`_zz_resultant` of the integer-cleared inputs, with
    ``Res(a p, b q) = a^dq b^dp Res(p, q)`` divided out."""
    rest = [v for v, _, _ in _active_vars(p, q) if v != var]
    a, f = lift(p, [var] + rest)
    b, g = lift(q, [var] + rest)
    r = _zz_resultant(f, g, dp, dq, len(rest))
    return from_dense(r, rest, p).scale(Fraction(1, a**dq * b**dp))


# -- multivariate gcd ---------------------------------------------------------------------


def mpoly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, graded-lex leading coefficient normalized to 1.

    A gcd of 1 that images mod one prime prove (:func:`_coprime_image`) is
    returned at once.  Otherwise, over Q the gcd comes from sympy's dense
    heuristic gcd, certified by exact cofactor products.  Over a
    number-field tower it comes from content extraction and subresultant
    pseudo-remainder sequences, with a Euclidean gcd in one variable and on
    binary forms.
    """
    if p.is_zero() and q.is_zero():
        return p.zero_like()
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant() or _coprime_image(p, q):
        return p.one_like()
    if isinstance(p.field, RationalField):
        return _gcd_rational(p, q)
    return _gcd_content_prs(p, q)


def _coprime_image(p: MultiPoly, q: MultiPoly) -> bool:
    """Whether univariate images mod one prime ``ell`` prove
    ``gcd(p, q) = 1``.

    The map is :func:`~folgal.sympy_bridge.residue_map`: generator ``g_k``
    of each layer goes to a simple root ``s_k`` of its modulus mod ``ell``.
    For each variable ``v`` that occurs in both inputs, every other variable
    goes to a fixed integer, ``j + 2`` for the one at index ``j`` of the
    ring, and the images ``P(v)``, ``Q(v)`` in ``F_ell[v]`` must keep
    the degrees of ``p`` and ``q`` in ``v`` and have gcd 1.  Anything else,
    a denominator that ``ell`` divides included, answers False, and the
    caller computes the gcd as before.

    Proof (Gauss's lemma at a prime of degree 1).  Let ``A`` be the ring of
    the elements whose power-basis coordinates have denominators prime to
    ``ell``, and ``m`` the kernel of the map ``A -> F_ell``.  The moduli are
    monic over ``A``, so ``A / ell A`` is ``F_ell[g_1, ...]`` modulo their
    images, and each ``s_k`` is a simple root, so ``A_m / ell A_m`` is
    ``F_ell``: the maximal ideal of the local domain ``A_m``, finite over
    ``Z_(ell)``, is generated by ``ell``, and ``A_m`` is a discrete
    valuation ring with fraction field ``K``.  Suppose ``h = gcd(p, q)`` is
    not constant; a variable ``v`` of ``h`` occurs in both inputs.  Scaled
    by a power of ``ell``, ``h`` has coefficients in ``A_m``, not all in
    ``m``, and by Gauss's lemma ``p = h f`` and ``q = h g`` with ``f``,
    ``g`` over ``A_m`` too.  Take images: ``P = H F`` and ``Q = H G``.
    ``lc_v(p) = lc_v(h) lc_v(f)``, so an image that keeps the degree of
    ``p`` in ``v`` keeps that of ``h``, and ``H``, of degree at least 1,
    divides ``gcd(P, Q)``.  So gcds 1 in every shared variable prove that
    ``h`` is constant.  With no shared variable, no ``v`` exists and the
    gcd is 1 outright.
    """
    shared = [i for i, v in enumerate(p.vars) if p.degree_in(v) > 0 and q.degree_in(v) > 0]
    if not shared:
        return True
    found = residue_map(p.field)
    if found is None:
        return False
    prime, images = found
    residues = []
    for f in (p, q):
        terms = []
        for e, c in f.terms.items():
            r = residue(c, prime, images)
            if r is None:
                return False
            terms.append((e, r))
        residues.append(terms)
    top = max(max(e) for f in (p, q) for e in f.terms)
    powers = [[pow(j + 2, k, prime) for k in range(top + 1)] for j in range(len(p.vars))]
    for i in shared:
        pair = []
        for terms in residues:
            d = max(e[i] for e, _ in terms)
            image = [0] * (d + 1)
            for e, r in terms:
                for j, k in enumerate(e):
                    if k and j != i:
                        r = r * powers[j][k] % prime
                image[d - e[i]] += r
            image = [c % prime for c in image]
            if not image[0]:
                return False
            pair.append(image)
        if len(_gf_gcd(*pair, prime)) > 1:
            return False
    return True


# The lines v = c u + e on which the predicates below restrict an input in
# two variables u, v, and the primes of the irreducibility test: small, so
# that a Frobenius map costs few squarings.
_LINES = ((2, 3), (-3, 5), (5, -7))
_SMALL_PRIMES = (101, 103, 107, 109, 113, 127)


def _line_images(p: MultiPoly, prime: int, images):
    """The images in ``F_prime[u]``, highest coefficient first, of ``p``
    restricted to the lines ``v = c u + e`` of ``_LINES`` that keep its
    total degree, or of ``p`` itself when ``u`` is its one variable; none
    when ``p`` has no variable or more than two, or when ``prime`` divides a
    denominator.  A scalar maps by :func:`~folgal.sympy_bridge.residue`
    with ``images``."""
    active = [i for i, v in enumerate(p.vars) if p.degree_in(v) > 0]
    if not 1 <= len(active) <= 2:
        return
    terms = []
    for e, c in p.terms.items():
        r = residue(c, prime, images)
        if r is None:
            return
        terms.append((e, r))
    n = p.total_degree()
    iu = active[0]
    if len(active) == 1:
        image = [0] * (n + 1)
        for e, r in terms:
            image[n - e[iu]] += r
        if image[0]:
            yield image
        return
    iv = active[1]
    for slope, icept in _LINES:
        # powers[j]: (slope u + icept)^j mod prime, lowest coefficient first
        powers = [[1]]
        for _ in range(p.degree_in(p.vars[iv])):
            last = powers[-1]
            powers.append([(icept * a + slope * b) % prime for a, b in zip(last + [0], [0] + last)])
        image = [0] * (n + 1)
        for e, r in terms:
            for k, b in enumerate(powers[e[iv]]):
                image[n - e[iu] - k] += r * b
        image = [c % prime for c in image]
        if image[0]:
            yield image


def is_squarefree(p: MultiPoly) -> bool:
    """Whether the nonzero ``p`` is squarefree over its field.

    True at once when one of :func:`_line_images` at
    :func:`~folgal.sympy_bridge.residue_map`'s prime ``ell`` is squarefree;
    otherwise the gcd of ``p`` and its partial derivatives decides
    (:func:`_derivative_gcd`).

    Proof.  Take ``A_m``, the discrete valuation ring of
    :func:`_coprime_image`, which holds ``p``'s coefficients since ``ell``
    divides no denominator.  Suppose ``p = g^2 h`` with ``g`` of degree
    ``k >= 1``.  Scaled by a power of ``ell``, ``g`` is primitive over
    ``A_m``, and by Gauss's lemma so is ``g^2``, and ``h`` has coefficients
    in ``A_m``.  Restricting to a line and reducing mod ``m`` is a ring map,
    so the image is ``P = G^2 H``.  The top form of ``p`` is the product of
    those of ``g^2`` and ``h``, and its value at ``(1, c)`` is the leading
    coefficient of ``P``, nonzero; so ``G`` keeps the degree ``k`` of ``g``,
    and ``G^2`` divides ``P``.  A squarefree image therefore rules out every
    squared factor.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    found = residue_map(p.field)
    if found is not None:
        prime = found[0]
        if any(_gf_squarefree(image, prime) for image in _line_images(p, *found)):
            return True
    return _derivative_gcd(p).is_constant()


def is_irreducible(p: MultiPoly) -> bool:
    """Whether ``p`` is irreducible over its field.

    True at once when the squarefree :func:`_line_images` at the primes of
    ``_SMALL_PRIMES`` that suit the field
    (:func:`~folgal.sympy_bridge._images_at`) leave no proper factor degree:
    the degrees of each image's irreducible factors
    (:func:`~folgal.sympy_bridge._gf_factor_degrees`) give the set of their
    subset sums, and no degree strictly between 0 and ``p``'s total degree
    ``n`` lies in every set.  Otherwise the answer comes from
    :func:`~folgal.sympy_bridge.factor_irreducible`: one factor, of
    multiplicity 1.  This is degree analysis of factorizations mod p
    (Musser, J. ACM 1975); an input like ``x^4 + 1``, irreducible over Q
    but a product of factors of degree 2 or 1 mod every prime, always takes
    the fallback.

    Proof.  As in :func:`is_squarefree`, a factorization ``p = g h`` with
    ``g`` primitive over ``A_m`` and ``deg g = k`` maps to ``P = G H`` with
    ``deg G <= k`` and ``deg H <= n - k``.  ``P`` keeps the degree ``n``, so
    ``G`` keeps ``k``, and ``G``, a divisor of the squarefree ``P``, is the
    product of some of its irreducible factors: ``k`` is a sum of some of
    their degrees.  A factor with ``0 < k < n`` would put ``k`` in every
    set.
    """
    proper = set(range(1, p.total_degree()))
    for prime in _SMALL_PRIMES:
        images = _images_at(p.field, prime)
        if images is None:
            continue
        for image in _line_images(p, prime, images):
            image = _gf_monic(image, prime)
            if not _gf_squarefree(image, prime):
                continue
            sums = {0}
            for d in _gf_factor_degrees(image, prime):
                sums |= {s + d for s in sums}
            proper &= sums
            if not proper:
                return True
    factors = factor_irreducible(p)
    return len(factors) == 1 and factors[0][1] == 1


def _gcd_content_prs(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Gcd of non-constant polynomials by content extraction and subresultant
    PRS, with a Euclidean gcd when one variable is left or both inputs are
    binary forms; any field."""
    active = _active_vars(p, q)
    if len(active) == 2 and p.is_homogeneous() and q.is_homogeneous():
        return _gcd_binary_forms(p, q, active[0][0], active[1][0])
    # variables occurring in only one argument: strip via content
    for v, dp, dq in active:
        if dp == 0:
            return mpoly_gcd(p, content_in(q, v))
        if dq == 0:
            return mpoly_gcd(content_in(p, v), q)

    shared = [t for t in active if t[1] > 0 and t[2] > 0]
    var = min(shared, key=lambda t: min(t[1], t[2]))[0]

    if len(active) == 1:
        res = poly_gcd(p.coefficients(var), q.coefficients(var), p.field)
        g = MultiPoly.from_dict(p.field, (var,), {(k,): c for k, c in enumerate(res)})
        return g.with_vars(p.vars).monic()

    cont_p = content_in(p, var)
    cont_q = content_in(q, var)
    pp = p.exact_div(cont_p)
    qq = q.exact_div(cont_q)
    cont_gcd = mpoly_gcd(cont_p, cont_q)
    part = _gcd_prs(pp, qq, var)
    return (cont_gcd * part).monic()


def _gcd_binary_forms(p: MultiPoly, q: MultiPoly, u: str, v: str) -> MultiPoly:
    """Gcd of forms in ``u, v`` (no other variable occurs).

    A form not divisible by ``u`` is the homogenisation of its slice at
    ``u = 1``, and the map is multiplicative, so the gcd is the Euclidean gcd
    of the two slices, homogenised again, times the power of ``u`` that both
    inputs share.
    """
    iu, iv = p.vars.index(u), p.vars.index(v)

    def slice_at_one(f):
        coeffs = [f.field.zero()] * (f.degree_in(v) + 1)
        for e, c in f.terms.items():
            coeffs[e[iv]] = c
        return coeffs

    g = poly_gcd(slice_at_one(p), slice_at_one(q), p.field)
    shift = min(e[iu] for f in (p, q) for e in f.terms)
    terms = {}
    for k, c in enumerate(g):
        exp = [0] * len(p.vars)
        exp[iv] = k
        exp[iu] = len(g) - 1 - k + shift
        terms[tuple(exp)] = c
    return MultiPoly(p.field, p.vars, terms).monic()


def content_in(p: MultiPoly, var: str) -> MultiPoly:
    """Gcd of the coefficients of the nonzero ``p`` viewed in ``var``."""
    return mpoly_gcd_list(_uv(p, var))


def primitive_part(p: MultiPoly, var: str) -> MultiPoly:
    cont = content_in(p, var)
    return p.exact_div(cont)


def _uv(p: MultiPoly, var: str):
    return [c.with_vars(p.vars) for c in p.univariate_coeffs(var)]


def _uv_trim(f):
    while f and f[-1].is_zero():
        f.pop()
    return f


def _uv_prem(f, g):
    """Pseudo remainder of coefficient lists (entries MultiPoly)."""
    f = list(f)
    g = list(g)
    lc = g[-1]
    steps = len(f) - len(g) + 1
    while len(f) >= len(g):
        c = f[-1]
        k = len(f) - len(g)
        f = [ci * lc for ci in f]
        for i, gi in enumerate(g):
            f[i + k] = f[i + k] - c * gi
        _uv_trim(f)
        steps -= 1
        if not f:
            break
    for _ in range(max(0, steps)):
        f = [ci * lc for ci in f]
    return f


def _gcd_prs(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Subresultant PRS gcd of primitive inputs in ``var``."""
    f = _uv_trim(_uv(p, var))
    g = _uv_trim(_uv(q, var))
    if len(f) < len(g):
        f, g = g, f
    one = p.one_like()
    h = one
    s = one
    while True:
        if not g:
            result = MultiPoly.from_univariate(
                [c.drop_vars([var]) for c in f], var
            ).with_vars(p.vars)
            return primitive_part(result, var)
        if len(g) == 1:
            return p.one_like()
        d = len(f) - len(g)
        rem = _uv_prem(f, g)
        if not rem:
            result = MultiPoly.from_univariate(
                [c.drop_vars([var]) for c in g], var
            ).with_vars(p.vars)
            return primitive_part(result, var)
        divisor = s * (h**d)
        rem = [c.exact_div(divisor) for c in rem]
        f, g = g, rem
        s = f[-1]
        h = (s**d).exact_div(h ** (d - 1)) if d > 0 else h


# -- resultants and discriminants -----------------------------------------------------


def _resultant_tower(p: MultiPoly, q: MultiPoly, var: str, dp: int, dq: int) -> MultiPoly:
    """Sylvester resultant over a number-field tower of inputs of degrees
    ``dp, dq > 0`` in ``var``, by evaluation at integer points and
    interpolation (Collins, "The calculation of multivariate polynomial
    resultants", J. ACM 1971).

    :func:`lift` writes ``a p`` and ``b q`` over ZZ in the other variables
    ``rest``, ``var`` and one variable per generator.  The resultant is a
    polynomial in the entries of the Sylvester matrix, so it commutes with
    every ring map that keeps both degrees in ``var``: with setting a
    variable of ``rest`` to an integer at which neither leading coefficient
    in ``var`` vanishes over the field (other points are skipped), and with
    replacing the generators by their values.  Since :func:`lift` writes
    coordinates in the power basis of the generators, a leading coefficient
    vanishes over the field exactly when its image over ZZ does.  At each
    point of ``rest`` the resultant is taken over ZZ in ``var`` and the
    generators and reduced at the generators; the rational coordinates of
    these values are interpolated one variable of ``rest`` at a time.  At
    the end ``Res(a p, b q) = a^dq b^dp Res(p, q)`` is divided out.

    Number of points: the entry of the Sylvester matrix in a row ``i`` of
    ``p``'s coefficients and column ``j`` has total degree at most
    ``tp - dp + j - i`` in ``rest``, where ``tp`` is ``p``'s total degree,
    and likewise for ``q``.  So every term of the determinant has total
    degree at most ``dq tp + dp tq - dp dq``, and degree at most
    ``dq deg_v p + dp deg_v q`` in each ``v``.
    """
    field = p.field
    rest = [v for v, _, _ in _active_vars(p, q) if v != var]
    a, f = lift(p, rest + [var])
    b, g = lift(q, rest + [var])
    top = dq * p.total_degree() + dp * q.total_degree() - dp * dq
    bounds = [min(dq * p.degree_in(v) + dp * q.degree_in(v), top) for v in rest]
    values = _values_at_points(f, g, bounds, dp, dq, field)
    u = len(rest) + len(field.chain()) - 1
    return from_dense(dmp_quo_ground(values, SQQ(a**dq * b**dp), u, SQQ), rest, p)


def _values_at_points(f, g, bounds, dp: int, dq: int, field):
    """``Res(f, g)`` in ``var``, reduced at the generators of ``field``:
    dense over QQ in the ``k = len(bounds)`` outer variables and the
    generators.  ``f`` and ``g`` are dense over ZZ in those variables,
    ``var`` and the generators; ``bounds`` bounds the resultant's degree in
    each outer variable."""
    ngen = len(field.chain())
    k = len(bounds)
    if not k:
        value = at_generators(_zz_resultant(f, g, dp, dq, ngen), field)
        return to_dense(MultiPoly.constant(field, (), value), [])
    u = k + ngen
    xs, values = [], []
    for x in _integer_points():
        if len(xs) > bounds[0]:
            break
        fx, gx = dmp_eval(f, x, u, ZZ), dmp_eval(g, x, u, ZZ)
        if dmp_degree_in(fx, k - 1, u - 1) < dp or dmp_degree_in(gx, k - 1, u - 1) < dq:
            continue
        xs.append(x)
        values.append(_values_at_points(fx, gx, bounds[1:], dp, dq, field))
    return _newton(xs, values, u - 2)


def _integer_points():
    """0, 1, -1, 2, -2, ...: small points keep the integers small."""
    yield 0
    for x in itertools.count(1):
        yield x
        yield -x


def _zz_resultant(f, g, dp: int, dq: int, u: int):
    """Sylvester resultant in the outer variable of ``f`` and ``g`` (degrees
    ``dp``, ``dq`` in it), dense over ZZ in ``u + 1`` variables; an integer
    when ``u = 0``.  sympy returns Sylvester's sign only with the operand of
    higher degree first (``Res(y + 2, y^5 + 1)`` is -31, but sympy returns
    31 for both orders), so a swap applies ``(-1)^(dp dq)``."""
    if dp >= dq:
        return dmp_resultant(f, g, u, ZZ)
    r = dmp_resultant(g, f, u, ZZ)
    if not dp * dq % 2:
        return r
    return dmp_neg(r, u - 1, ZZ) if u else -r


def _newton(xs, values, u: int):
    """The polynomial of degree below ``len(xs)`` in a new outer variable
    that takes ``values[i]`` (dense over QQ in ``u + 1`` variables) at
    ``xs[i]``, by Newton's divided differences; dense over QQ."""
    c = list(values)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diff = dmp_sub(c[i], c[i - 1], u, SQQ)
            c[i] = dmp_quo_ground(diff, SQQ(xs[i] - xs[i - j]), u, SQQ)
    acc = dmp_zero(u + 1)
    one = dmp_one(u, SQQ)
    for i in range(n - 1, -1, -1):
        # acc = acc * (v - xs[i]) + c[i]
        linear = [one, dmp_ground(SQQ(-xs[i]), u)]
        acc = dmp_add_term(dmp_mul(acc, linear, u + 1, SQQ), c[i], 0, u + 1, SQQ)
    return acc


def resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant with respect to ``var``.

    A constant input gives a power of the other.  Over Q it is the integer
    resultant of the integer-cleared inputs (:func:`_resultant_rational`);
    over a number-field tower it is interpolated from integer resultants at
    integer points (:func:`_resultant_tower`).
    """
    dp = p.degree_in(var)
    dq = q.degree_in(var)
    if dp <= 0 and dq <= 0:
        raise DegenerateResultant(f"neither input has positive degree in {var}")
    if dp <= 0:
        return p**dq
    if dq <= 0:
        return q**dp
    if isinstance(p.field, RationalField):
        return _resultant_rational(p, q, var, dp, dq)
    return _resultant_tower(p, q, var, dp, dq)


def discriminant(p: MultiPoly, var: str) -> MultiPoly:
    """Discriminant in ``var``: (-1)^(n(n-1)/2) Res(p, dp/dvar) / lc."""
    n = p.degree_in(var)
    if n < 2:
        raise ValueError("discriminant needs degree at least 2")
    res = resultant(p, p.derivative(var), var)
    lc = p.univariate_coeffs(var)[-1].with_vars(p.vars)
    quo = res.exact_div(lc)
    if (n * (n - 1) // 2) % 2:
        quo = -quo
    return quo


# -- squarefree structure ----------------------------------------------------------------


class SquarefreeDecomposition:
    """``input = unit * prod(factor^multiplicity)`` with pairwise-coprime
    squarefree monic factors; the unit is a field constant."""

    def __init__(self, unit, factors):
        self.unit = unit
        self.factors = list(factors)

    def reconstruct(self, like: MultiPoly) -> MultiPoly:
        acc = MultiPoly.constant(like.field, like.vars, self.unit)
        for f, m in self.factors:
            acc = acc * f**m
        return acc

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        inner = ", ".join(f"({f}, {m})" for f, m in self.factors)
        return f"SquarefreeDecomposition(unit={self.unit}, [{inner}])"


def squarefree_decompose(p: MultiPoly) -> SquarefreeDecomposition:
    """Squarefree decomposition (characteristic zero).

    Over Q the parts come from sympy's ``dmp_sqf_list`` on the
    integer-cleared input (Yun, SYMSAC 1976, on the primitive part in the
    first variable and recursively on its content), and their product must
    pass one gcd with its derivatives.  Over a number-field tower they come
    from the in-house Yun/Musser recursion (see :func:`_squarefree_tower`).
    Either way ``p`` must be the parts' product times a constant, which
    becomes the unit.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return SquarefreeDecomposition(p.constant_value(), [])
    if isinstance(p.field, RationalField):
        result = _squarefree_rational(p)
    else:
        result = _squarefree_tower(p)
    prod = p.one_like()
    for f, m in result:
        prod = prod * f**m
    unit_poly = p.exact_div(prod)
    if not unit_poly.is_constant():
        raise AssertionError("squarefree reconstruction left a non-constant unit")
    return SquarefreeDecomposition(unit_poly.constant_value(), result)


def _derivative_gcd(poly: MultiPoly) -> MultiPoly:
    """The gcd of ``poly`` and its partial derivatives; constant exactly
    when ``poly`` is squarefree."""
    acc = poly
    for v in poly.vars:
        if poly.degree_in(v) > 0:
            acc = mpoly_gcd(acc, poly.derivative(v))
            if acc.is_constant():
                break
    return acc


def _squarefree_rational(p: MultiPoly) -> list:
    """``[(f, m)]`` by increasing ``m`` over Q, each ``f`` monic, from
    sympy's ``dmp_sqf_list`` over ZZ.  The product of the ``f`` must be
    squarefree, which makes them squarefree and pairwise coprime."""
    order = [v for v in p.vars if p.degree_in(v) > 0]
    _, f = lift(p, order)
    _, parts = dmp_sqf_list(f, len(order) - 1, ZZ)
    result = [(from_dense(h, order, p).monic(), m) for h, m in parts]
    radical = p.one_like()
    for h, _ in result:
        radical = radical * h
    if not _derivative_gcd(radical).is_constant():
        raise ArithmeticError("sympy's squarefree parts over Q failed their derivative check")
    return result


def _squarefree_tower(p: MultiPoly) -> list:
    """``[(f, m)]`` by increasing ``m`` over a tower, each ``f`` monic.

    The part ``L`` of ``p`` over the base field
    (:func:`~folgal.sympy_bridge.base_field_part`) is split over the base
    field, where it costs far less, and only ``p / L`` goes through Yun's
    recursion over the top layer.  A part ``l`` of ``L`` of
    multiplicity ``i`` and a part ``r`` of ``p / L`` of multiplicity ``j``
    may share factors over the top layer.  Each irreducible factor of ``p``
    divides at most one ``l`` and at most one ``r``, so ``gcd(l, r)`` is
    exactly the product of the shared ones, each of multiplicity ``i + j``
    in ``p``; what is left of ``l`` and ``r`` keeps ``i`` and ``j``."""
    field = p.field
    lower = base_field_part(p)
    if lower.is_constant():
        return _squarefree_yun(p)
    rest = p.exact_div(lower.to_field(field))
    high = [] if rest.is_constant() else _squarefree_yun(rest)
    merged: dict[int, MultiPoly] = {}

    def add(f, m):
        if not f.is_constant():
            merged[m] = merged[m] * f if m in merged else f

    for low, i in squarefree_decompose(lower):
        low = low.to_field(field)
        for k, (r, j) in enumerate(high):
            shared = mpoly_gcd(low, r)
            if not shared.is_constant():
                add(shared, i + j)
                low = low.exact_div(shared)
                high[k] = (r.exact_div(shared), j)
        add(low, i)
    for r, j in high:
        add(r, j)
    return [(f.monic(), m) for m, f in sorted(merged.items())]


def _squarefree_yun(p: MultiPoly) -> list:
    """``[(f, m)]`` by increasing ``m``, each ``f`` monic, squarefree and
    prime to the others.

    The first derivative gcd of Yun's recursion, in the first active
    variable ``v``, would carry the content of ``p`` in ``v`` through every
    subresultant step, so that content is split off first.  It is free of
    ``v`` and the primitive part has no factor free of ``v``, so the two are
    coprime, and their parts of equal multiplicity multiply."""
    active = [v for v in p.vars if p.degree_in(v) > 0]
    cont = content_in(p, active[0]) if len(active) > 1 else p.one_like()
    if cont.is_constant():
        return _yun_recursion(p)
    merged: dict[int, MultiPoly] = {}
    for f, m in _squarefree_yun(cont) + _yun_recursion(p.exact_div(cont)):
        merged[m] = merged[m] * f if m in merged else f
    return [(f.monic(), m) for m, f in sorted(merged.items())]


def _yun_recursion(p: MultiPoly) -> list:
    """:func:`_squarefree_yun` by the Yun/Musser recursion on derivative gcds."""
    factors: dict[int, MultiPoly] = {}

    def recurse(poly, shift):
        g = _derivative_gcd(poly)
        if g.is_constant():
            factors[1 + shift] = poly.monic()
            return
        w = poly.exact_div(g).monic()  # product of the distinct prime factors
        recurse(g, shift + 1)
        # factors present in g have multiplicity >= 2 here; peel them off w
        for m in sorted(factors):
            if m <= shift + 1:
                continue
            f = factors[m]
            d = mpoly_gcd(w, f)
            if not d.is_constant():
                w = w.exact_div(d).monic()
        if not w.is_constant():
            factors[1 + shift] = w.monic()

    recurse(p, 0)
    return [(f, m) for m, f in sorted(factors.items())]


def squarefree_part(p: MultiPoly) -> MultiPoly:
    acc = p.one_like()
    for f, _ in squarefree_decompose(p):
        acc = acc * f
    return acc.monic()


def is_square_over_closure(p: MultiPoly):
    """Whether ``p`` is a square up to a constant over the complex numbers.

    Returns ``(True, root, unit)`` with ``p = unit * root**2`` (unit a field
    constant, always a complex square) or ``(False, witness, None)`` where the
    witness is a factor of odd multiplicity.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    dec = squarefree_decompose(p)
    for f, m in dec:
        if m % 2:
            return False, f, None
    root = p.one_like()
    for f, m in dec:
        root = root * f ** (m // 2)
    return True, root, dec.unit


def perfect_power_part(p: MultiPoly, rho: int):
    """``h`` with ``p = unit * h**rho`` when it exists, else ``None``."""
    if rho < 1:
        raise ValueError("power must be positive")
    if p.is_zero():
        raise ValueError("zero polynomial")
    if rho == 1:
        return p.monic()
    dec = squarefree_decompose(p)
    for _, m in dec:
        if m % rho:
            return None
    h = p.one_like()
    for f, m in dec:
        h = h * f ** (m // rho)
    return h.monic()


def mpoly_gcd_list(polys: Sequence[MultiPoly]) -> MultiPoly:
    acc = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p if acc is None else mpoly_gcd(acc, p)
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("all inputs are zero")
    return acc.monic()
