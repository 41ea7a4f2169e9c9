"""Certified irreducible factorization over Q and over towers of number fields.

Over Q the factorization is sympy's.  Over a layer ``K = k(a)`` of a tower,
with base field ``k`` (Q or a lower layer) and the modulus ``m`` of ``a``
irreducible over ``k``, it follows Trager, "Algebraic factoring and rational
function integration" (SYMSAC 1976), one layer at a time, after taking out
the linear factors that one prime finds:

1. The part ``R`` of ``f`` with coefficients in ``k`` is split off first:
   with ``f = sum a^i f_i`` and every ``f_i`` over ``k``, ``R`` is the gcd
   of the ``f_i``.  ``R`` is factored over ``k`` by the same method, and
   each factor of it goes through steps 2-4, since it may still split over
   ``K`` (``x^2 - 2`` over Q(sqrt 2)).
2. ``f`` is split into squarefree parts by
   :func:`folgal.polyops.squarefree_decompose`.
3. When ``k`` is Q, the linear factors of each part in one or two
   variables are removed first (:func:`_linear_factors`): roots in ``K``
   from roots mod one prime, the first that suits the part among the primes
   of :func:`_find_residue_map`, the one prime search that also gives
   :func:`residue_map` to the gcd certificate of :mod:`folgal.polyops`;
   they are rebuilt by a small lattice reduction (Loos,
   "Computing rational zeros of integral polynomials by p-adic expansion",
   SIAM J. Comput. 1983; Lenstra, "Factoring polynomials over algebraic
   number fields", EUROCAL 1983).  A candidate is a guess until it divides
   the part exactly; only then is it a factor, and the quotient, the
   cofactor, goes on.  The lines of a bivariate part come from the roots of
   its restrictions to three vertical lines.
4. In the cofactor every variable ``v`` is shifted to ``v - s_v a``, trying
   the shift vectors ``s`` by growing L1 norm, until the norm
   ``N = Res_t(m(t), f(t))`` is squarefree over ``k``.  The norm comes from
   :func:`folgal.polyops.resultant`.  The bad shifts of a squarefree part
   lie on finitely many proper affine subspaces, so the search ends.
5. ``N`` is factored over ``k`` (by sympy when ``k`` is Q, else by the same
   method), and each irreducible factor ``h`` gives the factor ``gcd(f, h)``
   over ``K``, shifted back.  It is irreducible because ``N`` is squarefree
   and ``h`` irreducible (Trager's theorem).
6. The product of the factors, raised to their multiplicities, must equal
   the monic input exactly.

The output stays certified whatever the prime: a linear factor is
irreducible and is taken only after an exact division, a root the prime
misses stays in the cofactor, whose factors step 5 proves irreducible, and
step 6 checks the whole result.

Nothing here builds sympy's algebraic domains and nothing checks that a
modulus is irreducible: a user's modulus is checked when it is parsed
(:func:`folgal.foliation.field_from_spec`), and every other layer adjoins a
factor returned here.  The module also holds the one converter between
MultiPoly and sympy's dense recursive polynomials (:func:`to_dense`,
:func:`from_dense`, and :func:`lift` over ZZ), which :mod:`folgal.polyops`
uses too.  Over a tower it writes each coefficient in the power basis of the
generators, with one variable per generator.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Sequence

from sympy.ntheory import nextprime

from sympy.polys.densearith import dmp_neg
from sympy.polys.densebasic import dmp_from_dict, dmp_ground_LC, dmp_to_dict
from sympy.polys.densetools import dmp_clear_denoms
from sympy.polys.domains import QQ as SQQ
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list
from sympy.polys.polyclasses import DMP

from .linalg import lll
from .multipoly import MultiPoly
from .numberfield import NotDivisible, RationalField, _parts, coordinates, divide_root


# Never raised: every field factors.  The name stays for outside tools that
# count it, such as the benchmark's tracer.
class FactorUnavailable(Exception):
    pass



def at_generators(rep, field):
    """The element of ``field`` that ``rep`` takes at the generators.

    ``rep`` is dense over sympy's ZZ or QQ in one variable per generator of
    ``field``, top layer first (over Q, a ground element).  It is reduced
    modulo each layer's modulus, top layer first, so its degrees need not
    be below the layers'.
    """
    if isinstance(field, RationalField):
        return Fraction(int(rep.numerator), int(rep.denominator))
    return field.from_poly([at_generators(c, field.base) for c in reversed(rep)])


def to_dense(p: MultiPoly, order: Sequence[str]) -> list:
    """Dense recursive sympy representation of ``p`` over sympy's QQ.

    The variables are ``order``, outermost first, followed by one variable
    per generator of ``p``'s field, top layer first (none over Q); each
    coefficient is written in the power basis of the generators.  ``order``
    must contain every variable that occurs in ``p``.
    """
    idx = [p.vars.index(v) for v in order]
    layers = p.field.chain()[::-1]
    # the exponents of the generators, in the order of coordinates()
    powers = list(itertools.product(*(range(layer.degree) for layer in layers)))
    flat = {tuple(e[i] for i in idx) + g: SQQ(v.numerator, v.denominator)
            for e, c in p.terms.items() for g, v in zip(powers, coordinates(c)) if v}
    return dmp_from_dict(flat, len(order) + len(layers) - 1, SQQ)


def lift(p: MultiPoly, order: Sequence[str]):
    """``(den, f)``: ``f`` is :func:`to_dense` of ``den * p`` over sympy's
    ZZ, with ``den`` the least positive integer that clears denominators.
    Over Q the integer numerators are written directly."""
    u = len(order) + len(p.field.chain()) - 1
    if not isinstance(p.field, RationalField):
        den, f = dmp_clear_denoms(to_dense(p, order), u, SQQ, ZZ, convert=True)
        return int(den), f
    den = 1
    for c in p.terms.values():
        den = ZZ.lcm(den, c.denominator)
    idx = [p.vars.index(v) for v in order]
    flat = {tuple(e[i] for i in idx): ZZ(c.numerator * (den // c.denominator))
            for e, c in p.terms.items()}
    return int(den), dmp_from_dict(flat, u, ZZ)


def from_dense(rep, order: Sequence[str], like: MultiPoly) -> MultiPoly:
    """Inverse of :func:`to_dense`: ``rep``, dense over sympy's ZZ or QQ in
    ``order`` followed by the generators of ``like``'s field, as a polynomial
    in ``like``'s ring, each coefficient taken :func:`at_generators`.  With
    ``order`` empty, ``rep`` is dense in the generators alone (over Q, a
    ground element)."""
    field = like.field
    idx = [like.vars.index(v) for v in order]
    # keys stop at the last variable of order; values are dense in the generators
    flat = dmp_to_dict(rep, len(order) - 1) if order else {(): rep}
    terms = {}
    for exp, c in flat.items():
        full = [0] * len(like.vars)
        for i, k in zip(idx, exp):
            full[i] = k
        terms[tuple(full)] = at_generators(c, field)
    return MultiPoly(field, like.vars, terms)


def factor_irreducible(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Monic irreducible factors with multiplicities over the working field.

    The constant content is dropped (recoverable by exact division).  Over
    a tower the factors are recovered from norms, one layer at a time (see
    the module docstring), and checked against the input by an exact product.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return []
    if isinstance(p.field, RationalField):
        out = _factor_rational(p)
    else:
        out = _factor_by_norms(p)
        _check_product(p, out)
    out.sort(key=factor_order_key)
    return out


def factor_order_key(fm):
    """Sort key of a factor with its multiplicity, in the order that
    :func:`factor_irreducible` returns: degree, then support, then
    multiplicity, then the coefficients in descending exponent order.  Over
    Q those are the coefficients of the primitive integer multiple with a
    positive leading coefficient in the recursive dense order, as sympy's
    factor_list compares them; over a tower each is flattened to rationals by
    descending powers of the generators.  The key depends on the factor and
    its multiplicity alone, so the factors of another polynomial sort the
    same way."""
    f, mult = fm
    key = (f.total_degree(), sorted(f.terms), mult)
    if isinstance(f.field, RationalField):
        # f is monic, so clearing its denominators leaves a primitive multiple
        u = len(f.vars) - 1
        rep = lift(f, f.vars)[1]
        return key + (dmp_neg(rep, u, ZZ) if dmp_ground_LC(rep, u, ZZ) < 0 else rep,)

    def coeff(c):
        high = coordinates(c)[::-1]
        while not high[0]:
            high.pop(0)
        return high

    return key + ([coeff(f.terms[e]) for e in sorted(f.terms, reverse=True)],)


def _factor_rational(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Monic irreducible factors over Q, by sympy's factoring."""
    rep = DMP(to_dense(p, p.vars), SQQ, len(p.vars) - 1)
    _, factors = rep.factor_list()
    return [(from_dense(f.to_list(), p.vars, p).monic(), int(m)) for f, m in factors]


def _check_product(p: MultiPoly, factors) -> None:
    prod = p.one_like()
    for f, m in factors:
        prod = prod * f**m
    if prod != p.monic():
        raise ArithmeticError("factors over the number field fail the product check")


def _coordinates(p: MultiPoly) -> list[dict]:
    """Term dicts of the ``f_i`` over the base field with ``p = sum a^i f_i``."""
    coords = [{} for _ in range(p.field.degree)]
    for e, c in p.terms.items():
        for i, v in enumerate(c.rep):
            if v:
                coords[i][e] = v
    return coords


def base_field_part(p: MultiPoly) -> MultiPoly:
    """The monic divisor of ``p`` of largest degree with coefficients in the
    base field of ``p``'s top layer, as a polynomial over that base field.

    Write ``p = sum a^i f_i`` with the ``f_i`` over the base.  A polynomial
    over the base divides ``p`` exactly when it divides every ``f_i``, since
    1, a, ..., a^(n-1) are linearly independent over the base; so this is the
    gcd of the ``f_i``."""
    # polyops imports this module's converters, so its kernels are imported
    # at call time here and below
    from .polyops import mpoly_gcd_list

    base = p.field.base
    return mpoly_gcd_list([MultiPoly(base, p.vars, t) for t in _coordinates(p) if t])


def _factor_by_norms(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    from .polyops import squarefree_decompose

    field = p.field
    p = p.monic()
    lower = base_field_part(p)
    found = Counter()
    if not lower.is_constant():
        for q, mult in factor_irreducible(lower):
            # q is irreducible over the base, hence squarefree, and divides
            # the norm of each of its factors over the layer, whose degree
            # is n times that factor's: a line needs deg q <= n
            q = q.to_field(field)
            pieces = _factor_part(q) if q.total_degree() <= field.degree else _factor_by_shift(q)
            for f in pieces:
                found[f] += mult
        p = p.exact_div(lower.to_field(field))
    if not p.is_constant():
        parts = [(p, 1)] if p.total_degree() == 1 else squarefree_decompose(p)
        for part, mult in parts:
            for f in _factor_part(part):
                found[f] += mult
    return list(found.items())


def _factor_part(part: MultiPoly) -> list[MultiPoly]:
    """Irreducible monic factors of the squarefree ``part``: its linear
    factors from one prime, then the cofactor's from one shift search."""
    lines, cofactor = _linear_factors(part)
    return lines if cofactor.is_constant() else lines + _factor_by_shift(cofactor)


# Every prime comes from one search, _find_residue_map, kept on each field:
# the gcd certificate takes its first prime, and the root finder the first
# that suits its polynomial.  A bivariate part is restricted to the vertical
# lines at 0 .. _ABSCISSA_TRIES - 1 at most, and a product of linear factors
# mod p is split with the shifts 0 .. _SPLIT_TRIES - 1 at most.  Past a cap,
# what is not found goes to norms.
_PRIME_FLOOR = 2**31
_PRIME_TRIES = 32
_ABSCISSA_TRIES = 8
_SPLIT_TRIES = 64


def _linear_factors(part: MultiPoly):
    """``(lines, cofactor)``: monic linear factors of the squarefree
    ``part`` over its field, and ``part`` divided by them exactly.

    Only a layer over Q is searched, of any degree ``n``, and only a part in
    at most two variables; a tower of two or more layers, or more variables,
    gives no lines, and the whole part goes to norms.  Each root in ``K``
    is rebuilt from its image mod one prime ``p`` (:func:`_rebuild`), with no
    Hensel lift: a root whose coordinates are too large for that prime's
    lattice, or one that the prime misses, stays in the cofactor, where the
    norms still factor it exactly.
    """
    active = [v for v in part.vars if part.degree_in(v) > 0]
    if part.total_degree() == 1:
        return [part.monic()], part.one_like()
    if not isinstance(part.field.base, RationalField) or len(active) > 2:
        return [], part
    if len(active) == 1:
        return _univariate_lines(part, *active)
    return _bivariate_lines(part, *active)


def _simple_root(m: list, p: int):
    """The least simple root in ``F_p`` of ``m`` (highest coefficient
    first), or None."""
    slope = _gf_diff(m, p)
    return next((s for s in _roots_mod(m, p) if _gf_eval(slope, s, p)), None)


def residue_map(field):
    """``(p, images)``: a ring map from ``field`` to ``F_p``, or None.

    It is the first item of :func:`_find_residue_map`.  ``images[i]`` is the
    image of basis monomial ``i``, so an element ``num / den`` with ``p`` not
    dividing ``den`` maps to ``sum num[i] images[i] / den`` (:func:`residue`),
    and sums and products of such elements map to sums and products.  Q maps
    by the first prime alone.  The answer is kept on the field, so each
    field looks for its prime once.
    """
    found = getattr(field, "_residue_map", False)
    if found is False:
        found = field._residue_map = next(_find_residue_map(field), None)
    return found


def _find_residue_map(field):
    """Each ``(p, images)`` of a ring map from ``field`` to ``F_p``, for the
    primes ``p`` among the ``_PRIME_TRIES`` primes above ``_PRIME_FLOOR``, in
    increasing order, that divide no denominator of any layer's modulus and
    at which, layer by layer from the bottom, the modulus with the lower
    generators already sent to their roots has a simple root mod ``p``; each
    generator goes to the least such root.  Over a layer over Q,
    ``images[i]`` is ``s^i`` for the root ``s`` of the generator.

    The primes tried are kept on the field, each with its ``images`` or
    None, so a later walk goes over them again and calls ``nextprime`` only
    past them."""
    walk = getattr(field, "_prime_walk", None)
    if walk is None:
        walk = field._prime_walk = []
    for place in range(_PRIME_TRIES):
        if place == len(walk):
            p = nextprime(walk[-1][0] if walk else _PRIME_FLOOR)
            walk.append((p, _images_at(field, p)))
        p, images = walk[place]
        if images is not None:
            yield p, images


def _images_at(field, p: int):
    """:func:`_find_residue_map`'s ``images`` at the prime ``p``, or None
    when ``p`` does not suit ``field``."""
    images = (1,)
    for layer in field.chain():
        m = [1] + [residue(c, p, images) for c in reversed(layer.min_poly)]
        s = None if None in m else _simple_root(m, p)
        if s is None:
            return None
        images = tuple(pow(s, t, p) * i % p for t in range(layer.degree) for i in images)
    return images


def residue(c, p: int, images) -> int | None:
    """The image mod ``p`` of the scalar ``c`` (a Fraction or a layer's
    element) under :func:`residue_map`'s ``images``, or None when ``p``
    divides its denominator."""
    num, den = _parts(c)
    if den % p == 0:
        return None
    acc = sum(a * b for a, b in zip(num, images))
    return acc % p if den == 1 else acc * pow(den, -1, p) % p


# Dense polynomials over F_p, highest coefficient first, entries in [0, p).
# The root finder's few kernels are written out here: sympy's galoistools
# inverts the divisor's leading coefficient in every reduction, which made
# x^p mod h most of the finder's time.


def _gf_strip(a: list) -> list:
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _gf_monic(a: list, p: int) -> list:
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def _gf_divmod(a: list, h: list, p: int):
    """Quotient and remainder of ``a`` by the monic ``h``."""
    a = list(a)
    d = len(h) - 1
    n = max(len(a) - d, 0)
    for i in range(n):
        c = a[i] = a[i] % p
        if c:
            for j in range(1, d + 1):
                a[i + j] -= c * h[j]
    return a[:n], _gf_strip([c % p for c in a[n:]])


def _gf_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of ``a`` and ``b``, not both zero."""
    while b:
        b = _gf_monic(b, p)
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_pow_linear(t: int, e: int, h: list, p: int) -> list:
    """``(x + t)^e`` mod the monic ``h`` of degree at least 2, by repeated
    squaring; a step by ``x + t`` costs one pass over the coefficients."""
    d = len(h) - 1
    out = [1]
    for bit in bin(e)[2:]:
        square = [0] * (2 * len(out) - 1)
        for i, x in enumerate(out):
            if x:
                square[2 * i] += x * x
                for j in range(i + 1, len(out)):
                    square[i + j] += 2 * x * out[j]
        out = _gf_divmod(square, h, p)[1]
        if bit == "1":
            out = [(a + t * b) % p for a, b in zip(out + [0], [0] + out)]
            if len(out) > d:
                c = out[0] % p
                out = _gf_strip([(a - c * b) % p for a, b in zip(out[1:], h[1:])])
    return out


def _gf_diff(a: list, p: int) -> list:
    d = len(a) - 1
    return _gf_strip([c * (d - i) % p for i, c in enumerate(a[:-1])])


def _gf_eval(a: list, x: int, p: int) -> int:
    acc = 0
    for c in a:
        acc = (acc * x + c) % p
    return acc


def _gf_squarefree(a: list, p: int) -> bool:
    return len(_gf_gcd(a, _gf_diff(a, p), p)) == 1


def _gf_factor_degrees(f: list, p: int) -> list[int]:
    """The degrees of the irreducible factors of the monic squarefree ``f``,
    in increasing order, by distinct-degree factorization (Cantor and
    Zassenhaus, Math. Comp. 1981): once the factors of degree below ``d``
    are divided out of ``g``, ``gcd(g, x^(p^d) - x)`` is the product of
    those of degree ``d``.  The Frobenius map ``a(x) -> a(x)^p = a(x^p)``
    is linear, so ``x^(p^d)`` mod ``f`` comes from ``x^(p^(d-1))`` by
    composing it with ``x^p`` mod ``f``, a combination of the powers
    ``x^(p i)`` mod ``f``, ``i < deg f``, built once."""
    n = len(f) - 1
    if n < 2:
        return [1] * n
    xp = _gf_pow_linear(0, p, f, p)
    # frobenius[i]: x^(p i) mod f, lowest coefficient first, n entries
    frobenius, power = [], [1]
    for _ in range(n):
        frobenius.append(power[::-1] + [0] * (n - len(power)))
        product = [0] * (len(power) + len(xp) - 1)
        for i, a in enumerate(power):
            for j, b in enumerate(xp):
                product[i + j] += a * b
        power = _gf_divmod(product, f, p)[1]
    degrees, g, h = [], f, xp
    d = 1
    while 2 * d < len(g):
        w = [0] * (2 - len(h)) + h
        w[-2] = (w[-2] - 1) % p
        s = _gf_gcd(g, _gf_strip(w), p)
        if len(s) > 1:
            degrees += [d] * ((len(s) - 1) // d)
            g = _gf_divmod(g, s, p)[0]
        acc = [0] * n
        for a, row in zip(reversed(h), frobenius):
            if a:
                for k, b in enumerate(row):
                    acc[k] += a * b
        h = _gf_strip([c % p for c in reversed(acc)])
        d += 1
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def _roots_mod(h: list, p: int) -> list[int]:
    """The distinct roots in ``F_p`` of the nonzero ``h``, sorted: the
    roots of ``g = gcd(h, x^p - x)``, the product of the distinct linear
    factors of ``h``, split by :func:`_gf_split`."""
    h = _gf_strip(h)
    if len(h) < 2:
        return []
    h = _gf_monic(h, p)
    xp = [0, 0] + (_gf_pow_linear(0, p, h, p) if len(h) > 2 else [-h[1] % p])
    xp[-2] = (xp[-2] - 1) % p
    g = _gf_gcd(h, _gf_strip(xp), p)
    return sorted(_gf_split(g, p)) if len(g) > 1 else []


def _gf_split(g: list, p: int) -> list[int]:
    """The roots of ``g``, monic and a product of distinct linear factors
    over ``F_p`` with ``p`` odd.  For a shift ``t``, the factor
    ``gcd(g, (x + t)^((p-1)/2) - 1)`` holds the roots ``r`` with ``r + t`` a
    nonzero square; the shifts ``t = 0, 1, ...`` are tried until one splits
    ``g`` (Cantor and Zassenhaus, with the shifts in place of random
    elements).  Roots in a piece that no shift splits are left out."""
    if len(g) == 2:
        return [-g[1] % p]
    for t in range(_SPLIT_TRIES):
        w = _gf_pow_linear(t, (p - 1) // 2, g, p)
        w = [0] + w
        w[-1] = (w[-1] - 1) % p
        f = _gf_gcd(g, _gf_strip(w), p)
        if 1 < len(f) < len(g):
            return _gf_split(f, p) + _gf_split(_gf_divmod(g, f, p)[0], p)
    return []


def _rebuild(r: int, images, p: int, field):
    """The candidate root ``sum u_i a^i / w`` in ``field`` (a layer over Q
    of degree ``n``, generator ``a``) with image ``r`` mod ``p`` under the
    map that sends ``a^i`` to ``images[i]``, or None.
    ``(u_0, ..., u_(n-1), w)`` is the first row of an LLL-reduced basis of
    the lattice of the integer vectors with ``sum u_i images[i] = w r`` mod
    ``p``, of dimension ``n + 1`` and determinant ``p``: a root whose vector
    is much shorter than ``p^(1/(n+1))`` is found, any other row is a guess
    for the caller's exact division to reject."""
    n = field.degree
    rows = [[p] + [0] * n, [r] + [0] * (n - 1) + [1]]
    rows += [[-images[i]] + [0] * (i - 1) + [1] + [0] * (n - i) for i in range(1, n)]
    *u, w = lll(rows)[0]
    if not w:
        return None
    return field.element([Fraction(a, w) for a in u])


def _value(coeffs: list, x):
    """The coefficient list ``coeffs`` (lowest first) at ``x``, by Horner."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _field_roots(coeffs: list, image: list, images, p: int, field) -> list:
    """The roots in ``field``, a layer over Q, of the coefficient list
    ``coeffs`` (lowest first) that :func:`_rebuild` finds from the roots of
    its ``image`` mod ``p`` (highest first), each checked exactly."""
    found = []
    for r in _roots_mod(image, p):
        xi = _rebuild(r, images, p, field)
        if xi is not None and not _value(coeffs, xi):
            found.append(xi)
    return found


def _univariate_lines(part: MultiPoly, v: str):
    """:func:`_linear_factors` of a part in the one variable ``v``: the
    prime must keep every coefficient and the leading one nonzero, and leave
    the image squarefree; each root mod ``p`` is rebuilt and accepted by an
    exact synthetic division."""
    field = part.field
    coeffs = part.coefficients(v)
    for p, images in _find_residue_map(field):
        image = [residue(c, p, images) for c in reversed(coeffs)]
        if None not in image and image[0] and _gf_squarefree(image, p):
            break
    else:
        return [], part
    var = MultiPoly.variable(field, part.vars, v)
    lines = []
    for r in _roots_mod(image, p):
        xi = _rebuild(r, images, p, field)
        quotient = None if xi is None else divide_root(coeffs, xi)
        if quotient is not None:
            coeffs = quotient
            lines.append(var - xi)
    if not lines:
        return [], part
    cofactor = MultiPoly.from_dict(field, (v,), {(k,): c for k, c in enumerate(coeffs)})
    return lines, cofactor.with_vars(part.vars)


def _bivariate_lines(part: MultiPoly, u: str, v: str):
    """:func:`_linear_factors` of a part in ``u`` and ``v``.

    The prime must keep every coefficient and the top coefficient of
    ``lc_v(part)``, the leading coefficient in ``v``.  A vertical line
    ``u = c`` divides that coefficient, so the candidates ``c`` are its
    roots, and ``c`` is kept when every coefficient in ``v`` vanishes at it.
    Every other line ``v = l u + m`` meets the vertical line ``u = a`` at a
    root in ``K`` of the restriction ``part(a, v)``.  The abscissas
    ``a = 0, 1, ...`` kept are those whose restriction keeps its degree in
    ``v`` and is squarefree mod ``p``, so distinct lines meet it at distinct
    roots.  A root at the first kept abscissa and one at the second give a
    candidate line, tried by an exact division when it passes through a root
    at the third.  The search stops at the first kept abscissa with no root
    in ``K``: no line that one prime rebuilds crosses it.
    """
    field = part.field
    iu, iv = part.vars.index(u), part.vars.index(v)
    d = part.degree_in(v)
    # cols[j]: the coefficient of v^j, as a coefficient list in u, lowest first
    cols = [[field.zero()] * (part.degree_in(u) + 1) for _ in range(d + 1)]
    for e, c in part.terms.items():
        cols[e[iv]][e[iu]] = c
    lead = cols[d][:max(i for i, c in enumerate(cols[d]) if c) + 1]
    for p, images in _find_residue_map(field):
        col_images = [[residue(c, p, images) for c in reversed(col)] for col in cols]
        if residue(lead[-1], p, images) and not any(None in col for col in col_images):
            break
    else:
        return [], part
    x, y = (MultiPoly.variable(field, part.vars, w) for w in (u, v))
    lines, cofactor = [], part
    if len(lead) > 1:
        for c in _field_roots(lead, col_images[d][-len(lead):], images, p, field):
            if all(not _value(col, c) for col in cols):
                lines.append(x - c)
                cofactor = cofactor.exact_div(x - c)
    crossings = []
    for a in range(_ABSCISSA_TRIES):
        if len(crossings) == 3:
            break
        image = [_gf_eval(col, a, p) for col in reversed(col_images)]
        if not (image[0] and _gf_squarefree(image, p)):
            continue
        roots = _field_roots([_value(col, a) for col in cols], image, images, p, field)
        if not roots:
            return lines, cofactor
        crossings.append((a, roots))
    if len(crossings) < 3:
        return lines, cofactor
    (a0, first), (a1, second), (a2, third) = crossings
    third = set(third)
    for r0 in first:
        for r1 in second:
            slope = (r1 - r0) / (a1 - a0)
            icept = r0 - slope * a0
            if slope * a2 + icept not in third:
                continue
            line = (y - x * slope - icept).monic()
            try:
                cofactor = cofactor.exact_div(line)
            except NotDivisible:
                continue
            lines.append(line)
            second.remove(r1)
            break
    return lines, cofactor


def _shifts(count: int):
    """Shift vectors for ``count`` variables by growing L1 norm; within a
    norm, entry by entry in the order 0, 1, -1, 2, -2, ..."""
    rank = lambda s: 2 * abs(s) - (s > 0)
    for n in itertools.count():
        yield from sorted((v for v in itertools.product(range(-n, n + 1), repeat=count)
                           if sum(map(abs, v)) == n),
                          key=lambda v: [rank(s) for s in v])


def _factor_by_shift(p: MultiPoly):
    """Irreducible monic factors of the squarefree ``p`` over its top layer,
    from the first shift with a squarefree norm."""
    from .polyops import mpoly_gcd

    field = p.field
    order = [v for v in p.vars if p.degree_in(v) > 0]
    alpha = MultiPoly.constant(field, p.vars, field.gen())

    def move(poly, shift, sign):
        """``poly`` with each variable ``v`` replaced by ``v + sign * s_v * a``."""
        images = {v: MultiPoly.variable(field, p.vars, v) + alpha.scale(sign * s)
                  for v, s in zip(order, shift) if s}
        return poly.substitute(images) if images else poly

    for shift in _shifts(len(order)):
        shifted = move(p, shift, -1)
        pieces = _squarefree_factors(_norm(shifted), order)
        if pieces is not None:
            return [move(mpoly_gcd(shifted, h.to_field(field)), shift, 1).monic()
                    for h in pieces]


def _squarefree_factors(norm: MultiPoly, order: list) -> list | None:
    """Irreducible factors of ``norm`` over its field, or None when it is
    not squarefree; over Q by sympy's dense kernels on ``order``."""
    from .polyops import is_squarefree

    if not is_squarefree(norm):
        return None
    if not isinstance(norm.field, RationalField):
        return [h for h, _ in factor_irreducible(norm)]
    _, pieces = dmp_factor_list(to_dense(norm, order), len(order) - 1, SQQ)
    return [from_dense(h, order, norm) for h, _ in pieces]


def _norm(p: MultiPoly) -> MultiPoly:
    """``Res_t(m(t), p(t))`` over the base field, where ``p(t)`` puts a new
    variable ``t`` in place of the top generator ``a``; for ``m = t^2 - c``
    it is ``A^2 - c B^2`` with ``p = A + a B``."""
    from .polyops import resultant

    field = p.field
    base = field.base
    t = "_" + "_".join(p.vars) + "_norm"  # longer than any variable's name
    ring = p.vars + (t,)
    lifted = {e + (i,): v for i, coord in enumerate(_coordinates(p)) for e, v in coord.items()}
    modulus = {(0,) * len(p.vars) + (i,): c for i, c in enumerate(field.min_poly) if c}
    modulus[(0,) * len(p.vars) + (field.degree,)] = base.one()
    norm = resultant(MultiPoly(base, ring, modulus), MultiPoly(base, ring, lifted), t)
    return norm.drop_vars([t])
