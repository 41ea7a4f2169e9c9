"""Certified irreducible factorization over Q and over towers of number fields.

Over Q the factorization is sympy's.  Over a layer ``K = k(a)`` of a tower,
with base field ``k`` (Q or a lower layer) and the modulus ``m`` of ``a``
irreducible over ``k``, it follows Trager, "Algebraic factoring and rational
function integration" (SYMSAC 1976), one layer at a time:

1. The part ``R`` of ``f`` with coefficients in ``k`` is split off first:
   with ``f = sum a^i f_i`` and every ``f_i`` over ``k``, ``R`` is the gcd
   of the ``f_i``.  ``R`` is factored over ``k`` by the same method, and
   each factor of it goes through step 2, since it may still split over
   ``K`` (``x^2 - 2`` over Q(sqrt 2)).
2. Each variable ``v`` is shifted to ``v - s_v a``, trying the shift
   vectors ``s`` by growing L1 norm, until the norm ``N = Res_t(m(t), f(t))``
   is squarefree over ``k``.  The norm comes from
   :func:`folgal.polyops.resultant`.  A squarefree norm proves ``f``
   squarefree.  When no shift of L1 norm at most two gives one, ``f`` is
   split by :func:`folgal.polyops.squarefree_decompose` and the search goes
   on, without a bound, for each squarefree part: its bad shifts lie on
   finitely many proper affine subspaces, so the search ends.
3. ``N`` is factored over ``k`` (by sympy when ``k`` is Q, else by the same
   method), and each irreducible factor ``h`` gives the factor ``gcd(f, h)``
   over ``K``, shifted back.  It is irreducible because ``N`` is squarefree
   and ``h`` irreducible (Trager's theorem).
4. The product of the factors, raised to their multiplicities, must equal
   the monic input exactly.

Nothing here builds sympy's algebraic domains and nothing checks that a
modulus is irreducible: a user's modulus is checked when it is parsed
(:func:`folgal.foliation.field_from_spec`), and every other layer adjoins a
factor returned here.  The module also holds the one converter between
MultiPoly over Q and sympy's dense recursive polynomials (:func:`to_dense`,
:func:`from_dense`), which the Q kernels of :mod:`folgal.polyops` use too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Sequence

from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
from sympy.polys.domains import QQ as SQQ
from sympy.polys.factortools import dmp_factor_list
from sympy.polys.polyclasses import DMP
from sympy.polys.sqfreetools import dmp_sqf_p

from .multipoly import MultiPoly
from .numberfield import FieldElement, RationalField


# Never raised: every field factors.  The name stays for outside tools that
# count it, such as the benchmark's tracer.
class FactorUnavailable(Exception):
    pass


# shifts of L1 norm up to this are tried before the squarefree split
_FIRST_NORM = 2


def to_dense(p: MultiPoly, order: Sequence[str]) -> list:
    """Dense recursive sympy representation of ``p`` over sympy's QQ.

    ``order`` lists the variables outermost first; it must contain every
    variable that occurs in ``p``.
    """
    idx = [p.vars.index(v) for v in order]
    flat = {tuple(e[i] for i in idx): SQQ(c.numerator, c.denominator)
            for e, c in p.terms.items()}
    return dmp_from_dict(flat, len(order) - 1, SQQ)


def from_dense(rep, order: Sequence[str], like: MultiPoly) -> MultiPoly:
    """Inverse of :func:`to_dense`: ``rep`` in ``order`` as a polynomial in
    ``like``'s ring over Q.  With ``order`` empty, ``rep`` is a ground element."""
    idx = [like.vars.index(v) for v in order]
    flat = dmp_to_dict(rep, len(order) - 1) if order else {(): rep}
    terms = {}
    for exp, c in flat.items():
        full = [0] * len(like.vars)
        for i, k in zip(idx, exp):
            full[i] = k
        terms[tuple(full)] = Fraction(int(c.numerator), int(c.denominator))
    return MultiPoly(like.field, like.vars, terms)


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
    out.sort(key=_order_key)
    return out


def _order_key(fm):
    """Degree, then support; over a tower, ties are broken by multiplicity
    and then by the coefficients in descending exponent order, each
    flattened to rationals by descending powers of the generators (over
    Q(a), the order of sympy's factor_list)."""
    f, mult = fm
    key = (f.total_degree(), sorted(f.terms))
    if isinstance(f.field, RationalField):
        return key

    def flat(c):
        if isinstance(c, FieldElement):
            return [v for part in reversed(c.rep) for v in flat(part)]
        return [c]

    def coeff(c):
        high = flat(c)
        while not high[0]:
            high.pop(0)
        return high

    return key + (mult, [coeff(f.terms[e]) for e in sorted(f.terms, reverse=True)])


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


def _factor_by_norms(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    # polyops imports this module's converter, so its kernels are imported
    # at call time here and below
    from .polyops import mpoly_gcd_list

    field = p.field
    p = p.monic()
    # a polynomial over the base divides p exactly when it divides every f_i,
    # since 1, a, ..., a^(n-1) are linearly independent over the base
    lower = mpoly_gcd_list([MultiPoly(field.base, p.vars, t) for t in _coordinates(p) if t])
    found = Counter()
    if not lower.is_constant():
        for q, mult in factor_irreducible(lower):
            for f, k in _factor_squarefree_or_split(q.to_field(field)):
                found[f] += mult * k
        p = p.exact_div(lower.to_field(field))
    if not p.is_constant():
        for f, k in _factor_squarefree_or_split(p):
            found[f] += k
    return list(found.items())


def _factor_squarefree_or_split(p: MultiPoly):
    """Factors of ``p`` by norms, through a squarefree split when no shift
    of L1 norm at most ``_FIRST_NORM`` has a squarefree norm."""
    from .polyops import squarefree_decompose

    if p.total_degree() == 1:
        return [(p.monic(), 1)]
    found = _factor_by_shift(p, 0, _FIRST_NORM)
    if found is not None:
        return [(f, 1) for f in found]
    out = []
    for part, mult in squarefree_decompose(p):
        # a squarefree part has a shift with a squarefree norm, so the
        # unbounded search returns
        out += [(f, mult) for f in _factor_by_shift(part, 0, None)]
    return out


def _shifts(count: int, first: int, last: int | None):
    """Shift vectors for ``count`` variables with L1 norm from ``first`` to
    ``last`` (no bound when None), by norm; within a norm, entry by entry
    in the order 0, 1, -1, 2, -2, ..."""
    rank = lambda s: 2 * abs(s) - (s > 0)
    norms = itertools.count(first) if last is None else range(first, last + 1)
    for n in norms:
        yield from sorted((v for v in itertools.product(range(-n, n + 1), repeat=count)
                           if sum(map(abs, v)) == n),
                          key=lambda v: [rank(s) for s in v])


def _factor_by_shift(p: MultiPoly, first: int, last: int | None):
    """Irreducible monic factors of ``p`` over its top layer, from the first
    shift of L1 norm in ``first..last`` with a squarefree norm; None when
    there is none (then ``p`` may not be squarefree)."""
    from .polyops import mpoly_gcd

    field = p.field
    order = [v for v in p.vars if p.degree_in(v) > 0]
    alpha = MultiPoly.constant(field, p.vars, field.gen())

    def move(poly, shift, sign):
        """``poly`` with each variable ``v`` replaced by ``v + sign * s_v * a``."""
        images = {v: MultiPoly.variable(field, p.vars, v) + alpha.scale(sign * s)
                  for v, s in zip(order, shift) if s}
        return poly.substitute(images) if images else poly

    for shift in _shifts(len(order), first, last):
        shifted = move(p, shift, -1)
        pieces = _squarefree_factors(_norm(shifted), order)
        if pieces is not None:
            return [move(mpoly_gcd(shifted, h.to_field(field)), shift, 1).monic()
                    for h in pieces]
    return None


def _squarefree_factors(norm: MultiPoly, order: list) -> list | None:
    """Irreducible factors of ``norm`` over its field, or None when it is
    not squarefree; over Q by sympy's dense kernels on ``order``."""
    from .polyops import squarefree_decompose

    if not isinstance(norm.field, RationalField):
        if any(mult > 1 for _, mult in squarefree_decompose(norm)):
            return None
        return [h for h, _ in factor_irreducible(norm)]
    u = len(order) - 1
    dense = to_dense(norm, order)
    if not dmp_sqf_p(dense, u, SQQ):
        return None
    _, pieces = dmp_factor_list(dense, u, SQQ)
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
