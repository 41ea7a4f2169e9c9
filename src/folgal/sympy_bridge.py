"""Certified irreducible factorization, delegated to sympy.

Only two coefficient domains are supported: Q, and a simple certified
extension Q(a) sitting directly over Q.  Anything deeper reports
:class:`FactorUnavailable`; callers fall back to squarefree data plus
dynamic splitting.  The module also holds the one converter between
MultiPoly and sympy's dense recursive polynomials (:func:`to_dense`,
:func:`from_dense`), which the Q kernels of :mod:`folgal.polyops` use too.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Sequence

from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
from sympy.polys.polyclasses import DMP

from .multipoly import MultiPoly
from .numberfield import NumberField, RationalField


class FactorUnavailable(Exception):
    pass


# keyed on the field object, so a collected field's domain is never handed on
_DOMAIN_CACHE: "weakref.WeakKeyDictionary[NumberField, tuple]" = weakref.WeakKeyDictionary()


def _sympy_tools():
    import sympy as sp
    from sympy.polys.domains import QQ as SQQ

    return sp, SQQ


def _algebraic_domain(field: NumberField):
    """sympy algebraic field for a depth-1 extension, with checks."""
    cached = _DOMAIN_CACHE.get(field)
    if cached is not None:
        return cached
    sp, SQQ = _sympy_tools()
    if not isinstance(field.base, RationalField):
        raise FactorUnavailable("tower deeper than one extension layer")
    gen = sp.Symbol(field.name)
    mp_expr = sum(
        (sp.Rational(c) * gen**i for i, c in enumerate(field.min_poly)),
        gen ** field.degree,
    )
    poly = sp.Poly(mp_expr, gen)
    roots = [sp.CRootOf(poly, i) for i in range(field.degree)]
    numeric = [complex(r.evalf(30)) for r in roots]
    idx = min(range(len(roots)), key=lambda i: abs(numeric[i] - field.embedding))
    alpha = roots[idx]
    dom = SQQ.algebraic_field(alpha)
    mod = [Fraction(int(c.numerator), int(c.denominator)) for c in dom.mod.to_list()]
    mine = [Fraction(1)] + [Fraction(c) for c in reversed(field.min_poly)]
    if mod != mine:
        raise FactorUnavailable(
            "declared modulus is not the minimal polynomial of its root"
        )
    result = (dom, alpha)
    _DOMAIN_CACHE[field] = result
    return result


def to_dense(p: MultiPoly, order: Sequence[str], dom) -> list:
    """Dense recursive sympy representation of ``p`` over the sympy domain ``dom``.

    ``order`` lists the variables outermost first; it must contain every
    variable that occurs in ``p``.  ``dom`` is sympy's QQ over Q, or the
    domain of :func:`_algebraic_domain` over a depth-1 extension.
    """
    idx = [p.vars.index(v) for v in order]
    if isinstance(p.field, RationalField):
        coeff = lambda c: dom(c.numerator, c.denominator)
    else:
        sp, _ = _sympy_tools()
        coeff = lambda c: dom([sp.Rational(v) for v in reversed(c.rep)])
    flat = {tuple(e[i] for i in idx): coeff(c) for e, c in p.terms.items()}
    return dmp_from_dict(flat, len(order) - 1, dom)


def from_dense(rep, order: Sequence[str], like: MultiPoly) -> MultiPoly:
    """Inverse of :func:`to_dense`: ``rep`` in ``order`` as a polynomial in
    ``like``'s ring.  With ``order`` empty, ``rep`` is a ground element."""
    field = like.field
    idx = [like.vars.index(v) for v in order]
    flat = dmp_to_dict(rep, len(order) - 1) if order else {(): rep}
    terms = {}
    for exp, c in flat.items():
        full = [0] * len(like.vars)
        for i, k in zip(idx, exp):
            full[i] = k
        terms[tuple(full)] = _coeff_from_sympy(field, c)
    return MultiPoly(field, like.vars, terms)


def _to_sympy_poly(p: MultiPoly):
    sp, SQQ = _sympy_tools()
    syms = [sp.Symbol(v) for v in p.vars]
    if isinstance(p.field, RationalField):
        dom = SQQ
    else:
        dom, _ = _algebraic_domain(p.field)
    rep = DMP(to_dense(p, p.vars, dom), dom, len(p.vars) - 1)
    return sp.Poly.new(rep, *syms), dom


def _rational_of(coeff) -> Fraction:
    if hasattr(coeff, "numerator") and hasattr(coeff, "denominator"):
        return Fraction(int(coeff.numerator), int(coeff.denominator))
    if hasattr(coeff, "p") and hasattr(coeff, "q"):
        return Fraction(int(coeff.p), int(coeff.q))
    raise TypeError(f"unexpected sympy coefficient {coeff!r}")


def _coeff_from_sympy(field, coeff):
    if isinstance(field, RationalField):
        return _rational_of(coeff)
    if hasattr(coeff, "to_list"):
        lst = [_rational_of(c) for c in coeff.to_list()]
        rep = list(reversed(lst))
        rep += [Fraction(0)] * (field.degree - len(rep))
        return field.element(rep)
    return field.coerce(_rational_of(coeff))


def factor_irreducible(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Monic irreducible factors with multiplicities over the working field.

    The constant content is dropped (recoverable by exact division).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return []
    spoly, _ = _to_sympy_poly(p)
    _, factors = spoly.factor_list()
    out = []
    for f, mult in factors:
        q = from_dense(f.rep.to_list(), p.vars, p)
        if q.is_constant():
            continue
        out.append((q.monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].total_degree(), sorted(fm[0].terms)))
    return out
