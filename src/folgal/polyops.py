"""Exact gcd, resultant, discriminant and squarefree structure for MultiPoly.

Strategy: over Q, every gcd and resultant goes to sympy's dense integer
kernels on integer-cleared inputs: the heuristic gcd of Char-Geddes-Gonnet,
certified by exact cofactor products, and the subresultant chain, which gives
the resultant and, to :mod:`folgal.solve2d`, the common roots of the fibres.  Over a
number-field tower they stay in-house: gcds by a Euclidean sequence in one
variable or on binary forms and by content extraction plus subresultant
pseudo-remainder sequences otherwise, resultants by a Bareiss determinant of
the Sylvester matrix.  Both paths are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from sympy.polys.densearith import dmp_exquo, dmp_mul, dmp_pow
from sympy.polys.densebasic import dmp_degree, dmp_LC
from sympy.polys.densetools import dmp_clear_denoms
from sympy.polys.domains import QQ as SQQ
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_inner_gcd, dmp_inner_subresultants

from .multipoly import MultiPoly
from .numberfield import RationalField, invert, poly_divmod
from .sympy_bridge import from_dense, to_dense


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


def _dense_zz(p: MultiPoly, order: Sequence[str]):
    """``(den, f)``: ``f`` is ``den * p`` as a dense polynomial over sympy's ZZ."""
    u = len(order) - 1
    den, f = dmp_clear_denoms(to_dense(p, order), u, SQQ, ZZ, convert=True)
    return int(den), f


def _gcd_rational(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd of non-constant polynomials over Q.

    sympy's dense heuristic gcd (Char-Geddes-Gonnet 1989) runs on the
    integer-cleared inputs.  Its result is certified by the exact cofactor
    identities ``h * cf == f`` and ``h * cg == g`` before it is returned.
    """
    order = [v for v, _, _ in _active_vars(p, q)]
    u = len(order) - 1
    _, f = _dense_zz(p, order)
    _, g = _dense_zz(q, order)
    h, cf, cg = dmp_inner_gcd(f, g, u, ZZ)
    if dmp_mul(h, cf, u, ZZ) != f or dmp_mul(h, cg, u, ZZ) != g:
        raise ArithmeticError("dense gcd over Q failed its cofactor check")
    return from_dense(h, order, p).monic()


def _subresultants_rational(p: MultiPoly, q: MultiPoly, var: str, dp: int, dq: int):
    """Regular subresultants over Q of inputs of degrees ``dp, dq > 0`` in ``var``.

    Returns ``(order, chain)``.  ``chain`` lists ``(j, s, scale)`` by
    increasing ``j < min(dp, dq)``, one for each ``S_j(p, q)`` of degree ``j``
    in ``var``: ``s`` is a dense polynomial over sympy's ZZ in ``order``
    (``var`` first) and ``S_j(p, q) = scale * s``.  Every other ``S_j`` with
    ``j < min(dp, dq)`` has no term of degree ``j``: its principal coefficient
    is zero.  ``S_0`` is the Sylvester resultant.

    sympy's subresultant PRS runs on the integer-cleared inputs with the
    operand of higher degree first; its member ``R[i]`` (``i >= 2``) is
    ``S_{deg R[i-1] - 1}`` and ``S[i]`` the principal coefficient of
    ``S_{deg R[i]}``.  By the subresultant theorem (von zur Gathen-Gerhard,
    Modern Computer Algebra, 6.10-6.11) the regular member is
    ``S_{deg R[i]} = R[i] lc(R[i])^(d-1) / S[i-1]^(d-1)`` with
    ``d = deg R[i-1] - deg R[i]``, an exact quotient.  The sign is Sylvester's
    only with the higher degree first (``Res(y + 2, y^5 + 1)`` is -31, but
    sympy returns 31 for both orders), so the swap's sign
    ``(-1)^((dp - j)(dq - j))`` is applied in ``scale``.
    """
    rest = [v for v, _, _ in _active_vars(p, q) if v != var]
    order = [var] + rest
    u = len(rest)
    a, f = _dense_zz(p, order)
    b, g = _dense_zz(q, order)
    R, S = dmp_inner_subresultants(g, f, u, ZZ) if dp < dq else dmp_inner_subresultants(f, g, u, ZZ)
    chain = []
    for i in range(len(R) - 1, 1, -1):
        j = dmp_degree(R[i], u)
        d = dmp_degree(R[i - 1], u) - j
        s = R[i]
        if d > 1:
            lift = dmp_pow([dmp_LC(s, ZZ)], d - 1, u, ZZ)
            s = dmp_exquo(dmp_mul(s, lift, u, ZZ), dmp_pow([S[i - 1]], d - 1, u, ZZ), u, ZZ)
        # S_j(a p, b q) = a^(dq - j) b^(dp - j) S_j(p, q)
        sign = (-1) ** ((dp - j) * (dq - j)) if dp < dq else 1
        chain.append((j, s, Fraction(sign, a ** (dq - j) * b ** (dp - j))))
    return order, chain


def subresultant_chain(p: MultiPoly, q: MultiPoly, var: str) -> list:
    """``[(j, S_j)]``: the regular subresultants of ``p`` and ``q`` in ``var``
    over Q, by increasing ``j``.

    Listed are the ``S_j`` with ``j`` below both degrees in ``var`` whose
    degree in ``var`` is ``j``; the principal coefficient of every other such
    ``S_j`` is zero.  At a point where the leading coefficients in ``var`` do
    not vanish, the gcd of ``p`` and ``q`` has degree the least ``j`` whose
    principal coefficient does not vanish there, and ``S_j`` is that gcd up
    to a unit.  ``S_0``, listed when it is nonzero, is the resultant.
    """
    if not isinstance(p.field, RationalField):
        raise ValueError("the subresultant chain is computed over Q only")
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp <= 0 or dq <= 0:
        raise DegenerateResultant(f"both inputs need positive degree in {var}")
    order, chain = _subresultants_rational(p, q, var, dp, dq)
    return [(j, from_dense(s, order, p).scale(c)) for j, s, c in chain]


def _resultant_rational(p: MultiPoly, q: MultiPoly, var: str, dp: int, dq: int) -> MultiPoly:
    """Sylvester resultant over Q of inputs of degrees ``dp, dq > 0`` in
    ``var``: ``S_0`` of the subresultant chain, or zero when it is not there."""
    order, chain = _subresultants_rational(p, q, var, dp, dq)
    if not chain or chain[0][0]:
        return p.zero_like()
    _, s, c = chain[0]
    return from_dense(s[0], order[1:], p).scale(c)


# -- univariate gcd over a number field ------------------------------------------------


def _gcd_univariate_field(f: list, g: list, field) -> list:
    """Monic Euclidean gcd of coefficient lists (low to high) over ``field``."""

    def trim(a):
        while a and not a[-1]:
            a.pop()
        return a

    f = trim(list(f))
    g = trim(list(g))
    while g:
        _, r = poly_divmod(f, g, field)
        f, g = g, r
    if not f:
        return []
    inv = invert(field, f[-1])
    return [c * inv for c in f]


# -- multivariate gcd ---------------------------------------------------------------------


def _univariate_constant_coeffs(p: MultiPoly, var: str):
    """Coefficient list in ``var`` when no other variable occurs."""
    coeffs = p.univariate_coeffs(var)
    return [c.constant_value() for c in coeffs]


def mpoly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, graded-lex leading coefficient normalized to 1.

    Over Q the gcd comes from sympy's dense heuristic gcd, certified by exact
    cofactor products.  Over a number-field tower it comes from content
    extraction and subresultant pseudo-remainder sequences, with a Euclidean
    gcd in one variable and on binary forms.
    """
    if p.is_zero() and q.is_zero():
        return p.zero_like()
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return p.one_like()
    if isinstance(p.field, RationalField):
        return _gcd_rational(p, q)
    return _gcd_content_prs(p, q)


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
        res = _gcd_univariate_field(
            _univariate_constant_coeffs(p, var),
            _univariate_constant_coeffs(q, var),
            p.field,
        )
        terms = {}
        idx = p.vars.index(var)
        for k, c in enumerate(res):
            if c:
                exp = tuple(k if i == idx else 0 for i in range(len(p.vars)))
                terms[exp] = c
        return MultiPoly(p.field, p.vars, terms).monic()

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

    g = _gcd_univariate_field(slice_at_one(p), slice_at_one(q), p.field)
    shift = min(e[iu] for f in (p, q) for e in f.terms)
    terms = {}
    for k, c in enumerate(g):
        exp = [0] * len(p.vars)
        exp[iv] = k
        exp[iu] = len(g) - 1 - k + shift
        terms[tuple(exp)] = c
    return MultiPoly(p.field, p.vars, terms).monic()


def content_in(p: MultiPoly, var: str) -> MultiPoly:
    """Gcd of the coefficients of ``p`` viewed in ``var``."""
    coeffs = [c.with_vars(p.vars) for c in p.univariate_coeffs(var)]
    acc = None
    for c in coeffs:
        if c.is_zero():
            continue
        acc = c if acc is None else mpoly_gcd(acc, c)
        if acc.is_constant():
            break
    return acc.monic() if acc is not None else p.zero_like()


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


def _bareiss_det(matrix: list[list[MultiPoly]]):
    """Fraction-free determinant; entries are MultiPoly over the same ring."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    m = [row[:] for row in matrix]
    one = m[0][0].one_like()
    zero = m[0][0].zero_like()
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return zero
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_matrix(p: MultiPoly, q: MultiPoly, var: str):
    """Sylvester matrix of ``p`` and ``q`` in ``var``; entries keep the full ring."""
    fc = [c.with_vars(p.vars) for c in p.univariate_coeffs(var)]
    gc = [c.with_vars(p.vars) for c in q.univariate_coeffs(var)]
    m = len(fc) - 1
    n = len(gc) - 1
    size = m + n
    zero = p.zero_like()
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant with respect to ``var``."""
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
    return _bareiss_det(sylvester_matrix(p, q, var))


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
    """Yun/Musser-style squarefree decomposition (characteristic zero)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return SquarefreeDecomposition(p.constant_value(), [])

    def derivative_gcd(poly):
        acc = poly
        for v in poly.vars:
            if poly.degree_in(v) > 0:
                acc = mpoly_gcd(acc, poly.derivative(v))
                if acc.is_constant():
                    break
        return acc

    factors: dict[int, MultiPoly] = {}

    def recurse(poly, shift):
        g = derivative_gcd(poly)
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
    items = sorted(factors.items())
    result = [(f, m) for m, f in items]
    prod = p.one_like()
    for f, m in result:
        prod = prod * f**m
    unit_poly = p.exact_div(prod)
    if not unit_poly.is_constant():
        raise AssertionError("squarefree reconstruction left a non-constant unit")
    return SquarefreeDecomposition(unit_poly.constant_value(), result)


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
    unit = p.exact_div(root * root).constant_value()
    return True, root, unit


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
        acc = p.monic() if acc is None else mpoly_gcd(acc, p)
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("all inputs are zero")
    return acc.monic()
