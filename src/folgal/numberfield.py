"""Coefficient fields: Q and towers of simple extensions.

A :class:`NumberField` layer is a quotient ``base[g]/(m(g))`` with ``m``
monic and irreducible over ``base``, so every layer is a field.  A modulus
is proved irreducible before it is adjoined: a user's modulus over Q when it
is parsed, and every other one because it is a factor returned by
:func:`folgal.sympy_bridge.factor_irreducible`; :func:`adjoin_root` adjoins
a root of such a factor.

Q (:data:`QQ`, scalars are :class:`fractions.Fraction`) and every layer
(scalars are :class:`FieldElement`) answer the same calls: ``zero()``,
``one()``, ``coerce()`` (of an int, a Fraction, or an element of the tower
whose value lies in the field), ``chain()`` and ``to_complex()``.  Code above
this module makes scalars through them and need not know which field it has.

An element of a layer at any depth is integer coordinates over one
denominator (Cohen, *A Course in Computational Algebraic Number Theory*,
4.2), taken over the power basis of the whole tower down to Q: a tuple
``num`` of ``size`` ints, the top generator's exponent varying slowest, and
an int ``den > 0`` with ``gcd(den, *num) == 1``.  A lower layer's basis is
then a prefix of a higher one's, so an element moves up the tower by
zero-padding ``num``.  Every operation puts its result in lowest terms; each
value then has exactly one ``(num, den)``, which is what lets ``==`` and
``hash`` compare the pair directly.

``+`` and ``-`` run on the ints.  A product with a rational operand scales
the other's coordinates; any other product is one convolution and one pass
over a table.  Two basis monomials multiply to a monomial whose exponent in
each layer's generator is below ``2 deg - 1`` of that layer; the exponent
vectors below those bounds are the cells of a mixed-radix grid, and each
layer keeps, per cell, the coordinates of its monomial reduced by the moduli,
over one denominator shared by the whole table.  An inverse solves the
element's integer multiplication matrix in the same basis by fraction-free
elimination (:func:`folgal.linalg.integer_echelon`), with no Euclid and no
Fraction.  ``FieldElement.rep`` is the view over the base layer: coordinates
in the base, as Fractions over Q.  It serves printing and the split of a
polynomial into coordinates over the base.

The sparse polynomial kernels that :class:`folgal.multipoly.MultiPoly` runs
on live here too, one for every field: :func:`product_terms` and
:func:`quotient_terms`.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import integer_echelon


# Raised only if a modulus that is not irreducible was adjoined, which is an
# internal error; the name stays because folgal exports it and tracers count it.
class FieldSplit(Exception):
    """A zero divisor was inverted in a layer."""


class RationalField:
    """The rationals; the unique bottom layer of every tower.

    As the base of a layer, Q is a tower of ``size`` 1 whose product table
    (see :class:`NumberField`) has one cell, the monomial 1."""

    name = "QQ"
    degree = 1
    size = 1
    _pos = (0,)
    _monomials = (Fraction(1),)
    _embeddings = (1 + 0j,)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        """Fractions pass through; ints, and tower elements whose value is
        rational, become Fractions."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, FieldElement):
            rat = value.rational_value()
            if rat is not None:
                return rat
            raise TypeError(f"element of {value.field.name} does not lie in QQ")
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def _make(self, num, den: int):
        """The scalar with coordinates ``num`` over ``den``."""
        return Fraction(num[0], den)

    def to_complex(self, value) -> complex:
        return complex(value)

    def chain(self):
        return []

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class NumberField:
    """Simple extension ``base[name]/(min_poly)``.

    ``min_poly`` is stored as a tuple of base-field coefficients
    ``(c0, ..., c_{n-1})`` for the monic polynomial
    ``g^n + c_{n-1} g^{n-1} + ... + c0``.  ``size`` is the degree of the
    tower over Q, the length of every element's ``num``; basis monomial
    ``t * base.size + i`` is ``g^t`` times the base's basis monomial ``i``.

    The product tables, built once from the moduli: a grid cell is a vector
    of exponents, one per layer and below ``2 deg - 1`` of that layer,
    numbered in mixed radix with the top layer's digit most significant.
    ``_monomials[cell]`` is that monomial, reduced.  ``_pos[i]`` is the cell
    of basis monomial ``i``, so the product of basis monomials ``i`` and
    ``j`` lies in cell ``_pos[i] + _pos[j]`` (no digit carries).  For each
    cell outside the basis, ``_overflow`` holds ``(cell, row)``: ``row``
    lists the nonzero ``(k, a)`` such that ``a / _tden`` is coordinate ``k``
    of the cell's monomial, ``_tden`` being one denominator for the whole
    table.  ``_embeddings[i]`` is the complex value of basis monomial ``i``.
    """

    def __init__(self, base, name: str, min_poly: Sequence, embedding: complex):
        self.base = base
        self.name = name
        self.min_poly = tuple(base.coerce(c) for c in min_poly)
        self.degree = n = len(self.min_poly)
        if n < 1:
            raise ValueError("empty minimal polynomial")
        self.size = n * base.size
        self.embedding = complex(embedding)
        self._pos = tuple(t * len(base._monomials) + p for t in range(n) for p in base._pos)
        self._embeddings = tuple(
            self.embedding**t * e for t in range(n) for e in base._embeddings
        )
        # g^0, ..., g^(2n-2) over the base, each the previous one times g;
        # a degree-1 layer needs g^1 for its generator
        powers = [[base.one()] + [base.zero()] * (n - 1)]
        while len(powers) < max(2 * n - 1, 2):
            *low, high = powers[-1]
            powers.append([a - high * m for a, m in zip([base.zero()] + low, self.min_poly)])
        self._gen = self.element(powers[1])
        self._monomials = tuple(
            self.element([m * c for c in powers[t]])
            for t in range(2 * n - 1)
            for m in base._monomials
        )
        self._tden = lcm(*(m.den for m in self._monomials))
        basis = set(self._pos)
        self._overflow = tuple(
            (cell, tuple((k, a * (self._tden // m.den)) for k, a in enumerate(m.num) if a))
            for cell, m in enumerate(self._monomials)
            if cell not in basis
        )

    # -- element constructors ------------------------------------------------

    def element(self, rep: Iterable) -> "FieldElement":
        """The element with coefficients ``rep`` over the base, lowest power
        first."""
        parts = [_parts(self.base.coerce(c)) for c in rep]
        if len(parts) != self.degree:
            raise ValueError("wrong representation length")
        # the least common denominator of parts in lowest terms keeps them so
        den = lcm(*(d for _, d in parts))
        return FieldElement(self, tuple(a * (den // d) for num, d in parts for a in num), den)

    def from_poly(self, coeffs: Sequence) -> "FieldElement":
        """``p(g)`` for the polynomial ``p`` with base-field coefficients
        ``coeffs``, lowest first, of any degree."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = acc * self._gen + self.coerce(c)
        return acc

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def gen(self):
        return self._gen

    def coerce(self, value):
        """Lift ints, Fractions and lower-tower elements into this field."""
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            if not self._contains_field(value.field):
                raise TypeError(f"element of {value.field.name} not in {self.name}")
        elif not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        num, den = _parts(value)
        return FieldElement(self, num + (0,) * (self.size - len(num)), den)

    def _contains_field(self, other) -> bool:
        fld = self.base
        while isinstance(fld, NumberField):
            if fld is other:
                return True
            fld = fld.base
        return isinstance(other, RationalField)

    def _make(self, num, den: int) -> "FieldElement":
        """The element with coordinates ``num`` over ``den``."""
        return _lowest_terms(self, num, den)

    # -- tower helpers ---------------------------------------------------------

    def chain(self):
        """Layers bottom-up, excluding QQ."""
        return self.base.chain() + [self]

    def gen_names(self):
        return [layer.name for layer in self.chain()]

    def to_complex(self, value) -> complex:
        # int / int rounds correctly however large the integers are
        return sum((a / value.den * e for a, e in zip(value.num, self._embeddings) if a), 0j)

    def __repr__(self):
        names = ",".join(self.gen_names())
        return f"QQ({names})"


class FieldElement:
    """Immutable element of a :class:`NumberField` layer.

    It is ``sum_i num[i] b_i / den`` over the power basis ``b_i`` of the
    whole tower (see :class:`NumberField`): ``num`` is a tuple of
    ``field.size`` ints and ``den`` a positive int, in lowest terms,
    ``gcd(den, *num) == 1``.  Each value then has exactly one
    ``(num, den)`` in each layer, so ``==`` compares those tuples.  ``rep``
    gives the coefficients over the base layer, as Fractions over Q.
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def rep(self) -> tuple:
        """Power-basis coefficients over the base field, lowest power first."""
        base = self.field.base
        s = base.size
        return tuple(
            base._make(self.num[t * s:(t + 1) * s], self.den) for t in range(self.field.degree)
        )

    # -- ring structure --------------------------------------------------------

    def _operands(self, other):
        """``(a, b)``: ``self`` and ``other`` in the larger of their two
        fields, or None when ``other`` is not a scalar of the same tower.
        When both are elements, Python never tries the reflected method, so
        ``self`` moves up here when it lies in a lower layer of ``other``'s
        tower."""
        if isinstance(other, FieldElement):
            if other.field is self.field:
                return self, other
            if self.field._contains_field(other.field):
                return self, self.field.coerce(other)
            if other.field._contains_field(self.field):
                return other.field.coerce(self), other
            return None
        if isinstance(other, (int, Fraction)):
            return self, self.field.coerce(other)
        return None

    def __add__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _sum(a.field, a.num, a.den, b.num, b.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _sum(a.field, a.num, a.den, [-x for x in b.num], b.den)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        field = a.field
        if not any(b.num[1:]):
            a, b = b, a
        if not any(a.num[1:]):
            # a rational operand scales the other's coordinates
            x = a.num[0]
            return _lowest_terms(field, [x * y for y in b.num], a.den * b.den)
        pos = field._pos
        conv = [0] * len(field._monomials)
        for p, x in zip(pos, a.num):
            if x:
                for q, y in zip(pos, b.num):
                    if y:
                        conv[p + q] += x * y
        return _lowest_terms(field, *_reduce(field, conv, a.den * b.den))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return _invert(self)

    def __truediv__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * _invert(b)

    def __rtruediv__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * _invert(a)

    def __pow__(self, k: int):
        if k < 0:
            return _invert(self) ** (-k)
        result = self.field.one()
        acc = self
        while k:
            if k & 1:
                result = result * acc
            acc = acc * acc
            k >>= 1
        return result

    # -- predicates -------------------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # == holds across the layers of one tower and against Fractions, so
        # a rational value hashes as its Fraction, and any other value by its
        # coordinates without the zeros that coerce pads at the top
        if self._hash is None:
            rat = self.rational_value()
            if rat is not None:
                self._hash = hash(rat)
            else:
                top = len(self.num) - next(i for i, a in enumerate(reversed(self.num)) if a)
                self._hash = hash((self.num[:top], self.den))
        return self._hash

    def rational_value(self):
        """Fraction value when the element lies in QQ, else None."""
        return None if any(self.num[1:]) else Fraction(self.num[0], self.den)

    def __complex__(self):
        return self.field.to_complex(self)

    def __repr__(self):
        return field_element_str(self)


# -- coordinates over one denominator ------------------------------------------------


def _parts(value) -> tuple[tuple, int]:
    """``(num, den)`` of a tower element, an int or a Fraction."""
    if isinstance(value, FieldElement):
        return value.num, value.den
    return (value.numerator,), value.denominator


def _lowest_terms(field: NumberField, num, den: int) -> FieldElement:
    """The element ``num / den`` of a layer, with ``den > 0``, in lowest
    terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return FieldElement(field, tuple(num), den)


def _reduce(field: NumberField, conv, den: int):
    """``(num, den')``: the element ``sum_cell conv[cell] _monomials[cell] /
    den`` as coordinates over ``den' = den * _tden``, not in lowest terms."""
    tden = field._tden
    num = [conv[p] * tden for p in field._pos]
    for cell, row in field._overflow:
        c = conv[cell]
        if c:
            for k, a in row:
                num[k] += c * a
    return num, den * tden


def _sum(field: NumberField, a, d: int, b, e: int) -> FieldElement:
    """``a/d + b/e`` for coordinates in lowest terms.  As for Fractions
    (Knuth, TAOCP 4.5.1), with ``g = gcd(d, e)`` the sum
    ``(a e/g + b d/g) / (d e/g)`` can only share a factor of ``g``."""
    g = gcd(d, e)
    if g == 1:
        return FieldElement(field, tuple(x * e + y * d for x, y in zip(a, b)), d * e)
    d1, e1 = d // g, e // g
    num = [x * e1 + y * d1 for x, y in zip(a, b)]
    g = gcd(g, *num)
    if g != 1:
        num = [t // g for t in num]
    return FieldElement(field, tuple(num), d1 * (e // g))


# -- sparse polynomial kernels ----------------------------------------------------
#
# A polynomial is a dict from monomial keys to scalars of one field.  The keys
# are ints that add as the monomials multiply (:mod:`folgal.multipoly` packs
# the exponents into them); the quotient kernel also needs them to grow with
# the monomial order and to show divisibility by a guard bit per field.


class NotDivisible(Exception):
    """Exact polynomial division failed."""


def _cleared(terms: dict):
    """``(den, [(key, num)])``: the least common denominator ``den`` of the
    coefficients and the coordinates ``num`` of each over it."""
    parts = [(k, _parts(c)) for k, c in terms.items()]
    den = lcm(*(d for _, (_, d) in parts))
    return den, [(k, [a * (den // d) for a in num]) for k, (num, d) in parts]


def _cleared_rational(terms: dict):
    """:func:`_cleared` for rational coefficients, each numerator an int."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()]


def product_terms(field, a: dict, b: dict) -> dict:
    """The terms of the product of polynomials with terms ``a`` and ``b``
    over ``field``, each key the sum of two keys.

    Each operand is put over one denominator, and the products of its
    integer coordinates are summed per output key without being reduced.
    Over Q those are plain ints.  Over a layer they are summed per cell of
    the product table, and each output term goes through the table
    (:func:`_reduce`) once; a coefficient of a lower layer is zero-padded,
    as :meth:`NumberField.coerce` pads it.  Each output coefficient is made
    in lowest terms once.
    """
    if len(a) > len(b):
        a, b = b, a
    acc: dict = {}
    if isinstance(field, RationalField):
        da, ca = _cleared_rational(a)
        db, cb = _cleared_rational(b)
        get = acc.get
        for ka, x in ca:
            for kb, y in cb:
                k = ka + kb
                acc[k] = get(k, 0) + x * y
        den = da * db
        return {k: Fraction(n, den) for k, n in acc.items() if n}
    da, ca = _cleared(a)
    db, cb = _cleared(b)
    pos = field._pos
    cells = len(field._monomials)
    ca = [(k, [(pos[i], x) for i, x in enumerate(num) if x]) for k, num in ca]
    cb = [(k, [(pos[i], y) for i, y in enumerate(num) if y]) for k, num in cb]
    for ka, xs in ca:
        for kb, ys in cb:
            k = ka + kb
            conv = acc.get(k)
            if conv is None:
                conv = acc[k] = [0] * cells
            for p, x in xs:
                for q, y in ys:
                    conv[p + q] += x * y
    out = {}
    for k, conv in acc.items():
        num, den = _reduce(field, conv, da * db)
        if any(num):
            out[k] = _lowest_terms(field, num, den)
    return out


def quotient_terms(field, f: dict, g: dict, guard: int) -> dict:
    """The terms of the exact quotient ``f / g`` of polynomials over
    ``field``; raises :class:`NotDivisible` when ``g`` does not divide ``f``.

    The greatest key of a polynomial must be its leading monomial, and the
    monomial of key ``l`` must divide that of key ``k`` exactly when
    ``k - l >= 0`` and ``(k - l) & guard == 0``; ``k - l`` is then the key
    of the quotient.  The remainder is a dict updated in place, and a heap
    of its keys yields each leading term.

    Over Q the division runs on ints.  Write ``f = F / df`` and
    ``g = (c / dg) G`` with ``F`` and ``G`` integral and ``G`` primitive.
    If ``G`` divides ``F`` over Q, then by Gauss's lemma the quotient ``H``
    is integral.  Long division meets exactly ``H``'s coefficients, so a
    leading coefficient that ``lc(G)`` does not divide proves that ``g``
    does not divide ``f``.  Then ``f / g = H dg / (df c)``.  Over a layer it
    is long division in the field.
    """
    lead = max(g)
    if isinstance(field, RationalField):
        df, F = _cleared_rational(f)
        dg, G = _cleared_rational(g)
        content = gcd(*(n for _, n in G))
        G = {k: n // content for k, n in G}
        lc = G.pop(lead)
        rest = [(k - lead, -n) for k, n in G.items()]

        def coefficient(c):
            q, r = divmod(c, lc)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            return q

        quot = _long_division(dict(F), lead, rest, guard, coefficient)
        den = df * content
        return {k: Fraction(h * dg, den) for k, h in quot.items()}
    inv = invert(field, g[lead])
    rest = [(k - lead, -c) for k, c in g.items() if k != lead]
    # coefficients of a lower layer move up, so every quotient term lies in the field itself
    rem = {k: field.coerce(c) for k, c in f.items()}
    return _long_division(rem, lead, rest, guard, lambda c: c * inv)


def _long_division(rem: dict, lead: int, rest, guard: int, coefficient) -> dict:
    """Quotient terms of the long division of ``rem`` (consumed) by a
    divisor with leading key ``lead``; ``rest`` lists ``(k - lead, -c)``
    for the divisor's other terms ``(k, c)``, and ``coefficient(c)`` is the
    quotient coefficient for a leading coefficient ``c``.  Every key in
    ``rem`` has exactly one entry in the heap."""
    heap = [-k for k in rem]
    heapify(heap)
    quot = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        qk = k - lead
        if qk < 0 or qk & guard:
            raise NotDivisible("leading monomial not divisible")
        q = quot[qk] = coefficient(c)
        for off, nc in rest:
            kk = k + off
            old = rem.get(kk)
            if old is None:
                rem[kk] = q * nc
                heappush(heap, -kk)
            else:
                rem[kk] = old + q * nc
    return quot


# -- dense univariate arithmetic over a field layer ----------------------------
#
# Polynomials as lists of coefficients, low degree first, no trailing zeros.


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def poly_divmod(num, den, fld):
    """Exact field division with remainder; coefficients over ``fld``."""
    num = list(num)
    den = list(den)
    _trim(num)
    _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lc = invert(fld, den[-1])
    quot = [fld.zero()] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        c = num[-1] * inv_lc
        k = len(num) - len(den)
        quot[k] = c
        for i, dc in enumerate(den):
            num[i + k] = num[i + k] - c * dc
        _trim(num)
    return quot, num


def divide_root(coeffs, xi):
    """The quotient of the coefficient list ``coeffs`` (low to high) by
    ``v - xi``, by synthetic division, or None unless the remainder is 0."""
    acc = coeffs[-1]
    quotient = [acc]
    for c in reversed(coeffs[:-1]):
        acc = c + acc * xi
        quotient.append(acc)
    return None if acc else quotient[-2::-1]


def invert(fld, value):
    """Inverse of a nonzero scalar of ``fld``: of Q, of a layer, or of a
    layer below it."""
    if isinstance(value, FieldElement):
        return _invert(value)
    if isinstance(fld, NumberField):
        return _invert(fld.coerce(value))
    if not value:
        raise ZeroDivisionError("division by zero in QQ")
    return 1 / Fraction(value)


def _invert(elem: FieldElement) -> FieldElement:
    """Inverse in the layer, by an integer solve in the tower's power basis.

    A rational element ``a / d`` has inverse ``d / a``.  Otherwise, with
    ``elem = num / den``, column ``j`` of the integer matrix ``M`` is the
    product of ``num`` and basis monomial ``j`` over the table's denominator
    ``_tden`` (see :class:`NumberField`), so ``elem * x = M x / (den
    _tden)`` for coordinates ``x``.  The inverse solves ``M x = den _tden
    e_0``, by :func:`folgal.linalg.integer_echelon` on ``(M | e_0)``.  ``M``
    is singular only when ``elem`` is a zero divisor, so the modulus of some
    layer is not irreducible, an internal error: :class:`FieldSplit`.
    """
    field = elem.field
    if not elem:
        raise ZeroDivisionError(f"division by zero in {field.name}")
    num, n = elem.num, field.size
    if not any(num[1:]):
        a = num[0]
        return FieldElement(field, (elem.den if a > 0 else -elem.den,) + (0,) * (n - 1), abs(a))
    pos = field._pos
    cells = len(field._monomials)
    cols = []
    for q in pos:
        conv = [0] * cells
        for p, x in zip(pos, num):
            conv[p + q] = x
        cols.append(_reduce(field, conv, 1)[0])
    rows, pivots = integer_echelon([[col[k] for col in cols] + [int(not k)] for k in range(n)])
    if pivots != list(range(n)):
        raise FieldSplit(f"{elem} is a zero divisor: the modulus of {field.name} is reducible")
    common = lcm(*(row[j] for j, row in enumerate(rows)))
    scale = elem.den * field._tden * common
    return _lowest_terms(field, [row[n] * scale // row[j] for j, row in enumerate(rows)], common)


def poly_gcd(f, g, fld):
    """Monic Euclidean gcd of coefficient lists (low to high) over ``fld``;
    ``[]`` when both are zero."""
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        f, g = g, poly_divmod(f, g, fld)[1]
    if not f:
        return []
    inv = invert(fld, f[-1])
    return [c * inv for c in f]


def poly_invmod(a, mod, fld):
    """Inverse of ``a`` modulo ``mod`` over ``fld`` (coefficient lists, low to
    high) by the extended Euclidean algorithm, of degree below ``mod``'s;
    None when ``a`` and ``mod`` share a factor."""
    r0, r1 = list(mod), _trim(list(a))
    s0, s1 = [], [fld.one()]
    while r1:
        if len(r1) == 1:
            inv = invert(fld, r1[0])
            return [c * inv for c in s1]
        quot, rem = poly_divmod(r0, r1, fld)
        new_s = s0 + [fld.zero()] * (len(quot) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(quot):
            if not qc:
                continue
            for j, sc in enumerate(s1):
                if sc:
                    new_s[i + j] = new_s[i + j] - qc * sc
        r0, r1 = r1, rem
        s0, s1 = s1, _trim(new_s)
    return None


# -- construction helpers --------------------------------------------------------


def _poly_complex_roots(coeffs_complex):
    import numpy as np

    arr = np.array(list(reversed(coeffs_complex)), dtype=complex)
    return list(np.roots(arr))


def extend(base, name: str, min_poly: Sequence) -> NumberField:
    """Adjoin a root of the monic polynomial ``min_poly`` (coeffs over ``base``).

    The caller proves ``min_poly`` irreducible over ``base``; this checks
    only that it is squarefree, by a gcd with the derivative.  Over Q that
    gcd is sympy's ``dup_sqf_p`` over ZZ on the coefficients times their
    common denominator, a nonzero scalar that changes no root; over a layer
    it is :func:`poly_gcd` over the base.
    """
    coeffs = [base.coerce(c) for c in min_poly]
    full = list(coeffs) + [base.coerce(1)]
    if base is QQ:
        # imported here, so that importing numberfield does not import sympy
        from sympy.polys.domains import ZZ
        from sympy.polys.sqfreetools import dup_sqf_p

        den = lcm(*(c.denominator for c in full))
        squarefree = dup_sqf_p([int(c * den) for c in reversed(full)], ZZ)
    else:
        deriv = [c * k for k, c in enumerate(full)][1:]
        squarefree = len(poly_gcd(full, deriv, base)) <= 1
    if not squarefree:
        raise ValueError("minimal polynomial must be squarefree")
    numeric = [base.to_complex(c) for c in coeffs] + [1.0 + 0j]
    roots = _poly_complex_roots(numeric)
    # deterministic: largest imaginary part, ties by largest real part
    emb = max(roots, key=lambda r: (round(r.imag, 9), round(r.real, 9)))
    return NumberField(base, name, coeffs, emb)


def fresh_name(field, prefix: str, start: int = 1) -> str:
    """The first of ``prefix{start}``, ``prefix{start + 1}``, ... that names
    no layer of ``field``; index 0 stands for the bare ``prefix``."""
    used = {layer.name for layer in field.chain()}
    k = start
    while (name := f"{prefix}{k or ''}") in used:
        k += 1
    return name


def adjoin_root(factor, prefix: str, start: int = 1):
    """``(K, root)`` for a monic irreducible univariate polynomial ``factor``
    over ``base = factor.field``: ``(base, -c0)`` when ``factor`` is linear,
    else a new layer over ``base``, named by :func:`fresh_name`, and its
    generator."""
    base = factor.field
    var = next(v for v in factor.vars if factor.degree_in(v) > 0)
    low = factor.coefficients(var)[:-1]
    if len(low) == 1:
        return base, -low[0]
    K = extend(base, fresh_name(base, prefix, start), low)
    return K, K.gen()


def coordinates(value) -> list:
    """Rational coordinates of a scalar of Q or of a layer: for an element
    of a layer, the coordinates of its power-basis coefficients, lowest
    power first, each flattened the same way down to Q."""
    if isinstance(value, FieldElement):
        return [Fraction(a, value.den) for a in value.num]
    return [value]


# -- printing ----------------------------------------------------------------------


def field_element_str(elem) -> str:
    """Canonical string for a field element: polynomial in the generators."""
    if isinstance(elem, (int, Fraction)):
        return str(elem)
    field = elem.field
    name = field.name
    parts = []
    for i, c in enumerate(elem.rep):
        if not c:
            continue
        if i == 0:
            parts.append(field_element_str(c))
            continue
        mono = name if i == 1 else f"{name}^{i}"
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            cs = field_element_str(c)
            parts.append(f"({cs})*{mono}" if ("+" in cs or "-" in cs[1:]) else f"{cs}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
