"""Coefficient fields: Q and towers of simple extensions.

A :class:`NumberField` layer is a quotient ``base[g]/(m(g))`` with ``m``
monic and irreducible over ``base``, so every layer is a field.  A modulus
is proved irreducible before it is adjoined: a user's modulus over Q when it
is parsed, and every other one because it is a factor returned by
:func:`folgal.sympy_bridge.factor_irreducible`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


# Raised only if a modulus that is not irreducible was adjoined, which is an
# internal error; the name stays because folgal exports it and tracers count it.
class FieldSplit(Exception):
    """A zero divisor was inverted in ``field``; ``min_poly = f1 * f2``."""

    def __init__(self, field: "NumberField", f1: Sequence, f2: Sequence):
        self.field = field
        self.f1 = tuple(f1)
        self.f2 = tuple(f2)
        super().__init__(
            f"modulus of {field.name} splits into degrees "
            f"{len(f1) - 1} and {len(f2) - 1}"
        )


class RationalField:
    """The rationals; the unique bottom layer of every tower."""

    name = "QQ"
    degree = 1

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def to_complex(self, value) -> complex:
        return complex(value)

    def is_rational_field(self) -> bool:
        return True

    def chain(self):
        return []

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _is_field_of(value, fld) -> bool:
    if isinstance(fld, RationalField):
        return isinstance(value, (Fraction, int))
    return isinstance(value, FieldElement) and value.field is fld


class NumberField:
    """Simple extension ``base[name]/(min_poly)``.

    ``min_poly`` is stored as a tuple of base-field coefficients
    ``(c0, ..., c_{n-1})`` for the monic polynomial
    ``g^n + c_{n-1} g^{n-1} + ... + c0``.
    """

    def __init__(self, base, name: str, min_poly: Sequence, embedding: complex):
        self.base = base
        self.name = name
        self.min_poly = tuple(base.coerce(c) for c in min_poly)
        self.degree = len(self.min_poly)
        if self.degree < 1:
            raise ValueError("empty minimal polynomial")
        self.embedding = complex(embedding)

    # -- element constructors ------------------------------------------------

    def element(self, rep: Iterable) -> "FieldElement":
        rep = tuple(self.base.coerce(c) for c in rep)
        if len(rep) != self.degree:
            raise ValueError("wrong representation length")
        return FieldElement(self, rep)

    def zero(self):
        return FieldElement(self, (self.base.zero(),) * self.degree)

    def one(self):
        rep = [self.base.zero()] * self.degree
        rep[0] = self.base.one()
        return FieldElement(self, tuple(rep))

    def gen(self):
        rep = _reduce_mod([self.base.zero(), self.base.one()], self)
        return FieldElement(self, tuple(rep))

    def coerce(self, value):
        """Lift ints, Fractions and lower-tower elements into this field."""
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            if self._contains_field(value.field):
                return self._lift(value)
            raise TypeError(f"element of {value.field.name} not in {self.name}")
        if isinstance(value, (int, Fraction)):
            base_val = self.base.coerce(value)
            rep = [self.base.zero()] * self.degree
            rep[0] = base_val
            return FieldElement(self, tuple(rep))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def _contains_field(self, other) -> bool:
        fld = self.base
        while isinstance(fld, NumberField):
            if fld is other:
                return True
            fld = fld.base
        return isinstance(other, RationalField)

    def _lift(self, value):
        rep = [self.base.zero()] * self.degree
        rep[0] = self.base.coerce(value)
        return FieldElement(self, tuple(rep))

    # -- tower helpers ---------------------------------------------------------

    def chain(self):
        """Layers bottom-up, excluding QQ."""
        return self.base.chain() + [self]

    def gen_names(self):
        return [layer.name for layer in self.chain()]

    def to_complex(self, value) -> complex:
        rep = value.rep
        acc = 0j
        for c in reversed(rep):
            acc = acc * self.embedding + self.base.to_complex(c)
        return acc

    def is_rational_field(self) -> bool:
        return False

    def __repr__(self):
        names = ",".join(self.gen_names())
        return f"QQ({names})"


class FieldElement:
    """Immutable element of a :class:`NumberField` layer."""

    __slots__ = ("field", "rep", "_hash")

    def __init__(self, field: NumberField, rep: tuple):
        self.field = field
        self.rep = rep
        self._hash = None

    # -- ring structure --------------------------------------------------------

    def _coerced(self, other):
        if _is_field_of(other, self.field):
            return other if isinstance(other, FieldElement) else self.field.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        if isinstance(other, FieldElement) and self.field._contains_field(other.field):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.rep, other.rep))
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.rep))

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.rep, other.rep))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        n = self.field.degree
        if n == 2:
            # quadratic layers dominate in practice; inline the reduction
            a0, a1 = self.rep
            b0, b1 = other.rep
            c0, c1 = self.field.min_poly
            high = a1 * b1
            lin = a0 * b1 + a1 * b0
            if high:
                return FieldElement(
                    self.field, (a0 * b0 - high * c0, lin - high * c1)
                )
            return FieldElement(self.field, (a0 * b0, lin))
        base = self.field.base
        zero = base.zero()
        prod = [zero] * (2 * n - 1)
        for i, a in enumerate(self.rep):
            if not a:
                continue
            for j, b in enumerate(other.rep):
                if b:
                    prod[i + j] = prod[i + j] + a * b
        rep = _reduce_mod(prod, self.field)
        return FieldElement(self.field, tuple(rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return _invert(self)

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self * _invert(other)

    def __rtruediv__(self, other):
        return self._coerced(other) * _invert(self)

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
        return any(self.rep)

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.rep))
        return self._hash

    def as_base(self):
        """Return the base-field value when the element is constant, else None."""
        if any(self.rep[1:]):
            return None
        return self.rep[0]

    def rational_value(self):
        """Fraction value when the element lies in QQ, else None."""
        elem = self
        while isinstance(elem, FieldElement):
            elem = elem.as_base()
            if elem is None:
                return None
        return elem

    def __complex__(self):
        return self.field.to_complex(self)

    def __repr__(self):
        return field_element_str(self)


# -- dense univariate arithmetic over a field layer ----------------------------
#
# Polynomials as lists of coefficients, low degree first, no trailing zeros.


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _reduce_mod(coeffs, field: NumberField):
    """Reduce a coefficient list modulo the (monic) minimal polynomial."""
    n = field.degree
    work = list(coeffs)
    m = field.min_poly
    for i in range(len(work) - 1, n - 1, -1):
        c = work[i]
        if not c:
            continue
        work[i] = field.base.zero()
        for j, mc in enumerate(m):
            if mc:
                work[i - n + j] = work[i - n + j] - c * mc
    work = work[:n]
    while len(work) < n:
        work.append(field.base.zero())
    return work


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
    """Extended Euclid in base[g] mod min_poly."""
    field = elem.field
    base = field.base
    if not elem:
        raise ZeroDivisionError(f"division by zero in {field.name}")
    m = list(field.min_poly) + [base.one()]
    r0, r1 = m, _trim(list(elem.rep))
    s0, s1 = [], [base.one()]
    while True:
        if len(r1) == 1:
            inv = invert(base, r1[0])
            rep = [c * inv for c in s1]
            rep = _reduce_mod(rep, field)
            return FieldElement(field, tuple(rep))
        quot, rem = poly_divmod(r0, r1, base)
        _trim(rem)
        if not rem:
            # r1 is a proper divisor of the modulus, so it was not irreducible
            lc_inv = invert(base, r1[-1])
            f1 = [c * lc_inv for c in r1]
            f2, tail = poly_divmod(m, f1, base)
            assert not _trim(tail), "modulus factor must divide exactly"
            raise FieldSplit(field, f1, f2)
        new_s = list(s0)
        prod_len = len(quot) + len(s1) - 1
        while len(new_s) < prod_len:
            new_s.append(base.zero())
        for i, qc in enumerate(quot):
            if not qc:
                continue
            for j, sc in enumerate(s1):
                if sc:
                    new_s[i + j] = new_s[i + j] - qc * sc
        r0, r1 = r1, rem
        s0, s1 = s1, _trim(new_s)


# -- construction helpers --------------------------------------------------------


def _poly_complex_roots(coeffs_complex):
    import numpy as np

    arr = np.array(list(reversed(coeffs_complex)), dtype=complex)
    return list(np.roots(arr))


def _pick_root(roots, hint=None):
    if hint is not None:
        return min(roots, key=lambda r: abs(r - complex(hint)))
    # deterministic: largest imaginary part, ties by largest real part
    return max(roots, key=lambda r: (round(r.imag, 9), round(r.real, 9)))


def extend(base, name: str, min_poly: Sequence, embedding_hint=None) -> NumberField:
    """Adjoin a root of the monic polynomial ``min_poly`` (coeffs over ``base``).

    The caller proves ``min_poly`` irreducible over ``base``; this checks
    only that it is squarefree, by a gcd with the derivative.
    """
    coeffs = [base.coerce(c) for c in min_poly]
    full = list(coeffs) + [base.coerce(1)]
    deriv = [c * k for k, c in enumerate(full)][1:]
    if len(_squarefree_check_gcd(full, deriv, base)) > 1:
        raise ValueError("minimal polynomial must be squarefree")
    numeric = [base.to_complex(c) for c in coeffs] + [1.0 + 0j]
    roots = _poly_complex_roots(numeric)
    emb = _pick_root(roots, embedding_hint)
    return NumberField(base, name, coeffs, emb)


def fresh_name(field, prefix: str, start: int = 1) -> str:
    """The first of ``prefix{start}``, ``prefix{start + 1}``, ... that names
    no layer of ``field``; index 0 stands for the bare ``prefix``."""
    used = {layer.name for layer in field.chain()}
    k = start
    while (name := f"{prefix}{k or ''}") in used:
        k += 1
    return name


def _squarefree_check_gcd(f, g, base):
    f = _trim(list(f))
    g = _trim(list(g))
    while g:
        _, r = poly_divmod(f, g, base)
        f, g = g, _trim(r)
    return f


# -- printing ----------------------------------------------------------------------


def field_element_str(elem) -> str:
    """Canonical string for a field element: polynomial in the generators."""
    if isinstance(elem, (int, Fraction)):
        return str(elem)
    field = elem.field
    name = field.name
    parts = []
    for i, c in enumerate(elem.rep):
        if isinstance(c, FieldElement):
            if not c:
                continue
            cs = field_element_str(c)
            if i == 0:
                parts.append(cs)
            else:
                mono = name if i == 1 else f"{name}^{i}"
                parts.append(f"({cs})*{mono}" if ("+" in cs or "-" in cs[1:]) else f"{cs}*{mono}")
        else:
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = name if i == 1 else f"{name}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
