"""Sparse exact multivariate polynomials over Q or a number-field tower.

Terms are held in a dict mapping exponent tuples to nonzero coefficients
(:class:`fractions.Fraction` over Q, :class:`~folgal.numberfield.FieldElement`
over an extension).  The canonical term order is graded lexicographic in the
polynomial's variable tuple; printing and normalization refer to it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .numberfield import FieldElement, RationalField, field_element_str, invert


class NotDivisible(Exception):
    """Exact polynomial division failed."""


def _coerce_coeff(field, value):
    if isinstance(field, RationalField):
        if isinstance(value, FieldElement):
            rat = value.rational_value()
            if rat is None:
                raise TypeError("field element does not lie in QQ")
            return Fraction(rat)
        return Fraction(value)
    return field.coerce(value)


class MultiPoly:
    __slots__ = ("field", "vars", "terms", "_hash")

    def __init__(self, field, variables: Sequence[str], terms: Mapping[tuple, object]):
        self.field = field
        self.vars = tuple(variables)
        clean = {}
        for exp, coeff in terms.items():
            if coeff:
                clean[tuple(exp)] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dict(cls, field, variables, mapping):
        nvars = len(tuple(variables))
        terms = {}
        for exp, val in mapping.items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError("exponent arity mismatch")
            coeff = _coerce_coeff(field, val)
            if coeff:
                terms[exp] = coeff
        return cls(field, variables, terms)

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def constant(cls, field, variables, value):
        value = _coerce_coeff(field, value)
        if not value:
            return cls.zero(field, variables)
        exp = (0,) * len(tuple(variables))
        return cls(field, variables, {exp: value})

    @classmethod
    def variable(cls, field, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(field, variables, {exp: _coerce_coeff(field, 1)})

    def one_like(self):
        return MultiPoly.constant(self.field, self.vars, 1)

    def zero_like(self):
        return MultiPoly.zero(self.field, self.vars)

    # -- basic structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return _coerce_coeff(self.field, 0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        idx = self.vars.index(var)
        return max(e[idx] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, k: int) -> "MultiPoly":
        terms = {e: c for e, c in self.terms.items() if sum(e) == k}
        return MultiPoly(self.field, self.vars, terms)

    def lowest_degree(self) -> int:
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def leading_term(self):
        """(exponent, coefficient) maximal in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return exp, self.terms[exp]

    def leading_coefficient(self):
        return self.leading_term()[1]

    def monic(self) -> "MultiPoly":
        """Normalize the graded-lex leading coefficient to one."""
        if not self.terms:
            return self
        _, lc = self.leading_term()
        inv = invert(self.field, lc)
        return self.scale(inv)

    # -- ring operations -----------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.field is not other.field or self.vars != other.vars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.field, self.vars, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            val = c if acc is None else acc + c
            if val:
                terms[e] = val
            elif acc is not None:
                del terms[e]
        return MultiPoly(self.field, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.field, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.field, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(_coerce_coeff(self.field, other))
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return self.zero_like()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(e)
                val = ca * cb if acc is None else acc + ca * cb
                if val:
                    terms[e] = val
                elif acc is not None:
                    del terms[e]
        return MultiPoly(self.field, self.vars, terms)

    __rmul__ = __mul__

    def scale(self, coeff) -> "MultiPoly":
        coeff = _coerce_coeff(self.field, coeff)
        if not coeff:
            return self.zero_like()
        return MultiPoly(
            self.field, self.vars, {e: c * coeff for e, c in self.terms.items()}
        )

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.one_like()
        acc = self
        while k:
            if k & 1:
                result = result * acc
            acc = acc * acc if k > 1 else acc
            k >>= 1
        return result

    def __truediv__(self, other):
        """Division by an exact divisor (polynomial) or a scalar."""
        if isinstance(other, MultiPoly):
            return self.exact_div(other)
        inv = invert(self.field, _coerce_coeff(self.field, other))
        return self.scale(inv)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact multivariate division; raises :class:`NotDivisible`."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        div_exp, div_coeff = divisor.leading_term()
        inv = invert(self.field, div_coeff)
        quot_terms = {}
        rem = self
        while rem.terms:
            exp, coeff = rem.leading_term()
            qexp = tuple(a - b for a, b in zip(exp, div_exp))
            if any(e < 0 for e in qexp):
                raise NotDivisible("leading monomial not divisible")
            qc = coeff * inv
            quot_terms[qexp] = qc
            piece = MultiPoly(self.field, self.vars, {qexp: qc})
            rem = rem - piece * divisor
        return MultiPoly(self.field, self.vars, quot_terms)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.field is other.field
                and self.vars == other.vars
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.field, self.vars, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- calculus -------------------------------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        idx = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            ne = list(e)
            ne[idx] = k - 1
            val = c * k
            if val:
                terms[tuple(ne)] = val
        return MultiPoly(self.field, self.vars, terms)

    # -- substitution and evaluation ---------------------------------------------------

    def substitute(self, mapping: Mapping[str, object], target=None) -> "MultiPoly":
        """Substitute polynomials/scalars for variables.

        Unmapped variables stay themselves; ``target`` fixes the result's
        variable tuple (defaults to this polynomial's).
        """
        target = tuple(target) if target is not None else self.vars
        field = self.field
        if not self.vars:
            return MultiPoly.constant(field, target, self.constant_value())
        images = []
        for name in self.vars:
            if name in mapping:
                val = mapping[name]
                if isinstance(val, MultiPoly):
                    if val.vars != target:
                        val = val.with_vars(target)
                    images.append(val)
                else:
                    images.append(MultiPoly.constant(field, target, val))
            else:
                images.append(MultiPoly.variable(field, target, name))
        return evaluate_at([self], images)[0]

    def eval_field(self, point: Mapping[str, object]):
        """Evaluate at a point with coordinates in the coefficient field."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing coordinates {missing}")
        powers = []  # powers[i][k - 1] is the i-th coordinate to the k
        for i, v in enumerate(self.vars):
            x = _coerce_coeff(self.field, point[v])
            row = [x]
            top = max((e[i] for e in self.terms), default=0)
            while len(row) < top:
                row.append(row[-1] * x)
            powers.append(row)
        total = _coerce_coeff(self.field, 0)
        for e, c in self.terms.items():
            val = c
            for row, k in zip(powers, e):
                if k:
                    val = val * row[k - 1]
            total = total + val
        return total

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        coords = [complex(point[v]) for v in self.vars]
        total = 0j
        for e, c in self.terms.items():
            val = _coeff_complex(self.field, c)
            for x, k in zip(coords, e):
                if k:
                    val *= x**k
            total += val
        return total

    # -- variable management -----------------------------------------------------------

    def with_vars(self, new_vars: Sequence[str]) -> "MultiPoly":
        """Reinterpret in a ring with variables ``new_vars`` (superset)."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        positions = []
        for v in self.vars:
            if v not in new_vars:
                raise ValueError(f"variable {v} dropped")
            positions.append(new_vars.index(v))
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for pos, k in zip(positions, e):
                ne[pos] = k
            terms[tuple(ne)] = c
        return MultiPoly(self.field, new_vars, terms)

    def drop_vars(self, names: Iterable[str]) -> "MultiPoly":
        """Remove variables that do not occur."""
        names = set(names)
        for name in names:
            if self.degree_in(name) > 0:
                raise ValueError(f"variable {name} occurs")
        keep = [i for i, v in enumerate(self.vars) if v not in names]
        new_vars = tuple(self.vars[i] for i in keep)
        terms = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return MultiPoly(self.field, new_vars, terms)

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        return MultiPoly(self.field, new_vars, dict(self.terms))

    def permute_to(self, new_vars: Sequence[str]) -> "MultiPoly":
        """Same variable set, new order."""
        new_vars = tuple(new_vars)
        if set(new_vars) != set(self.vars):
            raise ValueError("variable sets differ")
        perm = [self.vars.index(v) for v in new_vars]
        terms = {tuple(e[i] for i in perm): c for e, c in self.terms.items()}
        return MultiPoly(self.field, new_vars, terms)

    # -- homogenization ----------------------------------------------------------------

    def homogenize(self, new_var: str, degree: int | None = None) -> "MultiPoly":
        deg = self.total_degree() if degree is None else degree
        if deg < self.total_degree():
            raise ValueError("homogenization degree too small")
        new_vars = self.vars + (new_var,)
        terms = {}
        for e, c in self.terms.items():
            terms[e + (deg - sum(e),)] = c
        return MultiPoly(self.field, new_vars, terms)

    def dehomogenize(self, var: str) -> "MultiPoly":
        """Set ``var`` to 1 and drop it."""
        idx = self.vars.index(var)
        keep = [i for i in range(len(self.vars)) if i != idx]
        new_vars = tuple(self.vars[i] for i in keep)
        terms = {}
        for e, c in self.terms.items():
            ne = tuple(e[i] for i in keep)
            acc = terms.get(ne)
            val = c if acc is None else acc + c
            if val:
                terms[ne] = val
            elif acc is not None:
                del terms[ne]
        return MultiPoly(self.field, new_vars, terms)

    # -- univariate views --------------------------------------------------------------

    def univariate_coeffs(self, var: str) -> list:
        """Coefficients in ``var`` (low to high) as polynomials in the rest."""
        idx = self.vars.index(var)
        keep = [i for i in range(len(self.vars)) if i != idx]
        rest = tuple(self.vars[i] for i in keep)
        deg = self.degree_in(var)
        buckets: list[dict] = [dict() for _ in range(deg + 1)]
        for e, c in self.terms.items():
            buckets[e[idx]][tuple(e[i] for i in keep)] = c
        return [MultiPoly(self.field, rest, b) for b in buckets]

    @classmethod
    def from_univariate(cls, coeffs: Sequence["MultiPoly"], var: str, position: int | None = None):
        """Rebuild from univariate coefficients (polynomials in the other vars)."""
        if not coeffs:
            raise ValueError("empty coefficient list")
        rest = coeffs[0].vars
        field = coeffs[0].field
        if position is None:
            position = len(rest)
        new_vars = rest[:position] + (var,) + rest[position:]
        terms = {}
        for k, coeff in enumerate(coeffs):
            for e, c in coeff.terms.items():
                ne = e[:position] + (k,) + e[position:]
                terms[ne] = c
        return cls(field, new_vars, terms)

    # -- field management ---------------------------------------------------------------

    def map_coefficients(self, fn, new_field=None) -> "MultiPoly":
        field = new_field if new_field is not None else self.field
        terms = {}
        for e, c in self.terms.items():
            val = fn(c)
            if val:
                terms[e] = val
        return MultiPoly(field, self.vars, terms)

    def to_field(self, new_field) -> "MultiPoly":
        """Coerce coefficients into ``new_field`` (an extension of the current)."""
        if new_field is self.field:
            return self
        return self.map_coefficients(lambda c: new_field.coerce(c), new_field)

    # -- printing ----------------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"MultiPoly({poly_str(self)})"


def evaluate_at(polys: Sequence[MultiPoly], point: Sequence[MultiPoly]) -> list:
    """Each of ``polys`` with its i-th variable replaced by ``point[i]``.

    The coordinates share one ring and the polynomials their coefficient
    field.  Horner's rule runs in the first variable, so a form of degree n
    at a point of degree m costs O(n) products of size O(nm), not one per
    term; the powers of the other coordinates are computed once for all of
    the polynomials.
    """
    field, target = point[0].field, point[0].vars
    powers = [[MultiPoly.constant(field, target, 1)] for _ in point]

    def power(i, k):
        cache = powers[i]
        while len(cache) <= k:
            cache.append(cache[-1] * point[i])
        return cache[k]

    constant = {(0,) * len(target): _coerce_coeff(field, 1)}

    def combine(items):
        """The sum of ``c * prod_i point[i]^e_i`` over (exponent, c) items."""
        acc = {}
        for e, c in items:
            term = None
            for i, k in enumerate(e):
                if k:
                    term = power(i, k) if term is None else term * power(i, k)
            for te, tc in (constant if term is None else term.terms).items():
                prev = acc.get(te)
                acc[te] = c * tc if prev is None else prev + c * tc
        return MultiPoly(field, target, acc)

    out = []
    for p in polys:
        rows: dict = {}
        for e, c in p.terms.items():
            rows.setdefault(e[0], []).append(((0,) + e[1:], c))
        acc = MultiPoly.zero(field, target)
        for k in range(max(rows, default=0), -1, -1):
            acc = acc * point[0]
            if k in rows:
                acc = acc + combine(rows[k])
        out.append(acc)
    return out


def _coeff_complex(field, coeff) -> complex:
    if isinstance(coeff, FieldElement):
        return complex(coeff)
    return complex(coeff)


def variables(field, names: Sequence[str]) -> list[MultiPoly]:
    names = tuple(names)
    return [MultiPoly.variable(field, names, n) for n in names]


# -- canonical printing ------------------------------------------------------------------


def _needs_parens(text: str) -> bool:
    return ("+" in text) or ("-" in text[1:]) or text.startswith("-") or (" " in text)


def poly_str(poly: MultiPoly) -> str:
    """Canonical text form: graded-lex descending, explicit ``*`` and ``^``."""
    if not poly.terms:
        return "0"
    pieces = []
    for exp, coeff in poly.sorted_terms():
        mono_parts = []
        for name, k in zip(poly.vars, exp):
            if k == 1:
                mono_parts.append(name)
            elif k > 1:
                mono_parts.append(f"{name}^{k}")
        mono = "*".join(mono_parts)
        if isinstance(coeff, FieldElement):
            rat = coeff.rational_value()
            if rat is not None:
                coeff = rat
        if isinstance(coeff, FieldElement):
            cs = field_element_str(coeff)
            if mono:
                if cs == "1":
                    body = mono
                else:
                    cs = f"({cs})" if _needs_parens(cs) else cs
                    body = f"{cs}*{mono}"
            else:
                body = f"({cs})" if _needs_parens(cs) else cs
            pieces.append(("+", body))
        else:
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
