"""Rational functions as reduced fractions of MultiPoly.

A :class:`RationalFunction` is reduced by one gcd each time it is built, so
arithmetic on them pays one gcd per operation.  :func:`compose_poly` expands
over a common denominator with polynomial arithmetic and reduces once, at the
end.
"""

from __future__ import annotations

from .multipoly import MultiPoly, evaluate_at
from .polyops import mpoly_gcd


class RationalFunction:
    """Quotient num/den, gcd-reduced, with graded-lex monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero():
            g = mpoly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
        if num.is_zero():
            den = den.one_like()
        lc = den.leading_coefficient()
        from .multipoly import _coeff_invert

        inv = _coeff_invert(den.field, lc)
        num = num.scale(inv)
        den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RationalFunction":
        return cls(p, p.one_like(), reduce=False)

    def _match(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction.from_poly(other)
        return RationalFunction.from_poly(
            MultiPoly.constant(self.num.field, self.num.vars, other)
        )

    def __add__(self, other):
        other = self._match(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._match(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._match(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._match(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RationalFunction(self.den ** (-k), self.num ** (-k))
        return RationalFunction(self.num**k, self.den**k)

    def __eq__(self, other):
        if isinstance(other, (RationalFunction, MultiPoly, int)):
            other = self._match(other)
            return (self.num * other.den) == (other.num * self.den)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError("denominator is not constant")
        return self.num / self.den.constant_value()

    def eval_complex(self, point) -> complex:
        return self.num.eval_complex(point) / self.den.eval_complex(point)

    def __str__(self):
        if self.den == self.den.one_like():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def compose_poly(p: MultiPoly, mapping: dict) -> RationalFunction:
    """Substitute rational functions for the variables of ``p``, in lowest terms.

    With images ``N_i / D_i`` and ``d_i`` the degree of ``p`` in its i-th
    variable, the result is ``p`` with each ``x_i^k`` replaced by
    ``N_i^k D_i^(d_i - k)``, over ``prod D_i^(d_i)``.
    """
    field = p.field
    sample = next(
        (v for v in mapping.values() if isinstance(v, RationalFunction)), None
    )
    if sample is None:
        raise ValueError("no rational substitution supplied")
    target = sample.num.vars
    nums, dens = [], []
    for name in p.vars:
        val = mapping[name] if name in mapping else MultiPoly.variable(field, target, name)
        if isinstance(val, RationalFunction):
            nums.append(val.num)
            dens.append(val.den)
        else:
            if isinstance(val, MultiPoly):
                val = val.with_vars(target)
            else:
                val = MultiPoly.constant(field, target, val)
            nums.append(val)
            dens.append(val.one_like())
    degs = tuple(max(p.degree_in(v), 0) for v in p.vars)
    # one exponent slot per numerator, then one per denominator
    slots = tuple(p.vars) + tuple(f"{v}_den" for v in p.vars)
    cleared = MultiPoly(
        field, slots, {e + tuple(d - k for d, k in zip(degs, e)): c for e, c in p.terms.items()}
    )
    common = MultiPoly(field, slots, {(0,) * len(degs) + degs: field.one()})
    num, den = evaluate_at([cleared, common], nums + dens)
    return RationalFunction(num, den)
