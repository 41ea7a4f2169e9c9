from fractions import Fraction

from folgal.numberfield import QQ, NumberField
from folgal.sympy_bridge import _algebraic_domain


def test_domain_cache_does_not_outlive_its_field():
    # each field Q(sqrt k) is dropped before the next is built, so the next
    # one often gets the same id(); it must still get its own modulus
    for k in (2, 3, 5, 6, 7):
        field = NumberField(QQ, "a", (Fraction(-k), Fraction(0)), k**0.5, certified=True)
        dom, _ = _algebraic_domain(field)
        assert [int(c) for c in dom.mod.to_list()] == [1, 0, -k]
        del field
