from fractions import Fraction

import pytest

from folgal.numberfield import QQ, FieldSplit, extend


@pytest.fixture
def K_zeta():
    # zeta^2 - zeta + 1 = 0, zeta = (1 + i sqrt 3)/2
    return extend(QQ, "g", [Fraction(1), Fraction(-1)])


def test_generator_satisfies_min_poly(K_zeta):
    z = K_zeta.gen()
    assert z * z - z + 1 == K_zeta.zero()


def test_embedding_picks_positive_imaginary_root(K_zeta):
    assert complex(K_zeta.gen()).imag > 0


def test_inverse_roundtrip(K_zeta):
    z = K_zeta.gen()
    for elem in [z, z - 1, 2 * z + 3, z * z + z]:
        assert elem * elem.inverse() == K_zeta.one()


def test_zero_inverse_raises(K_zeta):
    with pytest.raises(ZeroDivisionError):
        K_zeta.zero().inverse()


def test_tower_arithmetic(K_zeta):
    # adjoin a square root of zeta on top
    M = extend(K_zeta, "s", [-K_zeta.gen(), K_zeta.coerce(0)])
    s = M.gen()
    assert s * s == M.coerce(K_zeta.gen())
    inv = (s + 1).inverse()
    assert (s + 1) * inv == M.one()
    approx = complex(s) ** 2 - complex(K_zeta.gen())
    assert abs(approx) < 1e-9


def test_zero_divisor_triggers_split():
    # extend checks only squarefreeness; inverting a zero divisor of a
    # reducible modulus is an internal error that names the factors
    L = extend(QQ, "u", [Fraction(-1), Fraction(0)])  # u^2 - 1, reducible
    u = L.gen()
    with pytest.raises(FieldSplit):
        (u - 1).inverse()


def test_rational_value_detection(K_zeta):
    assert K_zeta.coerce(Fraction(3, 7)).rational_value() == Fraction(3, 7)
    assert K_zeta.gen().rational_value() is None


def test_non_squarefree_modulus_rejected():
    with pytest.raises(ValueError):
        extend(QQ, "u", [Fraction(1), Fraction(0), Fraction(-2), Fraction(0)])
