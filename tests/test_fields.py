import random
from fractions import Fraction

import pytest

from prymcubic.fields import Field, FieldError, legendre, QQ


F11 = Field.prime(11)
F13 = Field.prime(13)


def test_rationals_exactness():
    a = QQ.element(Fraction(3, 7))
    b = QQ.element(Fraction(-2, 5))
    assert (a + b) - b == a
    assert a * b == QQ.element(Fraction(-6, 35))
    assert (a / b) * b == a


def test_prime_field_basics():
    a = F11.element(7)
    b = F11.element(9)
    assert (a + b).val == 5
    assert (a * b).val == 63 % 11
    assert (a / b) * b == a
    assert (-a).val == 4


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        Field.prime(2)
    with pytest.raises(FieldError):
        Field.prime(15)


def test_quad_ext_construction_checks_nonsquare():
    with pytest.raises(FieldError):
        QQ.quadratic_extension(4)
    with pytest.raises(FieldError):
        F11.quadratic_extension(3)  # 5^2 = 3 mod 11
    K = F11.quadratic_extension(2)
    assert K.order() == 121
    with pytest.raises(FieldError):
        K.quadratic_extension(7)


def test_quad_ext_arithmetic():
    K = QQ.quadratic_extension(5)
    r = K.sqrt_d()
    x = K.ext_element(Fraction(1, 2), 3)
    assert x * x == K.ext_element(Fraction(1, 4) + 45, 3)
    assert (x / x) == K.one()
    y = K.element(7) + r
    assert (x + y) - y == x
    # base field coerces in
    assert K.element(QQ.element(2)) == K.element(2)


def test_sqrt_examples():
    assert QQ.sqrt(9) == QQ.element(3)
    assert QQ.sqrt(Fraction(9, 4)) == QQ.element(Fraction(3, 2))
    assert QQ.sqrt(2) is None
    assert F11.sqrt(3) == F11.element(5)
    assert F11.sqrt(2) is None
    assert F13.sqrt(12) is not None


def test_sqrt_all_residues_small_primes():
    for p in (11, 13, 17, 19):
        F = Field.prime(p)
        squares = {(v * v) % p for v in range(p)}
        for a in range(p):
            r = F.sqrt(a)
            if a in squares:
                assert r is not None and (r * r).val == a
            else:
                assert r is None


def test_sqrt_in_fp2_covers_everything():
    K = F11.quadratic_extension(2)
    rng = random.Random(5)
    for _ in range(40):
        x = K.random(rng)
        sq = x * x
        r = K.sqrt(sq)
        assert r is not None and r * r == sq
    # every element of F_p becomes a square in F_{p^2}
    for a in range(1, 11):
        r = K.sqrt(K.element(a))
        assert r is not None and r * r == K.element(a)


def test_sqrt_quadext_over_q():
    K = QQ.quadratic_extension(5)
    x = K.ext_element(2, 7)
    sq = x * x
    r = K.sqrt(sq)
    assert r is not None and r * r == sq
    assert K.sqrt(K.sqrt_d() * 3) is None or (K.sqrt(K.sqrt_d() * 3)) ** 2 == K.sqrt_d() * 3


def test_legendre_symbol():
    assert legendre(F11.element(3)) == 1
    assert legendre(F11.element(2)) == -1
    assert legendre(F11.zero()) == 0
    K = F11.quadratic_extension(2)
    assert legendre(K.element(2)) == 1  # becomes a square upstairs


def test_hash_agrees_with_equality_across_extension():
    for base in (F11, QQ):
        a = base.element(3)
        b = base.quadratic_extension(2).element(3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_enumeration():
    assert len(list(F11.elements())) == 11
    K = F11.quadratic_extension(2)
    assert len(list(K.elements())) == 121


def test_exactness_random_roundtrips():
    rng = random.Random(0)
    for F in (QQ, F13, F11.quadratic_extension(2), QQ.quadratic_extension(-1)):
        for _ in range(50):
            a = F.random(rng)
            b = F.random(rng)
            assert (a + b) - b == a
            if b:
                assert (a / b) * b == a


def test_hash_agrees_with_equality_against_raw_values():
    assert len({F11.element(3), 3}) == 1
    assert len({QQ.element(Fraction(1, 2)), Fraction(1, 2)}) == 1
    # a non-canonical int compares equal but does not hash equal (documented)
    assert F11.element(3) == 14


@pytest.mark.parametrize("field, x", [(QQ, Fraction(3, 2)),
                                      (Field.prime(7).quadratic_extension(3), (2, 5))],
                         ids=["QQ", "F7(sqrt3)"])
def test_powers_take_the_fewest_raw_products(field, x, monkeypatch):
    # square-and-multiply: no product by one, no square past the top bit
    x = field.element(x)
    original = field._mul
    calls = []

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(type(field), "_mul", staticmethod(counting))
    counts, powers = [], []
    for k in (1, 2, 3):
        calls.clear()
        powers.append(x ** k)
        counts.append(len(calls))
    monkeypatch.undo()
    assert counts == [0, 1, 2]
    assert powers == [x, x * x, x * x * x]
    assert x ** 0 == 1 and x ** -2 * (x * x) == 1

