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


def test_sqrt_of_a_rational_square_in_q_sqrt5_is_the_smaller_pair():
    # the same rule as every other branch over Q(sqrt d): of +-r, the one
    # whose pair of rational parts is smaller, so sqrt(4) is -2, as sqrt(20)
    # is -2 sqrt(5)
    K = QQ.quadratic_extension(5)
    assert K.sqrt(4) == K.ext_element(-2, 0)
    assert K.sqrt(20) == K.ext_element(0, -2)
    assert K.sqrt(K.ext_element(6, 2)) == K.ext_element(-1, -1)
    # over F_p(sqrt d) the rule leaves a base root as the base field picks it
    assert F11.quadratic_extension(2).sqrt(4).val == (2, 0)


# (field, a square, a nonsquare) with the nonsquare taken in the field itself
_ADJOIN_CASES = {
    "QQ": (QQ, Fraction(9, 4), 2),
    "F101": (Field.prime(101), 5, 2),  # 45^2 = 5; 101 = 5 mod 8, so 2 is not
    "F11(sqrt2)": (F11.quadratic_extension(2), 2, (1, 1)),  # norm 1 - 2 = -1
    "Q(sqrt5)": (QQ.quadratic_extension(5), (6, 2), (0, 3)),  # (1 + sqrt 5)^2; norm -45
}


@pytest.mark.parametrize("name", sorted(_ADJOIN_CASES))
def test_adjoin_sqrt(name):
    from prymcubic.fields import QuadExtField
    field, square, nonsquare = _ADJOIN_CASES[name]
    x = field.element(square)
    got = field.adjoin_sqrt(x)
    assert got[0] is field and got[1] == field.sqrt(x) and got[1] * got[1] == x
    y = field.element(nonsquare)
    assert field.sqrt(y) is None
    got = field.adjoin_sqrt(y)
    if isinstance(field, QuadExtField):
        assert got is None  # extensions never nest
    else:
        K, r = got
        assert isinstance(K, QuadExtField) and K.base is field and K.d == y.val
        assert r == K.sqrt_d() and r * r == y


@pytest.mark.parametrize("name", sorted(_ADJOIN_CASES))
def test_change_field_on_its_own_field_is_the_same_object(name):
    from prymcubic.fixtures import fix_a
    from prymcubic.poly import HomogPoly
    field = _ADJOIN_CASES[name][0]
    f = HomogPoly(field, ("s", "t"), 2, {(2, 0): 1, (1, 1): 3})
    assert f.change_field(field) is f
    a = fix_a(field)
    assert a.change_field(field) is a


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

