"""Property tests of the scalar fields Q, F_101, F_11(sqrt 2) and Q(sqrt 5):
ring laws, inverses, square roots and the root each field picks,
`adjoin_sqrt`, `hash` agreeing with `==` within a field and across the
lift of a base element into its extension, the canonical raw value of a
rational (an int when integral, else a Fraction with denominator > 1) and of
Q(sqrt d) (an int triple), Q(sqrt d)'s triples against the pair arithmetic
they replaced, and F_p's integer dense product against the generic one."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic.fields import Field, FieldElement, QQ, QuadExtField
from prymcubic.scene import parse_scene

# derandomized and bounded, so the suite stays deterministic and fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))

# name -> (constructor of a fresh field object, strategy of values it coerces)
CASES = {
    "QQ": (Field.rationals, _fractions),
    "F101": (lambda: Field.prime(101), st.integers(-300, 300)),
    "F11(sqrt2)": (lambda: Field.prime(11).quadratic_extension(2),
                   st.tuples(st.integers(0, 10), st.integers(0, 10))),
    "Q(sqrt5)": (lambda: QQ.quadratic_extension(5), st.tuples(_fractions, _fractions)),
}


def _draw(data, name, n):
    make, raw = CASES[name]
    field = make()
    return field, [field.element(data.draw(raw)) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_ring_laws(name, data):
    field, (x, y, z) = _draw(data, name, 3)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + field.zero() == x and x * field.one() == x
    assert x - x == field.zero() and x + (-x) == field.zero()


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_inverse(name, data):
    field, (x, y) = _draw(data, name, 2)
    if x:
        assert x * x.inverse() == 1
        assert (y / x) * x == y


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_sqrt(name, data):
    field, (x,) = _draw(data, name, 1)
    r = field.sqrt(x)
    if r is not None:
        assert r ** 2 == x
    root = field.sqrt(x * x)
    assert root is not None and root ** 2 == x * x and root in (x, -x)


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_sqrt_picks_one_root_by_one_rule(name, data):
    # over Q the nonnegative root; over F_p and both extensions the one of
    # +-r with the smaller raw value, whichever branch of _sqrt finds it
    field, (x,) = _draw(data, name, 1)
    pick = max if field == QQ else min
    assert field.sqrt(x * x).val == pick(x.val, (-x).val)


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_adjoin_sqrt_stays_in_the_field_or_goes_up_once(name, data):
    field, (x,) = _draw(data, name, 1)
    got = field.adjoin_sqrt(x)
    if field.sqrt(x) is not None:
        assert got[0] is field and got[1] == field.sqrt(x)
    elif isinstance(field, QuadExtField):
        assert got is None
    else:
        assert got[0] == field.quadratic_extension(x) and got[1] == got[0].sqrt_d()
    assert got is None or got[1] * got[1] == x


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_hash_agrees_with_equality(name, data):
    field, (x, y) = _draw(data, name, 2)
    twin = CASES[name][0]()  # equal to field, another object
    for a, b in ((x, twin.element(x.val)), (x, (x + y) - y), (x, y), (x * y, y * x)):
        assert (a == b) == (b == a)
        if a == b:
            assert hash(a) == hash(b)
    if not isinstance(field, QuadExtField):
        # Q and F_p: an element is one set member with its raw value
        assert x == x.val and hash(x) == hash(x.val)


@pytest.mark.parametrize("name", ["F11(sqrt2)", "Q(sqrt5)"])
@PROPERTY
@given(data=st.data())
def test_hash_agrees_across_lift(name, data):
    field, (x,) = _draw(data, name, 1)
    a0, a1 = field._parts(x.val)
    b = field.base.element(a0)
    lifted = field.element(b)
    assert lifted == b and b == lifted and hash(lifted) == hash(b)
    assert len({b, lifted}) == 1
    assert (x == b) == (a1 == 0)
    if a1 == 0:
        assert hash(x) == hash(b)


@pytest.mark.parametrize("p", [3, 13, 101])
@PROPERTY
@given(data=st.data())
def test_prime_field_convolve_matches_the_generic_product(p, data):
    # F_p sums plain ints and reduces once; Field._convolve_raw folds the
    # field's _mul and _add, into a fresh list or into an out that already
    # holds values, which both must change in place
    field = Field.prime(p)
    residues = st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
    a, b = data.draw(residues), data.draw(residues)
    assert field._convolve_raw(None, a, b) == Field._convolve_raw(field, None, a, b)
    held = data.draw(st.lists(st.integers(0, p - 1), min_size=len(a) + len(b) - 1,
                              max_size=len(a) + len(b) - 1))
    out, ref = list(held), list(held)
    assert field._convolve_raw(out, a, b) is out
    Field._convolve_raw(field, ref, a, b)
    assert out == ref and all(0 <= c < p for c in out)


def _canonical(v):
    """Whether v is the canonical raw value of a rational."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


# ints, bools and Fractions, integral ones among them
_rationals = st.one_of(st.integers(-60, 60), st.booleans(), _fractions,
                       st.builds(Fraction, st.integers(-60, 60)))


@PROPERTY
@given(x=_rationals, y=_rationals, n=st.integers(-4, 4))
def test_rational_raw_values_are_canonical(x, y, n):
    a, b = QQ.element(x), QQ.element(y)
    results = [a, b, a + b, a - b, a * b, -a, a + y, y - a, y * a, a * a,
               QQ.sqrt(a * a), QQ.sqrt(b)]
    if b:
        results += [a / b, x / b, b.inverse(), b ** n]
    results += [b ** abs(n)]
    for r in results:
        assert r is None or _canonical(r.val), (x, y, r.val)
    # equal rationals hash equal, however they came in: int, bool,
    # Fraction, or a Fraction with denominator 1 stored raw
    fx, fy = Fraction(x), Fraction(y)
    for u, v in ((a, QQ.element(fx)), (a, FieldElement(QQ, fx)),
                 (a * b, QQ.element(fx * fy)), (a + b, FieldElement(QQ, fx + fy))):
        assert u == v and hash(u) == hash(v)
    assert (a == b) == (fx == fy)
    if a == b:
        assert hash(a) == hash(b)
    # over Q(sqrt d) the same operations give canonical int triples, and
    # equal elements hash equal, a lifted rational among them
    for d in _DS:
        K = QQ.quadratic_extension(d)
        u, w = K.ext_element(x, y), K.ext_element(y, x)
        results = [u, w, u + w, u - w, u * w, -u, u + y, y - u, y * u, u * u,
                   K.sqrt(u * u), K.sqrt(w), K.element(a), K.sqrt_d() * b, K.element(u.val)]
        if w:
            results += [u / w, x / w, w.inverse(), w ** n]
        results += [w ** abs(n)]
        for r in results:
            assert r is None or _canonical_triple(r.val), (d, x, y, r.val)
        rational = u - K.sqrt_d() * y
        for v, e in ((a, rational), (a, K.element(a)), (a, K.element(fx)),
                     (u, K.element(u.val)), (u, K.ext_element(fx, fy)), (u * w, w * u)):
            assert v == e and e == v and hash(v) == hash(e)
        assert (u == a) == (fy == 0)
        if u == a:
            assert hash(u) == hash(a) and len({u, a}) == 1


_DS = (5, -3, Fraction(5, 3))


def _canonical_triple(v):
    """Whether v is the canonical raw value of an element of Q(sqrt d)."""
    return (type(v) is tuple and len(v) == 3 and all(type(c) is int for c in v)
            and v[2] > 0 and math.gcd(*v) == 1)


# Reference for Q(sqrt d): the arithmetic on pairs (a, b) of Fractions,
# meaning a + b*sqrt(d), that Q(sqrt d) ran before it kept integer triples.

def _ref_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def _ref_inv(x, d):
    n = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, n, d):
    if n < 0:
        return _ref_pow(_ref_inv(x, d), -n, d)
    r = (Fraction(1), Fraction(0))
    for _ in range(n):
        r = _ref_mul(r, x, d)
    return r


def _ref_rational_sqrt(v):
    if v < 0:
        return None
    n, m = math.isqrt(v.numerator), math.isqrt(v.denominator)
    return Fraction(n, m) if n * n == v.numerator and m * m == v.denominator else None


def _ref_sqrt(x, d):
    """The root of the smaller pair, or None: a root u + v sqrt(d) has
    u^2 + d v^2 = a and 2 u v = b."""
    a, b = x

    def smaller(r):
        return min(r, (-r[0], -r[1]))
    if not b:
        if not a:
            return (Fraction(0), Fraction(0))
        r = _ref_rational_sqrt(a)
        if r is not None:
            return smaller((r, Fraction(0)))
        r = _ref_rational_sqrt(a / d)
        return None if r is None else smaller((Fraction(0), r))
    m = _ref_rational_sqrt(a * a - d * b * b)
    if m is None:
        return None
    for mm in (m, -m):
        u = _ref_rational_sqrt((a + mm) / 2)
        if u:
            v = b / (2 * u)
            if _ref_mul((u, v), (u, v), d) == (a, b):
                return smaller((u, v))
    return None


@pytest.mark.parametrize("d", _DS, ids=lambda d: str(d).replace("/", "_over_"))
@PROPERTY
@given(data=st.data())
def test_rational_extension_matches_the_pair_reference(d, data):
    K = QQ.quadratic_extension(d)
    d = Fraction(d)
    pairs = st.tuples(_fractions, _fractions)
    x, y = data.draw(pairs), data.draw(pairs)
    n = data.draw(st.integers(-4, 5))
    ex, ey = K.ext_element(*x), K.ext_element(*y)

    def parts(e):
        return None if e is None else tuple(Fraction(c) for c in K._parts(e.val))
    assert parts(ex) == x and parts(ey) == y
    assert K._parts(K._add(ex.val, ey.val)) == (x[0] + y[0], x[1] + y[1])
    assert K._parts(K._sub(ex.val, ey.val)) == (x[0] - y[0], x[1] - y[1])
    assert K._parts(K._neg(ex.val)) == (-x[0], -x[1])
    assert K._parts(K._mul(ex.val, ey.val)) == _ref_mul(x, y, d)
    assert K._is_zero_raw(ex.val) == (x == (0, 0))
    if any(x):
        assert parts(ex.inverse()) == _ref_inv(x, d)
        assert parts(ex ** n) == _ref_pow(x, n, d)
    assert parts(ex ** abs(n)) == _ref_pow(x, abs(n), d)
    square = _ref_mul(x, x, d)
    assert parts(K.sqrt(ex * ex)) == _ref_sqrt(square, d)
    assert parts(K.sqrt(ex)) == _ref_sqrt(x, d)
    assert parts(K.sqrt(K.element(x[0]))) == _ref_sqrt((x[0], Fraction(0)), d)
    assert repr(ex) == "(%s,%s)" % x


def test_parsed_rational_is_canonical():
    text = json.dumps({"field": {"type": "Q"}, "objects": {"Q": {
        "kind": "quadric", "matrix": [["4/2", "0", "0", "0"], ["0", "1", "0", "0"],
                                      ["0", "0", "6/4", "0"], ["0", "0", "0", "-3"]]}}})
    m = parse_scene(text).get("Q", "quadric")
    assert [m.at(i, i).val for i in range(4)] == [2, 1, Fraction(3, 2), -3]
    assert [type(m.at(i, i).val) for i in range(4)] == [int, int, Fraction, int]
