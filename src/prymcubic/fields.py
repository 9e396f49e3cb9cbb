"""Exact scalar arithmetic: the rationals, odd prime fields, and quadratic
extensions of either.

Each field is an instance of a :class:`Field` subclass, which acts both as
descriptor and as the operation table for raw values: :class:`RationalField`
(raw values are ``int`` when integral, else ``Fraction``), :class:`PrimeField`
(``int`` in ``[0, p)``), :class:`QuadExtField` over F_p (pairs ``(a, b)`` of
base raw values meaning ``a + b*sqrt(d)``) and its subclass
:class:`RationalQuadExtField` over Q (canonical integer triples ``(A, B, D)``
meaning ``(A + B*sqrt(d))/D``, so that no product builds a ``Fraction``).
`QuadExtField._parts` turns either raw value into its two base raw values;
code outside the field reads an extension's raw value only through it.
:class:`FieldElement` is a thin wrapper so that coefficients support ordinary
operators.  Extensions never nest: a :class:`QuadExtField` sits over Q or F_p,
and :meth:`Field.adjoin_sqrt` is the one place that goes up to it.
"""

from __future__ import annotations

from fractions import Fraction
import math
import operator


class FieldError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """One of Q, F_p (p an odd prime) or a quadratic extension K(sqrt(d)).

    A subclass supplies the raw constants `_zero_raw` and `_one_raw`, the raw
    operations (`_from_int`, `_add`, `_sub`, `_neg`, `_mul`, `_inv_nonzero`),
    coercion of other values (`_coerce`, `_lift`) and its square root
    `_sqrt`; raw values are numbers unless a subclass says otherwise.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals():
        return RationalField()

    @staticmethod
    def prime(p):
        return PrimeField(p)

    def quadratic_extension(self, d):
        """Adjoin sqrt(d); d is coerced into this field and must be a nonsquare."""
        return QuadExtField(self, self.element(d).val)

    # -- basic facts -------------------------------------------------------

    def is_finite(self):
        return self.characteristic() != 0

    def order(self):
        raise FieldError("infinite field has no order")

    def elements(self):
        """All elements, finite fields only."""
        raise FieldError("cannot enumerate an infinite field")

    # -- raw value arithmetic ---------------------------------------------

    def _inv(self, a):
        if self._is_zero_raw(a):
            raise ZeroDivisionError("division by zero in %r" % self)
        return self._inv_nonzero(a)

    def _is_zero_raw(self, a):
        return a == 0

    def _pow_raw(self, a, n):
        # square-and-multiply with no product by one and no square past the
        # top bit: a^1 costs nothing, a^2 one product, a^3 two
        if not n:
            return self._one_raw
        r = None
        while True:
            if n & 1:
                r = a if r is None else self._mul(r, a)
            n >>= 1
            if not n:
                return r
            a = self._mul(a, a)

    def _convolve_raw(self, out, a, b):
        """out += a * b for dense lists of raw values, the product of the
        polynomials whose coefficients they list (a new list when out is
        None)."""
        mul, add = self._mul, self._add
        if out is None:
            out = [self._zero_raw] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
        return out

    def _dot_raw(self, xs, ys):
        """The sum of the products x * y over the raw values paired by zip."""
        mul, add = self._mul, self._add
        acc = self._zero_raw
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def _raw_str(self, a):
        return str(a)

    # -- element API -------------------------------------------------------

    def zero(self):
        return FieldElement(self, self._zero_raw)

    def one(self):
        return FieldElement(self, self._one_raw)

    def element(self, x):
        """Coerce x (int, Fraction, element of self or of the base) into self."""
        if isinstance(x, FieldElement):
            if x.field is self:
                return x
            if x.field == self:
                return FieldElement(self, x.val)
            return FieldElement(self, self._lift(x))
        if isinstance(x, int):
            return FieldElement(self, self._from_int(x))
        return FieldElement(self, self._coerce(x))

    def _lift(self, x):
        """Raw value of an element of another field; only a base element lifts."""
        raise FieldError("cannot coerce element of %r into %r" % (x.field, self))

    def _coerce(self, x):
        """Raw value of a non-int, non-element value."""
        raise FieldError("cannot coerce %r into %r" % (x, self))

    # -- square roots ------------------------------------------------------

    def sqrt(self, x):
        """Square root, or None when x is a nonsquare: over Q the
        nonnegative root, elsewhere the one of +-r with the smaller raw value."""
        x = self.element(x)
        if not x:
            return self.zero()
        return self._sqrt(x)

    def adjoin_sqrt(self, x):
        """(K, r) with r * r == x: K is this field when x is a square here,
        else K is `quadratic_extension(x)` and r its `sqrt_d()`.  None over
        an extension, because extensions never nest; every construction that
        may need a root of a nonsquare asks here."""
        r = self.sqrt(x)
        if r is not None:
            return self, r
        if isinstance(self, QuadExtField):
            return None
        ext = self.quadratic_extension(x)
        return ext, ext.sqrt_d()


class RationalField(Field):
    """Q; a raw value is an ``int`` when it is integral and otherwise a
    ``Fraction`` with denominator > 1, so most arithmetic over Q stays on
    ints.  A ``Fraction`` with denominator 1 is never stored."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"

    def characteristic(self):
        return 0

    def random(self, rng):
        return self.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    _zero_raw = 0
    _one_raw = 1

    def _from_int(self, n):
        return int(n)

    def _coerce(self, x):
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        return super()._coerce(x)

    # an int result is canonical as it is; a Fraction result may be integral
    @staticmethod
    def _add(a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    @staticmethod
    def _sub(a, b):
        c = a - b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    @staticmethod
    def _mul(a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    _neg = staticmethod(operator.neg)

    def _inv_nonzero(self, a):
        # 1 / a would be a float for an int a
        return _rational_raw(1, a)

    def quadratic_extension(self, d):
        return RationalQuadExtField(self, self.element(d).val)

    def _sqrt(self, x):
        n, d = x.val.numerator, x.val.denominator
        if n < 0:
            return None
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return self.element(Fraction(rn, rd))
        return None


class PrimeField(Field):
    """F_p for an odd prime p; raw values are ``int`` in ``[0, p)``."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or p == 2 or not is_prime(p):
            raise FieldError("characteristic must be an odd prime, got %r" % (p,))
        self.p = p

    def __eq__(self, other):
        return self is other or (isinstance(other, PrimeField) and self.p == other.p)

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def characteristic(self):
        return self.p

    def order(self):
        return self.p

    def elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)

    def random(self, rng):
        return FieldElement(self, rng.randrange(self.p))

    _zero_raw = 0
    _one_raw = 1

    def _from_int(self, n):
        return n % self.p

    def _coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError("denominator of %s not invertible mod %d" % (x, self.p))
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        return super()._coerce(x)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv_nonzero(self, a):
        return pow(a, self.p - 2, self.p)

    def _pow_raw(self, a, n):
        return pow(a, n, self.p)

    def _convolve_raw(self, out, a, b):
        # the products are summed as plain ints and each entry is reduced
        # once, in place, because callers read `out` itself
        if out is None:
            out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = self.p
        for j, c in enumerate(out):
            out[j] = c % p
        return out

    def _dot_raw(self, xs, ys):
        # summed as plain ints and reduced once, as in _convolve_raw
        return sum(map(operator.mul, xs, ys)) % self.p

    def _sqrt(self, x):
        r = _sqrt_mod_p(x.val, self.p)
        if r is None:
            return None
        return FieldElement(self, min(r, self.p - r))


class QuadExtField(Field):
    """K(sqrt(d)) for K = Q or F_p and d a nonsquare of K; raw values are
    pairs ``(a, b)`` of raw values of K meaning ``a + b*sqrt(d)``, except
    over Q, where :class:`RationalQuadExtField` keeps integer triples."""

    __slots__ = ("base", "d", "_zero_raw", "_one_raw")

    def __init__(self, base, d):
        if isinstance(base, QuadExtField):
            raise FieldError("quadratic extensions may only sit over Q or F_p")
        if base.sqrt(base.element(d)) is not None:
            raise FieldError("%r is a square in the base field" % (d,))
        self.base = base
        self.d = d
        self._zero_raw = (base._zero_raw, base._zero_raw)
        self._one_raw = (base._one_raw, base._zero_raw)

    def __eq__(self, other):
        return self is other or (isinstance(other, QuadExtField)
                                 and self.base == other.base and self.d == other.d)

    def __hash__(self):
        return hash((self.base, self.d))

    def __repr__(self):
        return "%r(sqrt(%s))" % (self.base, self.base._raw_str(self.d))

    def characteristic(self):
        return self.base.characteristic()

    def order(self):
        return self.base.order() ** 2

    def elements(self):
        vals = [e.val for e in self.base.elements()]
        for a in vals:
            for b in vals:
                yield FieldElement(self, (a, b))

    def random(self, rng):
        return self.ext_element(self.base.random(rng), self.base.random(rng))

    def ext_element(self, a, b):
        """a + b*sqrt(d)."""
        return self.element((a, b))

    def sqrt_d(self):
        return self.ext_element(0, 1)

    # -- raw value arithmetic ---------------------------------------------

    def _parts(self, a):
        """The base raw values (a0, a1) of the raw value a0 + a1*sqrt(d)."""
        return a

    def _from_int(self, n):
        return (self.base._from_int(n), self.base._zero_raw)

    def _lift(self, x):
        if x.field == self.base:
            return (x.val, self.base._zero_raw)
        return super()._lift(x)

    def _coerce(self, x):
        if isinstance(x, Fraction):
            return (self.base.element(x).val, self.base._zero_raw)
        if isinstance(x, tuple):
            a, b = x
            return (self.base.element(a).val, self.base.element(b).val)
        return super()._coerce(x)

    def _add(self, a, b):
        ba = self.base
        return (ba._add(a[0], b[0]), ba._add(a[1], b[1]))

    def _sub(self, a, b):
        ba = self.base
        return (ba._sub(a[0], b[0]), ba._sub(a[1], b[1]))

    def _neg(self, a):
        ba = self.base
        return (ba._neg(a[0]), ba._neg(a[1]))

    def _mul(self, a, b):
        ba = self.base
        a0, a1 = a
        b0, b1 = b
        # (a0 + a1 r)(b0 + b1 r) with r^2 = d
        return (ba._add(ba._mul(a0, b0), ba._mul(ba._mul(a1, b1), self.d)),
                ba._add(ba._mul(a0, b1), ba._mul(a1, b0)))

    def _inv_nonzero(self, a):
        ba = self.base
        a0, a1 = a
        # conjugate over norm; the norm is nonzero because d is a nonsquare
        n = ba._sub(ba._mul(a0, a0), ba._mul(self.d, ba._mul(a1, a1)))
        ninv = ba._inv(n)
        return (ba._mul(a0, ninv), ba._neg(ba._mul(a1, ninv)))

    def _is_zero_raw(self, a):
        return self.base._is_zero_raw(a[0]) and self.base._is_zero_raw(a[1])

    def _raw_str(self, a):
        a0, a1 = self._parts(a)
        return "(%s,%s)" % (self.base._raw_str(a0), self.base._raw_str(a1))

    # -- square roots ------------------------------------------------------

    def _sqrt(self, x):
        # x = a + b sqrt(d) and a root u + v sqrt(d): u^2 + d v^2 = a and
        # 2 u v = b, so Norm(x) = (u^2 - d v^2)^2 is a square of the base.
        base = self.base
        a, b = (FieldElement(base, v) for v in self._parts(x.val))
        d = FieldElement(base, self.d)
        if not b:
            r = base.sqrt(a)
            if r is not None:
                return self._smaller_root(self.ext_element(r, 0).val)
            r = base.sqrt(a / d)
            if r is not None:
                return self._smaller_root(self.ext_element(0, r).val)
            return None
        norm = a * a - d * b * b
        m = base.sqrt(norm)
        if m is None:
            return None
        # (a +- m) / 2 is u^2 or d v^2; only u^2 is a square of the base
        for mm in (m, -m):
            t = (a + mm) / 2
            u = base.sqrt(t)
            if u is not None and u:
                v = b / (u * 2)
                cand = self.ext_element(u, v)
                if cand * cand == x:
                    return self._smaller_root(cand.val)
        return None

    def _smaller_root(self, r):
        """Of the roots r and -r, the one with the smaller raw value.  A
        triple and its negative share D > 0, so comparing (A, B, D) with
        (-A, -B, D) orders them as the pairs (A/D, B/D) and (-A/D, -B/D)."""
        return FieldElement(self, min(r, self._neg(r)))


def _rational_raw(n, d):
    """The canonical raw value of the rational n/d, d a nonzero int."""
    c = Fraction(n, d)
    return c if c.denominator != 1 else c.numerator


def _canon(A, B, D):
    """The canonical triple of (A + B*sqrt(d))/D for ints A, B, D, D > 0."""
    g = math.gcd(A, B, D)
    return (A, B, D) if g == 1 else (A // g, B // g, D // g)


class RationalQuadExtField(QuadExtField):
    """Q(sqrt(d)) for a rational nonsquare d = n/m; a raw value is a triple
    ``(A, B, D)`` of ints meaning ``(A + B*sqrt(d))/D``, with D > 0 and
    gcd(A, B, D) = 1, so equal elements have equal raw values.  A product
    (A1 + B1 r)(A2 + B2 r) = A1 A2 + d B1 B2 + (A1 B2 + A2 B1) r is scaled by
    m to keep it integral, and one three-way gcd makes it canonical."""

    __slots__ = ("_n", "_m")

    def __init__(self, base, d):
        super().__init__(base, d)
        self._n, self._m = d.numerator, d.denominator
        self._zero_raw = (0, 0, 1)
        self._one_raw = (1, 0, 1)

    def _parts(self, a):
        A, B, D = a
        if D == 1:
            return A, B
        return _rational_raw(A, D), _rational_raw(B, D)

    def _from_int(self, n):
        return (int(n), 0, 1)

    def _lift(self, x):
        if x.field == self.base:
            v = x.val
            return (v.numerator, 0, v.denominator)
        return super()._lift(x)

    def _coerce(self, x):
        if isinstance(x, Fraction):
            return (x.numerator, 0, x.denominator)
        if isinstance(x, tuple) and len(x) == 3:
            A, B, D = x
            return _canon(A, B, D) if D > 0 else _canon(-A, -B, -D)
        if isinstance(x, tuple):
            a, b = (Fraction(self.base.element(v).val) for v in x)
            D = a.denominator * b.denominator
            return _canon(a.numerator * b.denominator, b.numerator * a.denominator, D)
        return super()._coerce(x)

    @staticmethod
    def _add(a, b):
        A1, B1, D1 = a
        A2, B2, D2 = b
        if D1 == D2:
            return _canon(A1 + A2, B1 + B2, D1)
        return _canon(A1 * D2 + A2 * D1, B1 * D2 + B2 * D1, D1 * D2)

    @staticmethod
    def _neg(a):
        return (-a[0], -a[1], a[2])

    def _sub(self, a, b):
        return self._add(a, (-b[0], -b[1], b[2]))

    def _mul(self, a, b):
        A1, B1, D1 = a
        A2, B2, D2 = b
        if B1 and B2:
            m = self._m
            A = m * A1 * A2 + self._n * B1 * B2
            B = m * (A1 * B2 + A2 * B1)
            D = m * D1 * D2
        else:
            A, B, D = A1 * A2, A1 * B2 + A2 * B1, D1 * D2
        return _canon(A, B, D)

    def _inv_nonzero(self, a):
        # D / (A + B r) = D m (A - B r) / (m A^2 - n B^2), the norm nonzero
        # because d is a nonsquare
        A, B, D = a
        m = self._m
        N = m * A * A - self._n * B * B
        s = D * m if N > 0 else -D * m
        return _canon(s * A, -s * B, abs(N))


def _sqrt_mod_p(a, p):
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class FieldElement:
    """An element of a field: the field and a raw value.

    `==` coerces ints and Fractions into the element's field, and the hash of
    an element of Q or F_p is the hash of its raw value, so an element and the
    int or Fraction it equals are one set member; over Q that holds for 2 and
    Fraction(2) alike, because they hash equal.  A non-canonical
    representative of F_p, such as 14 in F_11, compares equal to F_11's 3 but
    does not hash equal, so ints and elements must not share dict keys or sets.
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _pair(self, other):
        if isinstance(other, FieldElement):
            f, g = self.field, other.field
            if g is f or g == f:
                return self, other
            if isinstance(f, QuadExtField) and g == f.base:
                return self, f.element(other)
            if isinstance(g, QuadExtField) and f == g.base:
                return g.element(self), other
            raise FieldError("field mismatch: %r vs %r" % (f, g))
        return self, self.field.element(other)

    def __add__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, a.field._add(a.val, b.val))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, a.field._sub(a.val, b.val))

    def __rsub__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, a.field._sub(b.val, a.val))

    def __mul__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, a.field._mul(a.val, b.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, a.field._mul(a.val, a.field._inv(b.val)))

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, a.field._mul(b.val, a.field._inv(a.val)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.val))

    def __pow__(self, n):
        if n < 0:
            return FieldElement(self.field, self.field._pow_raw(self.field._inv(self.val), -n))
        return FieldElement(self.field, self.field._pow_raw(self.val, n))

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.val))

    def change_field(self, new_field):
        """This element in new_field: reduction of a rational mod p, lift
        into a quadratic extension, or descent from one when the sqrt(d)
        part is zero."""
        f = self.field
        if isinstance(f, RationalField):
            return new_field.element(self.val)
        if new_field == f or (isinstance(new_field, QuadExtField) and new_field.base == f):
            return new_field.element(self)
        if isinstance(f, QuadExtField) and new_field == f.base:
            a, b = f._parts(self.val)
            if not f.base._is_zero_raw(b):
                raise FieldError("element does not descend to the base field")
            return FieldElement(new_field, a)
        raise FieldError("no coercion from %r to %r" % (f, new_field))

    def __bool__(self):
        return not self.field._is_zero_raw(self.val)

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except FieldError:
            return NotImplemented
        return a.val == b.val

    def __hash__(self):
        # an extension element with zero sqrt(d) part equals its base element
        f, v = self.field, self.val
        if isinstance(f, QuadExtField):
            a, b = f._parts(v)
            if f.base._is_zero_raw(b):
                v = a
        return hash(v)

    def __repr__(self):
        return self.field._raw_str(self.val)


def legendre(e):
    """+1 square, -1 nonsquare, 0 zero; finite fields only."""
    F = e.field
    if not F.is_finite():
        raise FieldError("square class is only computed over finite fields")
    if not e:
        return 0
    q = F.order()
    return 1 if F._pow_raw(e.val, (q - 1) // 2) == F._one_raw else -1


QQ = Field.rationals()
