"""Exact scalar arithmetic: the rationals, odd prime fields, and quadratic
extensions of either.

A :class:`Field` acts both as a descriptor and as the operation table for raw
values; :class:`FieldElement` is a thin wrapper so that coefficients support
ordinary operators.  Raw values are ``Fraction`` (rationals), ``int`` in
``[0, p)`` (prime fields) and pairs ``(a, b)`` of base raw values meaning
``a + b*sqrt(d)`` (quadratic extensions).  Extension nesting depth is capped
at one.
"""

from __future__ import annotations

from fractions import Fraction
import math


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
    """One of Q, F_p (p an odd prime) or a quadratic extension K(sqrt(d))."""

    __slots__ = ("kind", "p", "base", "d", "_nonresidue_cache")

    def __init__(self, kind, p=None, base=None, d=None):
        self.kind = kind
        self.p = p
        self.base = base
        self.d = d
        self._nonresidue_cache = None
        if kind == "Fp":
            if p is None or p == 2 or not is_prime(p):
                raise FieldError("characteristic must be an odd prime, got %r" % (p,))
        elif kind == "QuadExt":
            if base is None or base.kind == "QuadExt":
                raise FieldError("quadratic extensions may only sit over Q or F_p")
            if base.sqrt(base.element(d)) is not None:
                raise FieldError("%r is a square in the base field" % (d,))
        elif kind != "Q":
            raise FieldError("unknown field kind %r" % (kind,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals():
        return Field("Q")

    @staticmethod
    def prime(p):
        return Field("Fp", p=p)

    def quadratic_extension(self, d):
        """Adjoin sqrt(d); d is coerced into this field and must be a nonsquare."""
        d = self.element(d)
        if d.field != self:
            raise FieldError("d must live in the base field")
        return Field("QuadExt", base=self, d=d.val)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field) or self.kind != other.kind:
            return False
        if self.kind == "Fp":
            return self.p == other.p
        if self.kind == "QuadExt":
            return self.base == other.base and self.d == other.d
        return True

    def __hash__(self):
        if self.kind == "Fp":
            return hash(("Fp", self.p))
        if self.kind == "QuadExt":
            return hash(("QuadExt", self.base, repr(self.d)))
        return hash("Q")

    def __repr__(self):
        if self.kind == "Q":
            return "QQ"
        if self.kind == "Fp":
            return "GF(%d)" % self.p
        return "%r(sqrt(%s))" % (self.base, self.base._raw_str(self.d))

    # -- basic facts -------------------------------------------------------

    def characteristic(self):
        if self.kind == "Fp":
            return self.p
        if self.kind == "QuadExt":
            return self.base.characteristic()
        return 0

    def is_finite(self):
        return self.characteristic() != 0

    def order(self):
        if self.kind == "Fp":
            return self.p
        if self.kind == "QuadExt" and self.base.kind == "Fp":
            return self.base.p ** 2
        raise FieldError("infinite field has no order")

    # -- raw value arithmetic ---------------------------------------------

    def _zero_raw(self):
        if self.kind == "Q":
            return Fraction(0)
        if self.kind == "Fp":
            return 0
        return (self.base._zero_raw(), self.base._zero_raw())

    def _one_raw(self):
        if self.kind == "Q":
            return Fraction(1)
        if self.kind == "Fp":
            return 1
        return (self.base._one_raw(), self.base._zero_raw())

    def _from_int(self, n):
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "Fp":
            return n % self.p
        return (self.base._from_int(n), self.base._zero_raw())

    def _add(self, a, b):
        if self.kind == "Q":
            return a + b
        if self.kind == "Fp":
            return (a + b) % self.p
        ba = self.base
        return (ba._add(a[0], b[0]), ba._add(a[1], b[1]))

    def _sub(self, a, b):
        if self.kind == "Q":
            return a - b
        if self.kind == "Fp":
            return (a - b) % self.p
        ba = self.base
        return (ba._sub(a[0], b[0]), ba._sub(a[1], b[1]))

    def _neg(self, a):
        if self.kind == "Q":
            return -a
        if self.kind == "Fp":
            return (-a) % self.p
        ba = self.base
        return (ba._neg(a[0]), ba._neg(a[1]))

    def _mul(self, a, b):
        if self.kind == "Q":
            return a * b
        if self.kind == "Fp":
            return (a * b) % self.p
        ba = self.base
        a0, a1 = a
        b0, b1 = b
        # (a0 + a1 r)(b0 + b1 r) with r^2 = d
        return (ba._add(ba._mul(a0, b0), ba._mul(ba._mul(a1, b1), self.d)),
                ba._add(ba._mul(a0, b1), ba._mul(a1, b0)))

    def _inv(self, a):
        if self._is_zero_raw(a):
            raise ZeroDivisionError("division by zero in %r" % self)
        if self.kind == "Q":
            return 1 / a
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        ba = self.base
        a0, a1 = a
        # conjugate over norm; the norm is nonzero because d is a nonsquare
        n = ba._sub(ba._mul(a0, a0), ba._mul(self.d, ba._mul(a1, a1)))
        ninv = ba._inv(n)
        return (ba._mul(a0, ninv), ba._neg(ba._mul(a1, ninv)))

    def _is_zero_raw(self, a):
        if self.kind == "QuadExt":
            return self.base._is_zero_raw(a[0]) and self.base._is_zero_raw(a[1])
        return a == 0

    def _pow_raw(self, a, n):
        r = self._one_raw()
        b = a
        while n:
            if n & 1:
                r = self._mul(r, b)
            b = self._mul(b, b)
            n >>= 1
        return r

    def _raw_str(self, a):
        if self.kind == "Q":
            return str(a)
        if self.kind == "Fp":
            return str(a)
        return "(%s,%s)" % (self.base._raw_str(a[0]), self.base._raw_str(a[1]))

    # -- element API -------------------------------------------------------

    def zero(self):
        return FieldElement(self, self._zero_raw())

    def one(self):
        return FieldElement(self, self._one_raw())

    def element(self, x):
        """Coerce x (int, Fraction, element of self or of the base) into self."""
        if isinstance(x, FieldElement):
            if x.field == self:
                return FieldElement(self, x.val) if x.field is not self else x
            if self.kind == "QuadExt" and x.field == self.base:
                return FieldElement(self, (x.val, self.base._zero_raw()))
            raise FieldError("cannot coerce element of %r into %r" % (x.field, self))
        if isinstance(x, int):
            return FieldElement(self, self._from_int(x))
        if isinstance(x, Fraction):
            if self.kind == "Q":
                return FieldElement(self, x)
            if self.kind == "Fp":
                if x.denominator % self.p == 0:
                    raise FieldError("denominator of %s not invertible mod %d" % (x, self.p))
                return FieldElement(self, x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p)
            return FieldElement(self, (self.base.element(x).val, self.base._zero_raw()))
        if isinstance(x, tuple) and self.kind == "QuadExt":
            a, b = x
            return FieldElement(self, (self.base.element(a).val, self.base.element(b).val))
        raise FieldError("cannot coerce %r into %r" % (x, self))

    def ext_element(self, a, b):
        """a + b*sqrt(d) in a quadratic extension."""
        if self.kind != "QuadExt":
            raise FieldError("not an extension field")
        return self.element((a, b))

    def sqrt_d(self):
        if self.kind != "QuadExt":
            raise FieldError("not an extension field")
        return FieldElement(self, (self.base._zero_raw(), self.base._one_raw()))

    def elements(self):
        """All elements, finite fields only."""
        if self.kind == "Fp":
            for v in range(self.p):
                yield FieldElement(self, v)
        elif self.kind == "QuadExt" and self.base.kind == "Fp":
            for a in range(self.base.p):
                for b in range(self.base.p):
                    yield FieldElement(self, (a, b))
        else:
            raise FieldError("cannot enumerate an infinite field")

    def random(self, rng, height=9):
        if self.kind == "Q":
            return self.element(Fraction(rng.randint(-height, height), rng.randint(1, 4)))
        if self.kind == "Fp":
            return FieldElement(self, rng.randrange(self.p))
        return FieldElement(self, (self.base.random(rng, height).val, self.base.random(rng, height).val))

    # -- square roots ------------------------------------------------------

    def _nonresidue(self):
        """Deterministically chosen quadratic nonresidue (finite fields)."""
        if self._nonresidue_cache is not None:
            return self._nonresidue_cache
        if self.kind == "Fp":
            for c in range(2, self.p):
                if pow(c, (self.p - 1) // 2, self.p) == self.p - 1:
                    self._nonresidue_cache = c
                    return c
        elif self.kind == "QuadExt" and self.base.kind == "Fp":
            q = self.order()
            for a in range(self.base.p):
                for b in range(self.base.p):
                    v = (a, b)
                    if not self._is_zero_raw(v) and self._pow_raw(v, (q - 1) // 2) != self._one_raw():
                        self._nonresidue_cache = v
                        return v
        raise FieldError("no nonresidue found")

    def is_square(self, x):
        return self.sqrt(x) is not None

    def sqrt(self, x):
        """Deterministic square root, or None when x is a nonsquare."""
        x = self.element(x)
        if not x:
            return self.zero()
        if self.kind == "Q":
            return _sqrt_fraction(self, x.val)
        if self.kind == "Fp":
            r = _sqrt_mod_p(x.val, self.p)
            if r is None:
                return None
            return FieldElement(self, min(r, self.p - r))
        if self.base.kind == "Fp":
            r = _tonelli_generic(self, x.val)
            if r is None:
                return None
            return min(FieldElement(self, r), FieldElement(self, self._neg(r)), key=_ext_key)
        return _sqrt_quad_over_q(self, x)


def _ext_key(e):
    a, b = e.val
    return (a, b)


def _sqrt_fraction(field, fr):
    n, d = fr.numerator, fr.denominator
    if n < 0:
        return None
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return field.element(Fraction(rn, rd))
    return None


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


def _tonelli_generic(F, a):
    """Tonelli-Shanks in F_{p^2} using raw-value group arithmetic."""
    q = F.order()
    if F._pow_raw(a, (q - 1) // 2) != F._one_raw():
        return None
    m0, s = q - 1, 0
    while m0 % 2 == 0:
        m0 //= 2
        s += 1
    z = F._nonresidue()
    m, c, t, r = s, F._pow_raw(z, m0), F._pow_raw(a, m0), F._pow_raw(a, (m0 + 1) // 2)
    one = F._one_raw()
    while t != one:
        i, t2 = 0, t
        while t2 != one:
            t2 = F._mul(t2, t2)
            i += 1
        b = F._pow_raw(c, 1 << (m - i - 1))
        m, c = i, F._mul(b, b)
        t, r = F._mul(t, c), F._mul(r, b)
    return r


def _sqrt_quad_over_q(F, x):
    # x = a + b sqrt(d) over Q(sqrt(d)); a root x = (u + v sqrt(d))^2 forces
    # Norm(x) = (u^2 - d v^2)^2 to be a rational square.
    base = F.base
    a = FieldElement(base, x.val[0])
    b = FieldElement(base, x.val[1])
    d = FieldElement(base, F.d)
    if not b:
        r = base.sqrt(a)
        if r is not None:
            return F.element(r)
        r = base.sqrt(a / d)
        if r is not None:
            return _canonical_ext(F.ext_element(0, r))
        return None
    norm = a * a - d * b * b
    m = base.sqrt(norm)
    if m is None:
        return None
    for mm in (m, -m):
        t = (a + mm) / 2
        u = base.sqrt(t)
        if u is not None and u:
            v = b / (u * 2)
            cand = F.ext_element(u, v)
            if cand * cand == F.element(x):
                return _canonical_ext(cand)
    return None


def _canonical_ext(e):
    a, b = e.val
    if (a, b) < (e.field.base._neg(a), e.field.base._neg(b)):
        return e
    return FieldElement(e.field, (e.field.base._neg(a), e.field.base._neg(b)))


class FieldElement:
    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _pair(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return self, other
            if self.field.kind == "QuadExt" and other.field == self.field.base:
                return self, self.field.element(other)
            if other.field.kind == "QuadExt" and self.field == other.field.base:
                return other.field.element(self), other
            raise FieldError("field mismatch: %r vs %r" % (self.field, other.field))
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
        if f.kind == "Q":
            return new_field.element(self.val)
        if new_field == f or (new_field.kind == "QuadExt" and new_field.base == f):
            return new_field.element(self)
        if f.kind == "QuadExt" and new_field == f.base:
            a, b = self.val
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
        if f.kind == "QuadExt" and f.base._is_zero_raw(v[1]):
            f, v = f.base, v[0]
        return hash((f, v))

    def __repr__(self):
        return self.field._raw_str(self.val)

    def __lt__(self, other):
        # only used for deterministic tie-breaking; compares raw representations
        a, b = self._pair(other)
        return _order_key(a) < _order_key(b)


def _order_key(e):
    if e.field.kind == "QuadExt":
        return (e.field.base._raw_str(e.val[0]), e.field.base._raw_str(e.val[1]))
    return (str(e.val),)


def legendre(e):
    """+1 square, -1 nonsquare, 0 zero; finite fields only."""
    F = e.field
    if not F.is_finite():
        raise FieldError("square class is only computed over finite fields")
    if not e:
        return 0
    q = F.order()
    return 1 if F._pow_raw(e.val, (q - 1) // 2) == F._one_raw() else -1


QQ = Field.rationals()
