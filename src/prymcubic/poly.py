"""Homogeneous multivariate polynomials with exact coefficients, and symmetric
matrices whose entries are scalars or forms.

Terms are kept in a dict mapping exponent tuples (summing to the declared
degree) to nonzero field elements; iteration order is sorted wherever output
must be reproducible.  Projective comparisons go through cross-multiplication
(:func:`proportional`) rather than leading-coefficient normalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add as _plus

from . import linalg
from .fields import FieldElement, RationalField


class PolyError(ValueError):
    pass


class HomogPoly:
    __slots__ = ("field", "vars", "degree", "terms")

    def __init__(self, field, vars, degree, terms=None, _clean=False):
        self.field = field
        self.vars = tuple(vars)
        self.degree = degree
        if terms is None:
            terms = {}
        if not _clean:
            clean = {}
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != len(self.vars) or sum(e) != degree or any(k < 0 for k in e):
                    raise PolyError("exponent %r incompatible with degree %d in %d vars"
                                    % (e, degree, len(self.vars)))
                c = field.element(c)
                if c:
                    clean[e] = c
            terms = clean
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field, vars, degree):
        return HomogPoly(field, vars, degree, {}, _clean=True)

    @staticmethod
    def monomial(field, vars, exps):
        return HomogPoly(field, vars, sum(exps), {tuple(exps): 1})

    @staticmethod
    def linear(field, vars, coeffs):
        """Linear form from a coefficient vector, at most one coefficient per
        variable."""
        n = len(vars)
        if len(coeffs) > n:
            raise PolyError("%d coefficients for %d variables" % (len(coeffs), n))
        terms = {}
        for i, c in enumerate(coeffs):
            c = field.element(c)
            if c:
                terms[(0,) * i + (1,) + (0,) * (n - 1 - i)] = c
        return HomogPoly(field, vars, 1, terms, _clean=True)

    def linear_coeffs(self):
        """Coefficient vector of a linear form; the inverse of `linear`."""
        if self.degree != 1:
            raise PolyError("not a linear form")
        coeffs = [self.field.zero()] * len(self.vars)
        for e, c in self.terms.items():
            coeffs[e.index(1)] = c
        return coeffs

    def monomials_sorted(self):
        return sorted(self.terms, reverse=True)

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other):
        if self.field != other.field or self.vars != other.vars:
            raise PolyError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, FieldElement) or isinstance(other, int):
            if self.degree != 0:
                raise PolyError("cannot add scalar to a positive-degree form")
            other = HomogPoly(self.field, self.vars, 0, {(0,) * len(self.vars): other})
        self._check_compatible(other)
        if self.degree != other.degree:
            if not self.terms:
                return HomogPoly(other.field, other.vars, other.degree, dict(other.terms), _clean=True)
            if not other.terms:
                return HomogPoly(self.field, self.vars, self.degree, dict(self.terms), _clean=True)
            raise PolyError("degree mismatch %d vs %d" % (self.degree, other.degree))
        field = self.field
        out = _mul_into(field, _raw(self), _raw(other), {(0,) * len(self.vars): field._one_raw})
        return _wrap(field, self.vars, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HomogPoly(self.field, self.vars, self.degree,
                         {e: -c for e, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        field = self.field
        if isinstance(other, (FieldElement, int, Fraction)):
            c = field.element(other)
            if not c:
                return HomogPoly.zero(field, self.vars, self.degree)
            scalar = {(0,) * len(self.vars): c.val}
            return _wrap(field, self.vars, self.degree, _mul_into(field, {}, _raw(self), scalar))
        self._check_compatible(other)
        return _wrap(field, self.vars, self.degree + other.degree,
                     _mul_into(field, {}, _raw(self), _raw(other)))

    __rmul__ = __mul__

    def raw_ring(self):
        """The forms of this form's ring on raw values, for kernels that
        take many products and wrap only their results (`linalg.laplace`
        and `linalg.mat_mul`): the functions (read, muladd, neg, wrap).

        A raw form is the pair (raw terms, degree).  `read` takes a form of
        this ring, or raises PolyError; `muladd(acc, a, b)` returns
        acc + a * b, with the product added into acc's terms in place by
        `_mul_into` (none when a factor is zero) and acc None standing for
        zero; `neg` negates; `wrap` makes the form, once.  A sum has one
        degree: a product of any other degree, zero or not, raises
        PolyError."""
        field, vs = self.field, self.vars
        neg_raw = field._neg

        def read(f):
            if not isinstance(f, HomogPoly) or f.field != field or f.vars != vs:
                raise PolyError("polynomials live in different rings")
            return _raw(f), f.degree

        def muladd(acc, a, b):
            (ta, da), (tb, db) = a, b
            if acc is None:
                acc = {}, da + db
            elif acc[1] != da + db:
                raise PolyError("degree mismatch %d vs %d" % (acc[1], da + db))
            if ta and tb:
                _mul_into(field, acc[0], ta, tb)
            return acc

        def neg(a):
            terms, d = a
            return {e: neg_raw(c) for e, c in terms.items()}, d

        def wrap(a):
            return _wrap(field, vs, a[1], a[0])

        return read, muladd, neg, wrap

    def divide_linear(self, ell):
        """The form g with ell * g == self, or None when the linear form ell
        does not divide this one (never for a form of degree 0).

        Synthetic division in the first variable x_k that ell involves: from
        the highest power of x_k down, each term fixes one quotient term q,
        and subtracting q * ell leaves only lower powers of x_k.  What
        remains at x_k^0 must be zero.
        """
        self._check_compatible(ell)
        if ell.degree != 1 or not ell.terms:
            raise PolyError("divisor must be a nonzero linear form")
        if self.degree < 1:
            return None
        unit = max(ell.terms)
        k = unit.index(1)
        inv = ell.terms[unit].inverse()
        rest = [(f, b) for f, b in ell.terms.items() if f != unit]
        zero = self.field.zero()
        rem = dict(self.terms)
        quot = {}
        for power in range(self.degree, 0, -1):
            for e in [e for e in rem if e[k] == power]:
                c = rem.pop(e) * inv
                qe = e[:k] + (power - 1,) + e[k + 1:]
                quot[qe] = c
                for f, b in rest:
                    te = tuple(x + y for x, y in zip(qe, f))
                    s = rem.pop(te, zero) - c * b
                    if s:
                        rem[te] = s
        if rem:
            return None
        return HomogPoly(self.field, self.vars, self.degree - 1, quot, _clean=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        # raw values, not their reprs: 2 and Fraction(2) are one rational
        return hash((self.field, self.vars, self.degree,
                     frozenset((e, c.val) for e, c in self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in self.monomials_sorted():
            c = self.terms[e]
            mono = "*".join("%s^%d" % (v, k) if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            bits.append("%r%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)

    # -- calculus and evaluation --------------------------------------------

    def evaluate(self, point):
        if len(point) != len(self.vars):
            raise PolyError("point has wrong length")
        field = self.field
        mul = field._mul
        # powers[i][k] is the k-th power of coordinate i, each built once
        powers = [[field._one_raw, field.element(x).val] for x in point]
        monomials = []
        for e in self.terms:
            v = None
            for pw, k in zip(powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(mul(pw[-1], pw[1]))
                    v = pw[k] if v is None else mul(v, pw[k])
            monomials.append(field._one_raw if v is None else v)
        return FieldElement(field, field._dot_raw([c.val for c in self.terms.values()],
                                                  monomials))

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return HomogPoly(self.field, self.vars, max(self.degree - 1, 0), out)

    def gradient(self):
        if self.degree < 1:
            raise PolyError("gradient needs degree >= 1")
        return tuple(self.partial(i) for i in range(len(self.vars)))

    def substitute(self, images):
        """Plug one homogeneous form per variable; all images of one degree."""
        if len(images) != len(self.vars):
            raise PolyError("need one image per variable")
        if not images:
            raise PolyError("empty variable set")
        e0 = images[0].degree
        for g in images:
            if g.degree != e0:
                raise PolyError("images must share a common degree")
            if g.field != self.field or g.vars != images[0].vars:
                raise PolyError("images live in different rings")
        vs = images[0].vars
        raw = _compose(self.field, self.terms, [_raw(g) for g in images], (0,) * len(vs))
        return _wrap(self.field, vs, self.degree * e0, raw)

    def change_field(self, new_field):
        """Map coefficients into new_field (reduction mod p or extension
        lift); on its own field the form itself."""
        if new_field == self.field:
            return self
        out = {}
        for e, c in self.terms.items():
            out[e] = c.change_field(new_field)
        return HomogPoly(new_field, self.vars, self.degree, out)

    def content_normalized(self):
        """Deterministic projective representative (the scalar is divided out).

        Over Q: integer content removed, leading (lex-largest monomial) sign
        positive.  Elsewhere: leading coefficient scaled to one.
        """
        if not self.terms:
            return self
        lead = max(self.terms)
        if isinstance(self.field, RationalField):
            num = 0
            den = 1
            for c in self.terms.values():
                num = gcd(num, c.val.numerator)
                den = den * c.val.denominator // gcd(den, c.val.denominator)
            scale = Fraction(den, num)
            if self.terms[lead].val < 0:
                scale = -scale
            return self * self.field.element(scale)
        return self * self.terms[lead].inverse()

    def restrict_to_line(self, p0, p1):
        """Compose with the parametrization s*p0 + t*p1 of a line: the binary
        form in (s, t) that `substitute` gives for the images a_i s + b_i t.
        `restrict_forms` applied to this one form."""
        return restrict_forms([self], p0, p1)[0]


def restrict_forms_raw(forms, p0, p1):
    """The restrictions of a list of forms over one field in the same
    variables, of any degrees, to the line s*p0 + t*p1, in order: for a form
    of degree d the dense list of d + 1 raw coefficients, entry j at
    s^(d-j) t^j.

    The k-th power of each image a_i s + b_i t is a dense raw list, and the
    image of a monomial is the product of its powers.  Both are built once
    for all the forms.  Entry j is one `Field._dot_raw` of the form's raw
    coefficients with entry j of their monomials' images."""
    if not forms:
        return []
    field, vs = forms[0].field, forms[0].vars
    for f in forms:
        f._check_compatible(forms[0])
    if len(p0) != len(vs) or len(p1) != len(vs):
        raise PolyError("need one image per variable")
    conv, dot, one = field._convolve_raw, field._dot_raw, [field._one_raw]
    powers = [[one, [field.element(a).val, field.element(b).val]] for a, b in zip(p0, p1)]
    images = {}  # exponent tuple -> image of the monomial
    out = []
    for f in forms:
        term_images = []
        for e in f.terms:
            image = images.get(e)
            if image is None:
                image = one
                for pw, k in zip(powers, e):
                    if k:
                        while len(pw) <= k:
                            pw.append(conv(None, pw[-1], pw[1]))
                        image = pw[k] if image is one else conv(None, image, pw[k])
                images[e] = image
            term_images.append(image)
        cs = [c.val for c in f.terms.values()]
        # zip(*term_images) reads entry j of every image; a zero form has none
        out.append([dot(cs, col) for col in zip(*term_images)]
                   or [field._zero_raw] * (f.degree + 1))
    return out


def restrict_forms(forms, p0, p1):
    """`HomogPoly.restrict_to_line` for a list of forms over one field in
    the same variables, of any degrees: `restrict_forms_raw` wrapped as
    binary forms in (s, t), in order."""
    return [_wrap(f.field, ("s", "t"), f.degree, {(f.degree - j, j): v for j, v in enumerate(cs)})
            for f, cs in zip(forms, restrict_forms_raw(forms, p0, p1))]


def _raw(f):
    """A form's terms as raw values: exponent tuple -> raw field value."""
    return {e: c.val for e, c in f.terms.items()}


def _wrap(field, vars, degree, raw):
    """The form with raw terms `raw`, each nonzero value wrapped once."""
    is_zero = field._is_zero_raw
    return HomogPoly(field, vars, degree,
                     {e: FieldElement(field, v) for e, v in raw.items() if not is_zero(v)},
                     _clean=True)


def _mul_into(field, out, a, b):
    """out += a * b for raw term dicts; a sum that cancels stays in out as a
    raw zero until `_wrap` drops it.  Every ring operation and composition
    of forms runs through this loop."""
    mul, add = field._mul, field._add
    for e2, c2 in b.items():
        # a constant term of b shifts no exponent, and a coefficient one
        # scales nothing: a sum or a scalar multiple costs no product
        shift, scale = any(e2), c2 != field._one_raw
        for e1, c1 in a.items():
            e = tuple(map(_plus, e1, e2)) if shift else e1
            c = mul(c1, c2) if scale else c1
            s = out.get(e)
            out[e] = c if s is None else add(s, c)
    return out


def _compose(field, terms, images, unit):
    """Raw terms of sum c_e * prod images[i]^e_i for the terms of a form and
    raw term dicts of its images, `unit` the exponent of a constant image."""
    acc = {}
    powers = [[g] for g in images]  # powers[i][k - 1] is images[i] ** k
    for e, c in terms.items():
        prod, last = None, {unit: c.val}
        for pw, k in zip(powers, e):
            if k:
                while len(pw) < k:
                    pw.append(_mul_into(field, {}, pw[-1], pw[0]))
                prod = last if prod is None else _mul_into(field, {}, prod, last)
                last = pw[k - 1]
        _mul_into(field, acc, {unit: field._one_raw} if prod is None else prod, last)
    return acc


def proportional(f, g):
    """Projective equality by cross-multiplication; zero is proportional only to zero."""
    if isinstance(f, HomogPoly):
        if not f.terms and not g.terms:
            return True
        if not f.terms or not g.terms:
            return False
        e0 = max(f.terms)
        if e0 not in g.terms:
            return False
        return f * g.terms[e0] == g * f.terms[e0]
    # vectors of polynomials or scalars, cross-multiplied against the first
    # index k where f is nonzero
    fs, gs = list(f), list(g)
    if len(fs) != len(gs):
        return False
    k = next((i for i, a in enumerate(fs) if a), None)
    if k is None:
        return not any(gs)
    return bool(gs[k]) and all(a * gs[k] == b * fs[k] for a, b in zip(fs, gs))


class SymMatrix:
    """Symmetric n x n matrix; only the upper triangle is stored.

    Entries may be field elements (scalar quadrics) or HomogPoly (pencils of
    forms).  The associated quadratic form is v . M . v, so off-diagonal
    entries are half the cross coefficients of the form.
    """

    __slots__ = ("n", "upper")

    def __init__(self, n, upper):
        self.n = n
        self.upper = dict(upper)
        for i in range(n):
            for j in range(i, n):
                if (i, j) not in self.upper:
                    raise PolyError("missing entry (%d,%d)" % (i, j))

    @staticmethod
    def from_rows(rows):
        n = len(rows)
        upper = {}
        for i in range(n):
            for j in range(i, n):
                a, b = rows[i][j], rows[j][i]
                if a != b:
                    raise PolyError("matrix is not symmetric at (%d,%d)" % (i, j))
                upper[(i, j)] = a
        return SymMatrix(n, upper)

    def at(self, i, j):
        return self.upper[(i, j)] if i <= j else self.upper[(j, i)]

    def rows(self):
        return [[self.at(i, j) for j in range(self.n)] for i in range(self.n)]

    def map(self, fn):
        return SymMatrix(self.n, {k: fn(v) for k, v in self.upper.items()})

    def quadratic_form(self, field, vars):
        """The form sum M_ij x_i x_j as a HomogPoly (scalar entries)."""
        terms = {}
        n = self.n
        for i in range(n):
            for j in range(i, n):
                c = self.at(i, j) if i == j else self.at(i, j) * 2
                e = [0] * n
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = c
        return HomogPoly(field, vars, 2, terms)

    @staticmethod
    def from_quadratic_form(f):
        """Inverse of quadratic_form; needs characteristic != 2."""
        n = len(f.vars)
        if f.degree != 2:
            raise PolyError("not a quadratic form")
        field = f.field
        half = field.element(1) / field.element(2)
        upper = {}
        for i in range(n):
            for j in range(i, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                c = f.terms.get(tuple(e), field.zero())
                upper[(i, j)] = c if i == j else c * half
        return SymMatrix(n, upper)

    def det(self):
        return linalg.det(self.rows())

    def adjugate(self):
        """adj(M), with adj(M) . M = det(M) . I.  It is symmetric as M is,
        so only its upper triangle is expanded: entry (i, j), i <= j, is
        (-1)^(i+j) times the determinant of M without row j and column i."""
        rows = self.rows()
        upper = {}
        for i in range(self.n):
            for j in range(i, self.n):
                minor = linalg.det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
                upper[(i, j)] = -minor if (i + j) % 2 else minor
        return SymMatrix(self.n, upper)

    def rank(self):
        return linalg.rank(self.rows())

    def scale(self, c):
        return self.map(lambda v: v * c)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix) or self.n != other.n:
            return NotImplemented
        return all(self.upper[k] == other.upper[k] for k in self.upper)

    def __repr__(self):
        return "SymMatrix(%d)[%s]" % (self.n, "; ".join(
            "%d,%d: %r" % (i, j, self.upper[(i, j)]) for (i, j) in sorted(self.upper)))

