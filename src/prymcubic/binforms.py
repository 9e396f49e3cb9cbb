"""Binary forms in (s, t) and the univariate elimination toolbox built on
them: gcd, squarefree decomposition (complete in small characteristic via
p-th-power descent), root-multiplicity signatures, perfect-square detection
with at most one quadratic extension, and Sylvester resultants.
"""

from __future__ import annotations

from .fields import QuadExtField
from .poly import HomogPoly, PolyError

ST = ("s", "t")


class BinaryForm:
    """Homogeneous form in (s, t); coeffs[i] is the coefficient of s^(d-i) t^i."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, coeffs, degree=None):
        coeffs = [field.element(c) for c in coeffs]
        if degree is None:
            degree = len(coeffs) - 1
        if len(coeffs) != degree + 1:
            raise PolyError("need %d coefficients for degree %d" % (degree + 1, degree))
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    @staticmethod
    def from_poly(f):
        if len(f.vars) != 2:
            raise PolyError("not a binary form")
        cs = [f.field.zero()] * (f.degree + 1)
        for (i, j), c in f.terms.items():
            cs[j] = c
        return BinaryForm(f.field, cs)

    def to_poly(self, vars=ST):
        terms = {}
        d = self.degree
        for i, c in enumerate(self.coeffs):
            if c:
                terms[(d - i, i)] = c
        return HomogPoly(self.field, vars, d, terms, _clean=True)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return (self.field == other.field and self.degree == other.degree
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __repr__(self):
        return "BinaryForm(%r)" % (self.coeffs,)

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            c = self.field.element(other)
            return BinaryForm(self.field, [x * c for x in self.coeffs], self.degree)
        out = [self.field.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return BinaryForm(self.field, out)

    __rmul__ = __mul__

    def __neg__(self):
        return BinaryForm(self.field, [-c for c in self.coeffs], self.degree)

    def evaluate(self, s, t):
        s = self.field.element(s)
        t = self.field.element(t)
        total = self.field.zero()
        d = self.degree
        for i, c in enumerate(self.coeffs):
            if c:
                total = total + c * s ** (d - i) * t ** i
        return total

    def change_field(self, new_field):
        return BinaryForm(new_field, [c.change_field(new_field) for c in self.coeffs],
                          self.degree)

    # factor out powers of s and t; remaining part has nonzero extreme coeffs
    def strip_st(self):
        cs = self.coeffs
        lo = 0
        while lo <= self.degree and not cs[lo]:
            lo += 1
        if lo > self.degree:
            raise PolyError("zero form")
        hi = self.degree
        while not cs[hi]:
            hi -= 1
        # s-exponent of monomial i is d - i, so trailing zeros at the top of
        # the list are t-powers and at the bottom s-powers
        t_mult = lo          # divisible by t^lo
        s_mult = self.degree - hi
        core = cs[lo:hi + 1]
        return s_mult, t_mult, list(core)

    def squarefree_parts(self):
        """(s_mult, t_mult, factors): the powers of s and t dividing the form,
        whose roots are (0 : 1) and (1 : 0), and the squarefree decomposition
        [(m, g)] of the rest by ascending multiplicity, each g an ascending
        coefficient list in u = s/t (a root u0 is the point (u0 : 1))."""
        s_mult, t_mult, core = self.strip_st()
        if len(core) == 1:
            return s_mult, t_mult, []
        return s_mult, t_mult, squarefree_decomposition(list(reversed(core)), self.field)


# ---------------------------------------------------------------------------
# dense univariate helpers; ascending coefficient lists over a Field
# ---------------------------------------------------------------------------

def _deg(f):
    return len(f) - 1


def _trim(f, field):
    while len(f) > 1 and not f[-1]:
        f = f[:-1]
    return f if f else [field.zero()]


def _is_zero_poly(f):
    return not any(f)


def _monic(f, field):
    if _is_zero_poly(f):
        return f
    inv = f[-1].inverse()
    return [c * inv for c in f]


def _divmod_poly(a, b, field):
    a = list(a)
    q = [field.zero()] * max(len(a) - len(b) + 1, 1)
    binv = b[-1].inverse()
    while len(a) >= len(b) and not _is_zero_poly(a):
        if not a[-1]:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] * binv
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = a[k + i] - c * bc
        a.pop()
    return _trim(q, field), _trim(a, field)


def _gcd_poly(a, b, field):
    a = _trim(list(a), field)
    b = _trim(list(b), field)
    while not _is_zero_poly(b):
        _, r = _divmod_poly(a, b, field)
        a, b = b, r
    return _monic(_trim(a, field), field)


def _derivative(f, field):
    if len(f) == 1:
        return [field.zero()]
    return _trim([f[i] * i for i in range(1, len(f))], field)


def _pth_root_poly(f, field, p):
    """Inverse Frobenius on a polynomial that is a p-th power."""
    # c^(q/p) inverts Frobenius: the identity on F_p, c^p on F_{p^2}
    frob_inv = field.order() // p
    out = [f[i] ** frob_inv for i in range(0, len(f), p)]
    for i, c in enumerate(f):
        if i % p != 0 and c:
            raise PolyError("not a p-th power")
    return out


def squarefree_decomposition(f, field):
    """[(g, m)] with f = lc * prod g^m, the g monic, squarefree, coprime.

    Complete in characteristic p via descent on p-th powers; in
    characteristic zero this is Yun's algorithm.
    """
    f = _monic(_trim(list(f), field), field)
    if _deg(f) == 0:
        return []
    p = field.characteristic()
    df = _derivative(f, field)
    out = {}
    if not _is_zero_poly(df):
        c = _gcd_poly(f, df, field)
        w, _ = _divmod_poly(f, c, field)
        i = 1
        while _deg(w) > 0:
            y = _gcd_poly(w, c, field)
            z, _ = _divmod_poly(w, y, field)
            if _deg(z) > 0:
                out[i] = z
            i += 1
            w = y
            c, _ = _divmod_poly(c, y, field)
        if _deg(c) > 0:
            for m, g in squarefree_decomposition(_pth_root_poly(c, field, p), field):
                key = m * p
                out[key] = _gcd_like_merge(out.get(key), g, field)
    else:
        for m, g in squarefree_decomposition(_pth_root_poly(f, field, p), field):
            key = m * p
            out[key] = _gcd_like_merge(out.get(key), g, field)
    return sorted((m, g) for m, g in out.items())


def _gcd_like_merge(existing, g, field):
    if existing is None:
        return g
    prod = [field.zero()] * (len(existing) + len(g) - 1)
    for i, a in enumerate(existing):
        for j, b in enumerate(g):
            prod[i + j] = prod[i + j] + a * b
    return prod


def squarefree_signature(form):
    """Multiset of (multiplicity, degree) of the roots over the closure.

    The (1:0) and (0:1) roots from stripped s/t powers are folded in as
    degree-1 contributions at their multiplicities.
    """
    if not form:
        raise PolyError("signature of the zero form")
    s_mult, t_mult, factors = form.squarefree_parts()
    sig = {}
    for m, d in [(s_mult, 1), (t_mult, 1)] + [(m, _deg(g)) for m, g in factors]:
        if m:
            sig[m] = sig.get(m, 0) + d
    return sorted(sig.items())


def multiplicity_partition(form):
    """Root multiplicities, one entry per closure point, descending."""
    parts = []
    for m, count in squarefree_signature(form):
        parts.extend([m] * count)
    return sorted(parts, reverse=True)


class SquareRootCert:
    """Witness that g = (root)^2 exactly, possibly over one quadratic extension."""

    __slots__ = ("root", "scalar", "extended")

    def __init__(self, root, scalar, extended):
        self.root = root
        self.scalar = scalar
        self.extended = extended


def perfect_square_root(form, allow_extension=True):
    """Square root of a binary form of even degree.

    Returns a certificate whose root satisfies root^2 == g exactly; the root
    lives over the base field when the normalizing scalar is a square there,
    and otherwise over the quadratic extension by that scalar (refused when
    allow_extension is false).  None when the divisor of g is not even.
    """
    if form.degree % 2 != 0:
        raise PolyError("perfect squares have even degree")
    if not form:
        raise PolyError("zero form")
    field = form.field
    s_mult, t_mult, factors = form.squarefree_parts()
    if s_mult % 2 or t_mult % 2:
        return None
    half = [field.one()]
    for m, g in factors:
        if m % 2:
            return None
        for _ in range(m // 2):
            half = _gcd_like_merge(half, g, field)
    # reassemble the binary square root without the scalar
    half_deg = form.degree // 2 - (s_mult + t_mult) // 2
    cs = [field.zero()] * (half_deg + 1)
    for i, c in enumerate(half):
        cs[half_deg - i] = c
    root0 = BinaryForm(field, cs)
    # multiply back the even s/t powers
    s_half = [field.zero()] * (s_mult // 2 + 1)
    s_half[0] = field.one()
    t_half = [field.zero()] * (t_mult // 2 + 1)
    t_half[-1] = field.one()
    root0 = root0 * BinaryForm(field, s_half) * BinaryForm(field, t_half)
    sq = root0 * root0
    scalar = None
    for a, b in zip(form.coeffs, sq.coeffs):
        if b:
            scalar = a / b
            break
    if scalar is None or not all(x * scalar == y for x, y in zip(sq.coeffs, form.coeffs)):
        return None
    r = field.sqrt(scalar)
    if r is not None:
        return SquareRootCert(root0 * r, scalar, False)
    if not allow_extension:
        return None
    if isinstance(field, QuadExtField):
        return None  # one extension is already in use; tower depth capped
    ext = field.quadratic_extension(scalar)
    root_ext = root0.change_field(ext) * ext.sqrt_d()
    return SquareRootCert(root_ext, scalar, True)


def resultant(f, g):
    """Sylvester resultant of two binary forms (as forms in s over k[t] style).

    Vanishes exactly when the forms share a root in the projective closure,
    including a common root at (1:0) detected via leading coefficients.
    """
    from . import linalg
    field = f.field
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [field.zero()] * size
        for j, c in enumerate(f.coeffs):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [field.zero()] * size
        for j, c in enumerate(g.coeffs):
            row[i + j] = c
        rows.append(row)
    return linalg.det(rows)


def binary_gcd(f, g):
    """Monic-normalized gcd of two binary forms (projective common divisor)."""
    field = f.field
    if not f:
        return g
    if not g:
        return f
    sf, tf, cf = f.strip_st()
    sg, tg, cg = g.strip_st()
    s_common, t_common = min(sf, sg), min(tf, tg)
    pf = _trim(list(reversed(cf)), field)
    pg = _trim(list(reversed(cg)), field)
    core = _gcd_poly(pf, pg, field)
    d = _deg(core) + s_common + t_common
    cs = [field.zero()] * (d + 1)
    for i, c in enumerate(core):
        # core root structure sits between the forced s and t powers
        cs[d - s_common - i] = c
    return BinaryForm(field, cs)
