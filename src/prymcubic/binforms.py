"""Binary forms and the univariate elimination toolbox built on them.

A binary form is a `HomogPoly` in two variables, (s, t) unless a caller
names others; every function here takes and returns one.  Internally a form
is read as its dense coefficient list, entry i the coefficient of
s^(d-i) t^i, and its core after stripping powers of s and t as a univariate
polynomial in u = s/t; that reading stays inside this module.  On top of
it: gcd, squarefree factorization into binary forms (`squarefree_factors`,
complete in small characteristic via p-th-power descent), the root of a
linear factor, root-multiplicity signatures, perfect-square detection with
at most one quadratic extension (`Field.adjoin_sqrt`), Sylvester
resultants, and the rational roots of a form over a finite field by
Cantor-Zassenhaus root finding.
"""

from __future__ import annotations

from . import linalg
from .poly import HomogPoly, PolyError

ST = ("s", "t")


def _coeffs(f):
    """Dense coefficient list of a binary form: entry i is the coefficient of
    s^(d-i) t^i."""
    if len(f.vars) != 2:
        raise PolyError("not a binary form")
    cs = [f.field.zero()] * (f.degree + 1)
    for (_, j), c in f.terms.items():
        cs[j] = c
    return cs


def _strip_st(f):
    """(s_mult, t_mult, core): the powers of s and t dividing a nonzero form
    and the dense coefficients of the rest, whose extreme entries are nonzero."""
    cs = _coeffs(f)
    if not f.terms:
        raise PolyError("zero form")
    # the t-exponent of entry i is i, so zeros at the start of the list are
    # t-powers and zeros at the end s-powers
    lo = min(j for _, j in f.terms)
    hi = max(j for _, j in f.terms)
    return f.degree - hi, lo, cs[lo:hi + 1]


def squarefree_factors(form):
    """[(m, g)] with form = c * prod g^m for a nonzero form: each g a
    squarefree binary form in the form's variables, the g pairwise coprime.

    s, whose root is (0 : 1), comes first when it divides the form, then t,
    whose root is (1 : 0); then the other factors by ascending m, each with
    s^deg coefficient 1."""
    field, vs = form.field, form.vars
    s_mult, t_mult, core = _strip_st(form)
    out = [(m, HomogPoly.linear(field, vs, e))
           for m, e in ((s_mult, (1, 0)), (t_mult, (0, 1))) if m]
    # u^i in u = s/t is s^i t^(deg - i)
    for m, g in squarefree_decomposition(list(reversed(core)), field):
        d = _deg(g)
        out.append((m, HomogPoly(field, vs, d, {(i, d - i): c for i, c in enumerate(g) if c},
                                 _clean=True)))
    return out


def linear_root(g):
    """The root of a linear binary form a s + b t: (-b/a, 1), or (1, 0) when
    a = 0."""
    a, b = g.linear_coeffs()
    return (-b / a, g.field.one()) if a else (g.field.one(), g.field.zero())


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


def _powmod_poly(f, e, m, field):
    """f^e mod m by square-and-multiply, e >= 1, for m of degree >= 1."""
    _, f = _divmod_poly(f, m, field)
    r = None
    while True:
        if e & 1:
            r = f if r is None else _divmod_poly(_mul_poly(r, f, field), m, field)[1]
        e >>= 1
        if not e:
            return r
        f = _divmod_poly(_mul_poly(f, f, field), m, field)[1]


def _linear_split(h, field):
    """Monic linear factors of a monic product h of distinct linear factors
    over F_q, by Cantor-Zassenhaus equal-degree splitting: for shifts a in
    `field.elements()` order, gcd(g, (u + a)^((q-1)/2) - 1) splits every
    pending factor g it can.  A shift that fails on g fails on every divisor
    of g, and for two distinct roots r1, r2 some shift makes exactly one of
    r1 + a, r2 + a a nonzero square, so the walk ends."""
    half = (field.order() - 1) // 2
    done, pending = [], [h]
    for a in field.elements():
        if not pending:
            break
        nxt = []
        for g in pending:
            if _deg(g) == 1:
                done.append(g)
                continue
            w = _powmod_poly([a, field.one()], half, g, field)
            d = _gcd_poly(g, _trim([w[0] - 1] + w[1:], field), field)
            if 0 < _deg(d) < _deg(g):
                nxt += [d, _divmod_poly(g, d, field)[0]]
            else:
                nxt.append(g)
        pending = nxt
    return done + pending


def rational_roots(f):
    """The distinct roots of a nonzero binary form over a finite field F_q
    that are F_q-rational, each a pair (u, 1) or (1, 0) of field elements:
    the (u, 1) by the raw value of u, which is `field.elements()` order,
    then (1, 0).

    The core left after stripping s and t powers has its rational roots cut
    out by gcd(g, u^q - u), computed by square-and-multiply mod g, and split
    into linear factors by `_linear_split`.  Each power costs O(log q)
    products mod g; the shift walk needs few shifts in practice, though no
    bound below q is proven for a fixed shift order."""
    field = f.field
    q = field.order()
    s_mult, t_mult, core = _strip_st(f)
    g = list(reversed(core))
    found = []
    if s_mult:
        found.append(field.zero())
    if _deg(g) > 0:
        frob = _powmod_poly([field.zero(), field.one()], q, g, field)
        frob = frob + [field.zero()] * (2 - len(frob))
        frob[1] = frob[1] - 1
        h = _gcd_poly(g, _trim(frob, field), field)
        if _deg(h) > 0:
            found += [-lin[0] for lin in _linear_split(h, field)]
    one = field.one()
    roots = [(u, one) for u in sorted(found, key=lambda e: e.val)]
    if t_mult:
        roots.append((one, field.zero()))
    return roots


def squarefree_decomposition(f, field):
    """[(m, g)] by ascending m with f = lc * prod g^m, for an ascending
    coefficient list f; the g monic, squarefree and pairwise coprime.

    Complete in characteristic p via descent on p-th powers; in
    characteristic zero this is Yun's algorithm.
    """
    f = _monic(_trim(list(f), field), field)
    if _deg(f) == 0:
        return []
    p = field.characteristic()
    df = _derivative(f, field)
    out = {}
    rest = f  # the p-th power left for descent once Yun's loop is done
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
        rest = c
    if _deg(rest) > 0:
        for m, g in squarefree_decomposition(_pth_root_poly(rest, field, p), field):
            key = m * p
            out[key] = _mul_poly(out[key], g, field) if key in out else g
    return sorted((m, g) for m, g in out.items())


def _mul_poly(a, b, field):
    prod = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = prod[i + j] + x * y
    return prod


def squarefree_signature(form):
    """Multiset of (multiplicity, degree) of the roots over the closure."""
    if not form:
        raise PolyError("signature of the zero form")
    sig = {}
    for m, g in squarefree_factors(form):
        sig[m] = sig.get(m, 0) + g.degree
    return sorted(sig.items())


def multiplicity_partition(form):
    """Root multiplicities, one entry per closure point, descending."""
    parts = []
    for m, count in squarefree_signature(form):
        parts.extend([m] * count)
    return sorted(parts, reverse=True)


def perfect_square_root(form):
    """Square root of a binary form of even degree: a form in the same
    variables whose square is the form exactly, or None when its divisor is
    not even.  The root lives over the base field when the normalizing
    scalar is a square there, else over `Field.adjoin_sqrt`'s extension by
    it; None when that would be a second extension."""
    if form.degree % 2 != 0:
        raise PolyError("perfect squares have even degree")
    if not form:
        raise PolyError("zero form")
    field = form.field
    factors = squarefree_factors(form)
    if any(m % 2 for m, _ in factors):
        return None
    # the square root without the scalar
    root0 = HomogPoly.monomial(field, form.vars, (0, 0))
    for m, g in factors:
        for _ in range(m // 2):
            root0 = root0 * g
    sq = root0 * root0
    top = max(sq.terms)
    if top not in form.terms:
        return None
    scalar = form.terms[top] / sq.terms[top]
    if sq * scalar != form:
        return None
    adjoined = field.adjoin_sqrt(scalar)
    if adjoined is None:
        return None
    work, r = adjoined
    return root0.change_field(work) * r


def resultant(f, g):
    """Sylvester resultant of two binary forms (as forms in s over k[t] style).

    Vanishes exactly when the forms share a root in the projective closure,
    including a common root at (1:0) detected via leading coefficients.
    """
    field = f.field
    fc, gc = _coeffs(f), _coeffs(g)
    m, n = f.degree, g.degree
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    rows = []
    for cs, shifts in ((fc, n), (gc, m)):
        for i in range(shifts):
            row = [field.zero()] * (m + n)
            row[i:i + len(cs)] = cs
            rows.append(row)
    return linalg.det(rows)


def binary_gcd(f, g):
    """Monic-normalized gcd of two binary forms (projective common divisor)."""
    field = f.field
    if not f:
        return g
    if not g:
        return f
    sf, tf, cf = _strip_st(f)
    sg, tg, cg = _strip_st(g)
    s_common, t_common = min(sf, sg), min(tf, tg)
    pf = _trim(list(reversed(cf)), field)
    pg = _trim(list(reversed(cg)), field)
    core = _gcd_poly(pf, pg, field)
    d = _deg(core) + s_common + t_common
    # core root structure sits between the forced s and t powers
    return HomogPoly(field, f.vars, d, {(s_common + i, d - s_common - i): c
                                        for i, c in enumerate(core) if c}, _clean=True)
