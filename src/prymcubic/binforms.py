"""Binary forms and the univariate elimination toolbox built on them.

A binary form is a `HomogPoly` in two variables, (s, t) unless a caller
names others.  Internally a form is read as its dense list of raw field
values (the `.val` of each coefficient; entry i belongs to s^(d-i) t^i),
and its core after stripping powers of s and t as a univariate polynomial
in u = s/t.  The dense helpers compute on those raw values with the field's
raw operations, and values are wrapped in `FieldElement`s only where a form
or a root is returned.  The line walk over the plane hands this module
dense raw lists straight from its evaluators: `is_squarefree_raw`,
`has_even_divisor_raw` and `are_coprime_raw` answer its questions on them,
and `is_squarefree`, `perfect_square_root` and `binary_gcd` read the same
code after unwrapping a form, so a line that fails a test is never
wrapped.  On top of it: gcd, squarefree factorization
(`squarefree_factors_raw` on a dense raw list, which `squarefree_factors`
wraps as binary forms, complete in small characteristic via p-th-power
descent), perfect-square detection with at most one quadratic extension
(`Field.adjoin_sqrt`), the Euclidean resultant, the determinant of a
pencil of symmetric matrices as a dense raw list, and the rational roots
of a form over a finite field by Cantor-Zassenhaus root finding.
`invariant_forms` gives two universal integer forms in the
coefficients, the resultant of two binary cubics and 16 times the
discriminant of a binary quartic, which the line walk over F_p evaluates
compiled before it runs any of the gcd chains above.
"""

from __future__ import annotations

from . import linalg
from .fields import FieldElement, QQ
from .poly import HomogPoly, PolyError

ST = ("s", "t")


def _coeffs(f):
    """Dense raw coefficient list of a binary form: entry i is the raw
    coefficient of s^(d-i) t^i."""
    if len(f.vars) != 2:
        raise PolyError("not a binary form")
    cs = [f.field._zero_raw] * (f.degree + 1)
    for (_, j), c in f.terms.items():
        cs[j] = c.val
    return cs


def _split(field, degree, cs):
    """(s_mult, t_mult, core) for the dense raw list cs of a binary form of
    the given degree, which may stop short of entry `degree`: the powers of
    s and t dividing the form and the rest as an ascending list in u = s/t
    whose extreme entries are nonzero; None for the zero form."""
    is_zero = field._is_zero_raw
    # the t-exponent of entry i is i, so zeros at the start of the list are
    # t-powers and zeros at the end s-powers
    nonzero = [i for i, c in enumerate(cs) if not is_zero(c)]
    if not nonzero:
        return None
    lo, hi = nonzero[0], nonzero[-1]
    return degree - hi, lo, cs[lo:hi + 1][::-1]


def _strip_st(f):
    """`_split` of a nonzero binary form."""
    split = _split(f.field, f.degree, _coeffs(f))
    if split is None:
        raise PolyError("zero form")
    return split


def binary_form(field, vs, degree, coeffs):
    """The binary form sum_k c_k s^(degree-k) t^k in the variables vs = (s, t)
    for the raw values c_k of coeffs, which may stop short of k = degree:
    the one wrapper of dense raw lists into a binary form, here, in `elim`
    and in the line walk's evaluators."""
    is_zero = field._is_zero_raw
    return HomogPoly(field, vs, degree, {(degree - k, k): FieldElement(field, c)
                                         for k, c in enumerate(coeffs) if not is_zero(c)},
                     _clean=True)


def squarefree_factors_raw(field, degree, cs):
    """[(m, g)] with f = c * prod g^m for the nonzero binary form f of the
    given degree with the dense raw list cs, which may stop short of entry
    `degree`: each g the dense raw list of a squarefree form, all its
    entries present, the g pairwise coprime.

    s, whose root is (0 : 1), comes first when it divides the form, then t,
    whose root is (1 : 0); then the other factors by ascending m, each with
    s^deg coefficient 1."""
    split = _split(field, degree, cs)
    if split is None:
        raise PolyError("zero form")
    s_mult, t_mult, core = split
    zero, one = field._zero_raw, field._one_raw
    out = [(m, e) for m, e in ((s_mult, [one, zero]), (t_mult, [zero, one])) if m]
    return out + [(m, g[::-1]) for m, g in squarefree_decomposition(core, field)]


def squarefree_factors(form):
    """`squarefree_factors_raw` of a nonzero form, each factor a binary form
    in the form's variables."""
    return [(m, binary_form(form.field, form.vars, _deg(g), g))
            for m, g in squarefree_factors_raw(form.field, form.degree, _coeffs(form))]


# ---------------------------------------------------------------------------
# dense univariate helpers; ascending lists of raw values of a Field
# ---------------------------------------------------------------------------

def _deg(f):
    return len(f) - 1


def _trim(f, field):
    is_zero = field._is_zero_raw
    n = len(f)
    while n > 1 and is_zero(f[n - 1]):
        n -= 1
    if not f:
        return [field._zero_raw]
    return f if n == len(f) else f[:n]


def _is_zero_poly(f, field):
    return all(map(field._is_zero_raw, f))


def _monic(f, field):
    if _is_zero_poly(f, field):
        return f
    inv, mul = field._inv(f[-1]), field._mul
    return [mul(c, inv) for c in f]


def _divmod_poly(a, b, field):
    mul, sub, is_zero = field._mul, field._sub, field._is_zero_raw
    a = list(a)
    q = [field._zero_raw] * max(len(a) - len(b) + 1, 1)
    binv = field._inv(b[-1])
    top = len(b) - 1
    while len(a) > top:
        c = a.pop()
        if is_zero(c):
            continue
        k = len(a) - top
        c = mul(c, binv)
        q[k] = c
        # a's top entry, already popped, cancels against c * b[top]
        for i in range(top):
            a[k + i] = sub(a[k + i], mul(c, b[i]))
    return _trim(q, field), _trim(a, field)


def _gcd_poly(a, b, field):
    a = _trim(list(a), field)
    b = _trim(list(b), field)
    while not _is_zero_poly(b, field):
        _, r = _divmod_poly(a, b, field)
        a, b = b, r
    return _monic(_trim(a, field), field)


def _derivative(f, field):
    if len(f) == 1:
        return [field._zero_raw]
    mul, from_int = field._mul, field._from_int
    return _trim([mul(f[i], from_int(i)) for i in range(1, len(f))], field)


def _pth_root_poly(f, field, p):
    """Inverse Frobenius on a polynomial that is a p-th power."""
    # c^(q/p) inverts Frobenius: the identity on F_p, c^p on F_{p^2}
    frob_inv = field.order() // p
    for i, c in enumerate(f):
        if i % p != 0 and not field._is_zero_raw(c):
            raise PolyError("not a p-th power")
    return [field._pow_raw(f[i], frob_inv) for i in range(0, len(f), p)]


def _powmod_poly(f, e, m, field):
    """f^e mod m by square-and-multiply, e >= 1, for m of degree >= 1."""
    _, f = _divmod_poly(f, m, field)
    r = None
    while True:
        if e & 1:
            r = f if r is None else _divmod_poly(field._convolve_raw(None, r, f), m, field)[1]
        e >>= 1
        if not e:
            return r
        f = _divmod_poly(field._convolve_raw(None, f, f), m, field)[1]


def _linear_split(h, field):
    """Monic linear factors of a monic product h of distinct linear factors
    over F_q, by Cantor-Zassenhaus equal-degree splitting: for shifts a in
    `field.elements()` order, gcd(g, (u + a)^((q-1)/2) - 1) splits every
    pending factor g it can.  A shift that fails on g fails on every divisor
    of g, and for two distinct roots r1, r2 some shift makes exactly one of
    r1 + a, r2 + a a nonzero square, so the walk ends."""
    half = (field.order() - 1) // 2
    one, sub = field._one_raw, field._sub
    done, pending = [], [h]
    for a in field.elements():
        if not pending:
            break
        nxt = []
        for g in pending:
            if _deg(g) == 1:
                done.append(g)
                continue
            w = _powmod_poly([a.val, one], half, g, field)
            d = _gcd_poly(g, _trim([sub(w[0], one)] + w[1:], field), field)
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
    zero, one = field._zero_raw, field._one_raw
    s_mult, t_mult, g = _strip_st(f)
    found = []
    if s_mult:
        found.append(zero)
    if _deg(g) > 0:
        frob = _powmod_poly([zero, one], field.order(), g, field)
        frob = frob + [zero] * (2 - len(frob))
        frob[1] = field._sub(frob[1], one)
        h = _gcd_poly(g, _trim(frob, field), field)
        if _deg(h) > 0:
            found += [field._neg(lin[0]) for lin in _linear_split(h, field)]
    roots = [(FieldElement(field, u), field.one()) for u in sorted(found)]
    if t_mult:
        roots.append((field.one(), field.zero()))
    return roots


def squarefree_decomposition(f, field):
    """[(m, g)] by ascending m with f = lc * prod g^m, for an ascending list
    f of raw coefficients; the g raw lists, monic, squarefree and pairwise
    coprime.

    Complete in characteristic p via descent on p-th powers; in
    characteristic zero this is Yun's algorithm.  A squarefree f, one with
    f' != 0 and gcd(f, f') constant, is returned as [(1, f)] at once.
    """
    f = _monic(_trim(list(f), field), field)
    if _deg(f) == 0:
        return []
    p = field.characteristic()
    df = _derivative(f, field)
    out = {}
    rest = f  # the p-th power left for descent once Yun's loop is done
    if not _is_zero_poly(df, field):
        c = _gcd_poly(f, df, field)
        if _deg(c) == 0:
            return [(1, f)]
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
            out[key] = field._convolve_raw(None, out[key], g) if key in out else g
    return sorted(out.items())


def pencil_determinant_raw(m1, m2, field):
    """det(s M1 + t M2) for symmetric matrices M1, M2 of one size n with
    entries in field, as a dense raw list: entry j is the coefficient of
    s^(n-j) t^j, and the list may stop short of j = n.

    `linalg.laplace` on dense raw lists: entry (i, j) is the list
    [M1_ij, M2_ij] of raw values (None when both are zero), and each signed
    term is convolved into its minor in place by `Field._convolve_raw`, as
    `elim.resultant_last_var` expands its Sylvester matrix, so n = 4 takes
    at most 28 products of binary forms."""
    n = m1.n
    is_zero, neg = field._is_zero_raw, field._neg

    def entry(i, j):
        a, b = field.element(m1.at(i, j)).val, field.element(m2.at(i, j)).val
        return None if is_zero(a) and is_zero(b) else [a, b]

    rows = [[entry(i, j) for j in range(n)] for i in range(n)]
    det = linalg.laplace(rows, field._convolve_raw, lambda x: [neg(c) for c in x])
    return det[tuple(range(n))] or []


# ---------------------------------------------------------------------------
# predicates on dense raw lists: entry i at s^(degree-i) t^i, a list that
# stops short of entry `degree` read as padded with zeros.  The line walk
# asks them of its evaluators' values, and the form-level functions below
# read the same code.
# ---------------------------------------------------------------------------

def is_squarefree_raw(field, degree, cs):
    """`is_squarefree` of the binary form with the dense raw list cs."""
    split = _split(field, degree, cs)
    if split is None:
        return False
    s_mult, t_mult, core = split
    return (s_mult < 2 and t_mult < 2
            and all(m == 1 for m, _ in squarefree_decomposition(core, field)))


def _even_parts(field, degree, cs):
    """(s_mult, t_mult, parts) of the nonzero binary form with the dense raw
    list cs, parts the `squarefree_decomposition` of its core, when every
    root has even multiplicity; else None."""
    split = _split(field, degree, cs)
    if split is None:
        raise PolyError("zero form")
    s_mult, t_mult, core = split
    if s_mult % 2 or t_mult % 2:
        return None
    parts = squarefree_decomposition(core, field)
    return None if any(m % 2 for m, _ in parts) else (s_mult, t_mult, parts)


def has_even_divisor_raw(field, degree, cs):
    """Whether every root of the nonzero binary form with the dense raw list
    cs has even multiplicity over the closure: the divisor test of
    `perfect_square_root`, which over a prime field finds a root whenever
    it passes."""
    return _even_parts(field, degree, cs) is not None


def _gcd_split(a, b, field):
    """The gcd of two nonzero forms given as `_split` triples, as one: the
    powers of s and t they share and the monic gcd of their cores."""
    return min(a[0], b[0]), min(a[1], b[1]), _gcd_poly(a[2], b[2], field)


def are_coprime_raw(field, degree, lists):
    """Whether the binary forms of one degree with these dense raw lists are
    all nonzero and share no projective root: the gcd chain of `binary_gcd`
    from the first form on, which stops at the first constant gcd."""
    splits = [_split(field, degree, cs) for cs in lists]
    if None in splits:
        return False
    g = splits[0]
    for h in splits[1:]:
        g = _gcd_split(g, h, field)
        if g[0] == g[1] == _deg(g[2]) == 0:
            return True
    return False


def is_squarefree(form):
    """No repeated root over the closure; False for the zero form."""
    return bool(form) and is_squarefree_raw(form.field, form.degree, _coeffs(form))


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
    even = _even_parts(field, form.degree, _coeffs(form))
    if even is None:
        return None
    _, t_mult, parts = even
    # the monic root of the core, ascending in u = s/t
    core = [field._one_raw]
    for m, g in parts:
        for _ in range(m // 2):
            core = field._convolve_raw(None, core, g)
    root0 = binary_form(field, form.vars, form.degree // 2,
                        [field._zero_raw] * (t_mult // 2) + core[::-1])
    # form = scalar * root0^2, and the core of root0^2 is monic, so the
    # scalar is the form's coefficient at its lowest power of t
    adjoined = field.adjoin_sqrt(form.terms[(form.degree - t_mult, t_mult)])
    if adjoined is None:
        return None
    work, r = adjoined
    return root0.change_field(work) * r


def resultant(f, g):
    """Resultant of binary forms f and g of degrees m and n: the determinant
    of their Sylvester matrix as polynomials in s, f's rows first, by the
    Euclidean algorithm on raw lists in O(mn) raw operations.

    Vanishes exactly when the forms share a root in the projective closure,
    including a common root at (1:0), where both s^deg coefficients vanish.
    A constant c against a form of degree n gives c^n, and two constants 1.

    While both degrees are positive, with f's formal degree m >= n and g's
    s^n coefficient b nonzero, Res(f, g) = (-1)^(mn) b^(m-k) Res(g, r) for
    the remainder r = f mod g of degree k.  When b is zero and f's s^m
    coefficient a is not, Res(f, g) = a^(n-k) Res(f, g) with g read at its
    true degree k."""
    field = f.field
    mul, neg, power = field._mul, field._neg, field._pow_raw
    # ascending in u = s/t, beside the formal degrees m and n
    a, m = _trim(_coeffs(f)[::-1], field), f.degree
    b, n = _trim(_coeffs(g)[::-1], field), g.degree
    acc = field._one_raw
    while m and n:
        if m < n:
            a, m, b, n = b, n, a, m
            if m * n % 2:
                acc = neg(acc)
        if len(b) <= n:
            # g's s^n coefficient is zero: a root at (1:0) both share, or
            # g of lower degree against f's nonzero s^m coefficient
            if len(a) <= m or _is_zero_poly(b, field):
                return field.zero()
            acc = mul(acc, power(a[-1], n - len(b) + 1))
            n = len(b) - 1
            continue
        _, r = _divmod_poly(a, b, field)
        if _is_zero_poly(r, field):
            return field.zero()
        if m * n % 2:
            acc = neg(acc)
        acc = mul(acc, power(b[-1], m - len(r) + 1))
        a, m, b, n = b, n, r, len(r) - 1
    # a constant against a form of degree m or n, or two constants
    return FieldElement(field, mul(acc, power(b[0], m) if m else power(a[0], n)))


def invariant_forms():
    """The two invariants the line walk reads first, over Q as forms with
    integer coefficients in coefficient variables, each `linalg.det` of a
    `linalg.sylvester` matrix of linear forms:

    - Res(f_s, f_t) of a binary quartic with coefficients (c0, ..., c4),
      c_k at s^(4-k) t^k: 16 times its discriminant (16 terms of degree 6);
    - Res(f, g) of binary cubics with coefficients (f0, ..., f3) and
      (g0, ..., g3) (34 terms of degree 6).

    Both are universal, so in odd characteristic the first vanishes exactly
    when the quartic has a repeated projective root or is zero, and the
    second exactly when f and g share a projective root or one is zero."""
    def variables(*names):
        vs = tuple("%s%d" % (name, k) for name, n in names for k in range(n))
        return ([HomogPoly.linear(QQ, vs, [0] * i + [1]) for i in range(len(vs))],
                HomogPoly.linear(QQ, vs, []))

    c, zero = variables(("c", 5))
    disc = linalg.det(linalg.sylvester([c[k] * (4 - k) for k in range(4)],
                                       [c[k + 1] * (k + 1) for k in range(4)], zero))
    x, zero = variables(("f", 4), ("g", 4))
    return disc, linalg.det(linalg.sylvester(x[:4], x[4:], zero))


def binary_gcd(f, g):
    """Monic-normalized gcd of two binary forms (projective common divisor):
    the powers of s and t they share times their core gcd, whose highest
    power of s has coefficient 1.  gcd(0, f) and gcd(f, 0) are f normalized
    so, and gcd(0, 0) is the zero form."""
    field = f.field
    if not f:
        f, g = g, f
    if not f:
        return f
    if not g:
        g = f
    s_common, t_common, h = _gcd_split(_strip_st(f), _strip_st(g), field)
    return binary_form(field, f.vars, _deg(h) + s_common + t_common,
                       [field._zero_raw] * t_common + h[::-1])
