"""Exact dense linear algebra on plain lists of rows.

Row reduction, kernels and inverses take FieldElement entries; row
reduction and rank eliminate on their raw values.  The two points of a
plane line, the kernel of its one-row matrix, come in closed form on raw
values (`line_basis_raw`, which `line_basis` wraps), with no row
reduction, and `cross` is the one cross product, of elements or of raw
values.  Every determinant is one kernel, `laplace`: a division-free
Laplace expansion on raw values that adds each signed term straight into
its minor and skips the terms of zero entries and zero minors.
`maximal_minors` and `mat_mul` read their entries once as raw values
(scalars of the widest field among them, forms through their ring's
`HomogPoly.raw_ring`), accumulate every product in place and wrap each
result once; `det` reads `maximal_minors`.
`binforms.pencil_determinant_raw` and `elim.resultant_last_var` run
`laplace` on dense lists of raw coefficients of binary forms, the latter
on the Sylvester matrix that `sylvester` builds: the one matrix whose
entries mix degrees.
"""

from __future__ import annotations

import operator
from itertools import combinations

from .fields import FieldElement, QuadExtField


def mat_copy(rows):
    return [list(r) for r in rows]


def _widest_field(rows):
    """The widest field among the entries (a quadratic extension over its
    base), or None when there is no entry."""
    field = None
    for row in rows:
        for x in row:
            if field is None or x.field is not field and isinstance(x.field, QuadExtField):
                field = x.field
    return field


def _eliminate(rows):
    """(field, raw reduced rows, pivot columns) of `rref`, nothing wrapped;
    field is None when there is no entry."""
    field = _widest_field(rows)
    if field is None:
        return None, mat_copy(rows), []
    mul, sub, is_zero = field._mul, field._sub, field._is_zero_raw
    m = [[x.val if x.field is field else field.element(x).val for x in row] for row in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if not is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        # every row from r down is zero left of column c, so only the
        # columns from c on change
        inv = field._inv_nonzero(m[r][c])
        pivot = m[r][c:] = [mul(x, inv) for x in m[r][c:]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and not is_zero(f):
                m[i][c:] = [sub(a, mul(f, b)) for a, b in zip(m[i][c:], pivot)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return field, m, pivots


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The entries are read once as raw values of the widest field among them
    (a quadratic extension over its base), eliminated with that field's raw
    operations and wrapped once."""
    field, m, pivots = _eliminate(rows)
    if field is None:
        return m, pivots
    return [[FieldElement(field, x) for x in row] for row in m], pivots


def rank(rows):
    """The number of pivots of the raw elimination of `rref`; no entry is
    wrapped."""
    return len(_eliminate(rows)[2])


def kernel_basis(rows, field):
    """Basis of the right kernel of the matrix, as lists of FieldElement."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero() for _ in range(ncols)]
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def line_basis_raw(dual, field):
    """Two points spanning the plane line with the raw dual coordinates
    `dual`, as lists of raw values: the kernel basis of the one-row matrix
    in closed form.  With c the first nonzero coordinate, each other column
    f, in ascending order, gives the point with 1 at f, -dual[f]/dual[c] at
    c and 0 elsewhere."""
    c = next((i for i, x in enumerate(dual) if not field._is_zero_raw(x)), None)
    if c is None:
        raise ValueError("the zero vector is not a line")
    scale = field._neg(field._inv_nonzero(dual[c]))
    points = []
    for f in range(len(dual)):
        if f != c:
            point = [field._zero_raw] * len(dual)
            point[f], point[c] = field._one_raw, field._mul(dual[f], scale)
            points.append(point)
    p0, p1 = points
    return p0, p1


def line_basis(dual, field):
    """`line_basis_raw` of the coordinates `dual` coerced into field, each
    point a list of field elements."""
    return tuple([FieldElement(field, x) for x in p]
                 for p in line_basis_raw([field.element(x).val for x in dual], field))


def laplace(rows, muladd, neg):
    """The maximal minors of an r x m matrix of raw entries, r <= m:
    {cols: minor} for every ascending r-tuple cols of column indices.

    Laplace expansion from the bottom row up: the minor on the last k rows
    and a k-tuple of columns is computed once, from the minors on the last
    k - 1 rows, so an n x n determinant costs at most n * 2^(n-1) products
    of entries.  Each signed term is added straight into its minor by
    muladd(acc, a, b), which returns acc + a * b with acc None standing for
    zero; an odd term takes its entry from the row negated once by neg.  An
    entry or a lower minor that is None is zero and its term is skipped, so
    a minor that no term reaches is None.  Division-free: the entries are
    whatever raw values muladd and neg take."""
    minors = {(j,): x for j, x in enumerate(rows[-1])}
    for k in range(2, len(rows) + 1):
        row, below = rows[-k], minors
        signed = (row, [None if x is None else neg(x) for x in row])
        minors = {}
        for cols in combinations(range(len(row)), k):
            acc = None
            for t, c in enumerate(cols):
                a, b = signed[t % 2][c], below[cols[:t] + cols[t + 1:]]
                if a is not None and b is not None:
                    acc = muladd(acc, a, b)
            minors[cols] = acc
    return minors


def _raw_ring(rows):
    """(read, muladd, neg, wrap) on the raw values of the entries, as
    `laplace` takes them: forms through the ring of the first form
    (`HomogPoly.raw_ring`), which refuses a form of another ring; scalars as
    raw values of the widest field among them, a zero one read as None."""
    form = next((x for row in rows for x in row if not isinstance(x, FieldElement)), None)
    if form is not None:
        return form.raw_ring()
    field = _widest_field(rows)
    mul, add, is_zero = field._mul, field._add, field._is_zero_raw

    def read(x):
        v = x.val if x.field is field else field.element(x).val
        return None if is_zero(v) else v

    def muladd(acc, a, b):
        return mul(a, b) if acc is None else add(acc, mul(a, b))

    def wrap(v):
        return FieldElement(field, field._zero_raw if v is None else v)

    return read, muladd, field._neg, wrap


def maximal_minors(rows):
    """The maximal minors of an r x m matrix with r <= m, of scalars or of
    forms: {cols: minor} for every ascending r-tuple cols of column indices.

    Each entry is read once as a raw value, `laplace` expands them, and
    each minor is wrapped once.  Every term of a minor of forms has the
    minor's degree, or `HomogPoly.raw_ring` raises PolyError, so a zero
    minor has that degree too."""
    read, muladd, neg, wrap = _raw_ring(rows)
    minors = laplace([[read(x) for x in row] for row in rows], muladd, neg)
    return {cols: wrap(v) for cols, v in minors.items()}


def det(rows):
    """Determinant of a square matrix, of scalars or of forms: its one
    maximal minor."""
    return maximal_minors(rows)[tuple(range(len(rows)))]


def sylvester(fc, gc, zero):
    """Sylvester matrix of two polynomials given by their coefficient lists,
    highest power first: deg g shifted rows of fc above deg f shifted rows
    of gc, padded with zero.  Its determinant is their resultant."""
    m, n = len(fc) - 1, len(gc) - 1
    return ([[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)])


def cross(a, b, mul=operator.mul, sub=operator.sub):
    """Cross product of two 3-vectors, zero exactly when they are
    proportional: of elements by default, of the raw values of one field
    with its raw `_mul` and `_sub`."""
    return (sub(mul(a[1], b[2]), mul(a[2], b[1])), sub(mul(a[2], b[0]), mul(a[0], b[2])),
            sub(mul(a[0], b[1]), mul(a[1], b[0])))


def mat_mul(a, b):
    """The product of two matrices, of scalars or of forms: the entries are
    read once as raw values as in `maximal_minors`, each entry's sum of
    products is accumulated in place, skipping zero scalars, and wrapped
    once."""
    read, muladd, _, wrap = _raw_ring([*a, *b])
    cols = list(zip(*[[read(x) for x in row] for row in b]))
    out = []
    for row in a:
        row = [read(x) for x in row]
        entries = []
        for col in cols:
            acc = None
            for x, y in zip(row, col):
                if x is not None and y is not None:
                    acc = muladd(acc, x, y)
            entries.append(wrap(acc))
        out.append(entries)
    return out


def sum_entries(xs):
    s = xs[0]
    for x in xs[1:]:
        s = s + x
    return s


def normalize_point(vec):
    """Projective representative of a nonzero vector: the first nonzero
    coordinate scaled to one."""
    for c in vec:
        if c:
            inv = c.inverse()
            return tuple(v * inv for v in vec)
    raise ValueError("zero vector is not a projective point")


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def identity(n, field):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def inverse(rows, field):
    n = len(rows)
    aug = [list(r) + ident_row for r, ident_row in zip(rows, identity(n, field))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in red[:n]]
