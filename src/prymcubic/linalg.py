"""Exact dense linear algebra over a Field.

Everything here works on plain lists of FieldElement rows.  Determinants and
adjugates are generic in the entry type: any object with ring operators will
do, which lets the same code run on scalar matrices and on matrices of
homogeneous forms.
"""

from __future__ import annotations


def mat_copy(rows):
    return [list(r) for r in rows]


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = mat_copy(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


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


def line_basis(dual, field):
    """Two points spanning the plane line with dual coordinates `dual`."""
    p0, p1 = kernel_basis([[field.element(c) for c in dual]], field)
    return p0, p1


def det(rows):
    """Determinant: cofactor expansion up to 4x4 (entry-ring generic, so it
    also covers matrices of forms), Gaussian elimination with exact division
    for larger scalar matrices.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4 or not hasattr(rows[0][0], "inverse"):
        total = None
        for j in range(n):
            entry = rows[0][j]
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = entry * det(minor)
            if j % 2 == 1:
                term = -term
            total = term if total is None else total + term
        return total
    return _det_gauss(rows)


def _det_gauss(rows):
    m = mat_copy(rows)
    n = len(m)
    sign = 1
    acc = None
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            zero = m[0][0] - m[0][0]
            return zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        acc = piv if acc is None else acc * piv
        inv = piv.inverse()
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return acc if sign == 1 else -acc


def adjugate(rows):
    """Adjugate matrix: adj(M) . M = det(M) . I, entries generic."""
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            cof = det(minor) if minor else None
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof
    return adj


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for t in range(1, k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
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
