"""Scalar quadratic-form utilities shared by the symmetroid classifier, the
genus-3 constructions and the tritangent machinery: congruence
diagonalization, exact factorization of rank <= 2 symmetric forms into
linear forms (with at most one quadratic extension for the square root,
from `Field.adjoin_sqrt`), and the one reader of a pencil of quadrics: its
members at the multiple roots of its determinant, given as a dense raw
list.
"""

from __future__ import annotations

from . import linalg
from .binforms import squarefree_factors_raw
from .fields import FieldElement
from .poly import HomogPoly, SymMatrix


def congruence_diagonalize(mat, field):
    """P with P^T M P diagonal; returns (P, diagonal entries).

    Needs characteristic != 2 for the off-diagonal pivot trick.
    """
    n = mat.n
    m = [row[:] for row in mat.rows()]
    p = linalg.identity(n, field)

    def add_col(dst, src, c):
        for r in range(n):
            m[r][dst] = m[r][dst] + m[r][src] * c
        for r in range(n):
            p[r][dst] = p[r][dst] + p[r][src] * c

    def add_row(dst, src, c):
        for r in range(n):
            m[dst][r] = m[dst][r] + m[src][r] * c

    def swap(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if not m[k][k]:
            pivot = None
            for i in range(k, n):
                if m[i][i]:
                    pivot = i
                    break
            if pivot is not None:
                swap(k, pivot)
            else:
                found = False
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if m[i][j]:
                            add_col(i, j, field.one())
                            add_row(i, j, field.one())
                            if i != k:
                                swap(k, i)
                            found = True
                            break
                    if found:
                        break
                if not found:
                    break
        if not m[k][k]:
            continue
        inv = m[k][k].inverse()
        for j in range(k + 1, n):
            if m[k][j]:
                c = -m[k][j] * inv
                add_col(j, k, c)
                add_row(j, k, c)
    return p, [m[i][i] for i in range(n)]


class PlanePair:
    """Factorization data of a rank <= 2 symmetric form.

    kind is 'pair' (two distinct linear forms with form = h1*h2),
    'double' (form = scalar * h1^2) or 'zero'.
    """

    __slots__ = ("kind", "h1", "h2", "scalar", "extended")

    def __init__(self, kind, h1=None, h2=None, scalar=None, extended=False):
        self.kind = kind
        self.h1 = h1
        self.h2 = h2
        self.scalar = scalar
        self.extended = extended


def factor_rank_le2(mat, field, vars):
    """Split the form of a rank <= 2 symmetric scalar matrix into linear forms.

    Returns a PlanePair, or None when rank > 2 or the needed square root is
    out of reach (`Field.adjoin_sqrt` would need a second extension).
    """
    p, diag = congruence_diagonalize(mat, field)
    support = [i for i, d in enumerate(diag) if d]
    if len(support) > 2:
        return None
    if not support:
        return PlanePair("zero")
    pinv = linalg.inverse(p, field)
    if len(support) == 1:
        i = support[0]
        return PlanePair("double", HomogPoly.linear(field, vars, pinv[i]), None, diag[i])
    i, j = support
    adjoined = field.adjoin_sqrt(-diag[j] / diag[i])
    if adjoined is None:
        return None
    work, r = adjoined
    yi = HomogPoly.linear(work, vars, pinv[i])
    yj = HomogPoly.linear(work, vars, pinv[j])
    return PlanePair("pair", (yi + yj * r) * diag[i], yi - yj * r, None, work is not field)


def multiple_members(m1, m2, det, field):
    """The one reader of a pencil s M1 + t M2 of symmetric matrices of size
    n <= 5, given det(s M1 + t M2) as the dense raw list that
    `binforms.pencil_determinant_raw` returns (entry j at s^(n-j) t^j; the
    list may stop short).  For each root of multiplicity m >= 2, in
    `squarefree_factors_raw` order, (m, work, member), the member
    s0 M1 + t0 M2 at the root over `work`.  A root of a quadratic factor
    lives over `Field.adjoin_sqrt`'s extension by its discriminant, + root
    first; a factor that would need a second extension is skipped.  None
    when det vanishes identically.  Size at most 5 keeps every multiple
    factor of degree at most 2."""
    if all(map(field._is_zero_raw, det)):
        return None
    members = []
    for m, g in squarefree_factors_raw(field, m1.n, det):
        if m < 2:
            continue
        g = [FieldElement(field, c) for c in g]
        if len(g) == 2:
            # the root of a s + b t
            a, b = g
            work, roots = field, [(-b / a, field.one()) if a else (field.one(), field.zero())]
        else:
            c2, c1, c0 = g
            adjoined = field.adjoin_sqrt(c1 * c1 - c0 * c2 * 4)
            if adjoined is None:
                continue
            work, r = adjoined
            c1, c2 = work.element(c1), work.element(c2)
            roots = [((-c1 + sign) / (c2 * 2), work.one()) for sign in (r, -r)]
        for s0, t0 in roots:
            members.append((m, work, SymMatrix(m1.n, {
                k: work.element(m1.upper[k]) * s0 + work.element(m2.upper[k]) * t0
                for k in m1.upper})))
    return members
