"""Resultant of three ternary quadrics via Macaulay's construction, and the
plane-cubic smoothness test built on it (the degree-12 discriminant-type
invariant as the resultant of the three partial derivatives).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import linalg
from .poly import HomogPoly, PolyError

_DEG4 = sorted((tuple(m.count(i) for i in range(3))
                for m in combinations_with_replacement(range(3), 4)), reverse=True)
_DEG4_INDEX = {m: k for k, m in enumerate(_DEG4)}


def _macaulay_rows(quadrics):
    """The 15x15 Macaulay matrix: the row of a quartic monomial holds the
    coefficients of a quadric times the quadratic monomial that shifts it
    there, in _DEG4 order."""
    field = quadrics[0].field
    mat = []
    for mono in _DEG4:
        # smallest i with w_i^2 dividing the monomial picks the block
        block = next(i for i in range(3) if mono[i] >= 2)
        shift = list(mono)
        shift[block] -= 2
        shifted = quadrics[block] * HomogPoly.monomial(field, quadrics[block].vars, shift)
        row = [field.zero()] * 15
        for e, c in shifted.terms.items():
            row[_DEG4_INDEX[e]] = c
        mat.append(row)
    return mat


# rows and columns of the denominator minor
_NON_REDUCED = [_DEG4_INDEX[m] for m in ((2, 2, 0), (2, 0, 2), (0, 2, 2))]

# Coordinate frames tried in order wherever a projection or a determinant
# minor must be generic; frame T sends x_j to sum_i T[i][j] x_i.  A frame is
# only a change of coordinates where its determinant is a unit, so callers
# walk `frames(field)`, not this table.
FRAMES = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 0, 0), (0, 1, 0), (1, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (2, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 2, 1)),
    ((1, 0, 0), (0, 1, 0), (3, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 3, 1)),
    ((1, 0, 0), (0, 1, 0), (2, 3, 1)),
    ((1, 0, 0), (0, 1, 0), (4, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (3, 4, 1)),
    ((1, 0, 0), (0, 1, 0), (5, 2, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((1, 2, 0), (0, 1, 2), (2, 0, 1)),
    ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
    ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
    ((1, 0, 2), (0, 1, 1), (0, 0, 1)),
    ((1, 1, 1), (0, 1, 2), (0, 0, 1)),
    ((1, 0, 3), (0, 1, 2), (1, 0, 1)),
    ((2, 1, 3), (1, 3, 2), (3, 2, 1)),
    ((1, 4, 2), (0, 1, 5), (2, 0, 1)),
    ((1, 0, 3), (0, 1, 5), (0, 0, 1)),
]


def frames(field):
    """The frames of FRAMES that are invertible over field, in table order."""
    for T in FRAMES:
        if field.element(linalg.det(T)):
            yield T


def change_frame(f, T):
    """The ternary form f in the frame T (see FRAMES)."""
    field = f.field
    return f.substitute(tuple(
        HomogPoly.linear(field, f.vars, [field.element(T[i][j]) for i in range(3)])
        for j in range(3)))


def resultant_last_var(f, g):
    """Sylvester resultant of two ternary forms in their last variable: a
    binary form of degree deg f * deg g in the first two variables.

    It vanishes at (a : b) exactly when f(a, b, w) and g(a, b, w) share a
    root w, provided both forms carry a pure power of the last variable.
    """
    field = f.field
    bin_vars = f.vars[:2]
    zero = HomogPoly.zero(field, bin_vars, 0)

    def coeffs(h):
        # entry k is the coefficient of the last variable's power deg h - k
        parts = [{} for _ in range(h.degree + 1)]
        for e, c in h.terms.items():
            parts[h.degree - e[2]][e[:2]] = c
        return [HomogPoly(field, bin_vars, k, t, _clean=True) for k, t in enumerate(parts)]

    m, n = f.degree, g.degree
    size = m + n
    rows = []
    for cs, shifts in ((coeffs(f), n), (coeffs(g), m)):
        for i in range(shifts):
            rows.append([zero] * i + cs + [zero] * (size - i - len(cs)))
    return linalg.det(rows)


def resultant3_quadrics(quadrics):
    """Macaulay resultant of three ternary quadrics, zero iff they share a
    projective zero over the algebraic closure.

    The numerator/denominator determinant ratio is computed in sheared
    coordinates when the denominator minor degenerates; vanishing is
    coordinate-independent so only the zero/nonzero answer is exposed.
    """
    if len(quadrics) != 3 or any(q.degree != 2 or len(q.vars) != 3 for q in quadrics):
        raise PolyError("need three ternary quadrics")
    field = quadrics[0].field
    monomials = sorted({e for q in quadrics for e in q.terms})
    if linalg.rank([[q.terms.get(e, field.zero()) for e in monomials] for q in quadrics]) < 3:
        # dependent quadrics span at most a pencil, and every member of a
        # pencil vanishes at its base points
        return field.zero()
    for T in frames(field):
        mat = _macaulay_rows([change_frame(q, T) for q in quadrics])
        minor = [[mat[i][j] for j in _NON_REDUCED] for i in _NON_REDUCED]
        dden = linalg.det(minor)
        if not dden:
            continue
        dnum = linalg.det(mat)
        return dnum / dden
    raise PolyError("no usable coordinate frame for the Macaulay resultant")


def plane_cubic_is_smooth(cubic):
    """Jacobian-criterion smoothness of a plane cubic over the closure.

    Computed exactly as nonvanishing of the resultant of the three partials;
    valid away from characteristic three.
    """
    if cubic.degree != 3 or len(cubic.vars) != 3:
        raise PolyError("need a ternary cubic")
    if cubic.field.characteristic() == 3:
        raise PolyError("characteristic three not supported here")
    if not cubic:
        return False
    return bool(resultant3_quadrics(list(cubic.gradient())))
