"""Elimination on plane forms: the Sylvester resultant of two ternary forms in
their last variable, expanded by `linalg.laplace` on dense raw lists,
Sylvester's 6x6 determinant for three ternary quadrics, and the plane-cubic
smoothness test built on it.
"""

from __future__ import annotations

from . import linalg
from .binforms import binary_form
from .oracle import projective_points, smoothness_certificate
from .poly import PolyError

# column order of the 6x6 determinant
_QUADRATIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def resultant_last_var(f, g):
    """Sylvester resultant of two ternary forms in their last variable: a
    binary form of degree deg f * deg g in the first two variables.

    It vanishes at (a : b) exactly when f(a, b, w) and g(a, b, w) share a
    root w, provided both forms carry a pure power of the last variable.
    `linalg.laplace` expands the Sylvester matrix of the coefficients of
    the last variable as dense raw lists (None for a zero one), as
    `binforms.pencil_determinant_raw` expands its pencil.
    """
    f._check_compatible(g)
    field = f.field
    zero, neg = field._zero_raw, field._neg

    def coeffs(h):
        # entry k is the coefficient of the last variable's power deg h - k,
        # its entry j that of x0^(k-j) x1^j
        parts = [None] * (h.degree + 1)
        for (_, j, w), c in h.terms.items():
            k = h.degree - w
            if parts[k] is None:
                parts[k] = [zero] * (k + 1)
            parts[k][j] = c.val
        return parts

    rows = linalg.sylvester(coeffs(f), coeffs(g), None)
    # two constants give the empty Sylvester matrix, whose determinant is 1
    det = (linalg.laplace(rows, field._convolve_raw, lambda x: [neg(c) for c in x]) if rows
           else {(): [field._one_raw]})
    return binary_form(field, f.vars[:2], f.degree * g.degree, det[tuple(range(len(rows)))] or ())


def resultant3_quadrics(quadrics):
    """Resultant of three ternary quadrics up to a unit factor: zero iff they
    share a projective zero over the algebraic closure.

    Sylvester's formula: the 6x6 determinant whose rows are the coefficients
    of the three quadrics and of the three partials of their Jacobian
    determinant.  Over Z it is 512 times the resultant (at w0^2, w1^2, w2^2
    it is 512), so it decides vanishing in every odd characteristic.
    """
    if len(quadrics) != 3 or any(q.degree != 2 or len(q.vars) != 3 for q in quadrics):
        raise PolyError("need three ternary quadrics")
    field = quadrics[0].field
    jacobian = linalg.det([q.gradient() for q in quadrics])
    return linalg.det([[f.terms.get(e, field.zero()) for e in _QUADRATIC_MONOMIALS]
                       for f in list(quadrics) + list(jacobian.gradient())])


def plane_cubic_is_smooth(cubic):
    """Smoothness of a plane cubic over the algebraic closure.

    Away from characteristic three it is the Jacobian criterion, decided by
    the resultant of the three partials.  In characteristic three Euler's
    relation no longer puts a common zero of the partials on the cubic, and
    the field is finite, so the cubic is singular exactly when it has a
    rational line component, a rational singular point, or no rational point:
    an irreducible singular cubic has one singular point, hence a rational
    one; a lone line component is rational; three conjugate lines through one
    point meet in a rational point, three others have no rational point; and
    a smooth cubic always has a rational point (Hasse-Weil).
    """
    if cubic.degree != 3 or len(cubic.vars) != 3:
        raise PolyError("need a ternary cubic")
    if not cubic:
        return False
    field = cubic.field
    if field.characteristic() == 3:
        cert = smoothness_certificate([cubic], field)
        return (cert.passed and cert.points_on_scheme > 0
                and all(cubic.restrict_to_line(*linalg.line_basis(dual, field))
                        for dual in projective_points(field, 2)))
    return bool(resultant3_quadrics(list(cubic.gradient())))
