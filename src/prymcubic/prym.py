"""Forward construction from a symmetroid-plus-quadric pair to a genus-3
curve with its pair of degree-4 pencils, and the reverse construction from a
plane quartic with compatible conic data back to the space pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

from . import linalg
from .binforms import ST, is_squarefree
from .elim import resultant_last_var
from .fields import PrimeField, QuadExtField, RationalField, legendre
from .oracle import compile_raw, kept_result, projective_points_raw
from .poly import HomogPoly, PolyError, SymMatrix, proportional
from .quadrics import congruence_diagonalize
from .symmetroid import X4, Symmetrization, SymmetroidType

Y4 = ("y0", "y1", "y2", "y3")
RV4 = ("y00", "y01", "y10", "y11")


class PrymError(ValueError):
    pass


class UnsupportedTower(PrymError):
    """A splitting would need a second quadratic extension."""


class InternalError(RuntimeError):
    """An internal invariant failed: a defect of the program, not of its input."""


def _plane_dual(q, field):
    """Dual of a rank-3 quadric: its vertex, the three coordinate positions
    kept to parametrize the dual plane (the vertex's last nonzero one is
    dropped), and the conic of enveloping planes in those coordinates."""
    vertex = linalg.normalize_point(linalg.kernel_basis(q.rows(), field)[0])
    drop = max(i for i, c in enumerate(vertex) if c)
    kept = tuple(i for i in range(4) if i != drop)
    reduced = SymMatrix.from_rows([[q.at(i, j) for j in kept] for i in kept])
    return vertex, kept, reduced.adjugate().quadratic_form(field, ("p0", "p1", "p2"))


def _centres(forms):
    """The frames (u0, u1, c) of the points c of the grid {-2..2}^3 off every
    form, in grid order, none proportional to an earlier one; u0 and u1 are
    the unit vectors off c's first nonzero position."""
    field, found = forms[0].field, []
    for c in product(range(-2, 3), repeat=3):
        if all(f.evaluate(c) for f in forms) and all(
                any(map(field.element, linalg.cross(c, d))) for d in found):
            found.append(c)
            j = next(i for i, ci in enumerate(c) if ci)
            yield tuple(tuple(int(k == i) for k in range(3)) for i in range(3) if i != j) + (c,)


def _in_frame(form, frame):
    """The form in the coordinates w of z = w0 u0 + w1 u1 + w2 c."""
    return form.substitute([HomogPoly.linear(form.field, form.vars, row) for row in zip(*frame)])


def _quartic_reduced(quartic):
    """Whether a plane quartic F has no multiple component: True, False, or
    None when the grid holds too few centres.  In the frame of a centre c,
    R = resultant_last_var(F, D_c F) has degree 12 and is +-F(c) times the
    discriminant of F on the line through c and a u0 + b u1 at (a, b).  A
    reduced F with R = 0 has a component G with D_c G = 0 != G(c), so by
    Euler's identity p | deg G <= 4: a cubic in characteristic 3, and for one
    c only, since a cubic killed by two independent derivations is a cube."""
    p = quartic.field.characteristic()
    lines = [(1, b) for b in range(min(p or 12, 12))] + [(0, 1)]
    for k, (u0, u1, c) in enumerate(_centres([quartic]), 1):
        for a, b in lines:
            if is_squarefree(quartic.restrict_to_line([a * x + b * y for x, y in zip(u0, u1)], c)):
                return True
        # thirteen lines without one are thirteen zeros of R, so R = 0
        if len(lines) < 13:
            moved = _in_frame(quartic, (u0, u1, c))
            if resultant_last_var(moved, moved.partial(2)):
                return True
        if p != 3 or k == 2:
            return False
    return None


class PlaneQuarticModel:
    """Canonical model of a non-hyperelliptic genus-3 output, with the dual
    quadric (the adjugate of q) whose form it pulls back."""

    __slots__ = ("quartic", "reduced", "raw_scale", "dual")

    def __init__(self, quartic, reduced, raw_scale, dual):
        self.quartic = quartic
        self.reduced = reduced
        self.raw_scale = raw_scale
        self.dual = dual


class HyperellipticModel:
    """Genus-3 output in the even case: a smooth conic with an eight-point
    branch scheme, plus a binary octic chart (a form in (s, t)) when the
    conic has a point."""

    __slots__ = ("conic", "branch_quartic", "octic", "parametrization",
                 "branch_reduced")

    def __init__(self, conic, branch_quartic, octic, parametrization,
                 branch_reduced):
        self.conic = conic
        self.branch_quartic = branch_quartic
        self.octic = octic
        self.parametrization = parametrization
        self.branch_reduced = branch_reduced


def _forward_type_check(a):
    tag = a.classify()
    if tag in (SymmetroidType.T7, SymmetroidType.DEGENERATE_SINGULAR,
               SymmetroidType.REDUCIBLE_UNCLASSIFIED):
        raise PrymError("construction is undefined for symmetroid type %s" % tag)
    return tag


def forward_general(a, q):
    """Quartic model of the genus-3 partner: the dual-quadric form pulled
    back through the four symmetrization quadrics.  Needs rank-4 q.
    `oracle.kept_result` keeps the model for the last (a, q) pair, so
    `pencil_conics` reads the model its caller has just built."""
    return kept_result((a, q), lambda: _forward_model(a, q))


def _forward_model(a, q):
    field = a.field
    _forward_type_check(a)
    if q.rank() != 4:
        raise PrymError("rank-4 quadric required; use the rank-3 branch instead")
    dual = q.adjugate()
    raw = dual.quadratic_form(field, Y4).substitute(a.gauss_quadrics())
    if not raw:
        raise PrymError("the pullback quartic vanishes identically")
    quartic = raw.content_normalized()
    lead = max(raw.terms)
    scale = raw.terms[lead] / quartic.terms[lead]
    return PlaneQuarticModel(quartic, _quartic_reduced(quartic), scale, dual)


def parametrize_conic(conic, point, field):
    """Degree-2 parametrization of a smooth plane conic through one of its
    points; the three coordinates are binary quadratics in (s, t)."""
    if conic.degree != 2:
        raise PolyError("not a quadratic form")
    p = [field.element(c) for c in point]
    if conic.evaluate(p):
        raise PrymError("base point is not on the conic")
    # the line p + tau d, d = s e_i + t e_j with e_i, e_j completing p to a
    # basis, meets the conic again at tau = -2 B(p, d) / B(d, d); cleared of
    # denominators, x(s, t) = B(d, d) p - 2 B(p, d) d, where 2 B(p, d) is
    # the conic's gradient at p applied to d
    pivot = max(k for k, c in enumerate(p) if c)
    i, j = [k for k in range(3) if k != pivot]
    d = [HomogPoly.linear(field, ST, [int(k == i), int(k == j)]) for k in range(3)]
    polar = HomogPoly.linear(field, ST, [conic.partial(k).evaluate(p) for k in (i, j)])
    bdd = conic.substitute(d)
    out = tuple(bdd * p[k] - polar * d[k] for k in range(3))
    if not any(out):
        raise PrymError("degenerate parametrization; conic is singular")
    return out


_BOX = range(-12, 13)
# the exponents of c^2, a c, b c, a^2, a b, b^2 in a conic in (a, b, c)
_CONIC_MONOMIALS = ((0, 0, 2), (1, 0, 1), (0, 1, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0))


def _integer_roots_in_box(A, B, C):
    """The integer roots in `_BOX`, ascending, of A c^2 + B c + C with
    rational coefficients (ints or Fractions); all of `_BOX` when the
    polynomial is zero.  Exact: a root n / den is kept when divmod leaves
    no remainder, so no float arises."""
    if A:
        disc = B * B - 4 * A * C
        if disc < 0:
            return ()
        rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
        if rn * rn != disc.numerator or rd * rd != disc.denominator:
            return ()
        r = rn if rd == 1 else Fraction(rn, rd)
        nums, den = (-B - r, -B + r), 2 * A
    elif B:
        nums, den = (-C,), B
    else:
        return () if C else _BOX
    roots = set()
    for n in nums:
        c, rem = divmod(n, den)
        if not rem and _BOX[0] <= c <= _BOX[-1]:
            roots.add(c)
    return sorted(roots)


def conic_rational_point(conic, field):
    """A point on a plane conic, or None.  Over a finite field: the first
    point of the projective plane in enumeration order.  Over Q or Q(sqrt d):
    the normalized first nonzero point (a, b, c) of the integer box
    [-12, 12]^3 in lexicographic order.  For each (a, b) the conic is a
    quadratic in c, so its roots in the box are solved for rather than
    walked; over Q(sqrt d) an integer point must lie on both rational
    components of the conic."""
    if conic.degree != 2:
        raise PolyError("not a quadratic form")
    if field.is_finite():
        ev = compile_raw(conic)
        for pt in projective_points_raw(field, 2):
            if ev(pt) == field._zero_raw:
                return tuple(field.element(v) for v in pt)
        return None
    coeffs = [conic.terms[e].val if e in conic.terms else field._zero_raw
              for e in _CONIC_MONOMIALS]
    parts = list(zip(*map(field._parts, coeffs))) if isinstance(field, QuadExtField) else [coeffs]
    for a in _BOX:
        for b in _BOX:
            roots = _BOX
            for cc, ac, bc, aa, ab, bb in parts:
                found = _integer_roots_in_box(cc, ac * a + bc * b, (aa * a + ab * b) * a + bb * b * b)
                roots = found if roots is _BOX else [c for c in roots if c in found]
            for c in roots:
                if a or b or c:
                    pt = linalg.normalize_point(tuple(map(field.element, (a, b, c))))
                    if conic.evaluate(pt):
                        raise InternalError("solved conic point is off the conic")
                    return pt
    return None


def _canonical_square_class_scale(octic, field):
    """Scale a binary octic by squares only: leading class becomes 1 when it
    is a square, else the smallest representative of its class."""
    lead = octic.terms[max(octic.terms)]
    if isinstance(field, RationalField):
        fr = lead.val
        num = fr.numerator
        den = fr.denominator
        n = abs(num * den)
        d = 2
        while d * d <= n:
            while n % (d * d) == 0:
                n //= d * d
            d += 1
        sqfree = n if num * den > 0 else -n
        target = field.element(sqfree)
    elif isinstance(field, PrimeField):
        # the class of a square is all squares, least 1; a nonsquare's is all
        # nonsquares, least the smallest nonresidue
        target = field.one() if legendre(lead) == 1 else next(
            c for c in map(field.element, range(2, field.p)) if legendre(c) == -1)
    else:
        target = field.one() if field.sqrt(lead) is not None else lead
    scale = target / lead
    # the scale is a square by construction; fold its root into the chart
    return octic * scale


def forward_even(a, q):
    """Even branch: rank-3 quadric.  The output conic is the pullback of the
    dual plane; the branch scheme is its intersection with the pullback of
    the envelope conic; the octic chart is twisted so the associated space
    quadric has split rulings."""
    field = a.field
    _forward_type_check(a)
    if q.rank() != 3:
        raise PrymError("rank-3 quadric required")
    vertex, kept, plane_conic = _plane_dual(q, field)
    if not a.determinant_cubic().evaluate(list(vertex)):
        raise PrymError("vertex of the quadric lies on the symmetroid")
    quadrics = a.gauss_quadrics()
    conic = HomogPoly.linear(field, Y4, vertex).substitute(quadrics).content_normalized()
    if SymMatrix.from_quadratic_form(conic).rank() != 3:
        raise PrymError("pullback conic is singular")
    # the branch form is twist data: it may only ever be scaled by squares
    branch_exact = plane_conic.substitute(tuple(quadrics[i] for i in kept))
    point = None if isinstance(field, QuadExtField) else conic_rational_point(conic, field)
    if point is None:
        reduced = _branch_reduced_by_resultant(conic, branch_exact)
        return HyperellipticModel(conic, branch_exact, None, None, reduced)
    param = parametrize_conic(conic, point, field)
    restricted = (-branch_exact).substitute(param)
    if not restricted:
        raise PrymError("branch scheme contains the conic")
    octic = _canonical_square_class_scale(restricted, field)
    return HyperellipticModel(conic, branch_exact, octic, param, is_squarefree(restricted))


def _branch_reduced_by_resultant(conic, branch):
    """Reducedness of the eight-point scheme without a conic point: True,
    False, or None when undecided.

    The projection centre c is the first of `_centres` off both curves.  The
    resultant in the coordinate along c vanishes when the curves share a
    component (False), and is squarefree when the scheme is reduced and no
    line through c holds two of its points (True)."""
    frame = next(_centres([conic, branch]), None)
    if frame is None:
        return None
    res = resultant_last_var(_in_frame(conic, frame), _in_frame(branch, frame))
    if not res:
        return False
    return True if is_squarefree(res) else None


def segre_matrix(field):
    """Matrix of y0 y3 - y1 y2."""
    h = field.element(1) / field.element(2)
    z = field.zero()
    return SymMatrix.from_rows([
        [z, z, z, h], [z, z, -h, z], [z, -h, z, z], [h, z, z, z]])


class SplitQuadricResult:
    __slots__ = ("transform", "field", "extended")

    def __init__(self, transform, field, extended):
        self.transform = transform
        self.field = field
        self.extended = extended


def _matching_fast_path(q, field):
    """Permutation-with-one-scale transform when the matrix is a perfect
    matching of two off-diagonal pairs."""
    nz = []
    for i in range(4):
        if q.at(i, i):
            return None
        for j in range(i + 1, 4):
            if q.at(i, j):
                nz.append((i, j))
    if len(nz) != 2 or set(nz[0]) & set(nz[1]):
        return None
    (i, j), (k, l) = nz
    a = q.at(i, j)
    b = q.at(k, l)
    zero = field.zero()
    n = [[zero] * 4 for _ in range(4)]
    n[i][0] = field.one()
    n[j][3] = field.one()
    n[k][1] = field.one()
    n[l][2] = -a / b
    return n, a * 2


def split_quadric(q, field):
    """Transform a rank-4 symmetric matrix to the two-ruling normal form:
    returns N with N^T q N = scale * (y0 y3 - y1 y2 matrix), over the base
    field or one quadratic extension (the stepwise pairing roots decide).
    """
    if q.rank() != 4:
        raise PrymError("splitting needs rank 4")
    fast = _matching_fast_path(q, field)
    if fast is not None:
        n, scale = fast
        _assert_split(n, q, field, scale)
        return SplitQuadricResult(n, field, False)
    p, d = congruence_diagonalize(q, field)
    t1 = -d[1] / d[0]
    t2 = -d[3] / d[2]
    work = field
    for t in (t1, t2):
        adjoined = work.adjoin_sqrt(t)
        if adjoined is None:
            raise UnsupportedTower("splitting needs a second quadratic extension" if work is field
                                   else "pairing roots generate distinct extensions")
        work = adjoined[0]
    r1 = work.sqrt(t1)
    r2 = work.sqrt(t2)
    wd = [work.element(x) for x in d]
    half = work.element(1) / work.element(2)
    zero = work.zero()
    # columns: y written in the split coordinates c
    y_of_c = [
        [half, zero, zero, half],
        [half / r1, zero, zero, -half / r1],
        [zero, half, -wd[0] / wd[2] * half, zero],
        [zero, half / r2, wd[0] / wd[2] * half / r2, zero],
    ]
    # entries of p and q lift into work as they meet entries of y_of_c
    n = linalg.mat_mul(p, y_of_c)
    _assert_split(n, q, work, wd[0])
    return SplitQuadricResult(n, work, work is not field)


def _assert_split(n, q, field, scale):
    nt = linalg.transpose(n)
    prod = linalg.mat_mul(nt, linalg.mat_mul(q.rows(), n))
    target = segre_matrix(field).scale(scale)
    got = SymMatrix.from_rows(prod)
    if not all(got.upper[k] == target.upper[k] for k in got.upper):
        raise InternalError("split transform verification failed")


class KummerPencil:
    """Four conics presenting the two degree-4 pencils: the 2x2 determinant
    of the conic square reproduces the quartic up to a scalar."""

    __slots__ = ("c00", "c01", "c10", "c11", "quartic", "scale", "field",
                 "change_to_x", "extended")

    def __init__(self, c00, c01, c10, c11, quartic, scale, field, change_to_x, extended):
        self.c00 = c00
        self.c01 = c01
        self.c10 = c10
        self.c11 = c11
        self.quartic = quartic
        self.scale = scale
        self.field = field
        self.change_to_x = change_to_x
        self.extended = extended

    def conics(self):
        return (self.c00, self.c01, self.c10, self.c11)


def pencil_conics(a, q):
    """Split the forward model's dual quadric and read off the four ruled
    coordinates of the symmetrization quadrics.  `forward_general` keeps the
    model of the last pair, so after the caller's own `forward_general(a, q)`
    the pullback is not made again."""
    forward = forward_general(a, q)
    split = split_quadric(forward.dual, a.field)
    work = split.field
    ninv = linalg.inverse(split.transform, work)
    quadrics = [f.change_field(work) for f in a.gauss_quadrics()]
    cs = [HomogPoly.linear(work, Y4, row).substitute(quadrics) for row in ninv]
    prod = cs[0] * cs[3] - cs[1] * cs[2]
    quart = forward.quartic.change_field(work)
    if not proportional(prod, quart):
        raise InternalError("pencil compatibility identity failed")
    lead = max(prod.terms)
    scale = prod.terms[lead] / quart.terms[lead]
    change = linalg.transpose(ninv)
    return KummerPencil(cs[0], cs[1], cs[2], cs[3], forward.quartic, scale,
                        work, change, split.extended)


class ReverseResult:
    __slots__ = ("symmetrization", "quadric_form", "quadric", "kernel_relation")

    def __init__(self, symmetrization, quadric_form, quadric, kernel_relation):
        self.symmetrization = symmetrization
        self.quadric_form = quadric_form
        self.quadric = quadric
        self.kernel_relation = kernel_relation


def reverse_construct(quartic, conics, field):
    """Rebuild the space pair from a plane quartic and four compatible
    conics: the four conic matrices span the new web, whose determinant
    (`symmetrization.determinant_cubic()`) is the cubic, and the 2x2 rank
    condition on coordinates is the quadric.

    The four conics may satisfy one linear relation (self-residual input);
    the relation direction then becomes the cone kernel of the output.
    """
    cs = list(conics)
    if len(cs) != 4:
        raise PrymError("need four conics")
    prod = cs[0] * cs[3] - cs[1] * cs[2]
    if not prod or not proportional(prod, quartic):
        raise PrymError("conics are incompatible with the quartic")
    mats = [SymMatrix.from_quadratic_form(c) for c in cs]
    sym = Symmetrization.from_quadric_vector(field, mats, xvars=RV4)
    # a relation among the four conics is the kernel of the rebuilt web
    kernel = sym.contraction_kernel()
    if len(kernel) > 1:
        raise PrymError("conic span has dimension %d < 3" % (4 - len(kernel)))
    kernel_relation = kernel[0] if kernel else None
    qform = HomogPoly(field, RV4, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    qmat = SymMatrix.from_quadratic_form(qform)
    return ReverseResult(sym, qform, qmat, kernel_relation)


def roundtrip_change_matches(a, q, pencil, rebuilt):
    """Exact roundtrip identity: the rebuilt web equals the original one
    composed with the recorded coordinate change (a scaled permutation
    whenever the dual quadric had the two-term shape), and the Segre quadric
    pulls back proportionally to the original quadric."""
    work = pencil.field
    change = pencil.change_to_x  # x_k = sum_m change[k][m] y_m
    xs = [HomogPoly.linear(work, RV4, [change[k][m] for m in range(4)])
          for k in range(4)]
    rebuilt_matrix = rebuilt.symmetrization.matrix
    for (i, j), entry in a.change_field(work).matrix.upper.items():
        if entry.substitute(tuple(xs)) != rebuilt_matrix.at(i, j).change_field(work):
            return False
    return proportional(q.quadratic_form(work, X4).substitute(xs),
                        rebuilt.quadric_form.change_field(work))
