"""From bitangents of the plane quartic to pairs of tritangent planes of the
space curve: enveloping cones over lines, the reducible member of a pencil of
quadrics, tritangency certificates, the twisted cubic through the contact
points, and the unique-cubic reconstruction.

The walk over the lines of the plane reads each line on raw values: a
line's points come from the raw `linalg.line_basis_raw` and its dual
coordinates from the raw cross product, and the per-line polynomials are
dense raw lists: `binforms` decides on them whether the restricted cubics
share a root, and `quadrics.multiple_members` reads the pencil
determinant's multiple roots from one squarefree factorization of its
list; a binary form is wrapped only for the components of a twisted cubic.
The enveloping cone's rank comes from five universal forms in the ten
upper entries of a symmetric 4x4 matrix, its determinant and its principal
3x3 minors (`_rank_minors`), compiled once per finite field and evaluated
by `HomogPoly.evaluate` over Q and Q(sqrt d), so no cone is row-reduced,
and its entries are wrapped only for a cone that is returned.  Over every
finite field, F_p and F_{p^2} alike, the per-line lists are compiled once
per pair by `oracle.compile_raw` and evaluated once per line: the adjugate
cubics restricted to a line come from `oracle.line_restrictions`, built
once per cubic tuple, and the pencil determinant det(s E + t Q) of a cone
E from `_pencil_kernel`, built once per quadric.  There the compiled
invariants of `oracle.binary_invariants` answer first: a nonzero
discriminant of the pencil determinant means no multiple root, and a
nonzero resultant of the first cubic with the second or the fourth, with
no zero cubic, means no common root, so a gcd chain runs only where they
vanish.  A raw zero of F_{p^2} is the pair (0, 0), which Python reads as
true, so every zero test on the walk is the field's `_is_zero_raw`.  Over
Q and Q(sqrt d) each line is restricted (`poly.restrict_forms_raw`) and
tested by the gcd chains, and each determinant expanded
(`binforms.pencil_determinant_raw`) and factored, on its own.
"""

from __future__ import annotations

from . import linalg
from .binforms import (ST, are_coprime_raw, binary_form, pencil_determinant_raw,
                       perfect_square_root, resultant, squarefree_factors)
from .fields import QQ, FieldElement
from .oracle import (binary_invariants, compile_raw, fibre_coefficients, kept_result,
                     line_restrictions)
from .poly import HomogPoly, SymMatrix, proportional, restrict_forms_raw
from .prym import InternalError, conic_rational_point, parametrize_conic
from .quadrics import factor_rank_le2, multiple_members
from .symmetroid import QUADRIC_EXPONENTS, X4

U3 = ("u0", "u1", "u2")


class MilneError(ValueError):
    pass


class Line2:
    """A line in the source plane, carried as a spanning pair of points."""

    __slots__ = ("p0", "p1", "u", "field")

    def __init__(self, field, p0, p1):
        self.field = field
        self.p0 = tuple(field.element(c) for c in p0)
        self.p1 = tuple(field.element(c) for c in p1)
        if len(self.p0) != 3 or len(self.p1) != 3:
            raise MilneError("a plane line needs two points with three coordinates")
        # the line's dual coordinates, which its enveloping cone reads
        u = linalg.cross([c.val for c in self.p0], [c.val for c in self.p1],
                         field._mul, field._sub)
        if all(map(field._is_zero_raw, u)):
            raise MilneError("the two points do not span a line")
        self.u = tuple(FieldElement(field, v) for v in u)

    @staticmethod
    def from_dual(field, dual):
        return Line2(field, *linalg.line_basis(dual, field))


class EnvelopingCone:
    """The cone's symmetric matrix and its rank; its quadratic form is
    `matrix.quadratic_form(field, X4)`, built by a caller that reads it."""

    __slots__ = ("matrix", "rank")

    def __init__(self, matrix, rank):
        self.matrix = matrix
        self.rank = rank


def _over(field, line):
    """The line, whose coordinates the walk reads as raw values of field,
    or for a line over another field the same line over field."""
    return line if line.field == field else Line2(field, line.p0, line.p1)


def _restricted(a, line):
    """The adjugate cubics of `a` restricted to the line, as dense raw lists
    (entry k at s^(3-k) t^k), kept by `oracle.kept_result` for the last
    (a, line) pair, so the tests that follow one another on one line
    restrict each cubic once.  Over a finite field they are read from
    `oracle.line_restrictions` of the cubics, built once for the last cubic
    tuple; over Q and Q(sqrt d) one `restrict_forms_raw` call computes
    them."""
    def restrict():
        cubics = a.adjugate_cubics()
        field = cubics[0].field
        if not field.is_finite():
            return restrict_forms_raw(cubics, line.p0, line.p1)
        on_line = kept_result(cubics, lambda: line_restrictions(cubics))
        here = _over(field, line)
        return on_line([c.val for c in here.p0], [c.val for c in here.p1])
    return kept_result((a, line), restrict)


def _in_base_locus(field, restricted):
    """Every adjugate cubic, restricted to a line as a raw list, vanishes:
    the line lies in the base locus of the cubic map."""
    is_zero = field._is_zero_raw
    return all(is_zero(c) for cs in restricted for c in cs)


def _coprime(field, restricted):
    """`are_coprime_raw` of the restricted cubics.  Over a finite field the
    compiled resultant answers first: when no cubic is zero and the first
    cubic has a nonzero resultant with the second or with the fourth, the
    four share no root, with no gcd step.  The fourth, not the third: on a
    line through a point where the first two vanish, the third often
    vanishes too (on every such line of the t1-t3 fixtures at p = 11, 13,
    17)."""
    is_zero = field._is_zero_raw
    if field.is_finite() and not any(all(map(is_zero, cs)) for cs in restricted):
        resultant_raw = binary_invariants(field)[1]
        f, g, _, k = restricted
        if not is_zero(resultant_raw(f + g)) or not is_zero(resultant_raw(f + k)):
            return True
    return are_coprime_raw(field, 3, restricted)


def line_is_generic(a, line):
    """The line avoids the base locus of the cubic map: the four restricted
    cubics are nonzero and have no common projective root.  A vanishing
    restriction means the whole line maps into a plane, and the image drops
    degree."""
    return _coprime(a.field, _restricted(a, line))


def _rank_minors(field):
    """Evaluator of the determinant and the four principal 3x3 minors of a
    symmetric 4x4 matrix over field, in that order, on the raw values of
    its ten upper entries in `QUADRIC_EXPONENTS` order, which is sorted.
    The five forms, over Q with integer coefficients (17 terms, then 5
    each), are expanded once per process by `linalg.det` on linear forms in
    the entries and kept.  A finite field compiles them by `compile_raw`,
    and any other field evaluates them by `HomogPoly.evaluate`; the
    evaluator is kept for the last field."""
    def forms():
        keys = list(QUADRIC_EXPONENTS)
        vs = tuple("e%d%d" % k for k in keys)
        rows = SymMatrix(4, {k: HomogPoly.linear(QQ, vs, [int(k == j) for j in keys])
                             for k in keys}).rows()
        return [linalg.det(rows)] + [
            linalg.det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != i])
            for i in range(4)]

    def evaluator():
        local = [f.change_field(field) for f in kept_result((), forms)]
        if field.is_finite():
            return compile_raw(local)
        return lambda vals: [f.evaluate([FieldElement(field, v) for v in vals]).val
                             for f in local]
    return kept_result((field,), evaluator)


def _cone_rank(field, vals):
    """The rank of the symmetric 4x4 matrix with the raw upper entries vals
    (as `_rank_minors` reads them) when it is 4 or 3, and 2 for any rank up
    to 2.  Over any field a symmetric matrix of rank r has a nonzero
    principal r x r minor, so a zero determinant and a nonzero principal
    3x3 minor mean rank 3, and four zero ones mean rank <= 2."""
    is_zero = field._is_zero_raw
    det, *minors = _rank_minors(field)(vals)
    if not is_zero(det):
        return 4
    return 2 if all(map(is_zero, minors)) else 3


def enveloping_cone(a, line):
    """Quadric enveloped by the image conic of a plane line: the discriminant
    b^2 - 4ac of the line's pencil of conics, which is -4 det(P^T A(x) P) with
    P = [p0 p1], and by Cauchy-Binet -4 u^T adj(A(x)) u with u = p0 x p1.

    That is sum w_ij u_i u_j adj(A(x))_ij over i <= j, with w = -4 on the
    diagonal and -8 off it, so each coefficient of the cone is one dot
    product of these six weights with a row of `a.adjugate_table()`.  The
    rank is read from the universal minors of `_cone_rank` on the raw
    entries, with no row reduction, and the entries are wrapped once, for
    a cone that is returned."""
    field, adj, table = a.field, a.adjugate_quadrics(), a.adjugate_table()
    mul, dot = field._mul, field._dot_raw
    u = [c.val for c in _over(field, line).u]
    diagonal, off = field._from_int(-4), field._from_int(-8)
    weights = [mul(mul(u[i], u[j]), diagonal if i == j else off) for i, j in adj.upper]
    half = field._inv(field._from_int(2))
    vals = [dot(row, weights) if k == l else mul(dot(row, weights), half)
            for (k, l), row in table.items()]
    rank = _cone_rank(field, vals)
    # b^2 - 4ac has rank 3 in odd characteristic, so rank <= 2 means that the
    # line's coefficient vectors a, b, c span less than a plane of the dual space
    if rank <= 2:
        raise MilneError("line maps two-to-one onto a line of the dual space")
    if _in_base_locus(field, _restricted(a, line)):
        raise MilneError("line lies in the base locus of the cubic map")
    if rank == 4:
        raise InternalError("enveloping cone of a plane conic has full rank; internal error")
    return EnvelopingCone(SymMatrix(4, {kl: FieldElement(field, v)
                                        for kl, v in zip(table, vals)}), rank)


class ReducibleMember:
    """Rank <= 2 quadric in the pencil spanned by the envelope and the fixed
    quadric.  kind is 'pair' or 'double'; planes live over `field`, which may
    be one quadratic extension up from the input."""

    __slots__ = ("kind", "h1", "h2", "field", "planes_unrepresentable")

    def __init__(self, kind, h1, h2, field, planes_unrepresentable=False):
        self.kind = kind
        self.h1 = h1
        self.h2 = h2
        self.field = field
        self.planes_unrepresentable = planes_unrepresentable


def _pencil_kernel(q, field):
    """Evaluator of det(s E + t Q) over a finite field for a symmetric E of Q's size,
    given by the raw values of its upper entries in sorted order: the dense
    raw list of the binary form in (s, t), as `pencil_determinant_raw`
    gives it.  det(E + t Q) is expanded once by `linalg.det` on linear
    forms in those entries and t, and `oracle.fibre_coefficients` reads its
    coefficient of t^k, which is that of s^(n-k) t^k in det(s E + t Q)."""
    keys = sorted(q.upper)
    vs = tuple("e%d%d" % k for k in keys) + ("t",)
    entries = {k: HomogPoly.linear(field, vs, [int(k == j) for j in keys] + [q.upper[k]])
               for k in keys}
    return fibre_coefficients(linalg.det(SymMatrix(q.n, entries).rows()))


def reducible_member(lam, q, field):
    """The reduced rank <= 2 member of the pencil, or a double-plane flag, or
    None.  Only multiple roots of the degree-four determinant can carry one;
    `quadrics.multiple_members` gives their members in root order from one
    squarefree factorization of the determinant's dense raw list, and the
    first double plane or plane pair that needs a second extension is
    returned at once, else the first plane pair.  Over a finite field the
    determinant is read from `_pencil_kernel`, built once for the last
    (q, field) pair, and a compiled discriminant that is not the field's
    raw zero rules out a multiple root; over Q and Q(sqrt d)
    `binforms.pencil_determinant_raw` expands it.  No binary form is
    wrapped.
    """
    # in odd characteristic the forms are zero or proportional exactly when
    # the matrices are; a zero member would reach factor_rank_le2 as a
    # 'zero' plane pair
    keys = sorted(lam.upper)
    lvec, qvec = [lam.upper[k] for k in keys], [q.upper[k] for k in keys]
    if not any(lvec) or not any(qvec) or proportional(lvec, qvec):
        raise MilneError("pencil is degenerate")
    # with no multiple root every member has rank >= 3
    if field.is_finite():
        kernel = kept_result((q, field), lambda: _pencil_kernel(q, field))
        det = kernel([field.element(c).val for c in lvec])
        det += [field._zero_raw] * (q.n + 1 - len(det))
        if not field._is_zero_raw(binary_invariants(field)[0](det)):
            return None
    else:
        det = pencil_determinant_raw(lam, q, field)
    members = multiple_members(lam, q, det, field)
    if members is None:
        raise MilneError("pencil determinant vanishes identically")
    found = None
    for _, work, mw in members:
        r = mw.rank()
        if r > 2:
            continue
        pair = factor_rank_le2(mw, work, X4)
        if r == 1:
            return ReducibleMember("double", pair.h1, pair.h1, work)
        if pair is None:
            return ReducibleMember("pair", None, None, work, planes_unrepresentable=True)
        if found is None:
            found = ReducibleMember("pair", pair.h1, pair.h2, pair.h1.field)
    return found


class TritangentCert:
    __slots__ = ("passed", "contact", "reducible_conic", "plane_basis", "conic_param")

    def __init__(self, passed, contact, reducible_conic, plane_basis=None, conic_param=None):
        self.passed = passed
        self.contact = contact
        self.reducible_conic = reducible_conic
        self.plane_basis = plane_basis
        self.conic_param = conic_param


def _plane_basis(h, field):
    basis = linalg.kernel_basis([h.linear_coeffs()], field)
    if len(basis) != 3:
        raise MilneError("not a plane")
    return basis


def _plane_images(basis, field):
    """The space coordinates of the plane spanned by basis, as linear forms
    in U3 over field."""
    return tuple(HomogPoly.linear(field, U3, [basis[k][i] for k in range(3)])
                 for i in range(4))


def tritangent_verify(q, gamma, h):
    """Even-contact certificate for a plane against the space curve: the
    restricted conic is parametrized and the restricted cubic pulled back to
    a sextic whose divisor must be even."""
    field = h.field
    basis = _plane_basis(h, field)
    images = _plane_images(basis, field)
    # quadratic_form coerces q's entries into the plane's field
    conic = q.quadratic_form(field, X4).substitute(images)
    cubic = gamma.change_field(field).substitute(images)
    cm = SymMatrix.from_quadratic_form(conic)
    rank = cm.rank()
    if rank == 3:
        pt = conic_rational_point(conic, field)
        if pt is None:
            return TritangentCert(False, None, False)
        param = parametrize_conic(conic, pt, field)
        sextic = cubic.substitute(param)
        if not sextic:
            return TritangentCert(False, None, False)
        root = perfect_square_root(sextic)
        return TritangentCert(root is not None, root, False,
                              plane_basis=basis, conic_param=param)
    if rank == 2:
        pair = factor_rank_le2(cm, field, U3)
        if pair is None:
            return TritangentCert(False, None, True)
        return TritangentCert(_even_on_line_pair(pair, cubic), None, True)
    return TritangentCert(False, None, True)


def _even_on_line_pair(pair, cubic):
    """Tangent-plane case: the conic breaks into two rulings; the contact
    divisor is even iff on each ruling all odd multiplicities sit at the
    crossing point, with even total there."""
    work = pair.h1.field
    cw = cubic.change_field(work)
    for lf in (pair.h1, pair.h2):
        line = Line2.from_dual(work, lf.linear_coeffs())
        other = pair.h2 if lf is pair.h1 else pair.h1
        cross = other.restrict_to_line(line.p0, line.p1)  # vanishes at the crossing parameter
        restricted = cw.restrict_to_line(line.p0, line.p1)
        if not restricted:
            return False
        for mult, fac in squarefree_factors(restricted):
            if mult % 2 and (fac.degree != 1 or cross.divide_linear(fac) is None):
                return False
    # the total at the crossing is then even: the cubic restricts to each
    # ruling with degree 3, so when every odd multiplicity on a ruling sits
    # at the crossing, the multiplicity there is odd, on both rulings, and
    # the two odd multiplicities add up to an even one
    return True


class TwistedCubic:
    __slots__ = ("components", "honest")

    def __init__(self, components, honest):
        self.components = components
        self.honest = honest


def twisted_cubic(a, line):
    """Image of a plane line under the cubic adjugation map, as four binary
    cubics; lies on the symmetroid identically.

    Lines through base points of the map give a lower-degree image; the
    result is then flagged as not `honest`."""
    field, restricted = a.adjugate_cubics()[0].field, _restricted(a, line)
    if _in_base_locus(field, restricted):
        raise MilneError("line lies in the base locus of the cubic map")
    comps = tuple(binary_form(field, ST, 3, cs) for cs in restricted)
    if a.determinant_cubic().substitute(comps):
        raise InternalError("twisted cubic left the symmetroid; internal error")
    return TwistedCubic(comps, _coprime(field, restricted))


def contact_points_match(h, cubic_T, contact_root, conic_param, plane_basis_vectors):
    """Resultant cross-ratios: the divisor cut on the twisted cubic by the
    plane equals the contact divisor living on the plane's conic."""
    field = contact_root.field
    comps = [c.change_field(field) for c in cubic_T.components]
    hT = h.change_field(field).substitute(comps)
    if not hT:
        return False
    # the plane's points under the conic parametrization, in space coordinates
    param = [g.change_field(field) for g in conic_param]
    lifted = [g.substitute(param) for g in _plane_images(plane_basis_vectors, field)]
    probes = [
        [field.one(), field.zero(), field.zero(), field.zero()],
        [field.zero(), field.one(), field.zero(), field.zero()],
        [field.zero(), field.zero(), field.one(), field.zero()],
        [field.zero(), field.zero(), field.zero(), field.one()],
        [field.element(1), field.element(2), field.element(3), field.element(5)],
    ]
    rs = []
    for coeffs in probes:
        phi = HomogPoly.linear(field, X4, coeffs)
        r = resultant(hT, phi.substitute(comps))
        s = resultant(contact_root, phi.substitute(lifted))
        rs.append((r, s))
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if rs[i][0] * rs[j][1] != rs[j][0] * rs[i][1]:
                return False
    return True


_SAMPLE_PARAMS = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (1, 4),
                  (2, 3), (1, 5), (3, 2), (1, 6)]


def cubic_through_curve_and_twisted(q, gamma, tw, field):
    """The cubic surfaces through the space curve form the span of the fixed
    cubic and the plane multiples of the quadric; four general points of the
    twisted cubic cut that five-dimensional space down to one line, which
    must be the fixed cubic itself."""
    qf = q.quadratic_form(field, X4)
    rows = []
    used = []
    for (s0, t0) in _SAMPLE_PARAMS:
        se = field.element(s0)
        te = field.element(t0)
        pt = [c.evaluate([se, te]) for c in tw.components]
        if not any(pt):
            continue
        qv = qf.evaluate(pt)
        row = [gamma.evaluate(pt)] + [qv * pt[i] for i in range(4)]
        cand = rows + [row]
        if linalg.rank(cand) > len(rows):
            rows = cand
            used.append((s0, t0))
        if len(rows) == 4:
            break
    if len(rows) < 4:
        raise MilneError("could not find four independent conditions on the twisted cubic")
    kernel = linalg.kernel_basis(rows, field)
    if len(kernel) != 1:
        raise MilneError("solution space has dimension %d, expected 1" % len(kernel))
    sol = kernel[0]
    lin = HomogPoly.linear(field, X4, sol[1:])
    out = gamma * sol[0] + lin * qf
    return out, sol
