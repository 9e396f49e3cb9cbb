"""Brute-force finite-field ground truth and the point-scan kernels shared by
the whole package.

`projective_points_int` is the one enumerator of P^dim over a finite field:
every scan in the package (point counts, smoothness certificates, bitangent
and tritangent-line walks, conic points, plane factors of a cubic) follows
its order, and `projective_points` maps it to field elements after checking
the budget.  `compile_fp` is the one evaluator of a form on raw integers
mod p.

On top of them: Jacobian smoothness certificates, point counts with
Frobenius traces, double-cover counts through the three minors, and
exhaustive bitangent enumeration.  Prime-field paths run on raw integers;
quadratic extensions go through the generic element arithmetic.
"""

from __future__ import annotations

from itertools import product

from .binforms import perfect_square_root
from .fields import PrimeField, legendre
from . import linalg

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    pass


class OracleError(ValueError):
    pass


def _check_budget(q, dim, budget):
    if q ** dim > budget:
        raise BudgetExceeded("q^dim = %d exceeds budget %d" % (q ** dim, budget))


def projective_points_int(q, dim):
    """Every point of P^dim over the field of order q exactly once, as an
    integer tuple: zeros, a 1 at the first nonzero coordinate, then indices
    into `field.elements()` for the remaining coordinates.  Over F_p an index
    is the residue itself."""
    for zeros in range(dim + 1):
        head = (0,) * zeros + (1,)
        for tail in product(range(q), repeat=dim - zeros):
            yield head + tail


def projective_points(field, dim, budget=DEFAULT_BUDGET):
    """Every point of P^dim over a finite field exactly once, normalized so
    the first nonzero coordinate is one."""
    if not field.is_finite():
        raise OracleError("point enumeration needs a finite field")
    q = field.order()
    _check_budget(q, dim, budget)
    elems = list(field.elements())
    one = field.one()
    for pt in projective_points_int(q, dim):
        lead = pt.index(1)
        yield tuple(one if k == lead else elems[i] for k, i in enumerate(pt))


def count_projective_points(field, dim, budget=DEFAULT_BUDGET):
    return sum(1 for _ in projective_points(field, dim, budget))


def compile_fp(poly, p):
    """Evaluator of a form over F_p on integer points, returning a residue."""
    terms = [(c.val, e) for e, c in poly.terms.items()]

    def ev(pt):
        tot = 0
        for cv, e in terms:
            v = cv
            for x, k in zip(pt, e):
                if k:
                    if not x:
                        v = 0
                        break
                    v = v * (x if k == 1 else pow(x, k, p))
            tot += v
        return tot % p
    return ev


class Certificate:
    __slots__ = ("passed", "witness", "q", "points_on_scheme")

    def __init__(self, passed, witness, q, points_on_scheme):
        self.passed = passed
        self.witness = witness
        self.q = q
        self.points_on_scheme = points_on_scheme

    def __repr__(self):
        tag = "smooth" if self.passed else "singular at %r" % (self.witness,)
        return "Certificate(q=%d, %s, %d points)" % (self.q, tag, self.points_on_scheme)


def smoothness_certificate(equations, field, budget=DEFAULT_BUDGET):
    """Jacobian-criterion check at every rational point of the scheme cut out
    by one or two equations; the witness is the first singular point found."""
    if not equations or len(equations) > 2:
        raise OracleError("complete-intersection shape: one or two equations")
    nv = len(equations[0].vars)
    expected = len(equations)
    q = field.order()
    _check_budget(q, nv - 1, budget)
    grads = [list(f.gradient()) for f in equations]
    if isinstance(field, PrimeField):
        p = field.p
        evs = [compile_fp(f, p) for f in equations]
        gevs = [[compile_fp(g, p) for g in row] for row in grads]
        count = 0
        for pt in projective_points_int(p, nv - 1):
            if any(ev(pt) for ev in evs):
                continue
            count += 1
            jac = [[field.element(ge(pt)) for ge in row] for row in gevs]
            if linalg.rank(jac) != expected:
                witness = tuple(field.element(x) for x in pt)
                return Certificate(False, witness, q, count)
        return Certificate(True, None, q, count)
    count = 0
    for pt in projective_points(field, nv - 1, budget):
        if any(f.evaluate(list(pt)) for f in equations):
            continue
        count += 1
        jac = [[g.evaluate(list(pt)) for g in row] for row in grads]
        if linalg.rank(jac) != expected:
            return Certificate(False, pt, q, count)
    return Certificate(True, None, q, count)


class CountReport:
    __slots__ = ("q", "label", "count", "genus", "trace", "weil_ok")

    def __init__(self, q, label, count, genus):
        self.q = q
        self.label = label
        self.count = count
        self.genus = genus
        self.trace = q + 1 - count
        self.weil_ok = self.trace * self.trace <= 4 * genus * genus * q

    def __repr__(self):
        return "CountReport(%s: q=%d N=%d g=%d a=%d%s)" % (
            self.label, self.q, self.count, self.genus, self.trace,
            "" if self.weil_ok else " WEIL-VIOLATION")


def count_curve(equations, field, genus, label="curve", budget=DEFAULT_BUDGET):
    """Point count of the locus cut by the given equations."""
    nv = len(equations[0].vars)
    q = field.order()
    _check_budget(q, nv - 1, budget)
    if isinstance(field, PrimeField):
        evs = [compile_fp(f, field.p) for f in equations]
        n = sum(1 for pt in projective_points_int(field.p, nv - 1)
                if not any(ev(pt) for ev in evs))
    else:
        n = sum(1 for pt in projective_points(field, nv - 1, budget)
                if not any(f.evaluate(list(pt)) for f in equations))
    return CountReport(q, label, n, genus)


def count_double_cover(curve_equations, minors, field, label="cover",
                       budget=DEFAULT_BUDGET, genus=7):
    """Count of the unramified double cover cut out by the square roots of
    the three minors over the curve's points.

    At every point at least one minor must be nonzero, and the square classes
    of all nonzero minors must agree; both conditions are hard errors since
    their failure invalidates the construction.
    """
    nv = len(curve_equations[0].vars)
    q = field.order()
    _check_budget(q, nv - 1, budget)
    total = 0
    if isinstance(field, PrimeField):
        p = field.p
        evs = [compile_fp(f, p) for f in curve_equations]
        mevs = [compile_fp(m, p) for m in minors]
        half = (p - 1) // 2
        for pt in projective_points_int(p, nv - 1):
            if any(ev(pt) for ev in evs):
                continue
            vals = [me(pt) for me in mevs]
            nz = [v for v in vals if v]
            if not nz:
                raise OracleError("curve meets the rank-one locus at %r" % (pt,))
            classes = {pow(v, half, p) for v in nz}
            if len(classes) > 1:
                raise OracleError("minor square classes disagree at %r" % (pt,))
            if classes == {1}:
                total += 2
        return CountReport(q, label, total, genus)
    for pt in projective_points(field, nv - 1, budget):
        if any(f.evaluate(list(pt)) for f in curve_equations):
            continue
        vals = [m.evaluate(list(pt)) for m in minors]
        nz = [v for v in vals if v]
        if not nz:
            raise OracleError("curve meets the rank-one locus at %r" % (pt,))
        classes = {legendre(v) for v in nz}
        if len(classes) > 1:
            raise OracleError("minor square classes disagree at %r" % (pt,))
        if classes == {1}:
            total += 2
    return CountReport(q, label, total, genus)


def count_hyperelliptic_octic(octic, field, label="octic", genus=3, budget=DEFAULT_BUDGET):
    """Weighted two-chart count of y^2 = h(s, t) for a separable binary
    octic of degree 8 or 7 in the affine chart."""
    if not field.is_finite():
        raise OracleError("octic counting needs a finite field")
    q = field.order()
    _check_budget(q, 1, budget)
    total = 0
    # affine chart t = 1
    for s in field.elements():
        v = octic.evaluate([s, field.one()])
        total += 1 + legendre(v)
    # points at infinity: s^8 coefficient decides
    d = octic.degree
    lead = octic.terms.get((d, 0))
    if lead is None:
        # degree 7 in the chart: one (ramified) smooth point at infinity
        if (d - 1, 1) not in octic.terms:
            raise OracleError("octic degenerates at infinity; chart invalid")
        total += 1
    else:
        total += 1 + legendre(lead)
    return CountReport(q, label, total, genus)


class BitangentLine:
    __slots__ = ("dual", "p0", "p1", "restriction", "contact", "extended")

    def __init__(self, dual, p0, p1, restriction, contact, extended):
        self.dual = dual
        self.p0 = p0
        self.p1 = p1
        self.restriction = restriction
        self.contact = contact
        self.extended = extended


def enumerate_bitangents(quartic, field, budget=DEFAULT_BUDGET):
    """All lines of the plane whose restriction of the quartic is a nonzero
    square up to the leading square class (even contact divisor).

    Returns the list in the deterministic dual-coordinate order."""
    if not isinstance(field, PrimeField):
        raise OracleError("bitangent enumeration runs over prime fields")
    out = []
    for dual_el in projective_points(field, 2, budget):
        p0, p1 = linalg.line_basis(dual_el, field)
        rest = quartic.restrict_to_line(p0, p1)
        if not rest:
            raise OracleError("quartic vanishes on a whole line; not reduced")
        cert = perfect_square_root(rest)
        if cert is None:
            continue
        out.append(BitangentLine(dual_el, tuple(p0), tuple(p1), rest,
                                 cert.root, cert.extended))
    return out
