"""Brute-force finite-field ground truth and the point-scan kernels shared by
the whole package.

`projective_points_raw` is the one enumerator of P^dim over a finite field:
every scan in the package (point counts, smoothness certificates, bitangent
and tritangent-line walks, conic points) follows its order, and
`projective_points` wraps its raw values as field elements after checking
the budget.  `compile_raw` is the one scan evaluator: it evaluates a form
on raw values, plain integers over F_p.  Outside the scans, F_p computes on
integers in the field's own raw operations (`_pow_raw`, `_convolve_raw`).

On top of them: Jacobian smoothness certificates, point counts with
Frobenius traces, double-cover counts through the three minors, and
exhaustive bitangent enumeration.  The first three are readers of one census
per equation set: `_census` keeps the points of the last scheme walked
with `kept_result`, the package's one memo of a last result, and walks
again only for other equation objects or another field, so the
certificate, the count and the cover count of one curve cost one walk.

The scheme walk is fibred from the last coordinate point: it enumerates the
base P^(n-2), solves a polynomial of degree at most two in the last
coordinate on each fibre, and walks a fibre value by value only when no
restriction has degree at most two (a line of the scheme through the vertex,
a cubic surface alone, a plane quartic).  For a space curve Q ∩ Γ that is
p^2 fibres in place of p^3 points, in the same order.
"""

from __future__ import annotations

from itertools import product

from .binforms import is_squarefree, perfect_square_root
from .fields import FieldElement, PrimeField, legendre
from .poly import HomogPoly
from . import linalg

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    pass


class OracleError(ValueError):
    pass


def _check_budget(q, dim, budget):
    if q ** dim > budget:
        raise BudgetExceeded("q^dim = %d exceeds budget %d" % (q ** dim, budget))


def projective_points_raw(field, dim):
    """Every point of P^dim over a finite field exactly once, as a tuple of
    raw values: zeros, a one at the first nonzero coordinate, then every
    element in `field.elements()` order for the remaining coordinates.  Over
    F_p a raw value is the residue itself."""
    vals = [e.val for e in field.elements()]
    for zeros in range(dim + 1):
        head = (field._zero_raw,) * zeros + (field._one_raw,)
        for tail in product(vals, repeat=dim - zeros):
            yield head + tail


def _elements(field, pt):
    return tuple(FieldElement(field, v) for v in pt)


def projective_points(field, dim, budget=DEFAULT_BUDGET):
    """Every point of P^dim over a finite field exactly once, normalized so
    the first nonzero coordinate is one."""
    if not field.is_finite():
        raise OracleError("point enumeration needs a finite field")
    _check_budget(field.order(), dim, budget)
    for pt in projective_points_raw(field, dim):
        yield _elements(field, pt)


def compile_raw(poly):
    """Evaluator of a form over a finite field on raw-value points, returning
    a raw value.  Over F_p it runs on plain integers with one reduction per
    point; over F_p(sqrt d) on pairs of plain integers, each product reduced
    and each sum reduced once per point."""
    field = poly.field
    terms = [(c.val, e) for e, c in poly.terms.items()]
    if isinstance(field, PrimeField):
        p = field.p

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
    p, d = field.base.p, field.d

    def ev(pt):
        # (v0 + v1 r)(x0 + x1 r) = (v0 x0 + d v1 x1) + (v0 x1 + v1 x0) r, r^2 = d
        t0 = t1 = 0
        for (v0, v1), e in terms:
            for (x0, x1), k in zip(pt, e):
                for _ in range(k):
                    v0, v1 = (v0 * x0 + d * v1 * x1) % p, (v0 * x1 + v1 * x0) % p
            t0 += v0
            t1 += v1
        return (t0 % p, t1 % p)
    return ev


def _fibre_forms(f):
    """Compiled coefficient forms of f = sum_k c_k(x_0..x_{n-2}) T^k, T the
    last variable: entry k evaluates c_k on a base point, or is None when c_k
    is the zero form."""
    parts = {}
    for e, c in f.terms.items():
        parts.setdefault(e[-1], {})[e[:-1]] = c
    base_vars = f.vars[:-1]
    return [compile_raw(HomogPoly(f.field, base_vars, f.degree - k, parts[k], _clean=True))
            if k in parts else None for k in range(f.degree + 1)]


def _quadratic_roots(cs, field):
    """The roots in ascending raw value of c0 (+ c1 T (+ c2 T^2)), given as
    the raw coefficients cs with a nonzero top entry.  The discriminant's
    root comes from the field's `_sqrt` after Euler's test, not from the
    public `Field.sqrt`, which would add a traced call per fibre."""
    mul, neg, inv = field._mul, field._neg, field._inv_nonzero
    if len(cs) == 1:
        return ()
    if len(cs) == 2:
        return (mul(neg(cs[0]), inv(cs[1])),)
    c0, c1, c2 = cs
    disc = field._sub(mul(c1, c1), mul(field._from_int(4), mul(c2, c0)))
    inv2a = inv(mul(field._from_int(2), c2))
    if disc == field._zero_raw:
        return (mul(neg(c1), inv2a),)
    if field._pow_raw(disc, (field.order() - 1) // 2) != field._one_raw:
        return ()
    r = field._sqrt(FieldElement(field, disc)).val
    return tuple(sorted((mul(field._sub(r, c1), inv2a), mul(field._sub(neg(r), c1), inv2a))))


def _scheme_points(equations, field, budget):
    """Raw points, in enumeration order, where every equation vanishes; the
    whole of P^(n-1) is charged to the budget.

    The walk is fibred from the vertex (0 : ... : 0 : 1).  Over each base
    point b of P^(n-2) every equation restricts to a polynomial in the last
    coordinate T, and the first restriction that is nonzero of degree at most
    two gives the candidate values of T.  A fibre with no such restriction
    (all vanish identically, or the nonzero ones have degree three or more)
    is walked value by value.  A candidate is kept when every restriction
    vanishes there.  Candidates come in `field.elements()` order and the
    vertex comes last, which is the order of `projective_points_raw`."""
    nv = len(equations[0].vars)
    _check_budget(field.order(), nv - 1, budget)
    fibres = [_fibre_forms(f) for f in equations]
    zero = field._zero_raw
    add, mul = field._add, field._mul
    values = [e.val for e in field.elements()]
    for b in projective_points_raw(field, nv - 2):
        rests, cands = [], None
        for forms in fibres:
            cs = [ev(b) if ev else zero for ev in forms]
            while cs and cs[-1] == zero:
                cs.pop()
            rests.append(cs)
            if cands is None and 0 < len(cs) <= 3:
                cands = _quadratic_roots(cs, field)
                if not cands:
                    break
        for t in values if cands is None else cands:
            for cs in rests:
                v = zero
                for c in reversed(cs):
                    v = add(mul(v, t), c)
                if v != zero:
                    break
            else:
                yield b + (t,)
    # the vertex is on the scheme when no equation has a pure x_{n-1}^d term
    top = (0,) * (nv - 1)
    if not any(f.terms.get(top + (f.degree,)) for f in equations):
        yield (zero,) * (nv - 1) + (field._one_raw,)


# the last result of each computation: the code of `compute` -> (key, result)
_kept = {}


def kept_result(key, compute):
    """compute(), or the result it returned the last time the same code ran
    on the same objects.  `key` is a tuple of every object `compute` reads,
    compared by length and then with `is`, in order.  One result is kept per
    code object of `compute`, that is per lambda or nested function, so each
    call site keeps its own last result.  The kept key holds its objects, so
    no id is reused while they are kept; equal objects built afresh are
    computed again.  An exception is raised and not kept.  No form, matrix,
    field or line changes after construction, so identity is a sound key."""
    last = _kept.get(compute.__code__)
    if last is None or len(last[0]) != len(key) or any(a is not b for a, b in zip(last[0], key)):
        last = _kept[compute.__code__] = (key, compute())
    return last[1]


def _census(equations, field, budget):
    """The raw points `_scheme_points(equations, field, budget)` yields, as a
    tuple.  The budget is charged on every call, but `kept_result` keeps the
    walk for the equation objects, then the field: the scans that ask
    several questions of one equation set share one walk."""
    _check_budget(field.order(), len(equations[0].vars) - 1, budget)
    return kept_result((*equations, field),
                       lambda: tuple(_scheme_points(equations, field, budget)))


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
    by one or two equations; the witness is the first singular point in
    census order, and `points_on_scheme` its 1-based index (all the points
    when the scheme is smooth)."""
    if not equations or len(equations) > 2:
        raise OracleError("complete-intersection shape: one or two equations")
    expected = len(equations)
    q = field.order()
    grads = [[compile_raw(g) for g in f.gradient()] for f in equations]
    points = _census(equations, field, budget)
    for count, pt in enumerate(points, 1):
        jac = [[FieldElement(field, ge(pt)) for ge in row] for row in grads]
        if linalg.rank(jac) != expected:
            return Certificate(False, _elements(field, pt), q, count)
    return Certificate(True, None, q, len(points))


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
    return CountReport(field.order(), label, len(_census(equations, field, budget)), genus)


def count_double_cover(curve_equations, minors, field, label="cover", budget=DEFAULT_BUDGET):
    """Count of the unramified double cover (genus 7) cut out by the square
    roots of the three minors over the curve's points.

    At every point at least one minor must be nonzero, and the square classes
    of all nonzero minors must agree; both conditions are hard errors since
    their failure invalidates the construction.
    """
    q = field.order()
    mevs = [compile_raw(m) for m in minors]
    half = (q - 1) // 2
    zero, one = field._zero_raw, field._one_raw
    total = 0
    for pt in _census(curve_equations, field, budget):
        nz = [v for v in (me(pt) for me in mevs) if v != zero]
        if not nz:
            raise OracleError("curve meets the rank-one locus at %r"
                              % (_elements(field, pt),))
        classes = {field._pow_raw(v, half) for v in nz}
        if len(classes) > 1:
            raise OracleError("minor square classes disagree at %r"
                              % (_elements(field, pt),))
        if classes == {one}:
            total += 2
    return CountReport(q, label, total, 7)


def count_hyperelliptic_octic(octic, field, label="octic", budget=DEFAULT_BUDGET):
    """Point count of the genus-3 curve y^2 = h(s, t) for a separable binary
    octic h: 1 + chi(h) points over each point of P^1, where chi(h) does
    not depend on the representative because h has even degree."""
    if not field.is_finite():
        raise OracleError("octic counting needs a finite field")
    # any other form gives a curve of another genus, or a reducible one
    if octic.degree != 8 or not is_squarefree(octic):
        raise OracleError("octic chart needs a separable binary form of degree 8")
    total = sum(1 + legendre(octic.evaluate(pt))
                for pt in projective_points(field, 1, budget))
    return CountReport(field.order(), label, total, 3)


class BitangentLine:
    __slots__ = ("dual", "p0", "p1")

    def __init__(self, dual, p0, p1):
        self.dual = dual
        self.p0 = p0
        self.p1 = p1


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
        if perfect_square_root(rest) is not None:
            out.append(BitangentLine(dual_el, tuple(p0), tuple(p1)))
    return out
