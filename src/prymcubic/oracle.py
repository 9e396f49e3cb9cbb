"""Brute-force finite-field ground truth and the point-scan kernels shared by
the whole package.

`projective_points_raw` is the one enumerator of P^dim over a finite field:
every scan in the package (point counts, smoothness certificates, bitangent
and tritangent-line walks, conic points) follows its order, and
`projective_points` wraps its raw values as field elements after checking
the budget.  `compile_raw` is the one scan evaluator and the package's one
code generator: it evaluates a form, or a list of forms in one call, on raw
values, by straight-line code it generates and compiles, one expression
per form with its coefficients as integer literals and one `% p`.  Over
F_{p^2} it compiles the form's Weil restriction, two forms over F_p in the
two integers of each coordinate, and returns their values as the pair.
Outside the scans, F_p computes on integers in the field's own raw
operations (`_pow_raw`, `_convolve_raw`).

On top of them: Jacobian smoothness certificates, point counts with
Frobenius traces, double-cover counts through the three minors, and
exhaustive bitangent enumeration.  The certificate reads the gradients,
and the cover count the three minors, from one evaluator call per point,
and the certificate decides the Jacobian's rank on those raw values.  The
first three are readers of one census per equation set: `_census` keeps
the points of the last scheme walked with `kept_result`, the package's one
memo of a last result, and walks again only for other equation objects or
another field, so the certificate, the count and the cover count of one
curve cost one walk.

The scheme walk is fibred from the last coordinate point: it enumerates the
base P^(n-2), reads every coefficient of an equation in the last
coordinate from one evaluator call, solves a polynomial of degree at most
two in the last coordinate on each fibre, and walks a fibre value by value
only when no restriction has degree at most two (a line of the scheme
through the vertex, a cubic surface alone, a plane quartic).  For a space
curve Q ∩ Γ that is p^2 fibres in place of p^3 points, in the same order.

The line walks over every finite field are compiled the same way.  A
form restricted to a line is a fixed polynomial in the line's two points:
`line_restrictions` composes each form once with x_i = s a_i + t b_i and
reads the restriction to a line, as a dense raw list, from one call on its
two points, for `enumerate_bitangents` and for the adjugate cubics of
`milne`; milne's pencil determinant is read from the one form det(E + t Q)
by `fibre_coefficients`, the scheme walk's evaluator of a form's
coefficients in its last variable.
`binary_invariants` compiles the discriminant of a binary quartic and the
resultant of two binary cubics once per field, so that each line is
decided by one call, and a gcd chain runs only where one of them vanishes.
`enumerate_bitangents` charges its budget before it compiles anything,
walks the raw points of the dual plane with the raw line basis
(`linalg.line_basis_raw`), tests for an even divisor only the restrictions
with a zero discriminant, on their raw values, and wraps no binary form and
no field element except for the bitangents it returns.
"""

from __future__ import annotations

from itertools import product

from .binforms import has_even_divisor_raw, invariant_forms, is_squarefree
from .fields import FieldElement, PrimeField
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
    """Evaluator of a form, or of a list of forms, over a finite field on
    raw-value points: it returns the form's raw value, or the list of the
    forms' raw values.

    The evaluator is generated code, compiled once by `exec` as
    `dataclasses` builds `__init__`: one expression per form, a sum of
    monomials with the raw coefficients as integer literals, and one `% p`.
    The source holds only those integers and names made here, so no text
    of the input reaches it.  Over F_p(sqrt d) a form f in n variables is
    compiled through its Weil restriction: f composed with
    x_i = a_i + sqrt(d) b_i is F0 + sqrt(d) F1 for two forms F0, F1 over
    F_p in (a_0, b_0, ..., a_{n-1}, b_{n-1}), so the code reads a raw point
    of pairs as its 2n integers and returns each value as the pair
    (F0, F1)."""
    single = not isinstance(poly, (list, tuple))
    forms = [poly] if single else poly
    field, n = forms[0].field, len(forms[0].vars)
    p = field.characteristic()
    pairs = field.order() != p
    names = ["x%d" % i for i in range(2 * n if pairs else n)]
    if not pairs:
        target = ", ".join(names)
        sums = [[(c.val, e) for e, c in f.terms.items()] for f in forms]
    else:
        target = ", ".join("(%s, %s)" % xy for xy in zip(names[::2], names[1::2]))
        # x_i = a_i + sqrt(d) b_i, and sqrt(d) is the raw pair (0, 1)
        images = [HomogPoly.linear(field, names, [0] * (2 * i) + [1, (0, 1)])
                  for i in range(n)]
        sums = []
        for f in forms:
            terms = (f.substitute(images) if n else f).terms.items()
            sums += [[(c.val[k], e) for e, c in terms if c.val[k]] for k in (0, 1)]
    exprs = ["(%s) %% %d" % (_flat_sum([_monomial(c, e, names) for c, e in terms]), p)
             for terms in sums]
    if pairs:
        exprs = ["(%s, %s)" % pair for pair in zip(exprs[::2], exprs[1::2])]
    body = exprs[0] if single else "[%s]" % ", ".join(exprs)
    scope = {}
    exec("def ev(pt):\n    [%s] = pt\n    return %s\n" % (target, body), scope)
    return scope["ev"]


def _monomial(c, e, names):
    """Source of the term c * prod names[i]^e[i] for an int c."""
    factors = ["*".join([x] * k) if k <= 3 else "%s**%d" % (x, k)
               for x, k in zip(names, e) if k]
    if c != 1 or not factors:
        factors.insert(0, "%d" % c)
    return "*".join(factors)


def _flat_sum(terms):
    """Source of the sum of the terms, nested at most 100 deep: a chain of
    a few thousand `+` overflows the compiler's recursion, so longer sums
    add chunks of 100 terms with `sum`."""
    chunks = ["+".join(terms[i:i + 100]) for i in range(0, len(terms), 100)] or ["0"]
    return chunks[0] if len(chunks) == 1 else "sum((%s,))" % ", ".join(chunks)


def fibre_coefficients(f):
    """Evaluator of the coefficients of a form in its last variable T: for
    f = sum_k c_k(x_0..x_{n-2}) T^k it returns on a base point the list of
    the raw values c_0, ..., c_m, m the top power of T in f (0 for the zero
    form), zero values included, from one `compile_raw` call.  The scheme
    walk reads it per equation, and the pencil determinant of `milne` reads
    a polynomial in a matrix from it."""
    split = [{} for _ in range(max((e[-1] for e in f.terms), default=0) + 1)]
    for e, c in f.terms.items():
        split[e[-1]][e[:-1]] = c
    return compile_raw([HomogPoly(f.field, f.vars[:-1], f.degree - k, part, _clean=True)
                        for k, part in enumerate(split)])


def line_restrictions(forms):
    """Evaluator of the restrictions of forms over a finite field in the
    same n variables to lines: on the raw points p0, p1 it returns, for
    each form in order, the dense list of raw coefficients that
    `poly.restrict_forms_raw` gives, entry k at s^(d-k) t^k in
    f(s p0 + t p1).  Each form is composed once with x_i = s a_i + t b_i in
    the variables (a_0..a_{n-1}, b_0..b_{n-1}, s, t); the terms of the
    composite with t^k, all of which carry s^(d-k), form entry k as a form
    of degree d in (a, b) alone, so the generated code reads the line's two
    points and multiplies by no power of s.  One `compile_raw` call covers
    the entries of every form."""
    field, n = forms[0].field, len(forms[0].vars)
    vs = tuple("a%d" % i for i in range(n)) + tuple("b%d" % i for i in range(n)) + ("s", "t")
    x = [HomogPoly.linear(field, vs, [0] * i + [1]) for i in range(2 * n + 2)]
    images = [x[-2] * x[i] + x[-1] * x[n + i] for i in range(n)]
    bounds, parts = [], []
    for f in forms:
        split = [{} for _ in range(f.degree + 1)]
        for e, c in f.substitute(images).terms.items():
            split[e[-1]][e[:-2]] = c
        bounds.append((len(parts), len(parts) + len(split)))
        parts += [HomogPoly(field, vs[:-2], f.degree, part, _clean=True) for part in split]
    ev = compile_raw(parts)

    def each(p0, p1):
        values = ev([*p0, *p1])
        return [values[i:j] for i, j in bounds]
    return each


def binary_invariants(field):
    """(discriminant, resultant): the evaluators over a finite field of
    `binforms.invariant_forms` on raw values.  discriminant(cs), for the
    dense raw list cs of a binary quartic with all five entries, is nonzero
    exactly when the quartic is squarefree; resultant(f + g), for the dense
    raw lists of two binary cubics with all four entries each, is nonzero
    exactly when both are nonzero and share no projective root.  Nonzero
    means not the field's raw zero (`_is_zero_raw`): over F_{p^2} a value
    is a pair, true even when zero.  The forms
    are built once per process and compiled once per field, both kept by
    `kept_result`, so a call for the last field is one lookup."""
    # kept_result keys on the code of compute, which the wrappers of
    # public functions (a tracer's, say) share, so each call has a lambda
    return kept_result((field,), lambda: [compile_raw(f.change_field(field))
                                          for f in kept_result((), lambda: invariant_forms())])


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
    fibres = [fibre_coefficients(f) for f in equations]
    zero = field._zero_raw
    add, mul = field._add, field._mul
    values = [e.val for e in field.elements()]
    for b in projective_points_raw(field, nv - 2):
        rests, cands = [], None
        for ev in fibres:
            cs = ev(b)
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
    q = field.order()
    grads = compile_raw([g for f in equations for g in f.gradient()])
    points = _census(equations, field, budget)
    for count, pt in enumerate(points, 1):
        if not _full_rank(grads(pt), len(equations), field):
            return Certificate(False, _elements(field, pt), q, count)
    return Certificate(True, None, q, len(points))


def _full_rank(g, rows, field):
    """Whether the Jacobian of one or two equations, given as its raw entries
    row after row, has full rank: one row has a nonzero entry, two rows
    g1, g2 have a nonzero 2x2 minor g1[i] g2[j] - g1[j] g2[i]."""
    if rows == 1:
        return any(v != field._zero_raw for v in g)
    n, mul = len(g) // 2, field._mul
    return any(mul(g[i], g[n + j]) != mul(g[j], g[n + i])
               for i in range(n) for j in range(i + 1, n))


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
    mev = compile_raw(minors)
    half = (q - 1) // 2
    zero, one = field._zero_raw, field._one_raw
    total = 0
    for pt in _census(curve_equations, field, budget):
        nz = [v for v in mev(pt) if v != zero]
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
    not depend on the representative because h has even degree.  The
    square class is Euler's criterion on the raw value."""
    if not field.is_finite():
        raise OracleError("octic counting needs a finite field")
    # any other form gives a curve of another genus, or a reducible one
    if octic.degree != 8 or not is_squarefree(octic):
        raise OracleError("octic chart needs a separable binary form of degree 8")
    q = field.order()
    _check_budget(q, 1, budget)
    ev = compile_raw(octic)
    half = (q - 1) // 2
    zero, one = field._zero_raw, field._one_raw
    total = 0
    for pt in projective_points_raw(field, 1):
        v = ev(pt)
        total += 1 if v == zero else 2 if field._pow_raw(v, half) == one else 0
    return CountReport(q, label, total, 3)


class BitangentLine:
    __slots__ = ("dual", "p0", "p1")

    def __init__(self, dual, p0, p1):
        self.dual = dual
        self.p0 = p0
        self.p1 = p1


def enumerate_bitangents(quartic, field, budget=DEFAULT_BUDGET):
    """All lines of the plane whose restriction of the quartic is a nonzero
    square up to the leading square class (even contact divisor).

    Returns the list in the deterministic dual-coordinate order.  The
    budget is charged first.  Each line is walked on raw values: its dual
    coordinates from `projective_points_raw`, its two points from
    `linalg.line_basis_raw`, and the restriction to it as a dense raw list
    from `line_restrictions`, built once per call; only a bitangent's
    coordinates are wrapped as field elements.  A restricted quartic with a
    nonzero compiled discriminant is squarefree and has no even divisor;
    the others have their divisor tested on those values: over F_p the
    leading scalar has a square root in F_p or F_{p^2}, so an even divisor
    is all that `perfect_square_root` asks.  Over F_{p^2} that root may
    need F_{p^4}, so an even divisor alone does not decide a bitangent, and
    any field but F_p is refused."""
    if not isinstance(field, PrimeField):
        raise OracleError("bitangent enumeration runs over prime fields")
    _check_budget(field.order(), 2, budget)
    on_line = line_restrictions([quartic])
    # the compiled discriminant is that of a quartic; a form of another
    # degree goes straight to the divisor test
    squarefree = binary_invariants(field)[0] if quartic.degree == 4 else lambda rest: False
    out = []
    for dual in projective_points_raw(field, 2):
        p0, p1 = linalg.line_basis_raw(dual, field)
        rest, = on_line(p0, p1)
        if not any(rest):
            raise OracleError("quartic vanishes on a whole line; not reduced")
        if not squarefree(rest) and has_even_divisor_raw(field, quartic.degree, rest):
            out.append(BitangentLine(*(_elements(field, pt) for pt in (dual, p0, p1))))
    return out
