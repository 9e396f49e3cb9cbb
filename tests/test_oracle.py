import gc
import random
import weakref
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic import linalg, oracle
from prymcubic.binforms import is_squarefree
from prymcubic.fields import Field, FieldElement, is_prime, legendre
from prymcubic.fixtures import FIXTURES, SMOOTH_FIXTURES, fix_a, fix_q, fix_x
from prymcubic.oracle import (DEFAULT_BUDGET, BudgetExceeded, OracleError,
                              compile_raw, count_curve, count_double_cover,
                              count_hyperelliptic_octic, enumerate_bitangents,
                              line_restrictions, projective_points,
                              projective_points_raw, smoothness_certificate)
from prymcubic.poly import HomogPoly, restrict_forms
from prymcubic.prym import conic_rational_point, forward_even, forward_general

from test_binforms import dense

F3 = Field.prime(3)
F5 = Field.prime(5)
F11 = Field.prime(11)
X4 = ("x0", "x1", "x2", "x3")
Z3 = ("z0", "z1", "z2")


def count_points(field, dim):
    return sum(1 for _ in projective_points(field, dim))


def test_point_counts():
    assert count_points(F3, 1) == 4
    assert count_points(F5, 2) == 31
    assert count_points(F11, 3) == 1464


def test_points_unique_and_normalized():
    pts = list(projective_points(F5, 2))
    assert len(set(tuple(repr(c.val) for c in p) for p in pts)) == len(pts)
    for p in pts:
        first = next(c for c in p if c)
        assert first == F5.one()


def test_integer_enumerator_matches_projective_points():
    for field in (F5, F3.quadratic_extension(2)):
        q = field.order()
        vals = [e.val for e in field.elements()]
        zero, one = field.zero().val, field.one().val
        expected = [(zero,) * k + (one,) + tail
                    for k in range(3) for tail in product(vals, repeat=2 - k)]
        raws = list(projective_points_raw(field, 2))
        pts = list(projective_points(field, 2))
        assert raws == expected and len(raws) == q * q + q + 1
        assert [tuple(c.val for c in pt) for pt in pts] == raws
        assert all(c.field is field for pt in pts for c in pt)
    # over F_p the raw values are the residues themselves
    assert list(projective_points_raw(F3, 1)) == [(1, 0), (1, 1), (1, 2), (0, 1)]


def test_budget():
    with pytest.raises(BudgetExceeded):
        list(projective_points(F11, 3, budget=100))


def test_smoothness_certificates():
    quadric = HomogPoly(F11, X4, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert smoothness_certificate([quadric], F11).passed
    cusp = HomogPoly(F11, Z3, 3, {(0, 2, 1): 1, (3, 0, 0): -1})
    cert = smoothness_certificate([cusp], F11)
    assert not cert.passed
    assert tuple(c.val for c in cert.witness) == (0, 0, 1)
    # the classical seed pair is singular: the nodes of the cubic sit on the
    # quadric, and the witness is one of them
    seed = smoothness_certificate([quadric, fix_a(F11).determinant_cubic()], F11)
    assert not seed.passed


def test_count_smooth_conic():
    conic = HomogPoly(F11, Z3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    rep = count_curve([conic], F11, 0)
    assert rep.count == 12
    assert rep.trace == 0


def test_count_fix_x_weil():
    for p in (11, 13):
        F = Field.prime(p)
        rep = count_curve([fix_x(F)], F, 3)
        assert rep.weil_ok


def test_double_cover_split_example():
    # identity matrix times x0: all three minors equal -x0^2, so the square
    # class is constant: split wherever -1 is a square
    from prymcubic.fields import legendre
    from prymcubic.symmetroid import Symmetrization
    E0, Z = [1, 0, 0, 0], [0, 0, 0, 0]
    F13 = Field.prime(13)
    for F in (F11, F13):
        a = Symmetrization.from_entry_rows(F, [[E0, Z, Z], [Z, E0, Z], [Z, Z, E0]])
        m12, m13, m23, cert = a.double_cover_minors()
        assert cert
        target = HomogPoly(F, X4, 2, {(2, 0, 0, 0): -1})
        assert m12 == target and m13 == target and m23 == target
        pt = [F.element(2), F.element(3), F.element(5), F.element(7)]
        cls = legendre(m12.evaluate(pt))
        assert cls == legendre(F.element(-1))


def test_double_cover_rejects_rank_one_contact():
    a = fix_a(F11)
    m12, m13, m23, _ = a.double_cover_minors()
    quadric = fix_q(F11).quadratic_form(F11, X4)
    with pytest.raises(OracleError):
        # the seed curve passes through all four nodes, where every minor dies
        count_double_cover([quadric, a.determinant_cubic()], [m12, m13, m23], F11)


def test_trace_identity_all_smooth_fixtures_p11():
    for fx in FIXTURES.values():
        if not fx.smooth:
            continue
        F = Field.prime(11)
        a = fx.symmetrization(F)
        q = fx.quadric(F)
        gamma = a.determinant_cubic()
        qf = fx.quadric_form(F)
        nc = count_curve([qf, gamma], F, 4).count
        minors = a.double_cover_minors()
        ncover = count_double_cover([qf, gamma], list(minors[:3]), F).count
        if fx.even:
            model = forward_even(a, q)
            nx = count_hyperelliptic_octic(model.octic, F).count
        else:
            nx = count_curve([forward_general(a, q).quartic], F, 3).count
        assert ncover == nc + nx - 12


def test_kept_result_is_keyed_by_identity_in_order():
    # oracle.kept_result keeps the last result of each computing code with its key:
    # the key is compared by length and then with `is`, in order, so equal
    # objects built afresh are computed again; an exception is not kept
    runs = []

    def keep(*key):
        return oracle.kept_result(key, lambda: runs.append(key) or len(runs))

    x, y = [1], [1]
    assert keep(x, y) == 1 and keep(x, y) == 1
    assert keep(y, x) == 2
    assert keep(y, x, x) == 3
    assert keep(y, x) == 4
    assert keep(y, x) == 4
    assert keep([1], [1]) == 5
    assert keep(x, y) == 6 and len(runs) == 6

    def fail(*key):
        return oracle.kept_result(key, lambda: runs.append(key) or 1 // 0)

    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            fail(x, y)
    assert len(runs) == 8
    # another computation has its own slot, which the failures left alone
    assert keep(x, y) == 6 and len(runs) == 8

    class Box:
        pass

    # the kept key holds its objects, so no id is reused while they are kept
    box = Box()
    ref = weakref.ref(box)
    assert keep(box) == 9
    del box
    gc.collect()
    assert ref() is not None and keep(ref()) == 9


def test_one_census_per_equation_set(monkeypatch):
    walks = []
    walk = oracle._scheme_points

    def counted_walk(equations, field, budget):
        walks.append(len(equations))
        return walk(equations, field, budget)

    monkeypatch.setattr(oracle, "_scheme_points", counted_walk)

    def space_curve(fx, field):
        a = fx.symmetrization(field)
        return a, [fx.quadric_form(field), a.determinant_cubic()]

    for name in ("t1", "t2"):
        fx = FIXTURES[name]
        a, eqs = space_curve(fx, F11)
        minors = list(a.double_cover_minors()[:3])
        quartic = forward_general(a, fx.quadric(F11)).quartic
        walks.clear()
        # certificate, count and cover of C read one walk; X gets its own
        cert = smoothness_certificate(eqs, F11)
        nc = count_curve(eqs, F11, 4).count
        ncover = count_double_cover(eqs, minors, F11).count
        assert smoothness_certificate([quartic], F11).passed
        nx = count_curve([quartic], F11, 3).count
        assert walks == [2, 1]
        assert cert.passed and cert.points_on_scheme == nc
        assert ncover == nc + nx - 12
        # equal forms built afresh walk again, and so do the same forms over
        # another field object
        _, fresh = space_curve(fx, F11)
        assert count_curve(fresh, F11, 4).count == nc
        assert count_curve(fresh, Field.prime(11), 4).count == nc
        assert walks == [2, 1, 2, 2]
        # the budget is charged on every call, a census hit included
        with pytest.raises(BudgetExceeded):
            count_curve(fresh, F11, 4, budget=100)
        assert walks == [2, 1, 2, 2]

    # the seed curve passes through the four nodes, where every minor
    # vanishes: in every call order the three scans give the reports and the
    # refusal of three separate walks, from one walk
    def cert(eqs, minors):
        return repr(smoothness_certificate(eqs, F11))

    def count(eqs, minors):
        return repr(count_curve(eqs, F11, 4))

    def cover(eqs, minors):
        with pytest.raises(OracleError) as err:
            count_double_cover(eqs, minors, F11)
        return str(err.value)

    expected = {cert: "Certificate(q=11, singular at (1, 0, 0, 0), 1 points)",
                count: "CountReport(curve: q=11 N=32 g=4 a=-20)",
                cover: "curve meets the rank-one locus at (1, 0, 0, 0)"}
    for order in permutations(expected):
        a, eqs = space_curve(FIXTURES["seed"], F11)
        minors = list(a.double_cover_minors()[:3])
        walks.clear()
        assert {scan: scan(eqs, minors) for scan in order} == expected
        assert walks == [2]


def test_octic_counting_infinity_handling():
    # y^2 = s t (s^6 + t^6)-ish degree-8 separable examples with and without
    # a root at infinity
    f1 = HomogPoly(F11, ("s", "t"), 8, {(8, 0): 1, (0, 8): -1})
    rep1 = count_hyperelliptic_octic(f1, F11)
    assert rep1.weil_ok
    f2 = HomogPoly(F11, ("s", "t"), 8, {(7, 1): 1, (1, 7): 1})  # t s^7 + s t^7, deg 7 chart
    rep2 = count_hyperelliptic_octic(f2, F11)
    assert rep2.weil_ok
    brute = 0
    for s in range(11):
        v = (s ** 7 + s) % 11
        brute += 1 + legendre_int(v, 11)
    brute += 1  # single point over infinity for a degree-7 chart
    assert rep2.count == brute


def _octic_count_by_elements(octic, field):
    """Reference: the element loop of the octic count, 1 + chi(h) over each
    point of P^1 with the square class from `legendre`."""
    return sum(1 + legendre(octic.evaluate(pt)) for pt in projective_points(field, 1))


@pytest.mark.parametrize("p,d", [(3, None), (5, None), (11, None), (13, None),
                                 (3, 2), (5, 2), (7, 3)])
def test_octic_count_matches_the_element_loop(p, d):
    field = _field(p, d)
    rng = random.Random(p * 10 + (d or 0))
    exps = [(8 - i, i) for i in range(9)]
    octics = []
    while len(octics) < 6:
        # sparse draws, so the octic vanishes at some points of P^1
        f = HomogPoly(field, ("s", "t"), 8,
                      {e: field.random(rng) for e in exps if rng.random() < 0.5})
        if is_squarefree(f):
            octics.append(f)
    zeros = 0
    for f in octics:
        assert count_hyperelliptic_octic(f, field).count == _octic_count_by_elements(f, field)
        zeros += sum(1 for pt in projective_points(field, 1) if not f.evaluate(pt))
    assert zeros
    # the budget, and the refusal of a non-separable octic, are unchanged
    q = field.order()
    count_hyperelliptic_octic(octics[0], field, budget=q)
    with pytest.raises(BudgetExceeded):
        count_hyperelliptic_octic(octics[0], field, budget=q - 1)
    square = HomogPoly(field, ("s", "t"), 8, {(8, 0): 1, (4, 4): 2, (0, 8): 1})
    with pytest.raises(OracleError):
        count_hyperelliptic_octic(square, field)


def legendre_int(v, p):
    if v % p == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def test_bitangents_bound_and_determinism():
    fx = FIXTURES["t1"]
    F = Field.prime(11)
    quartic = forward_general(fx.symmetrization(F), fx.quadric(F)).quartic
    lines = enumerate_bitangents(quartic, F)
    assert len(lines) <= 28
    again = enumerate_bitangents(quartic, F)
    assert [tuple(repr(c.val) for c in b.dual) for b in lines] == \
           [tuple(repr(c.val) for c in b.dual) for b in again]
    for b in lines:
        # restriction really is a square times the leading class
        rest = quartic.restrict_to_line(list(b.p0), list(b.p1))
        assert rest


def test_enumeration_over_quadratic_extension():
    K = F11.quadratic_extension(2)
    assert count_points(K, 1) == 122
    conic = HomogPoly(K, Z3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    rep = count_curve([conic], K, 0)
    assert rep.count == 122 and rep.trace == 0


def _element_outcomes(points, equations, minors):
    """Element-level reference for the three point scans, given the scheme's
    points in order: the number of points, the first singular point with the
    count up to it, and the cover count or the error text of the first point
    that breaks the minors."""
    grads = [f.gradient() for f in equations]
    count, witness, cover, error = 0, None, 0, None
    for pt in points:
        count += 1
        jac = [[g.evaluate(pt) for g in row] for row in grads]
        if witness is None and linalg.rank(jac) != len(equations):
            witness = (pt, count)
        if error is None:
            classes = {legendre(m.evaluate(pt)) for m in minors} - {0}
            if not classes:
                error = "curve meets the rank-one locus at %r" % (pt,)
            elif len(classes) > 1:
                error = "minor square classes disagree at %r" % (pt,)
            elif classes == {1}:
                cover += 2
    return count, witness, cover, error


def _element_scan(equations, minors, field):
    points = (pt for pt in projective_points(field, len(equations[0].vars) - 1)
              if not any(f.evaluate(pt) for f in equations))
    return _element_outcomes(points, equations, minors)


def _assert_scans_match(eqs, minors, field, outcomes):
    count, witness, cover, error = outcomes
    assert count_curve(eqs, field, 4).count == count
    cert = smoothness_certificate(eqs, field)
    if witness is None:
        assert cert.passed and cert.points_on_scheme == count
    else:
        assert not cert.passed
        assert (repr(cert.witness), cert.points_on_scheme) == (repr(witness[0]), witness[1])
    if error is None:
        assert count_double_cover(eqs, minors, field).count == cover
    else:
        with pytest.raises(OracleError) as exc:
            count_double_cover(eqs, minors, field)
        assert str(exc.value) == error


# P^3 over F_49 has 120 100 points for the element-level scan to evaluate,
# so two fixtures run there: t1 (singular point, minors vanish) and seed; the
# fibred-walk sweep below checks every fixture over F_49 against the raw walk
@pytest.mark.parametrize("p,d,name", [(5, 2, "t1"), (5, 2, "t2"), (5, 2, "biell"),
                                      (5, 2, "even"), (5, 2, "seed"),
                                      (7, 3, "t1"), (7, 3, "seed")])
def test_scans_over_quadratic_extension_match_element_scan(p, d, name):
    K = Field.prime(p).quadratic_extension(d)
    fx = FIXTURES[name]
    a = fx.symmetrization(K)
    eqs = [fx.quadric_form(K), a.determinant_cubic()]
    minors = list(a.double_cover_minors()[:3])
    _assert_scans_match(eqs, minors, K, _element_scan(eqs, minors, K))
    for conic in a.gauss_quadrics():
        first = next(pt for pt in projective_points(K, 2) if not conic.evaluate(pt))
        assert repr(conic_rational_point(conic, K)) == repr(first)


def _scheme_points_exhaustive(equations, field, budget):
    """The walk over every point of P^(n-1) that the fibred walk replaced,
    kept as its reference; it evaluates with `HomogPoly.evaluate`, so it
    shares no code with the scan evaluator."""
    nv = len(equations[0].vars)
    oracle._check_budget(field.order(), nv - 1, budget)
    for pt in projective_points_raw(field, nv - 1):
        point = [FieldElement(field, v) for v in pt]
        if not any(f.evaluate(point) for f in equations):
            yield pt


def _interpreted_ev(poly):
    """The loop over terms and exponents that the generated F_p evaluator of
    `compile_raw` replaced, kept as its reference."""
    p = poly.field.p
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


GENERATOR_PRIMES = (3, 5, 101, 10007)


def _raw(field, k):
    """The raw value numbered k < q in a field of order q: k over F_p, and
    the pair (k mod p, k div p) over F_{p^2}."""
    p = field.characteristic()
    return k if field.order() == p else (k % p, k // p)


def _draw_form(data, field, names, degree):
    """A form whose every coefficient is drawn from zero (sparse forms and
    the zero form), one, minus one or any residue; over F_{p^2} from raw
    values numbered so."""
    q = field.order()
    coeff = st.sampled_from([0, 0, 1, q - 1]) | st.integers(0, q - 1)
    exps = [e for e in product(range(degree + 1), repeat=len(names)) if sum(e) == degree]
    return HomogPoly(field, names, degree, {e: field.element(_raw(field, data.draw(coeff)))
                                            for e in exps})


def _draw_point(data, field, n):
    return tuple(_raw(field, data.draw(st.just(0) | st.integers(0, field.order() - 1)))
                 for _ in range(n))


@pytest.mark.parametrize("p", GENERATOR_PRIMES)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_generated_evaluator_matches_the_interpreted_loop(p, data):
    F = Field.prime(p)
    names = ("x0", "x1", "x2", "x3")[:data.draw(st.integers(1, 4))]
    forms = [_draw_form(data, F, names, data.draw(st.integers(0, 4)))
             for _ in range(data.draw(st.integers(1, 4)))]
    evs = [compile_raw(f) for f in forms]
    ev_list = compile_raw(forms)
    for _ in range(4):
        pt = _draw_point(data, F, len(names))
        expected = [_interpreted_ev(f)(pt) for f in forms]
        assert [ev(pt) for ev in evs] == expected
        assert ev_list(pt) == expected
    assert compile_raw(HomogPoly.zero(F, names, 2))((1,) * len(names)) == 0
    assert compile_raw([HomogPoly(F, (), 0, {(): p - 1})])(()) == [p - 1]


_BASE_POINTS = {}


def _cubics_and_base_points(F, name):
    """The adjugate cubics of a fixture web over F and the rational points
    where all four vanish, scanned once per field and fixture."""
    if (F, name) not in _BASE_POINTS:
        cubics = list(FIXTURES[name].symmetrization(F).adjugate_cubics())
        ev = compile_raw(cubics)
        _BASE_POINTS[F, name] = cubics, [pt for pt in projective_points_raw(F, 2)
                                         if all(map(F._is_zero_raw, ev(pt)))]
    return _BASE_POINTS[F, name]


@pytest.mark.parametrize("q", (3, 5, 101, 25))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_line_restrictions_match_restrict_forms(q, data):
    # one evaluator per form list restricts to every line as restrict_forms
    # does, as the dense raw lists of its binary forms: forms of degree 0 to
    # 4, a form vanishing on the line, whose list is all zeros, and the
    # adjugate cubics of a fixture web on a line through a base point of its
    # cubic map, where they share a root or, on a line of base points, all
    # vanish; over F_3, F_5, F_101 and F_25 = F_5(sqrt 2)
    F = Field.prime(5).quadratic_extension(2) if q == 25 else Field.prime(q)
    names = ("z0", "z1", "z2")
    forms = [_draw_form(data, F, names, data.draw(st.integers(0, 4)))
             for _ in range(data.draw(st.integers(1, 3)))]
    p0, p1 = _draw_point(data, F, 3), _draw_point(data, F, 3)
    span = linalg.cross([F.element(c) for c in p0], [F.element(c) for c in p1])
    forms.append(HomogPoly.linear(F, names, span) * forms[0])
    on_line = line_restrictions(forms)
    for q0, q1 in ((p0, p1), (_draw_point(data, F, 3), _draw_point(data, F, 3))):
        assert on_line(q0, q1) == [dense(f) for f in restrict_forms(
            forms, [F.element(c) for c in q0], [F.element(c) for c in q1])]
    assert on_line(p0, p1)[-1] == [F._zero_raw] * (forms[-1].degree + 1)
    webs = [name for name in sorted(FIXTURES) if _cubics_and_base_points(F, name)[1]]
    cubics, base = _cubics_and_base_points(F, data.draw(st.sampled_from(webs)))
    b = data.draw(st.sampled_from(base))
    q1 = data.draw(st.sampled_from(base)) if data.draw(st.booleans()) else _draw_point(data, F, 3)
    restricted = line_restrictions(cubics)(b, q1)
    assert restricted == [dense(f) for f in restrict_forms(
        cubics, [F.element(c) for c in b], [F.element(c) for c in q1])]
    assert all(F._is_zero_raw(cs[0]) for cs in restricted)


def test_generated_evaluator_of_a_long_form():
    # 5151 terms: a single chain of `+` that long overflows the compiler
    F = Field.prime(10007)
    rng = random.Random(10007)
    exps = [e for e in product(range(101), repeat=3) if sum(e) == 100]
    f = HomogPoly(F, Z3, 100, {e: rng.randrange(10007) for e in exps})
    assert len(f.terms) == 5151
    ev, ref = compile_raw(f), _interpreted_ev(f)
    for pt in [(1, 2, 3), (0, 1, 0), (10006, 0, 5), (4, 9999, 10006)]:
        assert ev(pt) == ref(pt)


def _fold_raw(poly, pt):
    """The fold of the field's raw products and sums over the terms, the
    reference for `compile_raw` over F_p(sqrt d)."""
    field = poly.field
    tot = field._zero_raw
    for e, c in poly.terms.items():
        v = c.val
        for x, k in zip(pt, e):
            for _ in range(k):
                v = field._mul(v, x)
        tot = field._add(tot, v)
    return tot


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 3), (11, 2)])
def test_compile_raw_over_quadratic_extensions_matches_the_generic_fold(p, d):
    # the code generated for the Weil restriction of a form, or of a list
    # that mixes the zero form with nonzero forms, against the fold on
    # points with zero coordinates and on the zero point; a constant form
    # in no variables
    K = Field.prime(p).quadratic_extension(d)
    rng = random.Random(p)
    for degree, names in [(1, Z3), (2, Z3), (3, X4), (4, Z3), (2, ("s", "t")), (0, Z3)]:
        exps = [e for e in product(range(degree + 1), repeat=len(names)) if sum(e) == degree]
        f = HomogPoly(K, names, degree, {e: K.random(rng) for e in exps if rng.random() < 0.7})
        zero = HomogPoly.zero(K, names, degree)
        ev, ev_list = compile_raw(f), compile_raw([zero, f, -f, zero])
        assert compile_raw(zero)((K._one_raw,) * len(names)) == K._zero_raw
        pts = [tuple(K.random(rng).val for _ in names) for _ in range(150)]
        pts += [tuple(K._zero_raw if rng.random() < 0.5 else x for x in pt) for pt in pts[:50]]
        pts.append((K._zero_raw,) * len(names))
        for pt in pts:
            assert ev(pt) == _fold_raw(f, pt)
            assert ev_list(pt) == [K._zero_raw, ev(pt), _fold_raw(-f, pt), K._zero_raw]
    c = K.random(rng)
    assert compile_raw(HomogPoly(K, (), 0, {(): c}))(()) == c.val
    assert compile_raw([HomogPoly(K, (), 0, {(): c}), HomogPoly.zero(K, (), 0)])(()) \
        == [c.val, K._zero_raw]


def _field(p, d):
    F = Field.prime(p)
    return F if d is None else F.quadratic_extension(d)


def _walks_agree(eqs, field):
    """The fibred walk's points, after checking them (order included)
    against the exhaustive walk."""
    ref = list(_scheme_points_exhaustive(eqs, field, DEFAULT_BUDGET))
    assert list(oracle._scheme_points(eqs, field, DEFAULT_BUDGET)) == ref
    return ref


SWEEP_FIELDS = [(p, None) for p in range(3, 32) if is_prime(p)] + [(5, 2), (7, 3)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("p,d", SWEEP_FIELDS)
def test_fibred_walk_matches_exhaustive_walk(p, d, name):
    K = _field(p, d)
    fx = FIXTURES[name]
    a = fx.symmetrization(K)
    qf, gamma = fx.quadric_form(K), a.determinant_cubic()
    # the exhaustive walk of Q ∩ Γ is the walk of Q, kept where Γ vanishes
    on_gamma = set(_walks_agree([gamma], K))
    ref = [pt for pt in _walks_agree([qf], K) if pt in on_gamma]
    assert list(oracle._scheme_points([qf, gamma], K, DEFAULT_BUDGET)) == ref
    # the public scans against element-level arithmetic on the reference points
    minors = list(a.double_cover_minors()[:3])
    points = [tuple(FieldElement(K, v) for v in pt) for pt in ref]
    _assert_scans_match([qf, gamma], minors, K,
                        _element_outcomes(points, [qf, gamma], minors))


def _forms(field, vars, *polys):
    return [HomogPoly(field, vars, sum(next(iter(t))), t) for t in polys]


# schemes whose fibres over P^2 (or P^1) degenerate: the vertex (0 : 0 : 0 : 1)
# on the scheme, whole fibre lines on a cone, restrictions with no T^2 term or
# of degree three or more, and discriminant zero
DEGENERATE_FIBRES = {
    "vertex": lambda F: _forms(F, X4, {(1, 0, 0, 1): 1, (0, 2, 0, 0): 1},
                               {(0, 1, 0, 2): 1, (3, 0, 0, 0): 1, (0, 0, 3, 0): -1}),
    "cone": lambda F: _forms(F, X4, {(1, 1, 0, 0): 1, (0, 0, 2, 0): -1}),
    "cone_and_cubic": lambda F: _forms(F, X4, {(1, 1, 0, 0): 1, (0, 0, 2, 0): -1},
                                       {(0, 0, 0, 3): 1, (3, 0, 0, 0): -1, (0, 1, 1, 1): 2}),
    "no_square_term": lambda F: _forms(F, X4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}),
    "no_square_term_and_cubic": lambda F: _forms(
        F, X4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1},
        {(0, 0, 1, 2): 1, (0, 3, 0, 0): 1, (1, 1, 1, 0): -1}),
    "rank_two": lambda F: _forms(F, X4, {(1, 1, 0, 0): 1}),
    "cubic_surface": lambda F: _forms(F, X4, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                                              (0, 0, 0, 3): 1, (1, 1, 0, 1): 1}),
    "cubic_listed_first": lambda F: _forms(F, X4, {(0, 0, 0, 3): 1, (1, 1, 1, 0): -1},
                                           {(0, 0, 0, 2): 1, (1, 1, 0, 0): -1}),
    "plane_quartic": lambda F: [fix_x(F)],
    "fermat_quartic": lambda F: _forms(F, Z3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}),
    "double_root": lambda F: _forms(F, X4, {(0, 0, 0, 2): 1, (1, 1, 0, 0): -1}),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_FIBRES))
@pytest.mark.parametrize("p,d", [(3, None), (5, None), (7, None), (11, None), (13, None),
                                 (3, 2), (5, 2)])
def test_fibred_walk_on_degenerate_fibres(p, d, name):
    K = _field(p, d)
    _walks_agree(DEGENERATE_FIBRES[name](K), K)


def test_degenerate_fibres_by_hand():
    F = F11
    q = F.order()
    zero, one = F._zero_raw, F._one_raw

    def walk(name):
        return _walks_agree(DEGENERATE_FIBRES[name](F), F)

    # the vertex comes last, after every fibre
    assert walk("vertex")[-1] == (zero, zero, zero, one)
    # a cone with vertex (0 : 0 : 0 : 1): q + 1 whole lines and the vertex
    assert len(walk("cone")) == (q + 1) * q + 1
    # two planes meeting in a line
    assert len(walk("rank_two")) == 2 * (q * q + q + 1) - (q + 1)
    # T^2 = x0 x1 has the double root T = 0 over x0 x1 = 0, yielded once
    pts = walk("double_root")
    assert len(pts) == len(set(pts)) == q * q + q + 1
    assert [pt for pt in pts if pt[:3] == (one, zero, zero)] == [(one, zero, zero, zero)]


# the one prime of bad reduction among these: even_biell's curve C is singular
# at a rational point over F_59 (found the same by the exhaustive walk)
BAD_REDUCTION = {("even_biell", 59): "C singular at (1, 52, 26, 0)"}


@pytest.mark.parametrize("p", [41, 43, 47, 53, 59, 61])
def test_trace_identity_at_larger_primes(p):
    F = Field.prime(p)
    bad = {}
    for fx in SMOOTH_FIXTURES:
        a, q = fx.symmetrization(F), fx.quadric(F)
        eqs = [fx.quadric_form(F), a.determinant_cubic()]
        cert = smoothness_certificate(eqs, F)
        if not cert.passed:
            bad[(fx.name, p)] = "C singular at %r" % (cert.witness,)
            continue
        curve = count_curve(eqs, F, 4)
        cover = count_double_cover(eqs, list(a.double_cover_minors()[:3]), F)
        if fx.even:
            partner = count_hyperelliptic_octic(forward_even(a, q).octic, F)
        else:
            quartic = forward_general(a, q).quartic
            assert smoothness_certificate([quartic], F).passed, fx.name
            partner = count_curve([quartic], F, 3)
        assert curve.weil_ok and cover.weil_ok and partner.weil_ok, fx.name
        assert cover.count == curve.count + partner.count - (p + 1), fx.name
    assert bad == {k: v for k, v in BAD_REDUCTION.items() if k[1] == p}
