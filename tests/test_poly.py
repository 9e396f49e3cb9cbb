import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic import linalg, poly
from prymcubic.fields import Field, FieldElement, QQ
from prymcubic.poly import HomogPoly, PolyError, SymMatrix, proportional, restrict_forms

from test_field_properties import CASES
from test_scene_properties import VARS, _form, _scalar

F3 = Field.prime(3)
F9 = F3.quadratic_extension(2)
F11 = Field.prime(11)
X4 = ("x0", "x1", "x2", "x3")
Z3 = ("z0", "z1", "z2")

# CASES and characteristic 3, where p-th powers appear at low degree
CASES_F3_F9 = dict(CASES, F3=(lambda: F3, st.integers(0, 2)),
                   F9=(lambda: F9, st.tuples(st.integers(0, 2), st.integers(0, 2))))


def lin(field, coeffs, vars=X4):
    return HomogPoly.linear(field, vars, [field.element(c) for c in coeffs])


def fix_a_matrix(field):
    x0 = lin(field, [1, 0, 0, 0])
    x1 = lin(field, [0, 1, 0, 0])
    x2 = lin(field, [0, 0, 1, 0])
    x3 = lin(field, [0, 0, 0, 1])
    return SymMatrix.from_rows([[x0, x3, x3], [x3, x1, x3], [x3, x3, x2]])


def test_homog_invariants():
    f = HomogPoly(QQ, Z3, 2, {(2, 0, 0): 1, (0, 1, 1): Fraction(-1, 2)})
    assert f.degree == 2
    with pytest.raises(PolyError):
        HomogPoly(QQ, Z3, 2, {(1, 0, 0): 1})
    z = HomogPoly.zero(QQ, Z3, 3)
    assert not z and z.degree == 3


def test_det_and_adjugate_diag():
    d = SymMatrix.from_rows([
        [lin(QQ, [1, 0, 0, 0]), lin(QQ, [0, 0, 0, 0]), lin(QQ, [0, 0, 0, 0])],
        [lin(QQ, [0, 0, 0, 0]), lin(QQ, [0, 1, 0, 0]), lin(QQ, [0, 0, 0, 0])],
        [lin(QQ, [0, 0, 0, 0]), lin(QQ, [0, 0, 0, 0]), lin(QQ, [0, 0, 1, 0])],
    ])
    det, adj = d.det(), d.adjugate()
    assert det == HomogPoly(QQ, X4, 3, {(1, 1, 1, 0): 1})
    assert adj.at(0, 0) == HomogPoly(QQ, X4, 2, {(0, 1, 1, 0): 1})
    assert adj.at(1, 1) == HomogPoly(QQ, X4, 2, {(1, 0, 1, 0): 1})
    assert not adj.at(0, 1)


def test_det_fix_a():
    m = fix_a_matrix(QQ)
    det, adj = m.det(), m.adjugate()
    expected = HomogPoly(QQ, X4, 3, {
        (1, 1, 1, 0): 1, (0, 0, 0, 3): 2,
        (1, 0, 0, 2): -1, (0, 1, 0, 2): -1, (0, 0, 1, 2): -1,
    })
    assert det == expected
    # adj . M = det . I as an exact polynomial identity
    rows = fix_a_matrix(QQ).rows()
    prod = linalg.mat_mul(adj.rows(), rows)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert prod[i][j] == det
            else:
                assert not prod[i][j]


def test_adjugate_identity_random():
    rng = random.Random(7)
    for field in (F11, QQ):
        for _ in range(12):
            rows = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    f = HomogPoly.linear(field, X4, [field.random(rng) for _ in range(4)])
                    rows[i][j] = rows[j][i] = f
            m = SymMatrix.from_rows(rows)
            det, adj = m.det(), m.adjugate()
            prod = linalg.mat_mul(adj.rows(), m.rows())
            for i in range(3):
                for j in range(3):
                    assert (prod[i][j] == det) if i == j else not prod[i][j]


def test_substitute_fix_x():
    f = HomogPoly(QQ, X4, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    q0 = HomogPoly(QQ, Z3, 2, {(2, 0, 0): 1})
    q1 = HomogPoly(QQ, Z3, 2, {(0, 2, 0): 1})
    q2 = HomogPoly(QQ, Z3, 2, {(0, 0, 2): 1})
    q3 = HomogPoly(QQ, Z3, 2, {(1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2})
    out = f.substitute((q0, q1, q2, q3))
    expected = HomogPoly(QQ, Z3, 4, {
        (2, 2, 0): 1, (1, 1, 2): -2, (1, 0, 3): -2, (0, 1, 3): -2,
    })
    assert out == expected


def test_substitute_identity_and_products():
    rng = random.Random(3)
    idimg = tuple(HomogPoly.linear(F11, Z3, [1 if i == j else 0 for j in range(3)])
                  for i in range(3))
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = [rng.randrange(3) for _ in range(3)]
            tot = sum(e)
            if tot == 0:
                continue
            terms[tuple(e)] = F11.random(rng)
        degs = {sum(e) for e in terms}
        if len(degs) != 1:
            continue
        f = HomogPoly(F11, Z3, degs.pop(), terms)
        assert f.substitute(idimg) == f
    # multiplicativity
    f = HomogPoly(F11, Z3, 2, {(1, 1, 0): 3, (0, 0, 2): 1})
    g = HomogPoly(F11, Z3, 1, {(1, 0, 0): 2, (0, 1, 0): 10})
    imgs = (HomogPoly(F11, Z3, 2, {(2, 0, 0): 1}),
            HomogPoly(F11, Z3, 2, {(1, 1, 0): 1}),
            HomogPoly(F11, Z3, 2, {(0, 0, 2): 4}))
    assert (f * g).substitute(imgs) == f.substitute(imgs) * g.substitute(imgs)


def test_substitute_degree_mismatch():
    f = HomogPoly(QQ, ("x0", "x1"), 1, {(1, 0): 1, (0, 1): 1})
    a = HomogPoly(QQ, Z3, 2, {(2, 0, 0): 1})
    b = HomogPoly(QQ, Z3, 1, {(1, 0, 0): 1})
    with pytest.raises(PolyError):
        f.substitute((a, b))


def test_gradient_euler_identity():
    rng = random.Random(11)
    xs = [HomogPoly.monomial(F11, X4, tuple(1 if j == i else 0 for j in range(4)))
          for i in range(4)]
    for _ in range(1000):
        deg = rng.randint(1, 4)
        terms = {}
        for _ in range(5):
            e = [0, 0, 0, 0]
            for _ in range(deg):
                e[rng.randrange(4)] += 1
            terms[tuple(e)] = F11.random(rng)
        f = HomogPoly(F11, X4, deg, terms)
        if not f:
            continue
        grad = f.gradient()
        acc = HomogPoly.zero(F11, X4, deg)
        for xi, gi in zip(xs, grad):
            acc = acc + xi * gi
        assert acc == f * deg


def test_gradient_examples():
    g = fix_a_matrix(QQ).det().gradient()
    assert g[0] == HomogPoly(QQ, X4, 2, {(0, 1, 1, 0): 1, (0, 0, 0, 2): -1})
    assert g[3] == HomogPoly(QQ, X4, 2, {(0, 0, 0, 2): 6, (1, 0, 0, 1): -2,
                                         (0, 1, 0, 1): -2, (0, 0, 1, 1): -2})
    f = HomogPoly(F11, ("x0",), 2, {(2,): 1})
    assert f.gradient()[0] == HomogPoly(F11, ("x0",), 1, {(1,): 2})


def test_linear_solve_examples():
    ident = linalg.identity(4, QQ)
    assert linalg.rank(ident) == 4
    assert linalg.kernel_basis(ident, QQ) == []
    zero3 = [[QQ.zero()] * 3 for _ in range(3)]
    assert len(linalg.kernel_basis(zero3, QQ)) == 3
    # kernel vectors verify M v = 0 exactly
    rng = random.Random(1)
    m = [[F11.random(rng) for _ in range(5)] for _ in range(3)]
    for v in linalg.kernel_basis(m, F11):
        for row in m:
            assert not linalg.sum_entries([a * b for a, b in zip(row, v)])


def test_proportional():
    f = HomogPoly(QQ, Z3, 2, {(2, 0, 0): 2, (0, 2, 0): -4})
    g = f * QQ.element(Fraction(-3, 7))
    assert proportional(f, g)
    h = f + HomogPoly(QQ, Z3, 2, {(0, 0, 2): 1})
    assert not proportional(f, h)
    assert proportional(HomogPoly.zero(QQ, Z3, 2), HomogPoly.zero(QQ, Z3, 2))
    assert not proportional(f, HomogPoly.zero(QQ, Z3, 2))
    # vectors: cross-multiplied against the first nonzero entry of f
    v = [F11.element(c) for c in (0, 2, 5, 0)]
    w = [F11.element(c) for c in (0, 6, 4, 0)]  # 3 * v over F_11
    zero = [F11.zero()] * 4
    assert proportional(v, w) and proportional(w, v)
    assert not proportional(v, [F11.element(c) for c in (1, 6, 4, 0)])
    assert not proportional(v, [F11.element(c) for c in (0, 0, 4, 0)])
    assert not proportional(v, w[:3])
    assert proportional(zero, zero)
    assert not proportional(zero, v) and not proportional(v, zero)
    assert proportional([f, f * 2], [f * 3, f * 6]) and not proportional([f, f], [f, h])


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_proportional_vectors_match_all_pairs(name, data):
    # on nonzero vectors the answer is the all-pairs rank-one test
    make, raw = CASES_F3_F9[name]
    field = make()
    n = data.draw(st.integers(1, 5))
    f = [field.element(data.draw(raw)) for _ in range(n)]
    scale = field.element(data.draw(raw))
    g = data.draw(st.sampled_from([
        [field.element(data.draw(raw)) for _ in range(n)],
        [c * scale for c in f],
        [c * scale if i else field.element(data.draw(raw)) for i, c in enumerate(f)],
    ]))
    all_pairs = all(a * d == b * c for a, b in zip(f, g) for c, d in zip(f, g))
    if any(f) and any(g):
        assert proportional(f, g) == all_pairs
    else:
        assert proportional(f, g) == (not any(f) and not any(g))


def test_quadratic_form_matrix_roundtrip():
    rng = random.Random(2)
    for field in (QQ, F11):
        for _ in range(8):
            rows = [[None] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    rows[i][j] = rows[j][i] = field.random(rng)
            m = SymMatrix.from_rows(rows)
            f = m.quadratic_form(field, X4)
            m2 = SymMatrix.from_quadratic_form(f)
            assert m == m2


def test_scalar_adjugate_4x4_segre():
    half = Fraction(1, 2)
    m = SymMatrix.from_rows([
        [QQ.element(0), QQ.element(half), QQ.element(0), QQ.element(0)],
        [QQ.element(half), QQ.element(0), QQ.element(0), QQ.element(0)],
        [QQ.element(0), QQ.element(0), QQ.element(0), QQ.element(-half)],
        [QQ.element(0), QQ.element(0), QQ.element(-half), QQ.element(0)],
    ])
    det = m.det()
    assert det == QQ.element(Fraction(1, 16))
    adj = m.adjugate()
    form = adj.quadratic_form(QQ, ("y0", "y1", "y2", "y3"))
    target = HomogPoly(QQ, ("y0", "y1", "y2", "y3"), 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert proportional(form, target)


def test_content_normalized():
    f = HomogPoly(QQ, Z3, 4, {(2, 2, 0): Fraction(1, 4), (1, 1, 2): Fraction(-1, 2)})
    g = f.content_normalized()
    assert g == HomogPoly(QQ, Z3, 4, {(2, 2, 0): 1, (1, 1, 2): -2})
    h = HomogPoly(F11, Z3, 2, {(2, 0, 0): 5, (0, 2, 0): 3})
    assert h.content_normalized().terms[(2, 0, 0)] == F11.one()


def test_equal_forms_hash_equal_across_raw_types():
    # FieldElement(QQ, Fraction(2)) is not the canonical raw value 2, but it
    # is the same rational: the forms are equal and must hash equal
    raw = {(2, 0, 0): FieldElement(QQ, Fraction(2)), (0, 1, 1): FieldElement(QQ, Fraction(-1, 3))}
    f = HomogPoly(QQ, Z3, 2, raw, _clean=True)
    g = HomogPoly(QQ, Z3, 2, {(2, 0, 0): QQ.element(2), (0, 1, 1): QQ.element(Fraction(-1, 3))})
    assert type(g.terms[(2, 0, 0)].val) is int
    assert f == g and g == f
    assert hash(f) == hash(g) and len({f, g}) == 1
    # over Q(sqrt 5) the same element reached from a pair of Fractions, an
    # int and a lifted rational gives one form
    K = QQ.quadratic_extension(5)
    fk = HomogPoly(K, Z3, 1, {(1, 0, 0): K.ext_element(Fraction(3), Fraction(0)),
                              (0, 1, 0): K.ext_element(Fraction(1, 2), Fraction(-3, 4))})
    gk = HomogPoly(K, Z3, 1, {(1, 0, 0): 3, (0, 1, 0): K.ext_element(2, -3) / 4})
    hk = HomogPoly(K, Z3, 1, {(1, 0, 0): K.element(QQ.element(Fraction(6, 2))),
                              (0, 1, 0): K.ext_element(Fraction(2, 4), Fraction(-6, 8))})
    assert fk == gk == hk and hash(fk) == hash(gk) == hash(hk) and len({fk, gk, hk}) == 1


# derandomized and bounded, so the suite stays deterministic and fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _draw_linear(data, field, raw, nv):
    """Coefficients of a random nonzero linear form, half the time without
    an x0 term."""
    cs = [_scalar(data, field, raw) for _ in range(nv)]
    if data.draw(st.booleans()):
        cs[0] = field.zero()
    if not any(cs):
        cs[-1] = field.one()
    return cs


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_divide_linear_undoes_a_product(name, data):
    make, raw = CASES[name]
    field = make()
    nv = data.draw(st.integers(3, 4))
    ell = HomogPoly.linear(field, VARS[nv], _draw_linear(data, field, raw, nv))
    g = _form(data, field, raw, nv, data.draw(st.integers(0, 3)))
    assert (ell * g).divide_linear(ell) == g


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_divide_linear_fails_exactly_off_the_hyperplane(name, data):
    # independent of the division: h is divisible by ell iff h vanishes
    # identically on the hyperplane ell = 0, parametrized by its kernel basis
    make, raw = CASES[name]
    field = make()
    nv = data.draw(st.integers(3, 4))
    cs = _draw_linear(data, field, raw, nv)
    ell = HomogPoly.linear(field, VARS[nv], cs)
    degree = data.draw(st.integers(1, 3))
    h = ell * _form(data, field, raw, nv, degree - 1)
    if data.draw(st.booleans()):
        h = h + _form(data, field, raw, nv, degree)
    basis = linalg.kernel_basis([cs], field)
    images = [HomogPoly.linear(field, VARS[nv - 1], [b[i] for b in basis]) for i in range(nv)]
    assert (h.divide_linear(ell) is None) == bool(h.substitute(images))


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_linear_coeffs_inverts_linear(name, data):
    make, raw = CASES[name]
    field = make()
    cs = [_scalar(data, field, raw) for _ in range(4)]
    assert HomogPoly.linear(field, X4, cs).linear_coeffs() == cs


def test_divide_linear_rejects_a_zero_or_nonlinear_divisor():
    f = lin(F11, [1, 2, 0, 0]) * lin(F11, [0, 1, 0, 3])
    with pytest.raises(PolyError):
        f.divide_linear(HomogPoly.zero(F11, X4, 1))
    with pytest.raises(PolyError):
        f.divide_linear(f)
    with pytest.raises(PolyError):
        f.divide_linear(HomogPoly.monomial(F11, X4, (0, 0, 0, 0)))
    with pytest.raises(PolyError):
        f.linear_coeffs()


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_substitute_commutes_with_evaluation(name, data):
    # degree 0 covers the constant form; degree 3 repeats an image's powers
    make, raw = CASES[name]
    field = make()
    nv, mv = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    f = _form(data, field, raw, nv, data.draw(st.integers(0, 3)))
    image_degree = data.draw(st.integers(1, 2))
    images = [_form(data, field, raw, mv, image_degree) for _ in range(nv)]
    pt = [_scalar(data, field, raw) for _ in range(mv)]
    assert f.substitute(images).evaluate(pt) == f.evaluate([g.evaluate(pt) for g in images])


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
@PROPERTY
@given(data=st.data())
def test_restrict_to_line_is_substitution_of_the_line(name, data):
    # the dense kernel agrees with composing the linear forms a_i s + b_i t,
    # for constant forms, points with zero coordinates and p0 = p1 alike
    make, raw = CASES_F3_F9[name]
    field = make()
    nv = data.draw(st.integers(2, 4))
    f = _form(data, field, raw, nv, data.draw(st.integers(0, 4)))
    p0 = [_scalar(data, field, raw) for _ in range(nv)]
    p1 = list(p0) if data.draw(st.integers(0, 4)) == 0 else [
        _scalar(data, field, raw) for _ in range(nv)]
    rest = f.restrict_to_line(p0, p1)
    assert rest == f.substitute([HomogPoly.linear(field, VARS[2], [a, b]) for a, b in zip(p0, p1)])
    assert rest.vars == VARS[2] and rest.degree == f.degree
    s0, t0 = _scalar(data, field, raw), _scalar(data, field, raw)
    assert rest.evaluate([s0, t0]) == f.evaluate([s0 * a + t0 * b for a, b in zip(p0, p1)])


def _evaluate_by_compose(f, point):
    """`HomogPoly.evaluate` as it was before it ran on raw powers: `_compose`
    with a constant form per coordinate, kept as its reference."""
    field = f.field
    raw = poly._compose(field, f.terms, [{(): field.element(x).val} for x in point], ())
    return FieldElement(field, raw.get((), field._zero_raw))


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
@PROPERTY
@given(data=st.data())
def test_evaluate_matches_the_composition_with_constants(name, data):
    # forms of degree 0 to 5 in two to four variables, sparse ones and the
    # zero form among them, at points with zero coordinates; evaluate builds
    # no scan evaluator, so the exhaustive references stay independent of it
    make, raw = CASES_F3_F9[name]
    field = make()
    nv = data.draw(st.integers(2, 4))
    f = _form(data, field, raw, nv, data.draw(st.integers(0, 5)))
    for _ in range(3):
        pt = [_scalar(data, field, raw) for _ in range(nv)]
        value = f.evaluate(pt)
        assert value == _evaluate_by_compose(f, pt) and value.field == field
    assert "compile_raw" not in inspect.getsource(HomogPoly.evaluate)


def _restrict_one_form(f, p0, p1):
    """One form restricted to the line s*p0 + t*p1 by its own powers of the
    images, each monomial's product of powers convolved into one
    accumulator: the reference for `restrict_forms`, which shares the powers
    and the monomial images among the forms it restricts."""
    field = f.field
    powers = [[[field._one_raw], [field.element(a).val, field.element(b).val]]
              for a, b in zip(p0, p1)]
    d = f.degree
    acc = [field._zero_raw] * (d + 1)
    for e, c in f.terms.items():
        prod, last = None, [c.val]
        for pw, k in zip(powers, e):
            if k:
                while len(pw) <= k:
                    pw.append(Field._convolve_raw(field, None, pw[-1], pw[1]))
                prod = last if prod is None else Field._convolve_raw(field, None, prod, last)
                last = pw[k]
        Field._convolve_raw(field, acc, [field._one_raw] if prod is None else prod, last)
    return HomogPoly(field, VARS[2], d, {(d - j, j): FieldElement(field, v)
                                         for j, v in enumerate(acc)})


def _restrict_forms_per_term(forms, p0, p1):
    """The shared powers and monomial images of `restrict_forms`, with each
    term's coefficient times its image convolved into the form's
    accumulator: the reference for its one dot product per coefficient."""
    field = forms[0].field
    conv, one = field._convolve_raw, [field._one_raw]
    powers = [[one, [field.element(a).val, field.element(b).val]] for a, b in zip(p0, p1)]
    images = {}
    out = []
    for f in forms:
        d = f.degree
        acc = [field._zero_raw] * (d + 1)
        for e, c in f.terms.items():
            image = images.get(e)
            if image is None:
                image = one
                for pw, k in zip(powers, e):
                    if k:
                        while len(pw) <= k:
                            pw.append(conv(None, pw[-1], pw[1]))
                        image = pw[k] if image is one else conv(None, image, pw[k])
                images[e] = image
            conv(acc, [c.val], image)
        out.append(HomogPoly(field, VARS[2], d, {(d - j, j): FieldElement(field, v)
                                                 for j, v in enumerate(acc)}))
    return out


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
@PROPERTY
@given(data=st.data())
def test_restrict_forms_matches_one_form_at_a_time(name, data):
    # forms of mixed degrees 0-4 in one set of variables, a zero form among
    # them, over Q, F_101, F_3, F_9, F_11(sqrt 2) and Q(sqrt 5)
    make, raw = CASES_F3_F9[name]
    field = make()
    nv = data.draw(st.integers(2, 4))
    forms = [_form(data, field, raw, nv, data.draw(st.integers(0, 4)))
             for _ in range(data.draw(st.integers(1, 5)))]
    forms.insert(data.draw(st.integers(0, len(forms))),
                 HomogPoly.zero(field, VARS[nv], data.draw(st.integers(0, 3))))
    p0 = [_scalar(data, field, raw) for _ in range(nv)]
    p1 = [_scalar(data, field, raw) for _ in range(nv)]
    rest = restrict_forms(forms, p0, p1)
    assert rest == [_restrict_one_form(f, p0, p1) for f in forms]
    assert rest == _restrict_forms_per_term(forms, p0, p1)
    assert rest == [f.restrict_to_line(p0, p1) for f in forms]
    assert [(r.vars, r.degree) for r in rest] == [(VARS[2], f.degree) for f in forms]


def test_restrict_forms_needs_one_ring():
    f = HomogPoly(F11, Z3, 2, {(1, 1, 0): 1})
    with pytest.raises(PolyError):
        restrict_forms([f, HomogPoly(F11, X4, 1, {(1, 0, 0, 0): 1})], [1, 0, 0], [0, 1, 0])
    with pytest.raises(PolyError):
        restrict_forms([f, f.change_field(F11.quadratic_extension(2))], [1, 0, 0], [0, 1, 0])
    with pytest.raises(PolyError):
        restrict_forms([f], [1, 0], [0, 1])
    assert restrict_forms([], [1, 0, 0], [0, 1, 0]) == []
