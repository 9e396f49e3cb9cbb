import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from prymcubic import linalg, prym
from prymcubic.binforms import binary_gcd, is_squarefree
from prymcubic.elim import resultant_last_var
from prymcubic.fields import Field, QQ, legendre
from prymcubic.fixtures import FIXTURES, fix_a, fix_q, fix_x
from prymcubic.poly import HomogPoly, PolyError, SymMatrix, proportional
from prymcubic.prym import (PrymError, UnsupportedTower, _centres, _in_frame,
                            _integer_roots_in_box, _plane_dual, _quartic_reduced,
                            conic_rational_point,
                            forward_even, forward_general,
                            parametrize_conic, pencil_conics, reverse_construct,
                            roundtrip_change_matches, split_quadric)
from prymcubic.quadrics import factor_rank_le2
from prymcubic.symmetroid import Symmetrization

from test_field_properties import CASES
from test_scene_properties import _form, _scalar

F11 = Field.prime(11)
F13 = Field.prime(13)
X4 = ("x0", "x1", "x2", "x3")
Y4 = ("y0", "y1", "y2", "y3")
Z3 = ("z0", "z1", "z2")


def quad(field, terms):
    return SymMatrix.from_quadratic_form(HomogPoly(field, X4, 2, terms))


def test_dual_quadric_rank4():
    d = forward_general(fix_a(QQ), fix_q(QQ)).dual
    assert d.rank() == 4
    target = HomogPoly(QQ, Y4, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert proportional(d.quadratic_form(QQ, Y4), target)


def test_dual_quadric_rank3():
    q = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1})
    vertex, kept, plane_conic = _plane_dual(q, QQ)
    assert SymMatrix.from_quadratic_form(plane_conic).rank() == 3
    assert vertex == (QQ.zero(), QQ.zero(), QQ.zero(), QQ.one())
    assert kept == (0, 1, 2)
    # forward_even's dual plane: the linear form of the vertex
    assert HomogPoly.linear(QQ, Y4, vertex) == HomogPoly.linear(QQ, Y4, [0, 0, 0, 1])
    target = HomogPoly(QQ, ("p0", "p1", "p2"), 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert proportional(plane_conic, target)


def test_dual_quadric_rank2_rejected():
    q = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    for construct in (forward_general, forward_even, pencil_conics):
        with pytest.raises(PrymError):
            construct(fix_a(QQ), q)


def test_forward_general_seed_exact():
    fwd = forward_general(fix_a(QQ), fix_q(QQ))
    assert fwd.quartic == fix_x(QQ)
    assert fwd.reduced
    # second substitution path: contraction of the tensor against the dual form
    a = fix_a(QQ)
    dual_form = fix_q(QQ).adjugate().quadratic_form(QQ, Y4)
    again = dual_form.substitute(a.gauss_quadrics()).content_normalized()
    assert again == fwd.quartic


def test_forward_rejects_type7():
    E0, E1, E2, E3, Z = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]
    from prymcubic.symmetroid import Symmetrization
    t7 = Symmetrization.from_entry_rows(QQ, [[E0, Z, Z], [Z, E1, E3], [Z, E3, E2]])
    with pytest.raises(PrymError):
        forward_general(t7, fix_q(QQ))


def test_forward_even_seed():
    a = fix_a(QQ)
    q = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1})
    model = forward_even(a, q)
    conic_target = HomogPoly(QQ, Z3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert proportional(model.conic, conic_target)
    branch_target = HomogPoly(QQ, Z3, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    assert proportional(model.branch_quartic, branch_target)


def test_forward_even_vertex_on_surface_rejected():
    # kernel direction of the quadric meets the cubic: det(A) vanishes at e3
    # for the catalecticant of t^4 - 1
    from prymcubic.fixtures import fix_h
    a = fix_h(QQ)
    q = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1})
    with pytest.raises(PrymError):
        forward_even(a, q)


def test_split_quadric_fast_path_permutation():
    sp = split_quadric(fix_q(QQ).adjugate(), QQ)
    assert not sp.extended
    # permutation transforms have exactly one nonzero entry per column
    for col in range(4):
        nonzeros = [sp.transform[row][col] for row in range(4) if sp.transform[row][col]]
        assert len(nonzeros) == 1


def test_split_quadric_diagonal_pairs():
    q = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -4})
    sp = split_quadric(q, QQ)
    assert not sp.extended and sp.field == QQ


def test_split_quadric_needs_extension():
    # diag(1,1,1,1) over F_11: the stepwise pairing wants sqrt(-1), which
    # lives in F_121 (11 = 3 mod 4)
    q = quad(F11, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1})
    sp = split_quadric(q, F11)
    assert sp.extended and sp.field.order() == 121


def test_split_quadric_unsupported_tower_over_q():
    q = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 3})
    with pytest.raises(UnsupportedTower):
        split_quadric(q, QQ)


def test_pencil_conics_seed_is_documented_permutation():
    a = fix_a(QQ)
    pen = pencil_conics(a, fix_q(QQ))
    qs = a.gauss_quadrics()
    assert pen.c00 == qs[0]
    assert pen.c01 == qs[2]
    assert pen.c10 == qs[3]
    assert pen.c11 == qs[1]
    assert pen.scale == QQ.one()
    prod = pen.c00 * pen.c11 - pen.c01 * pen.c10
    assert prod == pen.quartic


def test_pencil_compatibility_random_fixtures():
    for name in ("t1", "t2", "t3", "biell"):
        fx = FIXTURES[name]
        for field in (QQ, F11):
            a = fx.symmetrization(field)
            q = fx.quadric(field)
            pen = pencil_conics(a, q)
            prod = pen.c00 * pen.c11 - pen.c01 * pen.c10
            quart = pen.quartic if not pen.extended else pen.quartic.change_field(pen.field)
            assert prod == quart * pen.scale


def test_reverse_roundtrip_all_fixture_types():
    for name in ("t1", "t2", "t3", "biell"):
        fx = FIXTURES[name]
        for field in (QQ, F13):
            a = fx.symmetrization(field)
            q = fx.quadric(field)
            fwd = forward_general(a, q)
            pen = pencil_conics(a, q)
            assert not pen.extended
            rev = reverse_construct(fwd.quartic, pen.conics(), pen.field)
            assert roundtrip_change_matches(a, q, pen, rev)
            if name == "biell":
                assert rev.kernel_relation is not None
                assert rev.symmetrization.classify() == "DegenerateCone"
            else:
                assert rev.kernel_relation is None


def test_reverse_scaled_conics_same_output():
    # rescaling a section of the first pencil scales its whole row of conics;
    # the rebuilt surfaces only move by the dual diagonal substitution
    fx = FIXTURES["t1"]
    a = fx.symmetrization(QQ)
    q = fx.quadric(QQ)
    fwd = forward_general(a, q)
    pen = pencil_conics(a, q)
    lam = QQ.element(Fraction(3, 2))
    scaled = (pen.c00 * lam, pen.c01 * lam, pen.c10, pen.c11)
    rev1 = reverse_construct(fwd.quartic, pen.conics(), QQ)
    rev2 = reverse_construct(fwd.quartic, scaled, QQ)
    change = _diag_change(QQ, [lam, lam, QQ.one(), QQ.one()])
    assert proportional(rev2.symmetrization.determinant_cubic(),
                        rev1.symmetrization.determinant_cubic().substitute(change))
    # the rank condition is the same Segre form in both presentations
    assert rev1.quadric_form == rev2.quadric_form
    assert proportional(rev2.quadric_form.substitute(change), rev1.quadric_form)


def _diag_change(field, scalars):
    RV4 = ("y00", "y01", "y10", "y11")
    return tuple(HomogPoly.linear(field, RV4,
                                  [scalars[i] if j == i else field.zero() for j in range(4)])
                 for i in range(4))


def test_reverse_rejects_incompatible():
    fx = FIXTURES["t1"]
    a = fx.symmetrization(QQ)
    q = fx.quadric(QQ)
    fwd = forward_general(a, q)
    pen = pencil_conics(a, q)
    bad = (pen.c00, pen.c01, pen.c10, pen.c11 + HomogPoly(QQ, Z3, 2, {(2, 0, 0): 1}))
    with pytest.raises(PrymError):
        reverse_construct(fwd.quartic, bad, QQ)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_parametrize_conic_lies_on_the_conic(name, data):
    # a random smooth conic through a chosen point: the parametrization
    # composes to zero, and its three coordinates are independent binary
    # quadratics, so not all proportional
    make, raw = CASES[name]
    field = make()
    conic = _form(data, field, raw, 3, 2)
    pt = [_scalar(data, field, raw) for _ in range(3)]
    assume(any(pt))
    k = max(i for i, c in enumerate(pt) if c)
    square = tuple(2 if i == k else 0 for i in range(3))
    conic = conic - HomogPoly(field, conic.vars, 2, {square: conic.evaluate(pt) / (pt[k] * pt[k])})
    assume(SymMatrix.from_quadratic_form(conic).rank() == 3)
    param = parametrize_conic(conic, pt, field)
    assert not conic.substitute(param)
    mons = [(2, 0), (1, 1), (0, 2)]
    assert linalg.rank([[g.terms.get(e, field.zero()) for e in mons] for g in param]) == 3


def test_parametrize_conic_and_points():
    conic = HomogPoly(F11, Z3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    pt = conic_rational_point(conic, F11)
    assert pt is not None and not conic.evaluate(pt)
    param = parametrize_conic(conic, pt, F11)
    composed = conic.substitute(param)
    assert not composed
    # the parametrization hits q+1 distinct points
    seen = set()
    for s in range(11):
        vals = tuple(repr(c.evaluate([F11.element(s), F11.one()]).val) for c in param)
        seen.add(vals)
    vals = tuple(repr(c.evaluate([F11.one(), F11.zero()]).val) for c in param)
    seen.add(vals)
    assert len(seen) == 12


def _conic_point_box_walk(conic, field):
    """The walk of the integer box [-12, 12]^3 in (a, b, c) order that the
    solve in the last coordinate replaced, kept as its reference."""
    rng = range(-12, 13)
    for a in rng:
        for b in rng:
            for c in rng:
                if a == b == c == 0:
                    continue
                pt = (field.element(a), field.element(b), field.element(c))
                if not conic.evaluate(pt):
                    return linalg.normalize_point(pt)
    return None


def _box_walk_cases():
    lin = lambda field, cs: HomogPoly.linear(field, Z3, cs)
    conic = lambda field, terms: HomogPoly(field, Z3, 2, terms)
    fx = FIXTURES["even_biell"]
    cases = [
        # pointless definite diagonals, the even-bielliptic conic among them
        forward_even(fx.symmetrization(QQ), fx.quadric(QQ)).conic,
        conic(QQ, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}),
        # pointless and indefinite
        conic(QQ, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3}),
        # line pairs and double lines
        lin(QQ, [1, -2, 0]) * lin(QQ, [0, 3, 1]),
        lin(QQ, [1, 0, 1]) * lin(QQ, [1, 1, 1]),  # root c = 12, the other outside the box
        lin(QQ, [1, 0, -1]) * lin(QQ, [2, 1, 1]),  # root c = -12
        lin(QQ, [1, 2, -3]) * lin(QQ, [1, 2, -3]),
        lin(QQ, [0, 2, -1]) * lin(QQ, [0, 2, -1]),
        lin(QQ, [0, 0, 1]) * lin(QQ, [0, 0, 1]),
        # no c^2 term; the last two vanish only on (0 : 0 : 1) in the box
        conic(QQ, {(1, 0, 1): 1, (0, 2, 0): 1}),
        conic(QQ, {(2, 0, 0): 100, (0, 2, 0): 100, (1, 0, 1): 1}),
        conic(QQ, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}),
        # non-integer rational coefficients
        conic(QQ, {(2, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(-3, 4), (0, 0, 2): Fraction(1, 3)}),
        conic(QQ, {(2, 0, 0): Fraction(1, 7), (1, 1, 0): 2, (0, 2, 0): Fraction(-5, 2),
                   (0, 0, 2): Fraction(-1, 9)}),
        # the zero form: every point lies on it
        conic(QQ, {}),
    ]
    # over Q(sqrt 2) an integer point must lie on both rational components
    K = Field.rationals().quadratic_extension(2)
    r = K.sqrt_d()
    cases += [lin(K, [1, 0, -1]) * (lin(K, [0, 1, 1]) + lin(K, [1, 2, 0]) * r),
              lin(K, [1, 0, -1]) * (lin(K, [0, 1, 2]) + lin(K, [1, 1, 0]) * r),
              # the first box point of the rational part is off the other part
              conic(K, {(0, 0, 2): 1, (2, 0, 0): -1}) + lin(K, [1, 0, 0]) * lin(K, [0, -2, 1]) * r]
    # seeded conics through a chosen point of the box (a walk that finds no
    # point costs about a second)
    rng = random.Random(1812)
    mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    while len(cases) < 40:
        f = conic(QQ, {e: Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for e in mons})
        pt = [QQ.element(rng.randint(-12, 12)) for _ in range(3)]
        k = max((i for i, c in enumerate(pt) if c), default=None)
        if k is None:
            continue
        square = tuple(2 if i == k else 0 for i in range(3))
        cases.append(f - conic(QQ, {square: f.evaluate(pt) / (pt[k] * pt[k])}))
    return cases


def test_conic_point_solve_matches_the_box_walk():
    found = 0
    for conic in _box_walk_cases():
        point = conic_rational_point(conic, conic.field)
        assert repr(point) == repr(_conic_point_box_walk(conic, conic.field)), conic
        found += point is not None
    assert found == 37


def test_forward_even_over_q_does_not_walk_the_box(monkeypatch):
    # the box walk evaluated the even-bielliptic conic at 15,624 points
    calls = []
    evaluate = HomogPoly.evaluate

    def counted(self, point):
        calls.append(self.degree)
        return evaluate(self, point)

    monkeypatch.setattr(HomogPoly, "evaluate", counted)
    fx = FIXTURES["even_biell"]
    assert forward_even(fx.symmetrization(QQ), fx.quadric(QQ)).octic is None
    assert len(calls) <= 20


@pytest.mark.parametrize("coeffs, roots", [
    ((1, 0, -144), [-12, 12]),                     # roots at both ends of the box
    ((1, -1, -156), [-12]),                        # 13 is outside the box
    ((2, -3, 1), [1]),                             # 1/2 is not an integer
    ((-2, 3, -1), [1]),                            # a negative c^2 coefficient
    ((4, 0, -1), []),                              # +-1/2
    ((1, 0, -2), []),                              # irrational roots
    ((1, 0, 1), []),                               # a negative discriminant
    ((1, 24, 144), [-12]),                         # a double root
    ((0, 2, -24), [12]),                           # a zero A: c = -C / B
    ((0, 3, 2), []),                               # -2/3
    ((0, 0, 5), []),                               # a nonzero constant
    ((0, 0, 0), list(range(-12, 13))),             # the zero polynomial
    ((Fraction(1, 2), Fraction(11, 4), -39), [-12]),   # (c + 12)(c - 13/2) / 2
])
def test_integer_roots_in_box_are_exact(coeffs, roots):
    # ints and Fractions give one list of ints, and no float ever arises
    for args in (coeffs, tuple(map(Fraction, coeffs))):
        found = list(_integer_roots_in_box(*args))
        assert found == roots
        assert all(type(c) is int for c in found)


def test_one_classification_per_symmetrization(monkeypatch):
    # a construct job classifies, then forward_general checks the type and
    # pencil_conics runs forward_general again: one classification serves all
    calls = []
    uncached = Symmetrization._classify

    def counted(self):
        calls.append(self.field)
        return uncached(self)

    monkeypatch.setattr(Symmetrization, "_classify", counted)
    fx = FIXTURES["t1"]
    a, q = fx.symmetrization(QQ), fx.quadric(QQ)
    tag = a.classify()
    forward_general(a, q)
    pencil_conics(a, q)
    assert a.classify() == tag
    assert calls == [QQ]
    # another field is another Symmetrization, classified afresh
    assert a.change_field(F11).classify() == tag
    assert calls == [QQ, F11]


def test_one_dual_quadric_per_pencil(monkeypatch):
    # pencil_conics splits the dual that its forward model computed: one
    # adjugate of the 4x4 quadric, where it used to take two
    calls = []
    adjugate = SymMatrix.adjugate

    def counted(self):
        calls.append(self.n)
        return adjugate(self)

    monkeypatch.setattr(SymMatrix, "adjugate", counted)
    fx = FIXTURES["t1"]
    pencil_conics(fx.symmetrization(QQ), fx.quadric(QQ))
    assert calls.count(4) == 1


def _counted_reducedness(monkeypatch):
    # the quartics whose reducedness is decided, one per pullback
    calls = []
    decide = prym._quartic_reduced
    monkeypatch.setattr(prym, "_quartic_reduced",
                        lambda quartic: calls.append(quartic) or decide(quartic))
    return calls


def _same_model(m1, m2):
    return (m1.quartic == m2.quartic and m1.reduced == m2.reduced
            and m1.raw_scale == m2.raw_scale and m1.dual == m2.dual)


def test_pencil_conics_reads_the_kept_forward_model(monkeypatch):
    # a caller's forward_general and pencil_conics on the same pair make one
    # pullback, and the pencil carries the caller's quartic object
    calls = _counted_reducedness(monkeypatch)
    fx = FIXTURES["t1"]
    a, q = fx.symmetrization(QQ), fx.quadric(QQ)
    fwd = forward_general(a, q)
    pen = pencil_conics(a, q)
    assert len(calls) == 1
    assert pen.quartic is fwd.quartic and forward_general(a, q) is fwd


def test_kept_forward_model_is_never_stale(monkeypatch):
    # on one symmetrization, alternating quadrics each get the model of their
    # own quadric, equal to one computed from fresh objects
    a = FIXTURES["t1"].symmetrization(QQ)
    fresh = {name: forward_general(FIXTURES["t1"].symmetrization(QQ), FIXTURES[name].quadric(QQ))
             for name in ("t1", "t2")}
    q1, q2 = FIXTURES["t1"].quadric(QQ), FIXTURES["t2"].quadric(QQ)
    assert not _same_model(fresh["t1"], fresh["t2"])
    calls = _counted_reducedness(monkeypatch)
    for name, q in (("t1", q1), ("t1", q1), ("t2", q2), ("t1", q1), ("t2", q2), ("t2", q2)):
        assert _same_model(forward_general(a, q), fresh[name])
    assert len(calls) == 4
    # equal objects built afresh are computed again
    calls.clear()
    a2, q3 = FIXTURES["t1"].symmetrization(QQ), FIXTURES["t1"].quadric(QQ)
    assert a2.matrix == a.matrix and q3 == q1
    for _ in range(2):
        assert _same_model(forward_general(a2, q3), fresh["t1"])
    assert _same_model(forward_general(a, q1), fresh["t1"])
    assert len(calls) == 2


def test_rank3_quadric_is_refused_on_every_call():
    # an error is not kept: a rank-3 q raises on each call, and the model
    # kept before it is still the one returned
    a, q = fix_a(QQ), fix_q(QQ)
    fwd = forward_general(a, q)
    rank3 = quad(QQ, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1})
    for _ in range(2):
        with pytest.raises(PrymError, match="rank-4 quadric required"):
            forward_general(a, rank3)
    assert forward_general(a, q) is fwd


def test_reverse_construct_takes_no_determinant(monkeypatch):
    # no caller reads the rebuilt cubic; a reader asks the symmetrization
    fx = FIXTURES["t1"]
    a, q = fx.symmetrization(QQ), fx.quadric(QQ)
    pen = pencil_conics(a, q)
    calls = []
    determinant_cubic = Symmetrization.determinant_cubic

    def counted(self):
        calls.append(self)
        return determinant_cubic(self)

    monkeypatch.setattr(Symmetrization, "determinant_cubic", counted)
    rev = reverse_construct(pen.quartic, pen.conics(), pen.field)
    assert calls == []
    assert rev.symmetrization.determinant_cubic().degree == 3


@pytest.mark.parametrize("field", [QQ, F11])
def test_conic_rational_point_needs_a_quadratic_form(field):
    for form in (HomogPoly(field, Z3, 3, {(3, 0, 0): 1, (0, 1, 2): -1}),
                 HomogPoly.linear(field, Z3, [1, 1, 0])):
        with pytest.raises(PolyError, match="not a quadratic form"):
            conic_rational_point(form, field)


def test_partition_property_on_smooth_fixture():
    """A curve point's singular conic splits the two pencil fibers two-and-two."""
    fx = FIXTURES["t1"]
    checked = 0
    for prime in (11, 13, 17):
        field = Field.prime(prime)
        a = fx.symmetrization(field)
        q = fx.quadric(field)
        fwd = forward_general(a, q)
        gamma = a.determinant_cubic()
        qform = fx.quadric_form(field)
        dualm = q.adjugate()
        checked += _partition_points(field, a, q, fwd, gamma, qform, dualm,
                                     25 - checked)
        if checked >= 25:
            break
    assert checked >= 25


def _partition_points(field, a, q, fwd, gamma, qform, dualm, want):
    Y4 = ("y0", "y1", "y2", "y3")
    checked = 0
    from prymcubic.oracle import projective_points
    for pt in projective_points(field, 3):
        if checked >= want:
            break
        p = list(pt)
        if qform.evaluate(p) or gamma.evaluate(p):
            continue
        conic_mat = a.contraction_at(p)
        if linalg.rank(conic_mat.rows()) != 2:
            continue
        pair = factor_rank_le2(conic_mat, field, Z3)
        if pair is None or pair.kind != "pair" or pair.extended:
            continue  # tangent lines conjugate over the extension; skip
        # dual plane of p cut on the dual quadric: two ruling lines
        hplane = HomogPoly.linear(field, Y4, p)
        basis = linalg.kernel_basis([p], field)
        images = tuple(HomogPoly.linear(field, ("u0", "u1", "u2"),
                                        [basis[k][i] for k in range(3)])
                       for i in range(4))
        plane_conic = dualm.quadratic_form(field, Y4).substitute(images)
        ruling_pair = factor_rank_le2(SymMatrix.from_quadratic_form(plane_conic),
                                      field, ("u0", "u1", "u2"))
        if ruling_pair is None or ruling_pair.kind != "pair" or ruling_pair.extended:
            continue
        fibers = []
        for lf in (ruling_pair.h1, ruling_pair.h2):
            # lift the dual line to space: points u with lf(u) = 0
            lcoeffs = [lf.terms.get(tuple(1 if k == i else 0 for k in range(3)),
                                    field.zero()) for i in range(3)]
            span = linalg.kernel_basis([lcoeffs], field)
            y_pts = []
            for vec in span:
                y = [linalg.sum_entries([basis[k][i] * vec[k] for k in range(3)])
                     for i in range(4)]
                y_pts.append(y)
            # two planes cutting the dual line
            ann = linalg.kernel_basis([y_pts[0], y_pts[1]], field)
            conics = []
            for phi in ann:
                acc = None
                for c, qq in zip(phi, a.gauss_quadrics()):
                    if c:
                        t = qq * c
                        acc = t if acc is None else acc + t
                conics.append(acc)
            fibers.append(conics)
        for line_form in (pair.h1, pair.h2):
            lc = [line_form.terms.get(tuple(1 if k == i else 0 for k in range(3)),
                                      field.zero()) for i in range(3)]
            span = linalg.kernel_basis([lc], field)
            quartic_restr = fwd.quartic.restrict_to_line(span[0], span[1])
            if not quartic_restr:
                continue
            for fiber_conics in fibers:
                g = quartic_restr
                for fc in fiber_conics:
                    g = binary_gcd(g, fc.restrict_to_line(span[0], span[1]))
                assert g.degree == 2
        checked += 1
    return checked


def test_even_octic_genus3_counts():
    fx = FIXTURES["even"]
    for p in (11, 13):
        F = Field.prime(p)
        model = forward_even(fx.symmetrization(F), fx.quadric(F))
        assert model.branch_reduced
        assert model.octic is not None and model.octic.degree == 8
        from prymcubic.oracle import count_hyperelliptic_octic
        rep = count_hyperelliptic_octic(model.octic, F)
        assert rep.weil_ok


def test_even_octic_twist_is_split_class():
    # the octic equals -(envelope pullback) up to squares: check the square
    # class of the ratio at a probe value
    fx = FIXTURES["even"]
    F = Field.prime(13)
    a = fx.symmetrization(F)
    q = fx.quadric(F)
    model = forward_even(a, q)
    raw = (-model.branch_quartic).substitute(model.parametrization)
    for s in range(13):
        v1 = raw.evaluate([s, 1])
        v2 = model.octic.evaluate([s, 1])
        if v1 and v2:
            assert legendre(v1 / v2) == 1
            break


def test_pullback_identity_second_evaluation_path():
    # sample points: the quartic value equals the dual form evaluated on the
    # conic values taken straight from the tensor contraction
    fx = FIXTURES["t2"]
    for field in (F11, F13):
        a = fx.symmetrization(field)
        q = fx.quadric(field)
        fwd = forward_general(a, q)
        dual_form = q.adjugate().quadratic_form(field, Y4)
        scale = fwd.raw_scale
        rng = random.Random(field.p)
        basis = [[field.element(1 if j == k else 0) for j in range(4)] for k in range(4)]
        for _ in range(20):
            z = [field.random(rng) for _ in range(3)]
            # conic values through the matrix-of-forms view of the tensor
            w = [a.contraction_at(basis[k]).quadratic_form(field, Z3).evaluate(z)
                 for k in range(4)]
            lhs = fwd.quartic.evaluate(z) * scale
            rhs = dual_form.evaluate(w)
            assert lhs == rhs


def test_random_roundtrips_over_f13():
    # random catalecticant webs with random two-term quadrics: whenever the
    # whole pipeline runs, the roundtrip identity must hold exactly
    from prymcubic.symmetroid import hankel_symmetroid
    rng = random.Random(2024)
    successes = 0
    for _ in range(40):
        if successes >= 8:
            break
        coeffs = [rng.randrange(13) for _ in range(4)]
        m = rng.randrange(1, 13)
        a = hankel_symmetroid(F13, coeffs)
        q = quad(F13, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -m})
        try:
            fwd = forward_general(a, q)
            pen = pencil_conics(a, q)
            rev = reverse_construct(
                fwd.quartic if not pen.extended else fwd.quartic.change_field(pen.field),
                pen.conics(), pen.field)
        except PrymError:
            continue
        assert roundtrip_change_matches(a, q, pen, rev)
        successes += 1
    assert successes >= 8


# the nine fixed lines of the certificate that the reducedness decision
# replaced, kept as a reference: a squarefree restriction to one of them
# proves the quartic reduced, and none proves nothing
_NINE_LINES = [
    ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 1, 1)), ((1, 2, 0), (0, 1, 3)), ((1, 0, 2), (2, 1, 0)),
    ((1, 1, 1), (1, 2, 4)), ((1, 3, 2), (0, 1, 5)), ((2, 1, 3), (1, 0, 1)),
]


def _nine_line_certificate(quartic):
    return any(is_squarefree(quartic.restrict_to_line(p0, p1)) for p0, p1 in _NINE_LINES)


def _plane_points(field):
    """The points of P^2 over a prime field, first nonzero coordinate 1."""
    return [v for v in product(range(field.p), repeat=3) if any(v) and next(c for c in v if c) == 1]


def _ternary(field, degree, coeffs):
    """The ternary form of a degree whose coefficients, in the order of
    `itertools.product` over the exponents, are drawn from `coeffs`."""
    exps = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    return HomogPoly(field, Z3, degree, {e: next(coeffs) for e in exps})


def test_one_squarefree_restriction_certifies_a_reduced_quartic():
    # a multiple component G^2 makes (G|L)^2 divide every nonzero
    # restriction, so one squarefree restriction to a line is enough.  Over
    # F_3 the product of four distinct lines is reduced, and every quartic
    # l^2 m n with lines l, m, n is decided not reduced: the nine lines
    # only failed to certify them
    F3 = Field.prime(3)
    lines = [HomogPoly.linear(F3, Z3, v) for v in _plane_points(F3)]
    z0, z1, z2 = (HomogPoly.linear(F3, Z3, [int(i == k) for i in range(3)]) for k in range(3))
    assert _quartic_reduced(z1 * z2 * (z1 + z2) * (z0 + z1 + z2)) is True
    for ell in lines:
        for m, n in combinations_with_replacement(lines, 2):
            assert _quartic_reduced(ell * ell * m * n) is False


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(coeffs=st.lists(st.integers(0, 12), min_size=15, max_size=15))
def test_nine_line_certificate_implies_reduced(p, coeffs):
    quartic = _ternary(Field.prime(p), 4, iter(coeffs))
    if quartic and _nine_line_certificate(quartic):
        assert _quartic_reduced(quartic) is True


@pytest.mark.parametrize("field", [Field.prime(3), Field.prime(5), Field.prime(7), F13, QQ],
                         ids=["F3", "F5", "F7", "F13", "QQ"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(degree=st.integers(1, 2), coeffs=st.lists(st.integers(-3, 3), min_size=21, max_size=21))
def test_a_multiple_component_is_decided_not_reduced(field, degree, coeffs):
    # G^2 H with G a line or a conic
    it = iter(coeffs)
    g, h = _ternary(field, degree, it), _ternary(field, 4 - 2 * degree, it)
    assume(g and h)
    assert _quartic_reduced(g * g * h) is False


def test_reducedness_decided_where_the_nine_lines_refuse():
    # a seeded quartic over F_3 that none of the nine lines restricts
    # squarefree; some line of P^2(F_3) does, so it is reduced
    F3 = Field.prime(3)
    rng = random.Random(69)
    quartic = _ternary(F3, 4, iter(lambda: rng.randrange(3), None))
    assert not _nine_line_certificate(quartic)
    assert _quartic_reduced(quartic) is True
    assert any(is_squarefree(quartic.restrict_to_line(p0, p1))
               for p0, p1 in combinations(_plane_points(F3), 2))


@pytest.mark.parametrize("cube", [1, 2])
def test_reducedness_takes_a_second_centre_in_characteristic_3(cube):
    # z2 times a cubic that the derivative along (1 : 1 : 1) kills: every
    # line through the first centre (1 : 1 : 1) is tangent to the cubic, so
    # the resultant there is zero, yet the quartic is reduced.  With 2 m2^3
    # the quartic vanishes at (1 : 1 : 2) and (1 : 1 : 0), so the next grid
    # point off it is (-2, -2, 1), the first centre again, and is skipped
    F3 = Field.prime(3)
    z0, z1, z2 = (HomogPoly.linear(F3, Z3, [int(i == k) for i in range(3)]) for k in range(3))
    m1, m2 = z0 - z1, z1 - z2
    quartic = z2 * (z2 * z2 * z2 + m1 * m1 * m2 + m1 * m2 * m2 + m2 * m2 * m2 * cube)
    first, second = islice(_centres([quartic]), 2)
    assert [linalg.normalize_point([F3.element(c) for c in frame[2]]) for frame in (first, second)] \
        == [(1, 1, 1), (1, 1, 2) if cube == 1 else (1, 2, 2)]
    moved = _in_frame(quartic, first)
    assert not resultant_last_var(moved, moved.partial(2))
    assert _quartic_reduced(quartic) is True
    assert _nine_line_certificate(quartic)


def test_reducedness_undecided_without_a_centre():
    # the four lines through (0 : 0 : 1) cover P^2(F_3), so no grid point
    # is off the quartic
    F3 = Field.prime(3)
    quartic = HomogPoly(F3, Z3, 4, {(3, 1, 0): 1, (1, 3, 0): -1})
    assert list(_centres([quartic])) == []
    assert _quartic_reduced(quartic) is None


def test_forward_general_decides_reducedness_on_one_line(monkeypatch):
    # on t1 over Q the first line through the first centre is squarefree:
    # one restriction and no resultant
    calls = []
    restrict_to_line = HomogPoly.restrict_to_line

    def counted(self, p0, p1):
        calls.append("restrict")
        return restrict_to_line(self, p0, p1)

    monkeypatch.setattr(HomogPoly, "restrict_to_line", counted)
    monkeypatch.setattr(prym, "resultant_last_var", lambda f, g: calls.append("resultant"))
    fx = FIXTURES["t1"]
    assert forward_general(fx.symmetrization(QQ), fx.quadric(QQ)).reduced is True
    assert calls == ["restrict"]


def test_even_branch_reducedness_without_rational_point():
    # the even-bielliptic conic is pointless over the rationals; reducedness
    # of the branch scheme is still certified by a resultant, projecting
    # from a grid point off both curves
    fx = FIXTURES["even_biell"]
    model = forward_even(fx.symmetrization(QQ), fx.quadric(QQ))
    assert model.octic is None
    assert model.branch_reduced is True
    fx2 = FIXTURES["even"]
    model2 = forward_even(fx2.symmetrization(QQ), fx2.quadric(QQ))
    # this conic has rational points, so the chart path certifies instead
    assert model2.octic is not None and model2.branch_reduced


def test_random_general_webs_roundtrip():
    from prymcubic.symmetroid import Symmetrization
    rng = random.Random(515)
    successes = 0
    for _ in range(60):
        if successes >= 10:
            break
        rows = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                f = HomogPoly.linear(F13, ("x0", "x1", "x2", "x3"),
                                     [F13.random(rng) for _ in range(4)])
                rows[i][j] = rows[j][i] = f
        a = Symmetrization(F13, SymMatrix.from_rows(rows))
        q = quad(F13, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -rng.randrange(1, 13)})
        try:
            fwd = forward_general(a, q)
            pen = pencil_conics(a, q)
            rev = reverse_construct(
                fwd.quartic if not pen.extended else fwd.quartic.change_field(pen.field),
                pen.conics(), pen.field)
        except PrymError:
            continue
        assert roundtrip_change_matches(a, q, pen, rev)
        successes += 1
    assert successes >= 10


# Two pairs over Q whose pencils live in Q(sqrt d), d not an integer, with the
# sha256 of the scene over K = Q(sqrt d) that holds the quartic, the pencil
# and the rebuilt web, and of the repr of the four conics.  The CLI and the
# benchmark write only scenes over Q, so these digests are what pins the
# extension's scalars, reprs and chosen square roots.
_EXTENDED_PAIRS = {
    "84640/1521": (
        [[[-1, 0, 1, 2], [-2, -2, -3, 1], [1, -2, -3, -1]],
         [[-2, -2, -3, 1], [-2, -1, 2, -1], [3, -1, -1, 3]],
         [[1, -2, -3, -1], [3, -1, -1, 3], [1, 2, -1, 3]]],
        {(0, 0, 0, 2): -1, (0, 0, 1, 1): -8, (0, 0, 2, 0): -6, (0, 1, 0, 1): 5,
         (0, 1, 1, 0): 7, (0, 2, 0, 0): -3, (1, 0, 0, 1): 1, (1, 0, 1, 0): -11,
         (1, 1, 0, 0): -8},
        "ef61d9d1a963c57ee17201cc73556eed2c317086961b91d39fa56e82fc97722d",
        "12693a82c295ac9cdd48fd06b1ec7244054203576efa29795283736077152f3a"),
    "-578/11449": (
        [[[-1, -2, -1, 2], [2, 2, 2, 3], [0, -1, -3, -2]],
         [[2, 2, 2, 3], [-2, 1, -2, 3], [0, -3, -3, 2]],
         [[0, -1, -3, -2], [0, -3, -3, 2], [0, 2, -2, 1]]],
        {(0, 0, 0, 2): 3, (0, 0, 1, 1): -4, (0, 0, 2, 0): 2, (0, 1, 0, 1): 9,
         (0, 1, 1, 0): 2, (0, 2, 0, 0): 4, (1, 0, 0, 1): -10, (1, 0, 1, 0): -10,
         (1, 1, 0, 0): -4, (2, 0, 0, 0): -4},
        "b1c649517d4bcfec0db67cc591131de50fdffd95db7c3f71cd59e3b2f1042905",
        "7a1fc9c6e3a15a643c6d9609b1eaa421394ddd58db29e82a1de71a09fd9844cd"),
}


@pytest.mark.parametrize("d", sorted(_EXTENDED_PAIRS), ids=lambda d: d.replace("/", "_over_"))
def test_extended_pencil_scene_bytes_are_pinned(d):
    import hashlib
    from prymcubic import scene
    rows, qterms, digest, conics_digest = _EXTENDED_PAIRS[d]
    a = Symmetrization.from_entry_rows(QQ, rows)
    q = quad(QQ, qterms)
    pen = pencil_conics(a, q)
    K = pen.field
    assert pen.extended and K == QQ.quadratic_extension(Fraction(d))
    quartic = forward_general(a, q).quartic.change_field(K)
    rev = reverse_construct(quartic, pen.conics(), K)
    assert roundtrip_change_matches(a, q, pen, rev)
    sc = scene.Scene(K, metadata={"d": d})
    sc.add("X", quartic).add("K", (pen.conics(), quartic)).add("A", rev.symmetrization)
    text = scene.write_scene(sc)
    assert scene.write_scene(scene.parse_scene(text)) == text
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert hashlib.sha256(repr(list(pen.conics())).encode()).hexdigest() == conics_digest
