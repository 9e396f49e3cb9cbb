import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic import linalg, symmetroid
from prymcubic.binforms import pencil_determinant_raw
from prymcubic.elim import resultant_last_var
from prymcubic.fields import Field, QQ, QuadExtField, is_prime
from prymcubic.oracle import compile_raw, projective_points, projective_points_raw
from prymcubic.poly import HomogPoly, SymMatrix, proportional
from prymcubic.quadrics import factor_rank_le2, multiple_members
from prymcubic.symmetroid import (Symmetrization, SymmetroidError, SymmetroidType,
                                  cayley_normal_form, hankel_symmetroid,
                                  quotient_plane_form)
from test_binforms import multiplicity_partition
from test_field_properties import CASES

F11 = Field.prime(11)
F13 = Field.prime(13)
X4 = ("x0", "x1", "x2", "x3")
Z3 = ("z0", "z1", "z2")

E0 = [1, 0, 0, 0]
E1 = [0, 1, 0, 0]
E2 = [0, 0, 1, 0]
E3 = [0, 0, 0, 1]
ZERO = [0, 0, 0, 0]


def neg(v):
    return [-c for c in v]


NORMAL_FORMS = {
    SymmetroidType.T1: [[E0, E3, E3], [E3, E1, E3], [E3, E3, E2]],
    SymmetroidType.T2: [[E0, E3, neg(E3)], [E3, E1, ZERO], [neg(E3), ZERO, E2]],
    SymmetroidType.T3: [[E0, E2, ZERO], [E2, E1, E3], [ZERO, E3, neg(E2)]],
    SymmetroidType.T4: [[E0, neg(E3), E2], [neg(E3), E1, E3], [E2, E3, ZERO]],
    SymmetroidType.T5: [[ZERO, E2, E0], [E2, neg(E0), E3], [E0, E3, E1]],
    SymmetroidType.T6: [[ZERO, E1, E3], [E1, ZERO, E2], [E3, E2, E0]],
    SymmetroidType.T7: [[E0, ZERO, ZERO], [ZERO, E1, E3], [ZERO, E3, E2]],
    SymmetroidType.T8: [[ZERO, ZERO, E2], [ZERO, E0, E3], [E2, E3, E1]],
}


def build(field, rows):
    return Symmetrization.from_entry_rows(field, rows)


def fix_a(field):
    return build(field, NORMAL_FORMS[SymmetroidType.T1])


def diag_degenerate(field):
    return build(field, [[E0, ZERO, ZERO], [ZERO, E1, ZERO], [ZERO, ZERO, E2]])


def test_determinant_cubic_examples():
    a = fix_a(QQ)
    det = a.determinant_cubic()
    expected = HomogPoly(QQ, X4, 3, {(1, 1, 1, 0): 1, (0, 0, 0, 3): 2,
                                     (1, 0, 0, 2): -1, (0, 1, 0, 2): -1, (0, 0, 1, 2): -1})
    assert det == expected
    t7 = build(QQ, NORMAL_FORMS[SymmetroidType.T7])
    det7 = t7.determinant_cubic()
    blk = HomogPoly(QQ, X4, 3, {(1, 1, 1, 0): 1, (1, 0, 0, 2): -1})
    assert det7 == blk
    assert diag_degenerate(QQ).determinant_cubic() == HomogPoly(QQ, X4, 3, {(1, 1, 1, 0): 1})


def test_contraction_kernel():
    assert fix_a(QQ).contraction_kernel() == []
    k = diag_degenerate(QQ).contraction_kernel()
    assert len(k) == 1 and proportional(
        HomogPoly.linear(QQ, X4, k[0]), HomogPoly.linear(QQ, X4, [0, 0, 0, 1]))
    zero = build(QQ, [[ZERO] * 3] * 3)
    assert len(zero.contraction_kernel()) == 4
    # 6x4 coefficient matrix of the quadric vector has rank 4
    assert linalg.rank(fix_a(QQ).coefficient_matrix()) == 4


def test_gauss_quadrics_examples():
    qs = fix_a(QQ).gauss_quadrics()
    assert qs[0] == HomogPoly(QQ, Z3, 2, {(2, 0, 0): 1})
    assert qs[3] == HomogPoly(QQ, Z3, 2, {(1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2})
    qs6 = build(QQ, NORMAL_FORMS[SymmetroidType.T6]).gauss_quadrics()
    assert qs6[0] == HomogPoly(QQ, Z3, 2, {(0, 0, 2): 1})
    assert qs6[1] == HomogPoly(QQ, Z3, 2, {(1, 1, 0): 2})
    assert qs6[2] == HomogPoly(QQ, Z3, 2, {(0, 1, 1): 2})
    assert qs6[3] == HomogPoly(QQ, Z3, 2, {(1, 0, 1): 2})
    # pullback of a dual form recovers the conic of its matrix
    a = fix_a(F11)
    v = [F11.element(c) for c in (3, 1, 4, 5)]
    conic = a.contraction_at(v).quadratic_form(F11, Z3)
    pullback = None
    for c, q in zip(v, a.gauss_quadrics()):
        t = q * c
        pullback = t if pullback is None else pullback + t
    assert pullback == conic


def test_annihilation_exact_random():
    rng = random.Random(23)
    for field, trials in ((F11, 60), (QQ, 10)):
        for _ in range(trials):
            rows = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    f = HomogPoly.linear(field, X4, [field.random(rng) for _ in range(4)])
                    rows[i][j] = rows[j][i] = f
            a = Symmetrization(field, SymMatrix.from_rows(rows))
            try:
                assert a.annihilation_holds()
            except SymmetroidError:
                pass  # identically-zero adjugate: nothing to check


def test_adjugate_lands_on_symmetroid():
    for field in (QQ, F11):
        a = fix_a(field)
        det = a.determinant_cubic()
        cub = a.adjugate_cubics()
        comp = det.substitute(cub)
        assert not comp


# the scalar cases of the field properties, and F_3
WEB_FIELDS = dict(CASES, F3=(lambda: Field.prime(3), st.integers(0, 2)))


@pytest.mark.parametrize("name", sorted(WEB_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_adjugate_lands_on_symmetroid_of_random_webs(name, data):
    # B(z) x = A(x) z, so A(adj(z)) has z in its kernel: det(A(adj(z))) = 0
    # for every symmetric 3x3 matrix of linear forms
    make, raw = WEB_FIELDS[name]
    field = make()
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            coeffs = [field.element(data.draw(raw)) for _ in range(4)]
            rows[i][j] = rows[j][i] = HomogPoly.linear(field, X4, coeffs)
    a = Symmetrization(field, SymMatrix.from_rows(rows))
    try:
        cub = a.adjugate_cubics()
    except SymmetroidError:
        return  # the adjugation map vanishes identically: nothing to check
    assert not a.determinant_cubic().substitute(cub)


def test_gauss_identity_types_1_to_6():
    for tag in (SymmetroidType.T1, SymmetroidType.T2, SymmetroidType.T3,
                SymmetroidType.T4, SymmetroidType.T5, SymmetroidType.T6):
        a = build(F11, NORMAL_FORMS[tag])
        det = a.determinant_cubic()
        cub = a.adjugate_cubics()
        composed = [g.substitute(cub) for g in det.gradient()]
        qs = a.gauss_quadrics()
        for i in range(4):
            for j in range(i + 1, 4):
                assert composed[i] * qs[j] == composed[j] * qs[i]


def test_type7_adjugate_image_is_singular_conic():
    a = build(QQ, NORMAL_FORMS[SymmetroidType.T7])
    cub = a.adjugate_cubics()
    # singular locus of the block cubic: x0 = 0, x1 x2 = x3^2
    x0 = HomogPoly.linear(QQ, X4, [1, 0, 0, 0])
    q = HomogPoly(QQ, X4, 2, {(0, 1, 1, 0): 1, (0, 0, 0, 2): -1})
    assert not x0.substitute(cub)
    assert not q.substitute(cub)


def test_classification_normal_forms():
    # over F_p and F_{p^2} alike, T5-T8 are cross-checked with plane factors
    extensions = [Field.prime(p).quadratic_extension(d) for p, d in ((7, 3), (11, 2), (13, 2))]
    for field in [F11, F13] + extensions:
        for tag, rows in NORMAL_FORMS.items():
            assert build(field, rows).classify() == tag
    for tag in (SymmetroidType.T1, SymmetroidType.T2, SymmetroidType.T3,
                SymmetroidType.T4, SymmetroidType.T5):
        assert build(QQ, NORMAL_FORMS[tag]).classify() == tag
    # over Q the reducible answers may be refined or unclassified, never wrong
    for tag in (SymmetroidType.T6, SymmetroidType.T7, SymmetroidType.T8):
        got = build(QQ, NORMAL_FORMS[tag]).classify()
        assert got in (tag, SymmetroidType.REDUCIBLE_UNCLASSIFIED)


def test_rank_one_scheme_examples():
    assert fix_a(F11).rank_one_scheme().partition == [1, 1, 1, 1]
    s3 = build(F11, NORMAL_FORMS[SymmetroidType.T3]).rank_one_scheme()
    assert s3.partition == [3, 1]
    s7 = build(F11, NORMAL_FORMS[SymmetroidType.T7]).rank_one_scheme()
    assert s7.positive_dimensional
    with pytest.raises(SymmetroidError):
        diag_degenerate(QQ).rank_one_scheme()


def test_classify_degenerate():
    assert diag_degenerate(QQ).classify() == SymmetroidType.DEGENERATE_SINGULAR
    # generic three-conic pencil: smooth plane cubic base
    rows = [[E0, E2, ZERO], [E2, E1, E2], [ZERO, E2, [1, 1, 0, 0]]]
    a = build(QQ, rows)
    assert len(a.contraction_kernel()) == 1
    e = a.project_from_vertex()
    assert e.cubic.degree == 3 and len(e.cubic.vars) == 3
    got = a.classify()
    assert got in (SymmetroidType.DEGENERATE_CONE, SymmetroidType.DEGENERATE_SINGULAR)
    assert got == (SymmetroidType.DEGENERATE_CONE if e.smooth
                   else SymmetroidType.DEGENERATE_SINGULAR)
    with pytest.raises(SymmetroidError):
        fix_a(QQ).project_from_vertex()
    det_sym = linalg.det(e.sym.rows())
    assert proportional(det_sym, e.cubic)


# a cone over F_11 whose projected cubic 10 w0^3 + 3 w0^2 w2 has dependent
# partials (no w1 partial at all)
DEPENDENT_PARTIALS_CONE = [[ZERO, [6, 0, 0, 0], [2, 0, 0, 0]],
                           [[6, 0, 0, 0], [8, 0, 0, 0], [0, 9, 1, 0]],
                           [[2, 0, 0, 0], [0, 9, 1, 0], [8, 6, 7, 5]]]


def test_classify_cone_with_dependent_partials():
    a = build(Field.prime(11), DEPENDENT_PARTIALS_CONE)
    assert len(a.contraction_kernel()) == 1
    assert not a.project_from_vertex().smooth
    assert a.classify() == SymmetroidType.DEGENERATE_SINGULAR


def test_double_cover_minors():
    a = fix_a(QQ)
    m12, m13, m23, cert = a.double_cover_minors()
    assert cert
    assert m12 == HomogPoly(QQ, X4, 2, {(0, 0, 0, 2): 1, (1, 1, 0, 0): -1})
    assert m13 == HomogPoly(QQ, X4, 2, {(0, 0, 0, 2): 1, (1, 0, 1, 0): -1})
    assert m23 == HomogPoly(QQ, X4, 2, {(0, 0, 0, 2): 1, (0, 1, 1, 0): -1})
    d = diag_degenerate(QQ)
    n12, n13, n23, cert2 = d.double_cover_minors()
    assert cert2
    assert n12 == HomogPoly(QQ, X4, 2, {(1, 1, 0, 0): -1})
    # identity matrix times x0: cover split everywhere
    i0 = build(QQ, [[E0, ZERO, ZERO], [ZERO, E0, ZERO], [ZERO, ZERO, E0]])
    s12, s13, s23, cert3 = i0.double_cover_minors()
    assert cert3
    for m in (s12, s13, s23):
        assert m == HomogPoly(QQ, X4, 2, {(2, 0, 0, 0): -1})


def test_minor_relation_random():
    rng = random.Random(31)
    for _ in range(40):
        rows = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                f = HomogPoly.linear(F13, X4, [F13.random(rng) for _ in range(4)])
                rows[i][j] = rows[j][i] = f
        a = Symmetrization(F13, SymMatrix.from_rows(rows))
        m12, m13, m23, cert = a.double_cover_minors()
        assert cert
        # the minors read off the adjugate, against the 2x2 minors expanded
        # by hand
        e = a.matrix.at
        assert m12 == e(0, 1) * e(0, 1) - e(0, 0) * e(1, 1)
        assert m13 == e(0, 2) * e(0, 2) - e(0, 0) * e(2, 2)
        assert m23 == e(1, 2) * e(1, 2) - e(1, 1) * e(2, 2)


def test_prym_canonical_point():
    a = fix_a(F11)
    det = a.determinant_cubic()
    # search a rank-2 point on the symmetroid over F_11
    found = None
    for x1 in range(11):
        for x2 in range(11):
            for x3 in range(11):
                p = [F11.one(), F11.element(x1), F11.element(x2), F11.element(x3)]
                if det.evaluate(p):
                    continue
                if linalg.rank(a.contraction_at(p).rows()) == 2:
                    found = p
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    z = a.prym_canonical_point(found)
    cub = a.adjugate_cubics()
    image = [c.evaluate(z) for c in cub]
    assert proportional(HomogPoly.linear(F11, X4, image),
                        HomogPoly.linear(F11, X4, found))
    # a node has rank 1: rejected
    with pytest.raises(SymmetroidError):
        a.prym_canonical_point([F11.one(), F11.zero(), F11.zero(), F11.zero()])
    # off the surface: det = 1 + 16 - 12 = 5 mod 11, rejected
    with pytest.raises(SymmetroidError):
        a.prym_canonical_point([F11.one(), F11.one(), F11.one(), F11.element(2)])


def test_birationality_sample():
    rng = random.Random(91)
    for tag in (SymmetroidType.T1, SymmetroidType.T2, SymmetroidType.T3,
                SymmetroidType.T4, SymmetroidType.T5):
        a = build(F13, NORMAL_FORMS[tag])
        det = a.determinant_cubic()
        cub = a.adjugate_cubics()
        hits = 0
        tries = 0
        while hits < 20 and tries < 4000:
            tries += 1
            p = [F13.one()] + [F13.random(rng) for _ in range(3)]
            if det.evaluate(p):
                continue
            if linalg.rank(a.contraction_at(p).rows()) != 2:
                continue
            z = a.prym_canonical_point(p)
            image = [c.evaluate(z) for c in cub]
            if not any(image):
                continue  # base point of the cubic map; undefined there
            assert proportional(HomogPoly.linear(F13, X4, image),
                                HomogPoly.linear(F13, X4, p))
            hits += 1
        assert hits == 20


def test_hankel_fix_h():
    h = hankel_symmetroid(QQ, [-1, 0, 0, 0])
    m = h.matrix
    assert m.at(2, 2) == HomogPoly.linear(QQ, X4, [1, 0, 0, 0])
    assert m.at(0, 0) == HomogPoly.linear(QQ, X4, [1, 0, 0, 0])
    assert m.at(1, 2) == HomogPoly.linear(QQ, X4, [0, 0, 0, 1])
    det = h.determinant_cubic()
    grad = det.gradient()
    for t in (QQ.element(1), QQ.element(-1)):
        pt = [QQ.one(), t, t * t, t * t * t]
        assert all(not g.evaluate(pt) for g in grad)
    # over F_13, i = 5 is a 4th root of unity
    h13 = hankel_symmetroid(F13, [-1, 0, 0, 0])
    g13 = h13.determinant_cubic().gradient()
    for t in (F13.element(1), F13.element(12), F13.element(5), F13.element(8)):
        pt = [F13.one(), t, t * t, t * t * t]
        assert all(not g.evaluate(pt) for g in g13)


def test_hankel_classification_table():
    shapes = {
        SymmetroidType.T1: [-1, 0, 0, 0],            # t^4 - 1 separable
        SymmetroidType.T2: [0, 0, 1, 0],             # t^2 (t^2 + 1)
        SymmetroidType.T3: [0, 0, 0, -1],            # t^3 (t - 1)
        SymmetroidType.T4: [1, 0, 2, 0],             # (t^2 + 1)^2
        SymmetroidType.T5: [0, 0, 0, 0],             # t^4
    }
    for field in (F11, F13):
        for tag, coeffs in shapes.items():
            assert hankel_symmetroid(field, coeffs).classify() == tag
    assert hankel_symmetroid(QQ, [-1, 0, 0, 0]).classify() == SymmetroidType.T1
    assert hankel_symmetroid(F13, [-1, 0, 0, 0]).classify() == SymmetroidType.T1


def test_cayley_normal_form_standard_model():
    # roots {0, 1, -1, 2}: f = t^4 - 2t^3 - t^2 + 2t; Lagrange-style h gives
    # the standard four-term cubic
    f = [0, 2, -1, -2]

    def lagrange_h():
        import fractions
        roots = [0, 1, -1, 2]
        cols = []
        for j, rj in enumerate(roots):
            num = [fractions.Fraction(1)]
            den = fractions.Fraction(1)
            for i, ri in enumerate(roots):
                if i == j:
                    continue
                num = [c * fractions.Fraction(-ri) for c in num] + [fractions.Fraction(0)]
                num = [a + b for a, b in zip(num, [fractions.Fraction(0)] + num[:-1])] if False else num
                den *= (rj - ri)
            # multiply linear factors properly
            poly = [fractions.Fraction(1)]
            for i, ri in enumerate(roots):
                if i == j:
                    continue
                poly = [fractions.Fraction(0)] + poly
                poly = [a - fractions.Fraction(ri) * b
                        for a, b in zip(poly, poly[1:] + [fractions.Fraction(0)])] if False else poly
            # direct expansion
            poly = [fractions.Fraction(1)]
            for i, ri in enumerate(roots):
                if i == j:
                    continue
                poly = [fractions.Fraction(0)] + poly
                lower = [-fractions.Fraction(ri) * c for c in poly[1:]] + [fractions.Fraction(0)]
                poly = [a + b for a, b in zip(poly, lower)]
            cols.append([c / den for c in poly])
        return cols

    h = lagrange_h()
    cubic = cayley_normal_form(QQ, f, h)
    target = HomogPoly(QQ, X4, 3, {(1, 1, 1, 0): 1, (1, 1, 0, 1): 1,
                                   (1, 0, 1, 1): 1, (0, 1, 1, 1): 1})
    assert proportional(cubic, target)


def test_cayley_normal_form_singular_points():
    f = [0, 2, -1, -2]  # roots 0, 1, -1, 2
    h = quotient_plane_form(QQ, f)
    cubic = cayley_normal_form(QQ, f, h)
    grad = cubic.gradient()
    for t in (0, 1, -1, 2):
        te = QQ.element(t)
        pt = [QQ.one(), te, te * te, te * te * te]
        assert all(not g.evaluate(pt) for g in grad)


def test_cayley_normal_form_scaling_covariance():
    f = [0, 2, -1, -2]
    h = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    c1 = cayley_normal_form(QQ, f, h)
    h2 = [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]
    c2 = cayley_normal_form(QQ, f, h2)
    assert proportional(c1, c2)
    with pytest.raises(SymmetroidError):
        cayley_normal_form(QQ, [0, 0, 0, 0], h)


def test_zero_web_adjugate_flagged():
    zero = build(QQ, [[ZERO] * 3] * 3)
    with pytest.raises(SymmetroidError):
        zero.adjugate_cubics()
    # the identically-zero determinant is flagged, not typed
    assert zero.classify() == SymmetroidType.REDUCIBLE_UNCLASSIFIED


def test_adjugate_cubics_cached_and_error_repeated():
    a = fix_a(F11)
    assert a.adjugate_cubics() is a.adjugate_cubics()
    zero = build(QQ, [[ZERO] * 3] * 3)
    for _ in range(2):
        with pytest.raises(SymmetroidError, match="vanishes identically"):
            zero.adjugate_cubics()


def plane_bases(field):
    """Every plane of P^3 over F_p in projective_points_raw order, with the
    basis e_i - ell_i e_k (i != k, ell_k = 1) of its points."""
    p = field.p
    planes = []
    for ell in projective_points_raw(field, 3):
        k = next(i for i, c in enumerate(ell) if c)
        planes.append((ell, [tuple(1 if m == i else -ell[i] % p if m == k else 0
                                   for m in range(4)) for i in range(4) if i != k]))
    return planes


def exhaustive_plane_factors(cubic, field, planes):
    """Reference: the planes where the cubic vanishes at the three basis
    points and their four sums, confirmed by exact division.  The evaluator
    is memoized because the basis points of different planes repeat."""
    p = field.p
    ev = lru_cache(maxsize=None)(compile_raw(cubic))
    out = []
    for ell, basis in planes:
        if any(ev(b) for b in basis):
            continue
        sums = (tuple(sum(cs) % p for cs in zip(*combo))
                for r in (2, 3) for combo in combinations(basis, r))
        if any(ev(pt) for pt in sums):
            continue
        coeffs = tuple(field.element(c) for c in ell)
        quad = cubic.divide_linear(HomogPoly.linear(field, cubic.vars, coeffs))
        if quad is not None:
            out.append((coeffs, quad))
    return out


def random_form(field, rng, degree):
    mons = [tuple(m.count(i) for i in range(4))
            for m in combinations_with_replacement(range(4), degree)]
    return HomogPoly(field, X4, degree, {m: field.random(rng) for m in mons})


@pytest.mark.parametrize("p", [p for p in range(3, 32) if is_prime(p)])
def test_plane_factors_match_exhaustive_scan(p):
    F = Field.prime(p)
    cubics = [build(F, rows).determinant_cubic() for rows in NORMAL_FORMS.values()]
    rng = random.Random(p)
    for _ in range(2):
        l1, l2, l3 = (random_form(F, rng, 1) for _ in range(3))
        cubics += [l1 * random_form(F, rng, 2), l1 * l2 * l3, l1 * l1 * l2, l1 * l1 * l1,
                   l1 * random_form(F, rng, 2) + l2 * l2 * l3]
    planes = plane_bases(F)
    for cubic in cubics:
        if cubic:
            assert symmetroid._plane_factors(cubic, F) == exhaustive_plane_factors(cubic, F, planes)


def test_plane_factors_when_off_surface_points_lie_in_a_plane():
    # x1 (x0 - x1) (x0 + x1) vanishes at every F_3-point with x0 != 0, so the
    # points off the surface lie in the plane x0 = 0 and do not span P^3
    F3 = Field.prime(3)
    cubic = HomogPoly(F3, X4, 3, {(2, 1, 0, 0): 1, (0, 3, 0, 0): -1})
    factors = symmetroid._plane_factors(cubic, F3)
    assert factors == exhaustive_plane_factors(cubic, F3, plane_bases(F3))
    assert [tuple(c.val for c in ell) for ell, _ in factors] == [
        (1, 1, 0, 0), (1, 2, 0, 0), (0, 1, 0, 0)]
    for ell, quad in factors:
        assert HomogPoly.linear(F3, X4, list(ell)) * quad == cubic


def test_normal_forms_classify_at_a_large_prime():
    F = Field.prime(10007)
    for tag, rows in NORMAL_FORMS.items():
        assert build(F, rows).classify() == tag



def random_web_rows(rng, p):
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            rows[i][j] = rows[j][i] = [rng.randrange(p) for _ in range(4)]
    return rows


def finest_projected_partition(k1, k2, centres):
    """Reference: the finest root-multiplicity partition of the resultant of
    two conics projected from centres off both.  Projection from c merges the
    intersection points on one line through c, so a centre on no line
    through two of them gives the true partition."""
    best = None
    for c in centres:
        if not k1.evaluate(c) or not k2.evaluate(c):
            continue
        j = next(i for i, ci in enumerate(c) if ci)
        i0, i1 = [i for i in range(3) if i != j]
        basis = [HomogPoly.linear(k1.field, k1.vars, [int(k == i0), int(k == i1), c[k]])
                 for k in range(3)]
        part = multiplicity_partition(
            resultant_last_var(k1.substitute(basis), k2.substitute(basis)))
        if best is None or len(part) > len(best):
            best = part
            if len(best) == 4:
                break
    return best


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_one_partition_matches_projections_over_the_quadratic_extension(p):
    F = Field.prime(p)
    ext = F.quadratic_extension(next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) != 1))
    centres = [list(pt) for pt in projective_points(ext, 2)]
    random.Random(0).shuffle(centres)
    centres = centres[:91]  # all of P^2(F_9); a sample of P^2(F_25), P^2(F_49)
    rng = random.Random(p)
    compared = set()
    for _ in range(100):
        a = build(F, random_web_rows(rng, p))
        if a.is_degenerate():
            continue
        scheme = a.rank_one_scheme()
        if scheme.positive_dimensional:
            continue
        k1, k2 = (k.change_field(ext) for k in scheme.conics)
        assert scheme.partition == finest_projected_partition(k1, k2, centres)
        compared.add(tuple(scheme.partition))
    assert {(1, 1, 1, 1), (2, 1, 1)} <= compared


W3 = ("w0", "w1", "w2")


def _rank_one_conics_reference(a):
    """The two conics of the double-line locus: the functionals on conic
    coefficients that kill the web, applied to the square of a line."""
    field = a.field
    functionals = linalg.kernel_basis(linalg.transpose(a.coefficient_matrix()), field)
    assert len(functionals) == 2
    entries = [tuple(i for i in range(3) for _ in range(mon[i]))
               for mon in symmetroid.CONIC_MONOMIALS]
    return [SymMatrix(3, zip(entries, f)).quadratic_form(field, W3) for f in functionals]


def _common_rational_line_reference(k1, k2, field):
    """First step of the two-step path: a common linear factor of the two
    conics, with both cofactors, searched for whenever neither conic has
    rank 3."""
    assert not proportional(k1, k2)
    m1 = SymMatrix.from_quadratic_form(k1)
    m2 = SymMatrix.from_quadratic_form(k2)
    if m1.rank() == 3 or m2.rank() == 3:
        return None
    pair = factor_rank_le2(m1, field, W3)
    candidates = []
    if pair is not None and not pair.extended:
        if pair.kind == "double":
            candidates = [pair.h1]
        elif pair.kind == "pair":
            candidates = [pair.h1, pair.h2]
    for line in candidates:
        res2 = k2.divide_linear(line)
        if res2 is not None:
            return line, k1.divide_linear(line), res2
    return None


def _conic_intersection_partition_reference(k1, k2, field):
    """Second step: the partition read from the pencil's multiple members."""
    m1, m2 = SymMatrix.from_quadratic_form(k1), SymMatrix.from_quadratic_form(k2)
    members = multiple_members(m1, m2, pencil_determinant_raw(m1, m2, field), field)
    if members is None:
        return [4]
    if not members:
        return [1, 1, 1, 1]
    mult, _, member = members[0]
    return {(2, 2): [2, 1, 1], (2, 1): [2, 2], (3, 2): [3, 1], (3, 1): [4]}[mult, member.rank()]


def _rank_one_reference(a):
    """(conics, positive_dimensional, partition, common_line, residual_point)
    by the two-step path: the common line first, then the pencil."""
    k1, k2 = _rank_one_conics_reference(a)
    common = _common_rational_line_reference(k1, k2, a.field)
    if common is not None:
        line, res1, res2 = common
        cross = linalg.cross(res1.linear_coeffs(), res2.linear_coeffs())
        pt = linalg.normalize_point(cross) if any(cross) else None
        return (k1, k2), True, None, line, pt
    return (k1, k2), False, _conic_intersection_partition_reference(k1, k2, a.field), None, None


def _assert_rank_one_matches_reference(a):
    scheme = a.rank_one_scheme()
    got = (scheme.conics, scheme.positive_dimensional, scheme.partition,
           scheme.common_line, scheme.residual_point)
    assert got == _rank_one_reference(a)
    return scheme


# F_3, F_5, F_101, F_9 = F_3(sqrt 2), Q and Q(sqrt 5), with small entries
# drawn so that webs with a double-line component come up often
RANK_ONE_FIELDS = {
    "F3": lambda: Field.prime(3),
    "F5": lambda: Field.prime(5),
    "F101": lambda: Field.prime(101),
    "F9": lambda: Field.prime(3).quadratic_extension(2),
    "QQ": lambda: QQ,
    "Q(sqrt5)": lambda: QQ.quadratic_extension(5),
}


def _draw_web(data, field):
    if data.draw(st.booleans()):
        rows = data.draw(st.sampled_from([NORMAL_FORMS[tag] for tag in sorted(NORMAL_FORMS)]))
        return build(field, rows)
    small = st.integers(-2, 2)
    scalar = st.tuples(small, small) if isinstance(field, QuadExtField) else small
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            coeffs = [field.element(data.draw(scalar)) if data.draw(st.integers(0, 2)) == 0
                      else field.zero() for _ in range(4)]
            rows[i][j] = rows[j][i] = HomogPoly.linear(field, X4, coeffs)
    return Symmetrization(field, SymMatrix.from_rows(rows))


@pytest.mark.parametrize("name", sorted(RANK_ONE_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_rank_one_scheme_matches_the_two_step_reference(name, data):
    a = _draw_web(data, RANK_ONE_FIELDS[name]())
    if a.is_degenerate():
        with pytest.raises(SymmetroidError):
            a.rank_one_scheme()
        return
    _assert_rank_one_matches_reference(a)


@pytest.mark.parametrize("name", sorted(RANK_ONE_FIELDS))
def test_rank_one_scheme_of_the_normal_forms_matches_the_reference(name):
    field = RANK_ONE_FIELDS[name]()
    shapes = {}
    for tag, rows in NORMAL_FORMS.items():
        scheme = _assert_rank_one_matches_reference(build(field, rows))
        shapes[tag] = scheme.positive_dimensional or tuple(scheme.partition)
    assert shapes[SymmetroidType.T7] is True and shapes[SymmetroidType.T8] is True
    assert shapes[SymmetroidType.T5] == shapes[SymmetroidType.T6] == (4,)


def test_every_random_web_over_f3_is_classified():
    # F_3 is an odd prime field, so every web over it gets a tag
    F3 = Field.prime(3)
    rng = random.Random(2026)
    tags = {build(F3, random_web_rows(rng, 3)).classify() for _ in range(300)}
    assert {SymmetroidType.T1, SymmetroidType.T2, SymmetroidType.DEGENERATE_CONE,
            SymmetroidType.DEGENERATE_SINGULAR} <= tags


def test_fixtures_classify_to_their_expected_type():
    from prymcubic.fixtures import FIXTURES, TEST_PRIMES

    for field in [QQ] + [Field.prime(p) for p in TEST_PRIMES]:
        got = {name: fx.symmetrization(field).classify() for name, fx in FIXTURES.items()}
        assert got == {name: fx.expected_type for name, fx in FIXTURES.items()}, field


def test_fixtures_are_the_documented_symmetroids():
    # the provenance in the fixtures docstring, checked against the manifest
    from prymcubic.fixtures import FIXTURES, fix_a, fix_h

    for name, lower in (("t1", [2, 1, 0, 1]), ("t2", [1, -2, 2, -2]),
                        ("t3", [2, -7, 9, -5])):
        assert FIXTURES[name].symmetrization().matrix == hankel_symmetroid(QQ, lower).matrix
    assert fix_h().matrix == hankel_symmetroid(QQ, [-1, 0, 0, 0]).matrix
    seed = Symmetrization.from_entry_rows(QQ, [[E0, E3, E3], [E3, E1, E3], [E3, E3, E2]])
    assert fix_a().matrix == seed.matrix
    biell = Symmetrization.from_entry_rows(
        QQ, [[E0, E2, ZERO], [E2, E1, E2], [ZERO, E2, [1, 1, 0, 0]]])
    assert FIXTURES["biell"].symmetrization().matrix == biell.matrix
    quadrics = {
        "seed": {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1},
        "t1": {(1, 1, 0, 0): 1, (0, 0, 1, 1): 3},
        "t2": {(1, 1, 0, 0): 1, (0, 0, 1, 1): -2},
        "t3": {(1, 1, 0, 0): 1, (0, 0, 1, 1): -2},
        "biell": {(2, 0, 0, 0): 1, (0, 2, 0, 0): -4, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1},
        "even": {(2, 0, 0, 0): 1, (0, 2, 0, 0): -2, (0, 0, 2, 0): 3},
        "even_biell": {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (1, 1, 0, 0): -2,
                       (0, 0, 2, 0): 2, (0, 0, 0, 2): 1},
    }
    assert {name: fx.quadric_form() for name, fx in FIXTURES.items()} == {
        name: HomogPoly(QQ, X4, 2, terms) for name, terms in quadrics.items()}
    # every call builds its own object, so no memoised state is shared
    assert fix_a() is not fix_a() and fix_a(F11) is not fix_a(F11)
