import random

import pytest
from hypothesis import given, strategies as st

from prymcubic.binforms import resultant
from prymcubic.elim import plane_cubic_is_smooth, resultant3_quadrics, resultant_last_var
from prymcubic.fields import Field, QQ
from prymcubic.oracle import projective_points
from prymcubic.poly import HomogPoly
from prymcubic import linalg
from test_linalg import PROPERTY, _laplace_on_elements

F11 = Field.prime(11)
F13 = Field.prime(13)
W3 = ("w0", "w1", "w2")


def cubic(field, terms):
    return HomogPoly(field, W3, 3, terms)


def test_fermat_cubic_smooth():
    for F in (QQ, F11, F13):
        f = cubic(F, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        assert plane_cubic_is_smooth(f)


def test_triangle_singular():
    for F in (QQ, F11):
        f = cubic(F, {(1, 1, 1): 1})
        assert not plane_cubic_is_smooth(f)


def test_nodal_cubic_singular():
    # w1^2 w2 = w0^3 + w0^2 w2 has a node at (0:0:1)
    for F in (QQ, F13):
        f = cubic(F, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})
        assert not plane_cubic_is_smooth(f)


def test_cuspidal_cubic_singular():
    f = cubic(QQ, {(0, 2, 1): 1, (3, 0, 0): -1})
    assert not plane_cubic_is_smooth(f)


def test_resultant_vs_brute_force_over_f11():
    rng = random.Random(17)
    pts = []
    for a in range(11):
        for b in range(11):
            pts.append((F11.element(1), F11.element(a), F11.element(b)))
    for b in range(11):
        pts.append((F11.zero(), F11.one(), F11.element(b)))
    pts.append((F11.zero(), F11.zero(), F11.one()))
    for _ in range(12):
        qs = []
        for _ in range(3):
            terms = {}
            for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
                terms[e] = F11.random(rng)
            qs.append(HomogPoly(F11, W3, 2, terms))
        common_fp = any(all(not q.evaluate(p) for q in qs) for p in pts)
        r = resultant3_quadrics(qs)
        if common_fp:
            assert not r
        # nonvanishing resultant certainly means no common F_11 point
        if r:
            assert not common_fp


def test_smooth_cubics_with_extension_singularities():
    # three conjugate lines: norm-form style cubic over F_11, singular over F_11^3
    # w0^3 + 2 w1^3 factors with all pairwise intersections at (0:0:1)... that
    # point is rational; use instead a cubic singular only at conjugate points:
    # (w0^2 - 2 w1^2) * w2 has singular points where w0^2 = 2 w1^2, w2 = 0 --
    # defined over F_11(sqrt 2), not over F_11.
    f = cubic(F11, {(2, 0, 1): 1, (0, 2, 1): -2})
    assert not plane_cubic_is_smooth(f)


def test_disc_agrees_with_pointwise_oracle():
    # cross-validate the resultant invariant against rational-point gradient
    # checks on the cone bases of the shipped degenerate fixtures
    from prymcubic.fixtures import FIXTURES
    from prymcubic.oracle import projective_points
    from prymcubic import linalg
    for p in (11, 13):
        F = Field.prime(p)
        e = FIXTURES["biell"].symmetrization(F).project_from_vertex()
        assert e.smooth
        grad = e.cubic.gradient()
        for pt in projective_points(F, 2):
            if e.cubic.evaluate(list(pt)):
                continue
            assert any(g.evaluate(list(pt)) for g in grad)
    # and a singular cone base: every discriminant zero has a witness shape
    tri = HomogPoly(F11, W3, 3, {(1, 1, 1): 1})
    assert not plane_cubic_is_smooth(tri)
    found = False
    for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        pe = [F11.element(c) for c in pt]
        if not tri.evaluate(pe) and not any(g.evaluate(pe) for g in tri.gradient()):
            found = True
    assert found


def _random_form(field, degree, rng):
    terms = {(i, j, degree - i - j): field.random(rng)
             for i in range(degree + 1) for j in range(degree + 1 - i)}
    return HomogPoly(field, W3, degree, terms)


def test_resultant_last_var_specialises_to_binary_resultant():
    # f(a t, b t, s) has the coefficients of f's powers of w2 at (a : b), so
    # its binary resultant with g(a t, b t, s) is the resultant's value there
    rng = random.Random(5)
    st = ("s", "t")
    for field in (F13, QQ):
        for dg in (2, 4):
            f = _random_form(field, 2, rng)
            g = _random_form(field, dg, rng)
            res = resultant_last_var(f, g)
            assert res and res.degree == 2 * dg and res.vars == ("w0", "w1")
            for a, b in ((1, 0), (0, 1), (1, 1), (2, 5), (3, -7)):
                images = (HomogPoly.linear(field, st, [0, a]),
                          HomogPoly.linear(field, st, [0, b]),
                          HomogPoly.linear(field, st, [1, 0]))
                fs = f.substitute(images)
                gs = g.substitute(images)
                assert res.evaluate([a, b]) == resultant(fs, gs)


def _resultant_by_operators(f, g):
    """The Sylvester determinant of the coefficient forms of f and g in
    their last variable, expanded through `HomogPoly` operators with zero
    padding of degree 0: the reference for `resultant_last_var`, which
    expands dense raw lists."""
    vs = f.vars[:2]

    def coeffs(h):
        parts = [{} for _ in range(h.degree + 1)]
        for e, c in h.terms.items():
            parts[h.degree - e[2]][e[:2]] = c
        return [HomogPoly(h.field, vs, k, t) for k, t in enumerate(parts)]

    rows = linalg.sylvester(coeffs(f), coeffs(g), HomogPoly.zero(f.field, vs, 0))
    return _laplace_on_elements(rows)[tuple(range(len(rows)))]


RESULTANT_FIELDS = {
    "F3": (lambda: Field.prime(3), st.integers(0, 2)),
    "F13": (lambda: F13, st.integers(0, 12)),
    "QQ": (lambda: QQ, st.integers(-3, 3)),
    "Q(sqrt5)": (lambda: QQ.quadratic_extension(5),
                 st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
}


@pytest.mark.parametrize("name", sorted(RESULTANT_FIELDS))
@pytest.mark.parametrize("degrees", ["1-4", "8-2"])
@PROPERTY
@given(data=st.data())
def test_resultant_last_var_matches_the_expansion_by_operators(name, degrees, data):
    # sparse random forms; a common factor; no pure power of the last
    # variable in f, or in both; and (F, dF/dw2), over F_3 for an F whose
    # powers of w2 are multiples of three, so that the partial is zero
    make, raw = RESULTANT_FIELDS[name]
    field = make()
    sparse = st.one_of(st.just(0), raw, raw)

    def form(d, keep=None):
        exps = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        return HomogPoly(field, W3, d, {e: field.element(data.draw(sparse))
                                        for e in exps if keep is None or keep(e)})

    if degrees == "8-2":
        m, n = 8, 2
    else:
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    case = data.draw(st.sampled_from(["random", "common factor", "no pure power", "partial"]))
    if case == "common factor":
        h = form(1)
        f, g = h * form(m - 1), h * form(n - 1)
    elif case == "no pure power":
        f = form(m, lambda e: e[2] != m)
        g = form(n, lambda e: e[2] != n) if data.draw(st.booleans()) else form(n)
    elif case == "partial":
        # deg f = n + 1, so that the matrix stays as small as the others
        f = form(n + 1, (lambda e: e[2] % 3 == 0) if field.characteristic() == 3 else None)
        g = f.partial(2)
    else:
        f, g = form(m), form(n)
    res, ref = resultant_last_var(f, g), _resultant_by_operators(f, g)
    assert res.vars == ("w0", "w1") and res.degree == f.degree * g.degree
    assert bool(res) == bool(ref)
    if ref:
        assert res == ref


def test_zero_resultants_have_degree_deg_f_times_deg_g():
    # over F_3, F = w0^4 + w0 w2^3 + w1^4 has dF/dw2 = 0
    F3 = Field.prime(3)
    quartic = HomogPoly(F3, W3, 4, {(4, 0, 0): 1, (1, 0, 3): 1, (0, 4, 0): 1})
    partial = quartic.partial(2)
    assert not partial and partial.degree == 3
    res = resultant_last_var(quartic, partial)
    assert not res and res.degree == 12 and res.vars == ("w0", "w1")
    # over Q, (l m, l^2) share the line l = w0 + 2 w1 + 3 w2
    ell = HomogPoly.linear(QQ, W3, [1, 2, 3])
    m = HomogPoly.linear(QQ, W3, [0, 1, 1])
    res = resultant_last_var(ell * m, ell * ell)
    assert not res and res.degree == 4 and res.vars == ("w0", "w1")


def test_resultant_of_two_constants_is_one():
    # the empty Sylvester matrix has determinant 1, as binforms.resultant
    # gives for two constants; a constant c against a form of degree n
    # gives c^n
    for field in (QQ, Field.prime(3), F13):
        two, three = (HomogPoly(field, W3, 0, {(0, 0, 0): c}) for c in (2, 3))
        for f, g in ((two, two), (two, three)):
            res = resultant_last_var(f, g)
            assert res == HomogPoly(field, ("w0", "w1"), 0, {(0, 0): 1})
        line = HomogPoly.linear(field, W3, [1, 2, 1])
        assert resultant_last_var(two, line) == HomogPoly(field, ("w0", "w1"), 0, {(0, 0): 2})


def test_resultant_of_dependent_quadrics_is_zero():
    # a dependent triple spans at most a pencil, which has base points
    def quad(terms):
        return HomogPoly(F11, W3, 2, terms)

    q1 = quad({(2, 0, 0): 1, (0, 1, 1): 3})
    q2 = quad({(0, 2, 0): 2, (1, 0, 1): 5, (0, 0, 2): 1})
    assert not resultant3_quadrics([q1, quad({}), q2])
    assert not resultant3_quadrics([q1, q1 * 3, q2])
    assert not resultant3_quadrics([q1, q2, q1 * 2 + q2 * 7])
    # 10 w0^3 + 3 w0^2 w2: no w1 partial, the other two share the factor w0
    assert not plane_cubic_is_smooth(cubic(F11, {(3, 0, 0): 10, (2, 0, 1): 3}))


def test_sylvester_determinant_is_512_times_the_resultant():
    # Res(w0^2, w1^2, w2^2) = 1, and 512 is a unit in every odd characteristic
    for field in (QQ, Field.prime(3), F11):
        squares = [HomogPoly.monomial(field, W3, e) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
        assert resultant3_quadrics(squares) == field.element(512)


@pytest.mark.parametrize("p", [3, 5])
def test_resultant_vanishes_exactly_at_common_zeros(p):
    # base points of a net of conics without one are rational or conjugate
    # over F_{p^2} on this sample: a zero resultant is a common point there
    F = Field.prime(p)
    ext = F.quadratic_extension(next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) != 1))
    points = list(projective_points(ext, 2))
    rng = random.Random(p)
    zeros = 0
    for _ in range(40):
        qs = [_random_form(F, 2, rng) for _ in range(3)]
        lifted = [q.change_field(ext) for q in qs]
        common = any(all(not q.evaluate(list(pt)) for q in lifted) for pt in points)
        assert bool(resultant3_quadrics(qs)) == (not common)
        zeros += common
    assert 0 < zeros < 40


def test_plane_cubics_in_characteristic_three():
    # in characteristic three a common zero of the partials need not lie on
    # the cubic; smoothness is read from its rational points and lines
    F3 = Field.prime(3)
    F9 = F3.quadratic_extension(2)
    for F in (F3, F9):
        # y^2 z = x^3 - x z^2, whose partials share the zero (1 : 0 : 0) off it
        assert plane_cubic_is_smooth(cubic(F, {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 1}))
        # y^2 z = x^3 + x^2 z: a node at (0 : 0 : 1)
        assert not plane_cubic_is_smooth(cubic(F, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}))
        # x^3 + y^3 + z^3 = (x + y + z)^3, a triple line
        assert not plane_cubic_is_smooth(cubic(F, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}))
    # z (x^2 + y^2 - z^2): a line meeting a conic in two conjugate points
    # over F_3, so the only singular points are not rational
    line_conic = cubic(F3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): -1})
    assert all(line_conic.evaluate(list(pt)) or any(g.evaluate(list(pt)) for g in line_conic.gradient())
               for pt in projective_points(F3, 2))
    assert not plane_cubic_is_smooth(line_conic)


def test_three_conjugate_lines_with_no_rational_point():
    # the norm form of F_729 / F_9 on the basis 1, a, a^2, a a root of
    # t^3 - t - 1 (irreducible over F_9, as Tr(1) = 2 != 0): three lines
    # conjugate over F_9 with no F_9-point at all
    F9 = Field.prime(3).quadratic_extension(2)
    a1 = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # multiplication by a
    a2 = [[0, 1, 0], [0, 1, 1], [1, 0, 1]]  # multiplication by a^2
    norm = linalg.det([[HomogPoly.linear(F9, W3, [int(r == c), a1[r][c], a2[r][c]])
                        for c in range(3)] for r in range(3)])
    assert norm.degree == 3
    assert all(norm.evaluate(list(pt)) for pt in projective_points(F9, 2))
    assert not plane_cubic_is_smooth(norm)
