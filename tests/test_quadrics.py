import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from prymcubic import linalg
from prymcubic.binforms import ST, pencil_determinant_raw
from prymcubic.fields import Field, QQ
from prymcubic.poly import HomogPoly, SymMatrix
from prymcubic.quadrics import congruence_diagonalize, factor_rank_le2, multiple_members

from test_binforms import dense
from test_poly import CASES_F3_F9, PROPERTY
from test_scene_properties import _scalar

F11 = Field.prime(11)
F13 = Field.prime(13)
X4 = ("x0", "x1", "x2", "x3")
W3 = ("w0", "w1", "w2")


def random_sym(field, rng, n=4):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = field.random(rng)
    return SymMatrix.from_rows(rows)


def test_congruence_diagonalize_random():
    rng = random.Random(3)
    for field in (QQ, F11):
        for _ in range(25):
            m = random_sym(field, rng)
            p, diag = congruence_diagonalize(m, field)
            pt = linalg.transpose(p)
            prod = linalg.mat_mul(pt, linalg.mat_mul(m.rows(), p))
            for i in range(4):
                for j in range(4):
                    if i == j:
                        assert prod[i][j] == diag[i]
                    else:
                        assert not prod[i][j]


def test_congruence_zero_diagonal():
    # x0x1 + x0x2 + x2x3: no diagonal pivot anywhere at the start
    f = HomogPoly(QQ, X4, 2, {(1, 1, 0, 0): 1, (1, 0, 1, 0): 1, (0, 0, 1, 1): 1})
    m = SymMatrix.from_quadratic_form(f)
    p, diag = congruence_diagonalize(m, QQ)
    pt = linalg.transpose(p)
    prod = linalg.mat_mul(pt, linalg.mat_mul(m.rows(), p))
    assert all(not prod[i][j] for i in range(4) for j in range(4) if i != j)


def test_factor_rank2_products():
    rng = random.Random(9)
    for field in (F11, F13, QQ):
        built = 0
        for _ in range(40):
            if built >= 10:
                break
            l1 = HomogPoly.linear(field, W3, [field.random(rng) for _ in range(3)])
            l2 = HomogPoly.linear(field, W3, [field.random(rng) for _ in range(3)])
            form = l1 * l2
            if not form:
                continue
            m = SymMatrix.from_quadratic_form(form)
            if m.rank() != 2:
                continue
            pair = factor_rank_le2(m, field, W3)
            assert pair is not None and pair.kind == "pair"
            assert pair.h1 * pair.h2 == form.change_field(pair.h1.field)
            built += 1
        assert built >= 5


def test_factor_rank1_double():
    l1 = HomogPoly.linear(QQ, W3, [2, -1, 3])
    m = SymMatrix.from_quadratic_form(l1 * l1 * 5)
    pair = factor_rank_le2(m, QQ, W3)
    assert pair.kind == "double"
    assert pair.h1 * pair.h1 * pair.scalar == l1 * l1 * 5


def test_factor_needs_extension():
    # w0^2 + w1^2 over F_11: -1 is a nonsquare, factors live upstairs
    form = HomogPoly(F11, W3, 2, {(2, 0, 0): 1, (0, 2, 0): 1})
    m = SymMatrix.from_quadratic_form(form)
    pair = factor_rank_le2(m, F11, W3)
    assert pair is not None and pair.extended and pair.h1.field != F11
    assert pair.h1 * pair.h2 == form.change_field(pair.h1.field)


def test_conic_contains_line():
    # a conic contains a line exactly when the line's form divides it
    l1 = HomogPoly.linear(QQ, W3, [1, 2, 0])
    l2 = HomogPoly.linear(QQ, W3, [0, 1, -1])
    conic = l1 * l2
    cof = conic.divide_linear(l1)
    assert cof is not None and l1 * cof == l1 * l2
    other = HomogPoly.linear(QQ, W3, [1, 0, 1])
    assert conic.divide_linear(other) is None


def block_diag(field, a, b):
    rows = [[field.zero()] * 4 for _ in range(4)]
    for k, block in enumerate((a, b)):
        for i in range(2):
            for j in range(2):
                rows[2 * k + i][2 * k + j] = field.element(block[i][j])
    return SymMatrix.from_rows(rows)


def test_pencil_members_at_a_conjugate_double_pair():
    # det(s A + t B) = 3t^2 - s^2 for A = [[0,1],[1,0]], B = diag(1, 3), so
    # the block pencil has d = (3t^2 - s^2)^2; 3 is a nonsquare mod 7 and the
    # discriminant 12 = 5 of s^2 - 3t^2 gives the roots s/t = +-sqrt(5)/2
    F7 = Field.prime(7)
    a, b = [[0, 1], [1, 0]], [[1, 0], [0, 3]]
    m1, m2 = block_diag(F7, a, a), block_diag(F7, b, b)
    d = pencil_determinant_raw(m1, m2, F7)
    # (3t^2 - s^2)^2 = s^4 - 6 s^2 t^2 + 9 t^4
    assert d == [1, 0, 1, 0, 2]
    members = multiple_members(m1, m2, d, F7)
    K = F7.quadratic_extension(5)
    r = K.sqrt_d()
    assert [(m, work) for m, work, _ in members] == [(2, K), (2, K)]
    for (_, _, member), s0 in zip(members, (r / 2, -r / 2)):
        assert member == SymMatrix(4, {k: K.element(m1.upper[k]) * s0 + K.element(m2.upper[k])
                                       for k in m1.upper})
        assert member.rank() == 2
    # pencils with a common kernel have d = 0, which no member is read from
    c = block_diag(F7, a, [[0, 0], [0, 0]])
    d = pencil_determinant_raw(c, c.scale(F7.element(2)), F7)
    assert not any(d) and multiple_members(c, c.scale(F7.element(2)), d, F7) is None


def _pencil_determinant_by_lists(m1, m2, field):
    """`binforms.pencil_determinant_raw` with each signed term built as its
    own product list and merged into the minor by a list comprehension: the
    reference for its in-place accumulation, as a dense raw list with all
    n + 1 entries."""
    n = m1.n
    add, sub = field._add, field._sub
    rows = [[[field.element(m1.at(i, j)).val, field.element(m2.at(i, j)).val]
             for j in range(n)] for i in range(n)]
    minors = {(j,): rows[n - 1][j] for j in range(n)}
    for i in range(n - 2, -1, -1):
        below = minors
        minors = {}
        for cols in combinations(range(n), n - i):
            acc = [field._zero_raw] * (n - i + 1)
            for k, j in enumerate(cols):
                term = field._convolve_raw(None, rows[i][j], below[cols[:k] + cols[k + 1:]])
                op = sub if k % 2 else add
                acc = [op(x, y) for x, y in zip(acc, term)]
            minors[cols] = acc
    return minors[tuple(range(n))]


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
@PROPERTY
@given(data=st.data())
def test_pencil_determinant_is_the_determinant_of_the_pencil(name, data):
    # shared bottom-row minors give det(s M1 + t M2) as the cofactor
    # expansion of the matrix of linear forms does, for n = 1..5 and for
    # zero and rank-deficient matrices (sums of 0 to n rank-one terms)
    make, raw = CASES_F3_F9[name]
    field = make()
    n = data.draw(st.integers(1, 5))

    def sym():
        rows = [[field.zero()] * n for _ in range(n)]
        for _ in range(data.draw(st.integers(0, n))):
            v = [_scalar(data, field, raw) for _ in range(n)]
            c = _scalar(data, field, raw)
            rows = [[rows[i][j] + c * v[i] * v[j] for j in range(n)] for i in range(n)]
        return SymMatrix.from_rows(rows)

    m1, m2 = sym(), sym()
    pencil = [[HomogPoly.linear(field, ST, [m1.at(i, j), m2.at(i, j)]) for j in range(n)]
              for i in range(n)]
    d = pencil_determinant_raw(m1, m2, field)
    # the list may stop short of s^0 t^n
    d += [field._zero_raw] * (n + 1 - len(d))
    assert d == dense(linalg.det(pencil))
    assert d == _pencil_determinant_by_lists(m1, m2, field)
