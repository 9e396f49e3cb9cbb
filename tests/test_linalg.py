"""Property tests of the determinant kernel: `linalg.maximal_minors`, and
`det` and `adjugate` built on it, against a Leibniz permutation sum over
the fields of `test_field_properties.CASES` and F_3, on scalar matrices and
on matrices of linear forms."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic import linalg
from prymcubic.fields import Field
from prymcubic.poly import HomogPoly
from test_field_properties import CASES

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

FIELDS = dict(CASES, F3=(lambda: Field.prime(3), st.integers(0, 2)))


def leibniz(rows):
    """sum over permutations p of sign(p) * prod rows[i][p(i)]."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total


def draw_matrix(data, name, r, m):
    """An r x m scalar matrix, sometimes with a zero row or a repeated row."""
    make, raw = FIELDS[name]
    field = make()
    rows = [[field.element(data.draw(raw)) for _ in range(m)] for _ in range(r)]
    shape = data.draw(st.sampled_from(["random", "zero row", "repeated row"]))
    i = data.draw(st.integers(0, r - 1))
    if shape == "zero row":
        rows[i] = [field.zero()] * m
    elif shape == "repeated row" and r > 1:
        rows[i] = list(rows[(i + 1) % r])
    return field, rows


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_det_is_the_leibniz_sum(name, data):
    n = data.draw(st.integers(1, 6))
    _, rows = draw_matrix(data, name, n, n)
    assert linalg.det(rows) == leibniz(rows)


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_maximal_minors_are_the_column_determinants(name, data):
    m = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(1, m))
    _, rows = draw_matrix(data, name, r, m)
    minors = linalg.maximal_minors(rows)
    assert sorted(minors) == list(combinations(range(m), r))
    for cols, minor in minors.items():
        assert minor == leibniz([[row[c] for c in cols] for row in rows])


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_det_of_linear_forms_is_the_leibniz_sum(name, data):
    make, raw = FIELDS[name]
    field = make()
    n = data.draw(st.integers(1, 3))
    rows = [[HomogPoly.linear(field, ("z0", "z1", "z2"),
                              [field.element(data.draw(raw)) for _ in range(3)])
             for _ in range(n)] for _ in range(n)]
    d = linalg.det(rows)
    assert d == leibniz(rows) and d.degree == n


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_adjugate_inverts_up_to_the_determinant(name, data):
    n = data.draw(st.integers(2, 5))
    field, rows = draw_matrix(data, name, n, n)
    adj = linalg.adjugate(rows)
    d = linalg.det(rows)
    scaled = [[d if i == j else field.zero() for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(adj, rows) == scaled
    assert linalg.mat_mul(rows, adj) == scaled
