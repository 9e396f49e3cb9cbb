"""Property tests of the determinant kernel: `linalg.maximal_minors`, and
`det` and `SymMatrix.adjugate` built on it, against a Leibniz permutation
sum and a full cofactor expansion over the fields of
`test_field_properties.CASES` and F_3, on scalar matrices and on matrices
of linear forms; of `maximal_minors`, `det` and `mat_mul` on raw values
against the same expansion and product through `HomogPoly` and
`FieldElement` operators, zero minors' degrees included; of `rref` on raw
values against row reduction through `FieldElement` operators; and of the
closed-form `line_basis` against the kernel basis of its one-row matrix."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic import linalg
from prymcubic.fields import Field
from prymcubic.oracle import projective_points
from prymcubic.poly import HomogPoly, PolyError, SymMatrix
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


def _adjugate(rows):
    """Every cofactor of a square matrix, one `maximal_minors` call per
    deleted row: the reference for `SymMatrix.adjugate`, which expands the
    upper triangle only."""
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        minors = linalg.maximal_minors(rows[:i] + rows[i + 1:])
        for j in range(n):
            cof = minors[tuple(k for k in range(n) if k != j)]
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_adjugate_inverts_up_to_the_determinant(name, data):
    # a symmetric matrix, sometimes with a zero row and column or a
    # repeated row and column
    n = data.draw(st.integers(2, 5))
    field, rows = draw_matrix(data, name, n, n)
    rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    adj = SymMatrix.from_rows(rows).adjugate().rows()
    assert adj == _adjugate(rows)
    d = linalg.det(rows)
    scaled = [[d if i == j else field.zero() for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(adj, rows) == scaled
    assert linalg.mat_mul(rows, adj) == scaled


def _laplace_on_elements(rows):
    """Every maximal minor by the Laplace expansion from the bottom row up
    through `HomogPoly` and `FieldElement` operators, each term its own
    product and each sum a new value: the reference for `maximal_minors`
    and `det`, which run `linalg.laplace` on raw values, and on Sylvester
    rows for `elim.resultant_last_var`."""
    minors = {(j,): x for j, x in enumerate(rows[-1])}
    for k in range(2, len(rows) + 1):
        row, below = rows[-k], minors
        minors = {}
        for cols in combinations(range(len(row)), k):
            acc = row[cols[0]] * below[cols[1:]]
            for t in range(1, k):
                term = row[cols[t]] * below[cols[:t] + cols[t + 1:]]
                acc = acc - term if t % 2 else acc + term
            minors[cols] = acc
    return minors


def _mat_mul_on_elements(a, b):
    """The matrix product through operators: the reference for `mat_mul`."""
    out = []
    for row in a:
        entries = []
        for j in range(len(b[0])):
            s = row[0] * b[0][j]
            for t in range(1, len(b)):
                s = s + row[t] * b[t][j]
            entries.append(s)
        out.append(entries)
    return out


def _check_against_elements(rows, other):
    """maximal_minors, det and mat_mul on raw values against the
    references: equal values, and for forms equal degrees, zero ones too."""
    minors, ref = linalg.maximal_minors(rows), _laplace_on_elements(rows)
    assert minors == ref
    assert [getattr(x, "degree", None) for x in minors.values()] == [
        getattr(x, "degree", None) for x in ref.values()]
    if len(rows) == len(rows[0]):
        assert linalg.det(rows) == ref[tuple(range(len(rows)))]
    product, ref = linalg.mat_mul(rows, other), _mat_mul_on_elements(rows, other)
    assert product == ref
    assert [getattr(x, "degree", None) for row in product for x in row] == [
        getattr(x, "degree", None) for row in ref for x in row]


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_raw_minors_and_products_of_scalars_match_the_operators(name, data):
    # sparse entries, so that zero entries and zero minors are skipped
    make, raw = FIELDS[name]
    field = make()
    sparse = st.one_of(st.just(0), raw)
    m = data.draw(st.integers(1, 5))
    r, c = data.draw(st.integers(1, m)), data.draw(st.integers(1, 4))
    rows = [[field.element(data.draw(sparse)) for _ in range(m)] for _ in range(r)]
    other = [[field.element(data.draw(sparse)) for _ in range(c)] for _ in range(m)]
    _check_against_elements(rows, other)
    assert all(x.field is field for x in linalg.maximal_minors(rows).values())


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_raw_minors_and_products_of_linear_forms_match_the_operators(name, data):
    make, raw = FIELDS[name]
    field = make()
    sparse = st.one_of(st.just(0), st.just(0), raw)
    W3 = ("z0", "z1", "z2")

    def linear():
        coeffs = [field.element(data.draw(sparse)) for _ in range(3)]
        form = HomogPoly.linear(field, W3, coeffs)
        assert form == HomogPoly(field, W3, 1, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1],
                                                 (0, 0, 1): coeffs[2]})
        return form

    m = data.draw(st.integers(1, 4))
    r, c = data.draw(st.integers(1, m)), data.draw(st.integers(1, 3))
    rows = [[linear() for _ in range(m)] for _ in range(r)]
    _check_against_elements(rows, [[linear() for _ in range(c)] for _ in range(m)])


def test_forms_of_different_rings_or_degrees_are_refused():
    F3, F5 = Field.prime(3), Field.prime(5)
    f = HomogPoly.linear(F3, ("z0", "z1"), [1, 2])
    for g in (HomogPoly.linear(F3, ("a", "b"), [1, 2]), HomogPoly.linear(F5, ("z0", "z1"), [1, 2]),
              f * f):
        for rows in ([[f, g], [g, f]], [[g, f], [f, f]]):
            with pytest.raises(PolyError):
                _laplace_on_elements(rows)
            with pytest.raises(PolyError):
                linalg.det(rows)
    # a zero entry of another degree too, which the operators let through:
    # every term of a minor has the minor's degree
    zero = HomogPoly.zero(F3, ("z0", "z1"), 0)
    assert _laplace_on_elements([[f, zero], [f, f]])[(0, 1)] == f * f
    with pytest.raises(PolyError):
        linalg.det([[f, zero], [f, f]])
    with pytest.raises(PolyError):
        linalg.mat_mul([[f]], [[HomogPoly.linear(F5, ("z0", "z1"), [1, 2])]])
    with pytest.raises(PolyError):
        HomogPoly.linear(F3, ("z0", "z1"), [1, 2, 0])


def _line_basis_by_kernel(dual, field):
    """The kernel basis of the one-row matrix by row reduction: the
    reference for the closed-form `linalg.line_basis`."""
    p0, p1 = linalg.kernel_basis([[field.element(c) for c in dual]], field)
    return p0, p1


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_line_basis_is_the_kernel_basis(name, data):
    # duals with zero coordinates, not scaled to a first coordinate one
    make, raw = FIELDS[name]
    field = make()
    dual = [field.element(data.draw(st.one_of(st.just(0), raw))) for _ in range(3)]
    if not any(dual):
        with pytest.raises(ValueError):
            linalg.line_basis(dual, field)
        dual[data.draw(st.integers(0, 2))] = field.element(data.draw(raw)) or field.one()
    got = linalg.line_basis(dual, field)
    assert got == _line_basis_by_kernel(dual, field)
    assert all(x.field is field for point in got for x in point)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_line_basis_on_every_line_of_the_plane(p):
    field = Field.prime(p)
    for dual in projective_points(field, 2):
        assert linalg.line_basis(dual, field) == _line_basis_by_kernel(dual, field)


def _rref_on_elements(rows):
    """Row reduction through FieldElement operators, entry by entry: the
    reference for `linalg.rref`, which eliminates on raw values."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


# Q with Fraction entries, Q(sqrt 2), F_7 and F_49 = F_7(sqrt 3)
RREF_FIELDS = {
    "QQ": (Field.rationals, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))),
    "Q(sqrt2)": (lambda: Field.rationals().quadratic_extension(2),
                 st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
    "F7": (lambda: Field.prime(7), st.integers(0, 6)),
    "F49": (lambda: Field.prime(7).quadratic_extension(3),
            st.tuples(st.integers(0, 6), st.integers(0, 6))),
}


@pytest.mark.parametrize("name", sorted(RREF_FIELDS))
@PROPERTY
@given(data=st.data())
def test_raw_rref_matches_rref_on_elements(name, data):
    # zero rows, the zero matrix and rank-deficient matrices (a row that is
    # a combination of two others) among them
    make, raw = RREF_FIELDS[name]
    field = make()
    r, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    sparse = st.one_of(st.just(0), st.just(0), raw)
    rows = [[field.element(data.draw(sparse)) for _ in range(m)] for _ in range(r)]
    shape = data.draw(st.sampled_from(["random", "zero row", "zero matrix", "combination"]))
    i = data.draw(st.integers(0, r - 1))
    if shape == "zero row":
        rows[i] = [field.zero()] * m
    elif shape == "zero matrix":
        rows = [[field.zero()] * m for _ in range(r)]
    elif shape == "combination" and r > 2:
        c = field.element(data.draw(raw))
        rows[i] = [a + c * b for a, b in zip(rows[(i + 1) % r], rows[(i + 2) % r])]
    red, pivots = linalg.rref(rows)
    ref, ref_pivots = _rref_on_elements(rows)
    assert pivots == ref_pivots
    assert [[x.val for x in row] for row in red] == [[x.val for x in row] for row in ref]
    assert all(x.field is field for row in red for x in row)


def test_rref_reads_base_entries_into_the_extension():
    F7 = Field.prime(7)
    F49 = F7.quadratic_extension(3)
    rows = [[F7.element(2), F49.ext_element(1, 1)], [F7.element(4), F7.element(3)]]
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == _rref_on_elements(rows) and pivots == [0, 1]
    assert all(x.field is F49 for row in red for x in row)
    assert linalg.rref([]) == ([], []) and linalg.rref([[]]) == ([[]], [])
