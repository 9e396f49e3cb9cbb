"""Property tests of scene round trips over Q, F_101, F_11(sqrt 2) and
Q(sqrt 5): writing, parsing and writing again gives the same bytes, and the
parsed objects equal the written ones.  Forms in two variables are included,
since that is how the octic chart of the even case travels."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic.poly import HomogPoly, SymMatrix
from prymcubic.scene import Scene, parse_scene, write_scene
from prymcubic.symmetroid import X4, Symmetrization

from test_field_properties import CASES

# derandomized and bounded, so the suite stays deterministic and fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

VARS = {2: ("s", "t"), 3: ("z0", "z1", "z2"), 4: X4}


def _scalar(data, field, raw):
    # about a third of the coefficients are zero, so sparse forms occur
    return field.element(data.draw(st.one_of(st.just(0), raw, raw)))


def _form(data, field, raw, nvars, degree):
    terms = {}
    for mono in combinations_with_replacement(range(nvars), degree):
        terms[tuple(mono.count(i) for i in range(nvars))] = _scalar(data, field, raw)
    return HomogPoly(field, VARS[nvars], degree, terms)


def _round_trip(scene):
    text = write_scene(scene)
    again = parse_scene(text)
    assert write_scene(again) == text
    assert write_scene(parse_scene(write_scene(again))) == text
    return again


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_form_scene_round_trip(name, data):
    make, raw = CASES[name]
    field = make()
    scene = Scene(field, metadata={"source": "property"})
    for k, nvars in enumerate((2, 2, 3)):
        degree = data.draw(st.integers(0, 8 if nvars == 2 else 4))
        scene.add("f%d" % k, _form(data, field, raw, nvars, degree))
    conics = tuple(_form(data, field, raw, 3, 2) for _ in range(4))
    scene.add("K", (conics, _form(data, field, raw, 3, 4)))
    again = _round_trip(scene)
    for k in range(3):
        assert again.objects["f%d" % k] == scene.objects["f%d" % k]
    assert again.objects["K"] == scene.objects["K"]


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_matrix_scene_round_trip(name, data):
    make, raw = CASES[name]
    field = make()
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            rows[i][j] = rows[j][i] = _scalar(data, field, raw)
    lin = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            lin[i][j] = lin[j][i] = _form(data, field, raw, 4, 1)
    scene = Scene(field)
    scene.add("Q", SymMatrix.from_rows(rows))
    scene.add("A", Symmetrization(field, SymMatrix.from_rows(lin)))
    again = _round_trip(scene)
    assert again.objects["Q"] == scene.objects["Q"]
    assert again.objects["A"].matrix == scene.objects["A"].matrix
