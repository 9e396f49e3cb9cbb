"""Property tests of scene round trips over Q, F_101, F_11(sqrt 2) and
Q(sqrt 5): writing, parsing and writing again gives the same bytes, and the
parsed objects equal the written ones.  Forms in two variables are included,
since that is how the octic chart of the even case travels.  The writer
`scene.dumps` gives the bytes of `json.dumps(doc, sort_keys=True, indent=1)`
on random documents of a scene's shape, and on the documents it hands to
`json.dumps`."""

import enum
import json
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic.fields import QQ
from prymcubic.poly import HomogPoly, SymMatrix
from prymcubic.scene import Scene, dumps, parse_scene, write_scene
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


# quotes, backslashes, control characters, DEL, non-ASCII text, an astral
# character and a lone surrogate, besides arbitrary text
_TEXT = (st.text(st.sampled_from('ab /"\\\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600\ud800'),
                 max_size=6)
         | st.text(max_size=6))
_LEAVES = (st.none() | st.booleans() | st.integers(-10 ** 40, 10 ** 40)
           | st.sampled_from([0, -1, 10 ** 39, -(10 ** 39)]) | _TEXT)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=30)


def _reference(doc):
    return json.dumps(doc, sort_keys=True, indent=1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(doc=_DOCS)
def test_writer_matches_json_dumps(doc):
    expected = _reference(doc)
    # a plain document is written without json.dumps
    with mock.patch.object(json, "dumps", side_effect=AssertionError("fell back")):
        assert dumps(doc) == expected


def test_writer_on_empty_containers_and_scalars():
    for doc in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[], [{}]], 0, -5, "x\"y",
                None, True, False, {"t": (1, ("a", None))}):
        assert dumps(doc) == _reference(doc)


class _Tag(str):
    pass


class _Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("doc", [
    {"ratio": 0.5}, [float("nan"), float("inf"), -float("inf"), -0.0],
    {"a": [1, {"b": [2, 1e300]}], "c": "d"},  # a float under plain values
    {1: "one", 2: [3]}, {"x": {7: None}},
    {"tag": _Tag("t")}, {_Tag("k"): 1}, [_Level.ONE],
], ids=["float", "nan-inf", "nested-float", "int-keys", "nested-int-key",
        "str-subclass", "str-subclass-key", "int-subclass"])
def test_writer_hands_other_values_to_json_dumps(doc):
    expected = _reference(doc)
    with mock.patch.object(json, "dumps", wraps=json.dumps) as spy:
        assert dumps(doc) == expected
    assert spy.call_count == 1


def test_writer_raises_as_json_dumps_on_mixed_keys():
    with pytest.raises(TypeError):
        _reference({1: "a", "b": 2})
    with pytest.raises(TypeError):
        dumps({1: "a", "b": 2})


def test_scene_with_float_metadata_round_trips():
    scene = Scene(QQ, metadata={"source": "user", "weight": 0.1, "limits": [1e300, -2.5],
                                "pairs": [["A", "Q"]]})
    scene.add("X", HomogPoly(QQ, ("z0", "z1", "z2"), 4, {(4, 0, 0): 1, (0, 2, 2): -3}))
    text = write_scene(scene)
    assert text == _reference(json.loads(text))
    assert '"weight": 0.1' in text
    assert write_scene(parse_scene(text)) == text
