import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import prymcubic.prym as prym
from prymcubic.cli import main
from prymcubic.fields import Field, QQ
from prymcubic.fixtures import FIXTURES, fix_a, fix_x
from prymcubic.milne import Line2, MilneError, enveloping_cone, line_is_generic
from prymcubic.oracle import projective_points
from prymcubic.poly import HomogPoly
from prymcubic.scene import (Scene, SceneError, parse_scene, reduce_scene,
                             write_scene)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "prymcubic", "data",
                    "fixtures.json")


def test_manifest_roundtrip_bit_exact():
    text = open(DATA).read().rstrip("\n")
    scene = parse_scene(text)
    assert write_scene(scene) == text
    again = parse_scene(write_scene(scene))
    assert write_scene(again) == text


def test_scene_rejects_characteristic_two():
    doc = {"field": {"type": "Fp", "p": 2}, "objects": {}, "metadata": {}}
    with pytest.raises(SceneError):
        parse_scene(json.dumps(doc))


def test_scene_rejects_non_integer_characteristic():
    for p in ("11", 11.0, None):
        doc = {"field": {"type": "Fp", "p": p}, "objects": {}, "metadata": {}}
        with pytest.raises(SceneError):
            parse_scene(json.dumps(doc))


def test_scene_rejects_square_extension():
    doc = {"field": {"type": "QuadExt", "base": {"type": "Q"}, "d": "4"},
           "objects": {}, "metadata": {}}
    with pytest.raises(SceneError):
        parse_scene(json.dumps(doc))


def test_scene_roundtrip_all_kinds(tmp_path):
    scene = Scene(QQ, metadata={"note": "test"})
    scene.add("A", fix_a(QQ))
    scene.add("X", fix_x(QQ))
    scene.add("L", Line2(QQ, [1, 0, 0], [0, 0, 1]))
    fx = FIXTURES["t1"]
    scene.add("Q", fx.quadric(QQ))
    from prymcubic.prym import forward_general, pencil_conics
    pen = pencil_conics(fx.symmetrization(QQ), fx.quadric(QQ))
    scene.add("K", (pen.conics(), pen.quartic))
    text = write_scene(scene)
    back = parse_scene(text)
    assert write_scene(back) == text
    assert back.get("A", "symmetrization").determinant_cubic() == \
        fix_a(QQ).determinant_cubic()


def test_scene_refuses_an_object_over_another_field(capsys, monkeypatch):
    # read back, an F_11 quartic in a scene over Q would be integers over Q
    import types

    import prymcubic.cli as cli

    F11, K = Field.prime(11), QQ.quadratic_extension(5)
    for field, obj in ((QQ, fix_x(F11)), (QQ, fix_a(K)), (QQ.quadratic_extension(2), fix_a(K)),
                       (F11.quadratic_extension(2), fix_x(Field.prime(13))),
                       (F11, Line2(QQ, [1, 0, 0], [0, 0, 1]))):
        with pytest.raises(SceneError, match="not over the scene's field"):
            Scene(field).add("X", obj)
    # the same refusal at the CLI is an input error
    monkeypatch.setattr(cli, "forward_general",
                        lambda a, q: types.SimpleNamespace(quartic=fix_x(F11), reduced=True))
    code, out, err = run_cli(["forward", DATA, "--A", "A_t1", "--Q", "Q_t1"], capsys)
    assert code == 2 and out == ""
    assert "not over the scene's field QQ" in json.loads(err)["error"]


def test_scene_lifts_base_field_objects_into_its_extension():
    # a quadric, a quartic and a pencil whose quartic is over Q, in a scene
    # over Q(sqrt 5): written as the extension's pairs, so they round-trip
    from prymcubic.prym import pencil_conics

    K = QQ.quadratic_extension(5)
    fx = FIXTURES["t1"]
    pen = pencil_conics(fx.symmetrization(QQ), fx.quadric(QQ))
    quartic = fix_x(QQ)
    scene = (Scene(K).add("Q", fx.quadric(QQ)).add("X", quartic)
             .add("K", (tuple(c.change_field(K) for c in pen.conics()), pen.quartic)))
    assert scene.get("X", "quartic") == quartic.change_field(K)
    assert scene.get("K", "pencil")[1].field == K
    text = write_scene(scene)
    assert write_scene(parse_scene(text)) == text
    assert text == write_scene(Scene(K).add("Q", fx.quadric(K)).add("X", fix_x(K)).add(
        "K", (tuple(c.change_field(K) for c in pen.conics()), pen.quartic.change_field(K))))


def test_reduce_scene():
    scene = parse_scene(open(DATA).read())
    F = Field.prime(11)
    red = reduce_scene(scene, F)
    a = red.get("A_seed", "symmetrization")
    assert a.field == F
    assert a.classify() == "T1"


def _reduce_by_change_field(scene, field):
    # the reduction as a map of field elements, object by object
    from prymcubic.poly import SymMatrix
    from prymcubic.symmetroid import Symmetrization

    out = Scene(field, metadata=dict(scene.metadata))
    for name, obj in scene.objects.items():
        if isinstance(obj, (Symmetrization, HomogPoly)):
            out.add(name, obj.change_field(field))
        elif isinstance(obj, SymMatrix):
            out.add(name, obj.map(lambda v: v.change_field(field)))
        elif isinstance(obj, Line2):
            out.add(name, Line2(field, [c.change_field(field) for c in obj.p0],
                                [c.change_field(field) for c in obj.p1]))
        else:
            conics, quartic = obj
            out.add(name, (tuple(c.change_field(field) for c in conics),
                           quartic.change_field(field)))
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_reduce_scene_equals_change_field(p):
    # fixtures.json, a pencil, and a quadric with denominators 3, 5 and 7
    from prymcubic.fields import FieldError
    from prymcubic.poly import SymMatrix
    from prymcubic.prym import pencil_conics

    scene = parse_scene(open(DATA).read())
    fx = FIXTURES["t1"]
    pen = pencil_conics(fx.symmetrization(QQ), fx.quadric(QQ))
    scene.add("K", (pen.conics(), pen.quartic))
    diag = [Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7), 1]
    scene.add("Q_den", SymMatrix.from_rows([[QQ.element(c if i == j else 0)
                                             for j, c in enumerate(diag)] for i in range(4)]))
    F = Field.prime(p)
    try:
        expected = write_scene(_reduce_by_change_field(scene, F))
    except FieldError as e:
        assert p in (3, 5, 7)
        with pytest.raises(FieldError) as info:
            reduce_scene(scene, F)
        assert str(info.value) == str(e)
        return
    assert p not in (3, 5, 7)
    assert write_scene(reduce_scene(scene, F)) == expected


def test_reduce_scene_refuses_a_field_other_than_q():
    # reading an F_11 residue over F_3 would silently reduce it again
    nf = os.path.join(os.path.dirname(DATA), "normal_forms.json")
    with pytest.raises(SceneError, match="only a scene over Q"):
        reduce_scene(parse_scene(open(nf).read()), Field.prime(3))
    K = QQ.quadratic_extension(5)
    scene = Scene(K).add("A_t1", FIXTURES["t1"].symmetrization(K))
    with pytest.raises(SceneError, match="only a scene over Q"):
        reduce_scene(scene, Field.prime(11))


_FOUR = ["1", "0", "0", "0"]
MALFORMED = {
    "quadric without a matrix": {"field": {"type": "Q"}, "objects": {"Q": {"kind": "quadric"}}},
    "quartic without a poly": {"field": {"type": "Q"}, "objects": {"X": {"kind": "quartic"}}},
    "empty symmetrization": {"field": {"type": "Q"},
                             "objects": {"A": {"kind": "symmetrization", "matrix": [[[]]]}}},
    "line with one point": {"field": {"type": "Q"},
                            "objects": {"L": {"kind": "line", "points": [["1", "0", "0"]]}}},
    "top-level list": [],
    "1 x 1 quadric": {"field": {"type": "Q"},
                      "objects": {"Q": {"kind": "quadric", "matrix": [["1"]]}}},
    "ragged quadric": {"field": {"type": "Q"},
                       "objects": {"Q": {"kind": "quadric", "matrix": [_FOUR] * 3 + [["1"]]}}},
    "zero denominator": {"field": {"type": "Q"},
                         "objects": {"Q": {"kind": "quadric", "matrix": [["1/0"] + _FOUR[1:]]
                                           + [_FOUR] * 3}}},
    "objects as a list": {"field": {"type": "Q"}, "objects": []},
    "metadata as a list": {"field": {"type": "Q"}, "objects": {}, "metadata": [1]},
    "pairs as a number": {"field": {"type": "Q"}, "objects": {}, "metadata": {"pairs": 5}},
    "a pair of one name": {"field": {"type": "Q"}, "objects": {},
                           "metadata": {"pairs": [["A_t1"]]}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_scene_is_an_input_error(name, tmp_path, capsys):
    text = json.dumps(MALFORMED[name])
    with pytest.raises(SceneError):
        parse_scene(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "error" in json.loads(err)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_classify(capsys):
    code, out, err = run_cli(["classify", DATA, "--object", "A_t2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["type"] == "T2"
    assert rep["annihilation"] and rep["minor_relation"]


def test_cli_classify_reads_one_rank_one_scheme(capsys, monkeypatch):
    # the report's rank-one entry is the scheme classify computed: one row
    # reduction of the contraction matrix, one of its transpose and one
    # pencil of rank-one conics per web
    import prymcubic.linalg as linalg
    import prymcubic.symmetroid as symmetroid

    counts = dict.fromkeys(("kernel_basis", "determinant", "members"), 0)
    kernel_basis = linalg.kernel_basis
    determinant, members = symmetroid.pencil_determinant_raw, symmetroid.multiple_members

    def counted_kernel_basis(rows, field):
        counts["kernel_basis"] += 1
        return kernel_basis(rows, field)

    def counted_determinant(m1, m2, field):
        counts["determinant"] += 1
        return determinant(m1, m2, field)

    def counted_members(m1, m2, det, field):
        counts["members"] += 1
        return members(m1, m2, det, field)

    monkeypatch.setattr(linalg, "kernel_basis", counted_kernel_basis)
    monkeypatch.setattr(symmetroid, "pencil_determinant_raw", counted_determinant)
    monkeypatch.setattr(symmetroid, "multiple_members", counted_members)
    nf = os.path.join(os.path.dirname(DATA), "normal_forms.json")
    code, out, err = run_cli(["classify", nf, "--object", "N1"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["rank_one"] == [1, 1, 1, 1]
    assert counts == {"kernel_basis": 2, "determinant": 1, "members": 1}


def test_cli_classify_cone_with_dependent_partials(tmp_path, capsys):
    # the projected plane cubic's partials are linearly dependent: the
    # cone is singular, not an input error
    from prymcubic.symmetroid import Symmetrization

    z = [0, 0, 0, 0]
    rows = [[z, [6, 0, 0, 0], [2, 0, 0, 0]],
            [[6, 0, 0, 0], [8, 0, 0, 0], [0, 9, 1, 0]],
            [[2, 0, 0, 0], [0, 9, 1, 0], [8, 6, 7, 5]]]
    F11 = Field.prime(11)
    path = tmp_path / "cone.json"
    path.write_text(write_scene(Scene(F11).add("W", Symmetrization.from_entry_rows(F11, rows))))
    code, out, err = run_cli(["classify", str(path), "--object", "W"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["type"] == "DegenerateSingular" and rep["kernel_dimension"] == 1


def test_cli_classifies_webs_and_cones_over_f3(tmp_path, capsys):
    # a web with rank-one conics w0 w1 + w1^2 and 2 w0 w1 + w0 w2 + 2 w1 w2
    # + w2^2, and the bielliptic cone, whose plane cubic is smooth in
    # characteristic three
    from prymcubic.symmetroid import Symmetrization

    F3 = Field.prime(3)
    rows = [[[2, 0, 2, 2], [2, 2, 0, 1], [1, 2, 1, 1]],
            [[2, 2, 0, 1], [1, 1, 0, 2], [0, 0, 2, 0]],
            [[1, 2, 1, 1], [0, 0, 2, 0], [1, 0, 1, 0]]]
    scene = reduce_scene(parse_scene(open(DATA).read()), F3)
    path = tmp_path / "f3.json"
    path.write_text(write_scene(scene.add("W", Symmetrization.from_entry_rows(F3, rows))))
    for name, tag in (("W", "T2"), ("A_biell", "DegenerateCone")):
        code, out, err = run_cli(["classify", str(path), "--object", name], capsys)
        assert code == 0
        assert json.loads(out)["type"] == tag


def test_cli_classify_missing_object(capsys):
    code, out, err = run_cli(["classify", DATA, "--object", "nope"], capsys)
    assert code == 2


def test_cli_hankel_and_pipeline(tmp_path, capsys):
    code, out, err = run_cli(["hankel", "--poly", "t^4-1"], capsys)
    assert code == 0
    scene = parse_scene(out)
    a = scene.get("A", "symmetrization")
    assert a.matrix.at(2, 2) == HomogPoly.linear(QQ, ("x0", "x1", "x2", "x3"), [1, 0, 0, 0])
    code, out, err = run_cli(["hankel", "--poly", "t^3-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("poly", ["t^5 + 1", "t^4 + t^7"])
def test_cli_hankel_rejects_exponents_above_four(poly, capsys):
    code, out, err = run_cli(["hankel", "--poly", poly], capsys)
    assert (code, out) == (2, "")
    assert "outside 0..4" in json.loads(err)["error"]


def test_cli_hankel_rejects_a_zero_denominator(capsys):
    code, out, err = run_cli(["hankel", "--poly", "t^4 + 1/0"], capsys)
    assert (code, out) == (2, "")
    assert "zero denominator" in json.loads(err)["error"]


@pytest.mark.parametrize("poly", ["t^4 + t5", "t^4+t*x", "t^4 + t^"])
def test_cli_hankel_rejects_a_tail_after_t(poly, capsys):
    code, out, err = run_cli(["hankel", "--poly", poly], capsys)
    assert (code, out) == (2, "")
    assert "may only be followed by ^n" in json.loads(err)["error"]
    assert len(err.splitlines()) == 1


def test_cli_hankel_reads_a_bare_t_as_its_first_power():
    from prymcubic.cli import _parse_monic_quartic
    assert _parse_monic_quartic("t^4 + t") == [0, 1, 0, 0]
    assert _parse_monic_quartic("t^4 - 2*t^2 + 3t - 1/2") == [Fraction(-1, 2), 3, -2, 0]


def test_cli_forward_reverse_roundtrip(tmp_path, capsys):
    code, out, err = run_cli(["forward", DATA, "--A", "A_t1", "--Q", "Q_t1"], capsys)
    assert code == 0
    fwd_scene = parse_scene(out)
    path = tmp_path / "fwd.json"
    path.write_text(out)
    assert "X" in fwd_scene.objects and "K" in fwd_scene.objects
    code, out, err = run_cli(["reverse", str(path), "--X", "X", "--pencil", "K"], capsys)
    assert code == 0
    rev_scene = parse_scene(out)
    assert rev_scene.metadata["type"] == "T1"
    assert not rev_scene.metadata["degenerate"]


def test_cli_forward_even(capsys):
    code, out, err = run_cli(["forward", DATA, "--A", "A_even", "--Q", "Q_even"], capsys)
    assert code == 0
    scene = parse_scene(out)
    assert "Xbar" in scene.objects and "branch" in scene.objects


def test_cli_count_and_bitangents(tmp_path, capsys):
    code, out, err = run_cli(["count", DATA, "--curve", "A_t1,Q_t1", "--q", "11"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["genus"] == 4 and rep["smooth"] and rep["weil_ok"]
    code, out, err = run_cli(["count", DATA, "--curve", "A_t1,Q_t1", "--q", "11",
                              "--cover"], capsys)
    assert code == 0
    rep_cover = json.loads(out)
    assert rep_cover["genus"] == 7
    code, out, err = run_cli(["count", DATA, "--curve", "X_seed", "--q", "13"], capsys)
    assert code == 0
    rep_x = json.loads(out)
    assert rep_x["genus"] == 3 and not rep_x["smooth"]
    # bitangents need a smooth quartic: build one in a temp scene
    from prymcubic.prym import forward_general
    fx = FIXTURES["t1"]
    scene = Scene(QQ).add("X", forward_general(fx.symmetrization(QQ), fx.quadric(QQ)).quartic)
    path = tmp_path / "x.json"
    path.write_text(write_scene(scene))
    code, out, err = run_cli(["bitangents", str(path), "--object", "X", "--q", "11"], capsys)
    assert code == 0
    rep_b = json.loads(out)
    assert 1 <= rep_b["count"] <= 28


def test_cli_count_reads_the_genus_off_the_degree(tmp_path, capsys):
    # a plane curve of degree d has arithmetic genus (d - 1)(d - 2)/2: the
    # conic Xbar has genus 0, so its q + 1 points meet the Weil bound, and
    # the branch quartic keeps genus 3
    path = _forward_scene("A_even", "Q_even", tmp_path, capsys)
    code, out, err = run_cli(["count", path, "--curve", "Xbar", "--q", "13"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert (rep["genus"], rep["count"], rep["trace"], rep["weil_ok"], rep["smooth"]) == (
        0, 14, 0, True, True)
    code, out, err = run_cli(["count", path, "--curve", "branch", "--q", "13"], capsys)
    assert code == 0
    assert json.loads(out)["genus"] == 3


def test_cli_count_budget(capsys):
    code, out, err = run_cli(["--budget", "100", "count", DATA,
                              "--curve", "A_t1,Q_t1", "--q", "11"], capsys)
    assert code == 3


def test_cli_count_octic_chart_budget(tmp_path, capsys):
    code, out, err = run_cli(["forward", DATA, "--A", "A_even", "--Q", "Q_even"], capsys)
    assert code == 0 and "octic" in parse_scene(out).objects
    path = tmp_path / "even.json"
    path.write_text(out)
    args = ["count", str(path), "--curve", "octic", "--q", "11"]
    code, out, err = run_cli(["--budget", "5"] + args, capsys)
    assert code == 3 and out == ""
    assert "exceeds budget" in json.loads(err)["error"]
    # the affine chart walks q values of s, so a budget of q suffices
    code, out, err = run_cli(["--budget", "11"] + args, capsys)
    assert code == 0
    code, out_default, err = run_cli(args, capsys)
    assert out == out_default and json.loads(out)["count"] == 11


def test_cli_count_octic_chart_rejects_non_octics(tmp_path, capsys):
    # s^4 + t^4 is a genus-1 chart and its square a reducible curve; neither
    # is a genus-3 octic chart
    F = Field.prime(11)
    quartic = HomogPoly(F, ("s", "t"), 4, {(4, 0): 1, (0, 4): 1})
    for h in (quartic, quartic * quartic):
        path = tmp_path / "h.json"
        path.write_text(write_scene(Scene(F).add("h", h)))
        code, out, err = run_cli(["count", str(path), "--curve", "h"], capsys)
        assert code == 2 and out == ""
        assert "separable" in json.loads(err)["error"]


def test_cli_milne_enumerate_budget(capsys):
    args = ["milne-tritangents", DATA, "--A", "A_t1", "--Q", "Q_t1", "--enumerate",
            "--q", "11"]
    code, out, err = run_cli(["--budget", "120"] + args, capsys)
    assert code == 3
    code, out, err = run_cli(["--budget", "121"] + args, capsys)
    assert code == 0
    names = [r["line"] for r in json.loads(out)["results"]]
    assert names[:2] == ["(1, 0, 0)", "(1, 0, 1)"] and names[-1] == "(0, 0, 1)"
    assert len(names) == 11 * 11 + 11 + 1


def test_cli_milne_single_line(tmp_path, capsys):
    F = Field.prime(11)
    scene = reduce_scene(parse_scene(open(DATA).read()), F)
    scene.add("L1", Line2.from_dual(F, (1, 2, 0)))
    path = tmp_path / "scene11.json"
    path.write_text(write_scene(scene))
    code, out, err = run_cli(["milne-tritangents", str(path), "--A", "A_t1",
                              "--Q", "Q_t1", "--line", "L1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["generic"]


def test_cli_milne_keys_mean_what_the_readme_says(capsys):
    # "generic" says only that the line has an enveloping cone; whether the
    # line avoids the base locus (milne.line_is_generic) is
    # "twisted_cubic_honest", given on each bitangent entry.  On seed over
    # F_13 the two differ: 70 lines with a cone meet the base locus, and
    # every bitangent entry is one of them
    F = Field.prime(13)
    code, out, err = run_cli(["milne-tritangents", DATA, "--A", "A_seed", "--Q", "Q_seed",
                              "--enumerate", "--q", "13"], capsys)
    assert (code, err) == (0, "")
    a = reduce_scene(parse_scene(open(DATA).read()), F).get("A_seed", "symmetrization")
    results = json.loads(out)["results"]
    duals = list(projective_points(F, 2))
    assert [entry["line"] for entry in results] == [str(dual) for dual in duals]
    meets_base_locus = bitangents = 0
    for dual, entry in zip(duals, results):
        line = Line2.from_dual(F, dual)
        try:
            enveloping_cone(a, line)
            has_cone = True
        except MilneError:
            has_cone = False
        assert entry["generic"] == has_cone, dual
        generic = line_is_generic(a, line)
        meets_base_locus += has_cone and not generic
        if entry.get("bitangent"):
            assert entry["twisted_cubic_honest"] == generic, dual
            bitangents += 1
    assert (meets_base_locus, bitangents) == (70, 8)


def test_cli_internal_invariant_failure_exits_4(capsys, monkeypatch):
    # hand the twisted-cubic check a determinant that is off by x0^3, so the
    # image of the line leaves the "symmetroid": a defect, not an input error
    import prymcubic.cli as cli
    from prymcubic.prym import InternalError

    class OffSymmetroid:
        def __init__(self, a):
            self.a = a

        def adjugate_cubics(self):
            return self.a.adjugate_cubics()

        def determinant_cubic(self):
            det = self.a.determinant_cubic()
            return det + HomogPoly.monomial(det.field, det.vars, (3, 0, 0, 0))

    real = cli.twisted_cubic
    monkeypatch.setattr(cli, "twisted_cubic",
                        lambda a, line: real(OffSymmetroid(a), line))
    code, out, err = run_cli(["milne-tritangents", DATA, "--A", "A_t1", "--Q", "Q_t1",
                              "--enumerate", "--q", "11"], capsys)
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "twisted cubic left the symmetroid; internal error"}
    assert not issubclass(InternalError, ValueError)


def _break_split(monkeypatch):
    # a Segre target off by a factor 2: no transform verifies against it
    segre = prym.segre_matrix
    monkeypatch.setattr(prym, "segre_matrix", lambda field: segre(field).scale(field.element(2)))


def _break_pencil(monkeypatch):
    # the pencil's 2x2 determinant is never proportional to the quartic
    monkeypatch.setattr(prym, "proportional", lambda f, g: False)


def _break_conic_solve(monkeypatch):
    # the conic solver takes c = 1 for a root of every quadratic
    monkeypatch.setattr(prym, "_integer_roots_in_box", lambda A, B, C: (1,))


def _break_minor_relation(monkeypatch):
    # m12 m23 - cross^2 = a11 det holds for every symmetric 3x3 matrix of forms
    from prymcubic.symmetroid import Symmetrization
    minors = Symmetrization.double_cover_minors
    monkeypatch.setattr(Symmetrization, "double_cover_minors",
                        lambda self: minors(self)[:3] + (False,))


@pytest.mark.parametrize("breaker, argv, error", [
    (_break_split, ["forward", DATA, "--A", "A_t1", "--Q", "Q_t1"],
     "split transform verification failed"),
    (_break_split, ["verify", DATA], "split transform verification failed"),
    (_break_pencil, ["forward", DATA, "--A", "A_t1", "--Q", "Q_t1"],
     "pencil compatibility identity failed"),
    (_break_conic_solve, ["forward", DATA, "--A", "A_even", "--Q", "Q_even"],
     "solved conic point is off the conic"),
    (_break_minor_relation, ["count", DATA, "--curve", "A_t1,Q_t1", "--q", "11", "--cover"],
     "minor relation failed; internal error"),
], ids=["split-forward", "split-verify", "pencil", "conic-point", "minor-relation"])
def test_cli_prym_invariant_failures_exit_4(breaker, argv, error, capsys, monkeypatch):
    # these invariants hold for every input, so a failure is a defect of the
    # program: exit 4, never an input error (2) or a verify failure (1)
    breaker(monkeypatch)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": error}


def test_cli_verify_manifest(capsys):
    code, out, err = run_cli(["verify", DATA], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == []
    # verify draws nothing at random: the global --seed changes no byte
    for seed in ("1", "2"):
        assert run_cli(["--seed", seed, "verify", DATA], capsys) == (code, out, err)


def test_cli_verify_leaves_the_ring_identities_to_the_tests(capsys, monkeypatch):
    # the annihilation and the minor relation hold for every symmetric matrix
    # of linear forms, so verify does not re-prove them on each run: with
    # both broken it prints what it prints on working code, while count
    # --cover still guards its count with the minor relation (exit 4)
    from prymcubic.symmetroid import Symmetrization

    expected = run_cli(["verify", DATA], capsys)
    _break_minor_relation(monkeypatch)
    monkeypatch.setattr(Symmetrization, "annihilation_holds", lambda self: False)
    assert run_cli(["verify", DATA], capsys) == expected
    code, out, err = run_cli(["count", DATA, "--curve", "A_t1,Q_t1", "--q", "11", "--cover"],
                             capsys)
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "minor relation failed; internal error"}


def _scene_of_webs_without_adjugation_map(field, path):
    """A scene holding diag(x0, x1, x0 + x1), a web with a two-dimensional
    kernel, and the zero web: neither has a cubic adjugation map."""
    from prymcubic.poly import SymMatrix
    from prymcubic.symmetroid import Symmetrization, X4

    def web(rows):
        return Symmetrization(field, SymMatrix.from_rows(
            [[HomogPoly.linear(field, X4, c) for c in row] for row in rows]))

    e0, e1, e01, zero = [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]
    scene = Scene(field, metadata={"pairs": []})
    scene.add("A_two", web([[e0, zero, zero], [zero, e1, zero], [zero, zero, e01]]))
    scene.add("A_zero", web([[zero] * 3] * 3))
    path.write_text(write_scene(scene))
    return str(path)


def test_cli_verify_notes_the_type_of_a_web_without_adjugation_map(tmp_path, capsys):
    # verify records the type of a web without adjugation map, which gates
    # the Gauss identity (the one check that reads the map) off
    path = _scene_of_webs_without_adjugation_map(QQ, tmp_path / "degenerate.json")
    code, out, err = run_cli(["verify", path], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"failures": [], "notes": {"A_two": "DegenerateSingular",
                                                         "A_zero": "ReducibleUnclassified"}}


def test_cli_classify_types_a_web_without_adjugation_map(tmp_path, capsys):
    # B(z) annihilates the zero column, so the annihilation self-check holds
    # and classify prints the type instead of refusing the web as input
    path = _scene_of_webs_without_adjugation_map(Field.prime(11), tmp_path / "degenerate.json")
    for name, tag, kernel in [("A_two", "DegenerateSingular", 2),
                              ("A_zero", "ReducibleUnclassified", 4)]:
        code, out, err = run_cli(["classify", path, "--object", name], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"object": name, "type": tag, "kernel_dimension": kernel,
                                   "annihilation": True, "minor_relation": True}


def test_cli_verify_notes_a_pencil_needing_a_second_extension(tmp_path, capsys):
    # over Q(sqrt 5), splitting diag(1, 1, 1, 3) needs a second extension:
    # verify records that as a note of the pair, as forward does, not as a
    # failure
    from prymcubic.poly import SymMatrix

    K = QQ.quadratic_extension(5)
    diag = [[K.element(c if i == j else 0) for j, c in enumerate((1, 1, 1, 3))]
            for i in range(4)]
    scene = Scene(K, metadata={"pairs": [["A_t1", "Qd_no"]]})
    scene.add("A_t1", FIXTURES["t1"].symmetrization(K)).add("Qd_no", SymMatrix.from_rows(diag))
    path = tmp_path / "tower.json"
    path.write_text(write_scene(scene))
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == []
    note = rep["notes"]["A_t1|Qd_no"]
    assert note["pencil"] == "splitting needs a second quadratic extension"
    code, out, err = run_cli(["forward", str(path), "--A", "A_t1", "--Q", "Qd_no"], capsys)
    assert code == 0
    notes = json.loads(out)["metadata"]["notes"]
    assert notes == {"reduced": note["reduced"], "pencil": note["pencil"]}


def test_cli_entry_point_subprocess():
    # the child does not see pytest's pythonpath setting: put this
    # checkout's src/ first on its PYTHONPATH
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = subprocess.run([sys.executable, "-m", "prymcubic.cli", "classify", DATA,
                           "--object", "A_t3"], capture_output=True, text=True, env=env)
    assert code.returncode == 0
    assert json.loads(code.stdout)["type"] == "T3"


def test_cli_bitangents_rejects_singular_quartic(capsys):
    code, out, err = run_cli(["bitangents", DATA, "--object", "X_seed", "--q", "11"], capsys)
    assert code == 2


NORMAL_FORMS_SCENE = os.path.join(os.path.dirname(__file__), "..", "src",
                                  "prymcubic", "data", "normal_forms.json")


def test_cli_classify_eight_normal_forms(capsys):
    expected = json.loads(open(NORMAL_FORMS_SCENE).read())["metadata"]["expected"]
    for name, tag in sorted(expected.items()):
        code, out, err = run_cli(["classify", NORMAL_FORMS_SCENE, "--object", name], capsys)
        assert code == 0
        assert json.loads(out)["type"] == tag


def test_cli_verify_checks_pencils(tmp_path, capsys):
    from prymcubic.prym import pencil_conics
    fx = FIXTURES["t1"]
    pen = pencil_conics(fx.symmetrization(QQ), fx.quadric(QQ))
    good = Scene(QQ, metadata={"pairs": []}).add("K", (pen.conics(), pen.quartic))
    p1 = tmp_path / "good.json"
    p1.write_text(write_scene(good))
    code, out, err = run_cli(["verify", str(p1)], capsys)
    assert code == 0
    bad = Scene(QQ, metadata={"pairs": []}).add(
        "K", ((pen.c00, pen.c01, pen.c10, pen.c00), pen.quartic))
    p2 = tmp_path / "bad.json"
    p2.write_text(write_scene(bad))
    code, out, err = run_cli(["verify", str(p2)], capsys)
    assert code == 1
    # a pencil holds four conics: three or five are an input error, for
    # verify and for reverse alike
    x = Scene(QQ).add("X", pen.quartic)
    for conics in (pen.conics()[:3], pen.conics() + (pen.c00,)):
        path = tmp_path / "conics.json"
        path.write_text(write_scene(x.add("K", (conics, pen.quartic))))
        for argv in (["verify", str(path)], ["reverse", str(path), "--X", "X", "--pencil", "K"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err.count("\n") == 1
            assert json.loads(err)["error"] == "a pencil needs four conics, not %d" % len(conics)


def test_cli_forward_and_verify_pull_back_once_per_pair(monkeypatch, capsys):
    # pencil_conics reads the forward model its caller just built: one
    # reducedness decision per rank-4 pair, five in the shipped manifest
    calls = []
    decide = prym._quartic_reduced
    monkeypatch.setattr(prym, "_quartic_reduced",
                        lambda quartic: calls.append(quartic) or decide(quartic))
    code, out, err = run_cli(["forward", DATA, "--A", "A_t1", "--Q", "Q_t1"], capsys)
    assert code == 0 and "K" in parse_scene(out).objects
    assert len(calls) == 1
    calls.clear()
    code, out, err = run_cli(["verify", DATA], capsys)
    assert code == 0
    assert len(calls) == 5


# sha256 of the exit code, stdout and stderr, joined by NUL bytes, of CLI
# runs on the shipped data, recorded while every rational's raw value was a
# Fraction: a change of representation must not alter a byte of output.  The
# `count` and `reverse` entries were recorded while `pencil_conics` still
# computed its own dual quadric and `reverse_construct` its own cubic, and
# the `--enumerate` entries at q = 13 while `enveloping_cone` still ranked
# its cone by row reduction.
STABLE_OUTPUTS = {
    "bitangents A_t1 Q_t1 11":
        "f691ce5e0b61b80116b757482f349c28949672b94f0ea0df77969b51f328215c",
    "bitangents X_seed 13":
        "e72f090c298416a05b026bb117643f58fc9a8514b5fd0545b05c89ab04bb44b6",
    "classify A_biell":
        "e2e8cb71539d544875e871bd8e479c4a8814cdf0290a8d63d0db4850e1e0ebdc",
    "classify A_even":
        "a2d8783c3f26ea44986a0d04ff4973d6dde2e280c72c36e40018f8fc7d4602a4",
    "classify A_even_biell":
        "8e97354f7045b45adae3433f37ef6e1961ed47678e3a083e2682add8915d15bd",
    "classify A_seed":
        "3505116ebf390543521ed303f83846def5d51a2e694f3bdb5e6b9546b9400769",
    "classify A_t1":
        "1ac339691366a461427502c1ef7b32c9d737612a8a400aadb990815863741f2a",
    "classify A_t2":
        "65854db8dcd42ce9ed242fad8014eb0beb96c0e1d074fa032ebe31edae482380",
    "classify A_t3":
        "e364804779baa94b31c59a05f890417fb16d229c1075c447535f8937da4a2fde",
    "forward A_biell Q_biell":
        "1aebf3ad540bc054d59bcdd36af47e2dc032ba8692ed9d4ac6f343ad0314cc5b",
    "forward A_even Q_even":
        "46306d5f9b80bedf15ab8c8740cac34b5f25d77bd7ac45b633c187bf4bc3c155",
    "forward A_even_biell Q_even_biell":
        "109e725f9d7082ef064efdddf54093021fc0b83917f79bc994c693a944fdd72e",
    "forward A_seed Q_seed":
        "cfa0d7c58102085cc3663a2555c4fc07a4763f486534a8b8900298b8b918be2e",
    "forward A_t1 Q_t1":
        "02eb72925fd34030afc28888419fbf455db1b9aa276fd37d19e3398a0cd41da8",
    "forward A_t2 Q_t2":
        "221a30adb86aa7d1f06abcc533b662720731d3a1018add4ca609bc4e66926fae",
    "forward A_t3 Q_t3":
        "f8295945b82c489106dcc658e04ed779c5b5802b997140838fc350e07d7e8874",
    "milne-tritangents A_biell Q_biell":
        "f8d5aaee3187596e495150550e42de28553f097916c41756c7d362c9771cda4d",
    "milne-tritangents A_even Q_even":
        "f8d5aaee3187596e495150550e42de28553f097916c41756c7d362c9771cda4d",
    "milne-tritangents A_even_biell Q_even_biell":
        "f8d5aaee3187596e495150550e42de28553f097916c41756c7d362c9771cda4d",
    "milne-tritangents A_seed Q_seed":
        "06a620e42a724d214f3ac39b633089fbc955f9392b828fd455835eb988468d2e",
    "milne-tritangents A_seed Q_seed 13 --enumerate":
        "a56cd78dd9653dcb1efe0ec22115d441bc84f3cd8db31a51878ac6332cdb3878",
    "milne-tritangents A_t1 Q_t1":
        "f8d5aaee3187596e495150550e42de28553f097916c41756c7d362c9771cda4d",
    "milne-tritangents A_t1 Q_t1 11 --enumerate":
        "724987ffe050a3119f2399caa734b072f0d5b568a60ba5728bf69805c693b3fc",
    "milne-tritangents A_t2 Q_t2":
        "f8d5aaee3187596e495150550e42de28553f097916c41756c7d362c9771cda4d",
    "milne-tritangents A_t2 Q_t2 13 --enumerate":
        "ab530bd8606f99e7244fadf8c8e87dd45c1bb0eb5178c3be2ba46b174d0418e5",
    "milne-tritangents A_t3 Q_t3":
        "f8d5aaee3187596e495150550e42de28553f097916c41756c7d362c9771cda4d",
    "milne-tritangents A_t3 Q_t3 13 --enumerate":
        "1617ae76f16c8267586e3af2508f6ec1bdf31c4d82ac75f5558d6f68af892edc",
    "count A_t1,Q_t1 11":
        "6a44a355165657edaf6cbb022fa1ec48e70e7a1c92f662719d80a9aa4583a064",
    "count A_t1,Q_t1 11 --cover":
        "ed0428d2ccb82f44b18e07fefe25fd3aae3dd0bf8b846b2d8b626dbacab51d61",
    "count X_seed 13":
        "b01e7ec8cec45f4141abef83c3285c98fefb7eed96b23c6717c89a9b484e9e61",
    "count octic A_even Q_even 13":
        "493307add68096b3a2136740f8f03e557a31de297aa8a5d849c8655691827b62",
    "reverse A_biell Q_biell":
        "3399b1428adf0b7af6e7ada50e87345cb238f4f616ad34a687130945dc9a8a90",
    "reverse A_seed Q_seed":
        "bec85f003047fe210e65a65c50453a6cebcf757aa5c02817362523c93112b510",
    "reverse A_t1 Q_t1":
        "ebca1143de76b3547e8d5bee090a7de31adec6fa9f7ddb63ded8157797f1adb1",
    "reverse A_t2 Q_t2":
        "2c2420145ab9ec55fdc1feb3f34dfd5fc4c3a17b3098c1b34e76f686e75bd3c4",
    "reverse A_t3 Q_t3":
        "156a8128ae89df99e66c27041200346c553f43e431389130549b100e6143a122",
    "verify fixtures.json":
        "2db18f5df3c2ecad904975dc4e749d8650eba973e9f5d419cd59ff1fd5059fbf",
    "verify normal_forms.json":
        "c9912b0ad92d0d682bea5b691fa38a679025b878c3e5d8b6522f8e4edaa95d4f",
}


def _forward_scene(a, q, tmp_path, capsys):
    code, out, err = run_cli(["forward", DATA, "--A", a, "--Q", q], capsys)
    assert (code, err) == (0, "")
    path = tmp_path / ("forward_%s_%s.json" % (a, q))
    path.write_text(out)
    return str(path)


def _stable_argv(name, tmp_path, capsys):
    """The CLI argv a `STABLE_OUTPUTS` name stands for.  `reverse A Q`,
    `count octic A Q p` and `bitangents A Q p` read the scene that
    `forward A Q` prints."""
    cmd, *args = name.split()
    if cmd == "bitangents" and len(args) == 3:
        return [cmd, _forward_scene(args[0], args[1], tmp_path, capsys),
                "--object", "X", "--q", args[2]]
    if cmd == "bitangents":
        return [cmd, DATA, "--object", args[0], "--q", args[1]]
    if cmd == "verify":
        return [cmd, os.path.join(os.path.dirname(DATA), args[0])]
    if cmd == "classify":
        return [cmd, DATA, "--object", args[0]]
    if cmd == "reverse":
        return [cmd, _forward_scene(args[0], args[1], tmp_path, capsys),
                "--X", "X", "--pencil", "K"]
    if cmd == "count" and args[0] == "octic":
        return [cmd, _forward_scene(args[1], args[2], tmp_path, capsys),
                "--curve", "octic", "--q", args[3]]
    if cmd == "count":
        return [cmd, DATA, "--curve", args[0], "--q", args[1]] + args[2:]
    argv = [cmd, DATA, "--A", args[0], "--Q", args[1]]
    if cmd != "milne-tritangents":
        return argv
    return argv + (["--enumerate", "--q", args[2]] if len(args) > 2 else ["--line", "L_demo"])


def test_stable_outputs_cover_every_shipped_pair():
    pairs = json.loads(open(DATA).read())["metadata"]["pairs"]
    assert len(pairs) == 7
    for a, q in pairs:
        for name in ("forward %s %s" % (a, q), "classify " + a,
                     "milne-tritangents %s %s" % (a, q)):
            assert name in STABLE_OUTPUTS


@pytest.mark.parametrize("name", sorted(STABLE_OUTPUTS))
def test_cli_output_bytes_are_stable(name, tmp_path, capsys):
    code, out, err = run_cli(_stable_argv(name, tmp_path, capsys), capsys)
    blob = b"\0".join([str(code).encode(), out.encode(), err.encode()])
    assert hashlib.sha256(blob).hexdigest() == STABLE_OUTPUTS[name]
