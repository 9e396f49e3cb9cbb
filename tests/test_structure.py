"""Module boundaries: no module of the package imports another module's
private names; a helper two modules need is public or lives in one place."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prymcubic"


def test_no_cross_module_private_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("prymcubic"):
                continue
            offenders += ["%s:%d %s" % (path.name, node.lineno, alias.name)
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_field_kind_tags_only_in_scene_format():
    # a field's kind is its class; the "Fp"/"QuadExt" tags are scene-file format
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scene.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in ("Fp", "QuadExt"):
                offenders.append("%s:%d %r" % (path.name, node.lineno, node.value))
    assert offenders == []


def test_every_field_class_inherits_sqrt():
    # perfbench/tracer.py times square roots by patching Field.__dict__["sqrt"]
    from prymcubic.fields import Field

    classes, todo = [], [Field]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    assert [c.__name__ for c in classes if "sqrt" in vars(c)] == ["Field"]


def test_binary_forms_are_two_variable_homog_polys():
    # one binary-form type: binforms takes and returns HomogPoly and
    # defines no class of its own
    from prymcubic.binforms import ST, binary_gcd, perfect_square_root
    from prymcubic.fields import Field
    from prymcubic.fixtures import FIXTURES
    from prymcubic.poly import HomogPoly
    from prymcubic.prym import forward_even

    tree = ast.parse((SRC / "binforms.py").read_text(encoding="utf-8"))
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    assert classes == []
    F = Field.prime(13)
    f = HomogPoly(F, ST, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (s + t)^2
    g = HomogPoly(F, ST, 2, {(2, 0): 1, (0, 2): -1})  # (s + t)(s - t)
    root = perfect_square_root(f)
    assert isinstance(root, HomogPoly) and root.vars == ST and root * root == f
    d = binary_gcd(f, g)
    assert isinstance(d, HomogPoly) and d.vars == ST and d.degree == 1
    fx = FIXTURES["even"]
    octic = forward_even(fx.symmetrization(F), fx.quadric(F)).octic
    assert isinstance(octic, HomogPoly) and octic.vars == ST and octic.degree == 8


def test_one_place_goes_up_to_a_quadratic_extension():
    # Field.adjoin_sqrt decides whether a root needs the one extension, and
    # no caller switches that off; outside fields.py only the scene parser
    # builds an extension, from the field tag it reads
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for child in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "allow_extension" in names:
                    offenders.append("%s:%d takes allow_extension" % (path.name, node.lineno))
            if isinstance(node, ast.keyword) and node.arg == "allow_extension":
                offenders.append("%s:%d passes allow_extension" % (path.name, node.lineno))
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("quadratic_extension", "sqrt_d")
                    and path.name != "fields.py"):
                fn = parents.get(node)
                if (path.name, node.attr, fn and fn.name) != (
                        "scene.py", "quadratic_extension", "field_from_json"):
                    offenders.append("%s:%d %s" % (path.name, node.lineno, node.attr))
    assert offenders == []


def test_one_scan_kernel_for_every_finite_field():
    # one raw enumerator (wrapped by projective_points) and one evaluator
    # serve every finite field, and each oracle scan walks its points in one
    # loop; compile_raw is the one scan evaluator, and F_p's integer
    # arithmetic elsewhere lives in the field's raw operations
    kernels = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                    ("compile", "projective_points", "_compile", "_projective_points")):
                kernels.append("%s.%s" % (path.stem, node.name))
    assert sorted(kernels) == ["oracle.compile_raw", "oracle.projective_points",
                               "oracle.projective_points_raw"]
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    scans = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
             and n.name in ("smoothness_certificate", "count_curve", "count_double_cover")}
    assert len(scans) == 3
    for name, fn in scans.items():
        assert sum(isinstance(n, ast.For) for n in ast.walk(fn)) <= 1, name
        assert "PrimeField" not in ast.unparse(fn), name
    # the three scans read one census, and only the census walks the scheme
    def callers(callee):
        # the top-level function around each call (None outside any function)
        return [top.name if isinstance(top, ast.FunctionDef) else None
                for top in tree.body for n in ast.walk(top)
                if isinstance(n, ast.Call) and ast.unparse(n.func) == callee]
    assert callers("_scheme_points") == ["_census"]
    assert set(scans) <= set(callers("_census"))


def test_scheme_walk_is_fibred_over_a_hyperplane():
    # the oracle's scheme walk enumerates the base P^(n-2) of the fibration
    # from the last coordinate point, never P^(n-1) itself
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    walk = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "_scheme_points")
    enumerations = [ast.unparse(n) for n in ast.walk(walk) if isinstance(n, ast.Call)
                    and ast.unparse(n.func) in ("projective_points_raw", "projective_points")]
    assert enumerations == ["projective_points_raw(field, nv - 2)"]


def test_symmetroid_finds_plane_factors_without_a_point_scan():
    # plane factors of the determinant come from binary-cubic roots on three
    # lines, not from a walk over the planes of P^3
    tree = ast.parse((SRC / "symmetroid.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "projective_points_raw" not in names
    assert "rational_roots" in names


def test_fixture_search_tool_imports(monkeypatch):
    # the search itself runs only under __main__; importing the tool catches a
    # renamed package name before the tool is next run
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("find_fixtures",
                                                  ROOT / "tools" / "find_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.curve_smooth_everywhere) and callable(module.search_even)


def test_size_tool_counts(tmp_path):
    # raw lines, code lines (no blank line, comment or docstring) and
    # settable values (defaulted parameters, lambdas included)
    spec = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = (1,\n"
        "     2)  # a trailing comment\n"
        "\n"
        "\n"
        "def f(a, b=1, *, c, d=2):\n"
        '    """One line."""\n'
        "    return lambda e=3: a + e\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class\n'
        '    docstring."""\n'
        '    s = """a string\n'
        '    on two lines"""\n', encoding="utf-8")
    (tmp_path / "empty.py").write_text("", encoding="utf-8")
    assert module.measure(tmp_path) == {"raw_lines": 18, "code_lines": 7, "settable_values": 3}
    size = module.measure(SRC)
    assert 0 < size["code_lines"] < size["raw_lines"] and size["settable_values"] > 0


def test_one_kept_result_memo():
    # oracle.kept_result is the one memo of a last result: no module keeps state
    # behind a `global` statement, and only the census, the line restriction
    # (its restrictions per line and its evaluator per cubic tuple), the
    # pencil determinant's evaluator, the forward model, the compiled
    # binary invariants and the cone's rank minors (each their forms, then
    # their evaluators per field) read it
    import prymcubic.milne as milne
    import prymcubic.oracle as oracle

    assert not hasattr(oracle, "_last_census") and not hasattr(milne, "_last_line")
    readers, offenders = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Global):
                    offenders.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
                if (isinstance(node, ast.Name) and node.id == "kept_result"
                        or isinstance(node, ast.Attribute) and node.attr == "kept_result"):
                    readers.append("%s.%s" % (path.stem, getattr(top, "name", None)))
    assert offenders == []
    assert sorted(readers) == ["milne._rank_minors", "milne._rank_minors",
                               "milne._restricted", "milne._restricted", "milne.reducible_member",
                               "oracle._census", "oracle.binary_invariants",
                               "oracle.binary_invariants", "prym.forward_general"]


def test_no_unread_private_module_names():
    # a module's private top-level name is there for the module itself to read
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defined[n.id] = node.lineno
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        offenders += ["%s:%d %s" % (path.name, line, name) for name, line in defined.items()
                      if name.startswith("_") and not name.startswith("__") and name not in read]
    assert offenders == []


def test_one_exact_division_by_a_linear_form():
    # HomogPoly.divide_linear is the one division by a linear form, with no
    # linear solve behind it, and HomogPoly.linear_coeffs the one reader of
    # a linear form's coefficient vector
    from prymcubic import linalg

    assert not hasattr(linalg, "solve")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("_divide_by_plane", "conic_contains_line")):
                offenders.append("%s:%d defines %s" % (path.name, node.lineno, node.name))
            func = getattr(node, "func", None)
            if (path.name != "poly.py" and isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute) and func.attr == "get"
                    and isinstance(func.value, ast.Attribute) and func.value.attr == "terms"
                    and node.args and isinstance(node.args[0], ast.Call)
                    and ast.unparse(node.args[0].func) == "tuple"):
                offenders.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
    assert offenders == []


def test_forms_are_composed_not_accumulated_by_hand():
    # a linear combination or pullback of forms is HomogPoly.substitute (or a
    # ring operation), not a sum seeded with None outside the ring modules
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("poly.py", "linalg.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
                    and isinstance(node.test.left, ast.Name)
                    and isinstance(node.test.ops[0], ast.Is)
                    and isinstance(node.test.comparators[0], ast.Constant)
                    and node.test.comparators[0].value is None):
                continue
            name = node.test.left.id
            added = node.orelse
            if (isinstance(added, ast.BinOp) and isinstance(added.op, ast.Add)
                    and name in [n.id for n in (added.left, added.right)
                                 if isinstance(n, ast.Name)]):
                offenders.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
    assert offenders == []


def test_verify_reproves_no_ring_identity():
    # the annihilation, the minor relation and the symmetroid image of the
    # adjugation map hold for every symmetric 3x3 matrix of linear forms:
    # the tests prove them, and verify neither re-proves them on the scene
    # nor draws random webs to prove them again
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    verify = next(n for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.FunctionDef) and n.name == "_verify_scene")
    called = {ast.unparse(n.func).split(".")[-1] for n in ast.walk(verify)
              if isinstance(n, ast.Call)}
    assert not called & {"annihilation_holds", "double_cover_minors", "random", "from_rows"}
    assert "import random" not in source


def test_imports_sit_at_module_top():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += ["%s:%d %s" % (path.name, n.lineno, ast.unparse(n))
                              for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_no_coordinate_frame_table():
    # elimination is exact in every odd characteristic (a Segre symbol, a
    # 6x6 determinant, a projection centre off the curves), so no table of
    # frames is walked until one happens to be generic
    banned = {"FRAMES", "frames", "change_frame", "_macaulay_rows"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            offenders += ["%s:%d %s" % (path.name, getattr(node, "lineno", 0), name)
                          for name in sorted(names & banned)]
    elim = ast.parse((SRC / "elim.py").read_text(encoding="utf-8"))
    offenders += ["elim.py:%d imports itertools" % node.lineno for node in ast.walk(elim)
                  if isinstance(node, ast.ImportFrom) and node.module == "itertools"
                  or isinstance(node, ast.Import) and "itertools" in [a.name for a in node.names]]
    assert offenders == []


def test_pencil_roots_are_read_in_one_place():
    # binforms alone reads a form's s/t multiplicities and its core in
    # u = s/t; quadrics.multiple_members alone turns the multiple roots of
    # det(s M1 + t M2), given as a dense raw list, into members of the
    # pencil, and reducible_member hands it that list unwrapped
    import prymcubic.binforms as binforms
    import prymcubic.milne as milne
    import prymcubic.quadrics as quadrics

    private = {"squarefree_decomposition", "_strip_st", "s_mult", "t_mult"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "binforms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None), getattr(node, "name", None)}
            offenders += ["%s:%d %s" % (path.name, getattr(node, "lineno", 0), name)
                          for name in sorted(names & private)]
    assert offenders == []
    assert not hasattr(binforms, "squarefree_parts")
    assert not hasattr(milne, "_pencil_det")
    assert not hasattr(milne, "_roots_with_multiplicity_ge2")
    for module, name in ((binforms, "pencil_determinant"), (binforms, "linear_root"),
                         (quadrics, "pencil_multiple_members")):
        assert not hasattr(module, name), name
    assert "form" not in milne.EnvelopingCone.__slots__
    tree = ast.parse((SRC / "milne.py").read_text(encoding="utf-8"))
    member = next(n for n in tree.body
                  if isinstance(n, ast.FunctionDef) and n.name == "reducible_member")
    called = {ast.unparse(n.func) for n in ast.walk(member) if isinstance(n, ast.Call)}
    assert not called & {"is_squarefree_raw", "binary_form"}


def test_binary_forms_run_on_raw_values():
    # a line is restricted by HomogPoly.restrict_to_line, not by composing
    # with a parametrization, and binforms' dense helpers run on raw field
    # values: only binary_form wraps them into a form
    from prymcubic.milne import Line2

    assert not hasattr(Line2, "parametrization")
    milne = ast.parse((SRC / "milne.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(milne):
        if isinstance(node, ast.Attribute) and node.attr == "parametrization":
            offenders.append("milne.py:%d %s" % (node.lineno, ast.unparse(node)))
        # the images s*p0 + t*p1 that substitute would take
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "linear"
                and {"p0", "p1"} & {getattr(n, "attr", getattr(n, "id", None))
                                    for arg in node.args for n in ast.walk(arg)}):
            offenders.append("milne.py:%d %s" % (node.lineno, ast.unparse(node)))
    binforms = ast.parse((SRC / "binforms.py").read_text(encoding="utf-8"))
    helpers = [fn for fn in binforms.body if isinstance(fn, ast.FunctionDef)
               and (fn.name.startswith("_") or fn.name == "squarefree_decomposition")]
    assert len(helpers) >= 12
    for fn in helpers:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                    ast.unparse(node.func) == "FieldElement"
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("zero", "one", "inverse")):
                offenders.append("binforms.py:%d %s in %s" % (node.lineno, ast.unparse(node), fn.name))
    assert offenders == []


def test_one_determinant_algorithm():
    # every determinant, adjugate and maximal minor is the one shared-minor
    # Laplace expansion of linalg.maximal_minors; the resultant in the last
    # variable expands the one Sylvester matrix of linalg.sylvester by
    # linalg.laplace on dense raw lists, as the pencil determinant does, and
    # the binary resultant is Euclidean and reads none; the enveloping cone and
    # the double-cover minors read the memoized adjugate of the
    # symmetrization, so the cone restricts no Gauss quadric; the one cross
    # product of 3-vectors is linalg.cross
    def functions(module):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}

    def calls(fn):
        return {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}

    def product(node):
        # x[i] * y[j] as [(x, i), (y, j)], or None
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return None
        out = []
        for f in (node.left, node.right):
            if not (isinstance(f, ast.Subscript) and isinstance(f.slice, ast.Constant)):
                return None
            out.append((ast.unparse(f.value), f.slice.value))
        return out

    source = (SRC / "linalg.py").read_text(encoding="utf-8")
    assert "_det_gauss" not in source and "hasattr(" not in source
    linalg = functions("linalg.py")
    assert "maximal_minors" in calls(linalg["det"])
    assert "adjugate" not in linalg
    assert "linalg.det" in calls(functions("poly.py")["adjugate"])
    # adjugate_cubics checks the column that _adjugate_column memoizes
    symmetroid = functions("symmetroid.py")
    assert "self._adjugate_column" in calls(symmetroid["adjugate_cubics"])
    adjugate_column = symmetroid["_adjugate_column"]
    assert "linalg.maximal_minors" in calls(adjugate_column)
    assert "linalg.det" not in calls(adjugate_column)
    assert not {c for c in calls(functions("binforms.py")["resultant"])
                if "sylvester" in c or c.startswith("linalg.")}
    resultant_last_var = calls(functions("elim.py")["resultant_last_var"])
    assert {"linalg.sylvester", "linalg.laplace"} <= resultant_last_var
    assert "linalg.det" not in resultant_last_var
    # the one Laplace expansion is linalg.laplace: maximal_minors and the
    # pencil determinant run it, and binforms expands no minors of its own
    assert "laplace" in calls(linalg["maximal_minors"])
    assert "linalg.laplace" in calls(functions("binforms.py")["pencil_determinant_raw"])
    assert "combinations" not in (SRC / "binforms.py").read_text(encoding="utf-8")
    assert [name for name, text in ((p.name, p.read_text(encoding="utf-8"))
                                    for p in sorted(SRC.glob("*.py")))
            if "combinations(" in text] == ["linalg.py"]
    cone = {c.split(".")[-1] for c in calls(functions("milne.py")["enveloping_cone"])}
    assert "adjugate_quadrics" in cone
    assert not {"restrict_forms", "restrict_to_line", "gauss_quadrics"} & cone
    assert "self.adjugate_quadrics" in calls(functions("symmetroid.py")["double_cover_minors"])
    # x[i] * y[j] - x[j] * y[i], a coordinate of a cross product, outside
    # linalg.cross
    cross = range(linalg["cross"].lineno, linalg["cross"].end_lineno + 1)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and not (path.name == "linalg.py" and node.lineno in cross)):
                left, right = product(node.left), product(node.right)
                if left and right and left[0][1] != left[1][1]:
                    (x, i), (y, j) = left
                    if sorted(right) == sorted([(x, j), (y, i)]):
                        offenders.append("%s:%d %s" % (path.name, node.lineno,
                                                       ast.unparse(node)))
    assert offenders == []


def test_per_line_kernels_run_on_raw_values(monkeypatch):
    # once the symmetrization keeps its adjugate table and the field its
    # compiled rank minors, the enveloping cone of a line multiplies no
    # forms and reduces no rows: its rank comes from the minors, and the two
    # points of a line come in closed form (`rref` and `rank` both run the
    # raw elimination `linalg._eliminate`, which is what is counted)
    from prymcubic import linalg, milne
    from prymcubic.fields import Field
    from prymcubic.fixtures import fix_a
    from prymcubic.poly import HomogPoly

    F = Field.prime(13)
    a = fix_a(F)
    milne.enveloping_cone(a, milne.Line2.from_dual(F, (1, 2, 3)))
    counts = {"mul": 0, "rref": 0}
    mul, eliminate = HomogPoly.__mul__, linalg._eliminate

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_eliminate(rows):
        counts["rref"] += 1
        return eliminate(rows)

    monkeypatch.setattr(HomogPoly, "__mul__", counted_mul)
    monkeypatch.setattr(HomogPoly, "__rmul__", counted_mul)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    line = milne.Line2(F, *linalg.line_basis((1, 5, 7), F))
    assert counts["rref"] == 0
    assert milne.enveloping_cone(a, line).rank == 3
    assert counts == {"mul": 0, "rref": 0}
    assert a.matrix.at(0, 0) * a.matrix.at(1, 1)
    assert counts == {"mul": 1, "rref": 0}


def test_line_walk_wraps_no_form_for_a_line_it_rejects(monkeypatch):
    # over F_13 the line walk decides each line on raw lists: the four
    # restricted cubics of a line are tested for a common root, and
    # reducible_member reads the pencil determinant of every cone through
    # quadrics.multiple_members, whether or not it has a multiple root,
    # without wrapping a binary form
    from prymcubic import binforms, linalg, milne
    from prymcubic.fields import Field
    from prymcubic.fixtures import FIXTURES

    F = Field.prime(13)
    a, q = FIXTURES["t1"].symmetrization(F), FIXTURES["t1"].quadric(F)
    wrapped = []

    def counted(wrap):
        def wrapper(*args):
            wrapped.append(args)
            return wrap(*args)
        return wrapper

    for module in (milne, binforms):
        monkeypatch.setattr(module, "binary_form", counted(module.binary_form))
    seen = {True: 0, False: 0}
    for dual in [(1, u, v) for u in range(13) for v in range(13)]:
        line = milne.Line2(F, *linalg.line_basis(dual, F))
        wrapped.clear()
        generic = milne.line_is_generic(a, line)
        assert wrapped == []
        if not generic:
            continue
        try:
            cone = milne.enveloping_cone(a, line)
        except milne.MilneError:
            continue
        det = binforms.pencil_determinant_raw(cone.matrix, q, F)
        squarefree = binforms.is_squarefree_raw(F, 4, det)
        wrapped.clear()
        member = milne.reducible_member(cone.matrix, q, F)
        assert wrapped == [], dual
        assert member is None or not squarefree
        seen[squarefree] += 1
    assert seen[True] > seen[False] > 0


def test_squarefree_lines_are_decided_by_the_compiled_discriminant(monkeypatch):
    # over F_13 a squarefree pencil determinant makes reducible_member
    # return None with no squarefree decomposition, and one with a multiple
    # root is decomposed once, by quadrics.multiple_members; the bitangent
    # walk asks for an even divisor only on the restricted quartics with a
    # zero discriminant
    from prymcubic import binforms, linalg, milne, oracle
    from prymcubic.fields import Field
    from prymcubic.fixtures import FIXTURES
    from prymcubic.prym import forward_general

    F = Field.prime(13)
    a, q = FIXTURES["t1"].symmetrization(F), FIXTURES["t1"].quadric(F)
    calls = []
    decomposition = binforms.squarefree_decomposition

    def counted(f, field):
        calls.append(1)
        return decomposition(f, field)

    monkeypatch.setattr(binforms, "squarefree_decomposition", counted)
    seen = {True: 0, False: 0}
    for dual in [(1, u, v) for u in range(13) for v in range(13)]:
        line = milne.Line2(F, *linalg.line_basis(dual, F))
        try:
            cone = milne.enveloping_cone(a, line)
        except milne.MilneError:
            continue
        det = binforms.pencil_determinant_raw(cone.matrix, q, F)
        squarefree = binforms.is_squarefree_raw(F, 4, det)
        calls.clear()
        milne.reducible_member(cone.matrix, q, F)
        assert len(calls) == (0 if squarefree else 1), dual
        seen[squarefree] += 1
    assert seen[True] > seen[False] > 0
    quartic = forward_general(a, q).quartic
    repeated = 0
    for dual in oracle.projective_points(F, 2):
        rest = quartic.restrict_to_line(*linalg.line_basis(dual, F))
        repeated += not binforms.is_squarefree(rest)
    even_divisor = oracle.has_even_divisor_raw
    tested = []

    def counted_even(field, degree, cs):
        tested.append(1)
        return even_divisor(field, degree, cs)

    monkeypatch.setattr(oracle, "has_even_divisor_raw", counted_even)
    oracle.enumerate_bitangents(quartic, F)
    assert 0 < len(tested) == repeated < 183


def test_determinants_and_products_of_forms_run_on_raw_values(monkeypatch):
    # maximal_minors, det and mat_mul read forms once as raw terms through
    # HomogPoly.raw_ring and accumulate every product in place: no form
    # operator runs inside them
    from prymcubic import linalg
    from prymcubic.fields import Field
    from prymcubic.fixtures import fix_a
    from prymcubic.poly import HomogPoly

    F = Field.prime(13)
    a = fix_a(F)
    rows, contraction = a.matrix.rows(), a.line_contraction()
    counts = dict.fromkeys(("__mul__", "__add__", "__sub__"), 0)

    def counted(name):
        op = getattr(HomogPoly, name)

        def wrapper(self, other):
            counts[name] += 1
            return op(self, other)
        return wrapper

    for name in counts:
        monkeypatch.setattr(HomogPoly, name, counted(name))
    monkeypatch.setattr(HomogPoly, "__rmul__", HomogPoly.__mul__)
    minors = linalg.maximal_minors(contraction)
    det = linalg.det(rows)
    product = linalg.mat_mul(contraction, [[minors[(1, 2, 3)]], [-minors[(0, 2, 3)]],
                                           [minors[(0, 1, 3)]], [-minors[(0, 1, 2)]]])
    assert counts == dict.fromkeys(counts, 0)
    assert det.degree == 3 and not any(row[0] for row in product)
    assert rows[0][0] * rows[1][1] - rows[0][1] * rows[0][1]
    assert counts == {"__mul__": 2, "__add__": 1, "__sub__": 1}


def test_scene_kinds_in_one_table():
    # the five object kinds of a scene are listed once, as the keys of
    # scene._KINDS; the functions that dispatch on a kind read that table
    # and compare no kind string and test no class outside its loop.  A
    # writer or reader of the table may name a JSON member like a kind (the
    # pencil's "quartic")
    kinds = {"symmetrization", "quadric", "quartic", "line", "pencil"}
    tree = ast.parse((SRC / "scene.py").read_text(encoding="utf-8"))
    table = next((n.value for n in tree.body if isinstance(n, ast.Assign)
                  and [ast.unparse(t) for t in n.targets] == ["_KINDS"]), None)
    assert table is not None and {k.value for k in table.keys} == kinds
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    members = set(table.keys)
    for entry in table.values:
        for codec in entry.elts[1:]:
            for node in ast.walk(functions[codec.id]):
                members |= set(getattr(node, "keys", [])) | {getattr(node, "slice", None)}
    offenders = ["scene.py:%d %r" % (n.lineno, n.value) for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and n.value in kinds and n not in members]
    for name in ("_kind_of", "write_scene", "parse_scene", "reduce_scene"):
        fn = functions[name]
        in_table_loop = {n for loop in ast.walk(fn) if isinstance(loop, ast.For)
                         and "_KINDS" in ast.unparse(loop.iter) for n in ast.walk(loop)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for c in [node.left] + node.comparators):
                offenders.append("%s:%d %s" % (name, node.lineno, ast.unparse(node)))
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                    and node not in in_table_loop):
                offenders.append("%s:%d %s" % (name, node.lineno, ast.unparse(node)))
    assert offenders == []


def test_no_second_copies():
    # the fixtures are read from the shipped manifest, not built a second
    # time in code; the deleted twins stay gone: one dense product
    # (Field._convolve_raw), the form kernels behind det/adjugate and
    # B(v, v), and the one raw enumerator and evaluator behind the octic
    # count, with no per-point form evaluation or wrapped square class
    import prymcubic.binforms as binforms
    import prymcubic.poly as poly
    from prymcubic.fields import Field

    assert not hasattr(poly, "det_and_adjugate")
    assert not hasattr(poly.SymMatrix, "qform")
    assert not hasattr(binforms, "_mul_poly") and not hasattr(poly, "_convolve_into")
    assert "_convolve_raw" in vars(Field)
    fixtures = ast.parse((SRC / "fixtures.py").read_text(encoding="utf-8"))
    offenders = ["fixtures.py:%d %s" % (n.lineno, ast.unparse(n)) for n in ast.walk(fixtures)
                 if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1]
                 in ("hankel_symmetroid", "from_entry_rows", "HomogPoly")]
    assert offenders == []
    oracle = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    octic = next(n for n in oracle.body if isinstance(n, ast.FunctionDef)
                 and n.name == "count_hyperelliptic_octic")
    called = {ast.unparse(n.func).split(".")[-1] for n in ast.walk(octic)
              if isinstance(n, ast.Call)}
    assert {"projective_points_raw", "compile_raw", "_check_budget"} <= called
    assert not called & {"evaluate", "legendre", "projective_points"}


def test_one_reducedness_decision_and_one_centre_search():
    # the nine-line certificate and the separability twin are gone; both
    # forward models find projection centres in one grid walk, and binforms
    # leaves the root-multiplicity signature and partition to the tests
    import prymcubic.binforms as binforms
    import prymcubic.prym as prym
    import prymcubic.symmetroid as symmetroid

    assert not hasattr(prym, "_REDUCEDNESS_LINES")
    assert not hasattr(prym, "_reducedness_certificate")
    assert not hasattr(symmetroid, "_quartic_separable")
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sum(text.count("product(range(-2, 3)") for text in texts.values()) == 1
    assert not hasattr(binforms, "squarefree_signature")
    assert not hasattr(binforms, "multiplicity_partition")


def test_generated_evaluators_hold_only_generated_text(monkeypatch):
    # compile_raw's F_p evaluator is the package's one `exec`, and nothing
    # calls `eval`; the source it compiles holds integer literals, names it
    # makes, operators and brackets, so no text of an input form reaches it
    import builtins
    import io
    import re
    import tokenize

    from prymcubic import oracle
    from prymcubic.fields import Field
    from prymcubic.fixtures import FIXTURES

    names = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "eval(" not in text, path.name
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME and tok.string in ("exec", "eval"):
                names.setdefault(tok.string, []).append(path.name)
    assert names == {"exec": ["oracle.py"]}

    sources = []

    def spy(source, scope):
        sources.append(source)
        return builtins.exec(source, scope)

    monkeypatch.setattr(oracle, "exec", spy, raising=False)
    F = Field.prime(10007)
    a = FIXTURES["t1"].symmetrization(F)
    gamma = a.determinant_cubic()
    ev = oracle.compile_raw(gamma)
    evs = oracle.compile_raw(list(a.double_cover_minors()[:3]) + [gamma * gamma])
    assert len(sources) == 2
    pt = (1, 2, 3, 10006)
    assert ev(pt) == gamma.evaluate(pt).val and evs(pt)[3] == ev(pt) ** 2 % 10007
    allowed_ops = {"(", ")", "[", "]", ",", ":", "=", "+", "*", "**", "%"}
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert (tok.string in ("def", "ev", "pt", "return", "sum")
                        or re.fullmatch(r"x\d+", tok.string)), tok.string
            elif tok.type == tokenize.NUMBER:
                assert re.fullmatch(r"\d+", tok.string), tok.string
            elif tok.type == tokenize.OP:
                assert tok.string in allowed_ops, tok.string
            else:
                assert tok.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER), tok


def test_one_pencil_decides_the_rank_one_scheme(monkeypatch):
    # classify row-reduces the contraction matrix once and its transpose
    # once, and reads one pencil of rank-one conics; the common line is
    # searched for only when that pencil's determinant vanishes identically
    import inspect

    from prymcubic import linalg, symmetroid
    from prymcubic.fields import Field
    from test_symmetroid import NORMAL_FORMS, build

    sym = symmetroid.Symmetrization
    assert list(inspect.signature(sym.__init__).parameters) == ["self", "field", "matrix", "xvars"]
    assert list(inspect.signature(sym.from_quadric_vector).parameters) == ["field", "mats", "xvars"]
    counts = dict.fromkeys(("kernel_basis", "determinant", "members", "factor"), 0)
    dets = []
    kernel_basis = linalg.kernel_basis
    determinant, members = symmetroid.pencil_determinant_raw, symmetroid.multiple_members
    factor = symmetroid.factor_rank_le2

    def counted_kernel_basis(rows, field):
        counts["kernel_basis"] += 1
        return kernel_basis(rows, field)

    def counted_determinant(m1, m2, field):
        counts["determinant"] += 1
        dets.append(determinant(m1, m2, field))
        return dets[-1]

    def counted_members(m1, m2, det, field):
        counts["members"] += 1
        return members(m1, m2, det, field)

    def counted_factor(mat, field, vars):
        counts["factor"] += 1
        return factor(mat, field, vars)

    monkeypatch.setattr(linalg, "kernel_basis", counted_kernel_basis)
    monkeypatch.setattr(symmetroid, "pencil_determinant_raw", counted_determinant)
    monkeypatch.setattr(symmetroid, "multiple_members", counted_members)
    monkeypatch.setattr(symmetroid, "factor_rank_le2", counted_factor)
    F = Field.prime(13)
    searched = set()
    for tag, rows in sorted(NORMAL_FORMS.items()):
        a = build(F, rows)
        counts.update(dict.fromkeys(counts, 0))
        dets.clear()
        assert a.classify() == tag
        assert counts["determinant"] == counts["members"] == 1
        assert counts["factor"] == (0 if any(dets[0]) else 1), tag
        if counts["factor"]:
            searched.add(tag)
        if tag in ("T1", "T2", "T3", "T4"):
            assert counts["kernel_basis"] == 2, tag
        # the kernel is kept: asking again reduces nothing
        before = counts["kernel_basis"]
        assert a.contraction_kernel() == [] and not a.is_degenerate()
        assert counts["kernel_basis"] == before
    assert {"T7", "T8"} <= searched
    assert not hasattr(symmetroid, "_common_rational_line")
    assert not hasattr(symmetroid, "_conic_intersection_partition")
