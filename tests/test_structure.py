"""Module boundaries: no module of the package imports another module's
private names; a helper two modules need is public or lives in one place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prymcubic"


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
