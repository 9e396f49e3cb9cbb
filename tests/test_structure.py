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
