"""Size of a Python package: raw lines, code lines and settable values.

- raw lines: every line of every `*.py` file;
- code lines: lines that hold a token other than a comment, with blank
  lines and docstrings (the leading string of a module, class or function)
  left out;
- settable values: defaulted parameters of every function, method and
  lambda.

Run from the repo root:  python3 tools/size.py [PACKAGE_DIR]
(default src/prymcubic).  It prints one JSON line.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    docs = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def settable_values(text):
    total = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            total += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return total


def measure(package):
    texts = [path.read_text(encoding="utf-8") for path in sorted(Path(package).glob("*.py"))]
    return {"raw_lines": sum(len(text.splitlines()) for text in texts),
            "code_lines": sum(map(code_lines, texts)),
            "settable_values": sum(map(settable_values, texts))}


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1] if len(sys.argv) > 1 else "src/prymcubic"),
                     sort_keys=True))
