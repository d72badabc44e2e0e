"""Every name a biflab module or test module imports is used in that
module, and every parameter of a biflab function is read by it.

No linter ships with the project, so this is the unused-import check:
it walks each module's syntax tree, collects the names bound by
``import`` statements and the names the module reads, and reports the
difference.  ``from __future__`` imports are directives, not names.
The test modules are checked too: their reference copies of earlier
code are pasted in verbatim, and such copies bring stray imports along.

The unused-parameter check covers ``src/biflab`` only: a parameter that
no call needs and the body never reads is an option that does nothing.
``self`` is exempt, and so are lambdas, whose signature is often fixed
by the caller (the rational chart's callbacks share one).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "biflab").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name "a"
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom json import dumps, loads as ld\n"
              "from .errors import (\n    A,\n    B,\n)\n"
              "x = os.path.join(dumps(1), B)\n")
    assert unused_imports(source) == [(2, "math"), (4, "ld"), (5, "A")]


def unused_parameters(source):
    """(line, function, name) of each parameter of a ``def`` that its body
    never reads; a read in a nested function or lambda counts."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p.arg) for p in params
                if p.arg != "self" and p.arg not in read]
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_checker_finds_unused_parameters():
    source = ("class A:\n    def m(self, x, *rest, **kw):\n        return kw\n"
              "def f(a, b=1, *, c):\n    \"\"\"Uses b.\"\"\"\n    b = 2\n"
              "    def g(d):\n        return a\n    return lambda e: c\n")
    assert unused_parameters(source) == [(2, "m", "rest"), (2, "m", "x"),
                                         (4, "f", "b"), (7, "g", "d")]
