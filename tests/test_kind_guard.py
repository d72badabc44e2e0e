"""Family kinds are told apart in ``families.py`` alone.

Each kind's maps, derivatives, preimages, series, escape-rate step and
Lyapunov chart come from ``families.MapFamily``, so the rest of biflab
runs one path for every kind.  This check walks each other module's
syntax tree and fails on any comparison of ``.kind`` with a literal
(``family.kind == "rational"``, ``f.kind in ("unicritical",)``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "biflab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "families.py")


def _is_literal(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant)


def kind_forks(source):
    """(line, function) of each comparison of ``.kind`` with a literal,
    named by its innermost enclosing function (None at module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if (any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides)
                    and any(_is_literal(s) for s in sides)):
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_kind_forks_only_where_listed(path):
    # nothing is listed: a kind fork belongs in a MapFamily method
    assert kind_forks(path.read_text()) == []


def test_checker_finds_forks():
    source = ("def f(family):\n    if family.kind != 'rational':\n        return 1\n"
              "    def g(x):\n        return x.kind in ('unicritical', 'rational')\n"
              "    return 'rational' == family.kind\n"
              "k = fam.kind == KIND\nkind = 'rational'\n"
              "def h(family):\n    return family.kind == other.kind or family.kind\n")
    assert kind_forks(source) == [(2, "f"), (5, "g"), (6, "f")]
