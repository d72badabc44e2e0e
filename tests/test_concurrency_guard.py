"""Threads live in one place and nothing is configured from the environment.

``potential._blocks`` is the only code that runs work on threads: its
worker count comes from the CPUs the process may use, and outputs do not
depend on it.  This check walks each module's syntax tree and fails if a
module other than ``potential.py`` imports a threading or process-pool
module, if any module reads ``os.environ`` or ``os.getenv``, which
would let a setting outside the command line change a run, or if any
function rebinds module state with ``global``: module state is bound at
import only, so no call leaves anything behind for the next one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "biflab"
MODULES = sorted(SRC.glob("*.py"))
CONCURRENCY = {"threading", "concurrent", "multiprocessing"}
THREAD_HOME = "potential.py"


def concurrency_imports(source):
    """(line, module) of each import of a threading or process-pool module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in CONCURRENCY]
    return sorted(found)


def environment_reads(source):
    """(line, name) of each use of os.environ or os.getenv."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names
                      if a.name in ("environ", "getenv")]
    return sorted(found)


def global_statements(source):
    """(line, names) of each ``global`` statement."""
    return sorted((node.lineno, tuple(node.names)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Global))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_threads_only_in_potential(path):
    if path.name != THREAD_HOME:
        assert concurrency_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


def test_checker_finds_imports_and_reads():
    source = ("import os\nimport threading\nimport concurrent.futures as cf\n"
              "from multiprocessing import Pool\nfrom concurrent import futures\n"
              "from os import getenv\nimport queue\n"
              "x = os.environ.get('A')\ny = os.getenv('B')\nz = os.path.join('a')\n")
    assert concurrency_imports(source) == [
        (2, "threading"), (3, "concurrent.futures"), (4, "multiprocessing"),
        (5, "concurrent")]
    assert environment_reads(source) == [(6, "os.getenv"), (8, "os.environ"), (9, "os.getenv")]


def test_checker_finds_global_statements():
    source = ("_pool = None\n_seen = set()\ndef f():\n    global _pool\n    _seen.add(1)\n"
              "class C:\n    def g(self):\n        global _pool, _seen\n")
    assert global_statements(source) == [(4, ("_pool",)), (8, ("_pool", "_seen"))]
