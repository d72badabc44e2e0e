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
by the caller.

Inside ``src/biflab`` a module imports the other biflab modules at the
top: a relative import in a function body hides a dependency and runs
again on every call.  Lazy imports of third-party packages stay allowed.

No ``src/biflab`` module imports scipy or mpmath, at the top or in a
function, and ``import biflab.cli`` in a fresh interpreter loads no
module of either: numpy is the one run-time dependency, and their import
time would land on every command.  The tests may import both as oracles.

Every field of a ``@dataclass`` in ``src/biflab`` is read as an
attribute (``x.field``) somewhere in a biflab or test module: a field
that nothing reads is computed and stored for no one.  The check goes
by name, so a read of the same name on another object also counts.

Every class in ``errors.py`` other than the base ``BiflabError`` is
named by another ``src/biflab`` module (raised, caught or warned with):
an error type goes when its last raise goes.

Every public top-level function or class of ``src/biflab``, and every
public method or property of its classes (dunders are not public), is
reached by another biflab definition (in its own module or another), by
the benchmark's child and workloads, which run the README commands, by
its tracer, or by the acceptance checks: library surface that only unit
tests call is deleted.  A reference is a name, an attribute or a ``from`` import.

Every module-level constant of ``src/biflab`` (a name bound by a
top-level assignment; dunders are exempt) is read by some ``src/biflab``
module, as a name, an attribute or a ``from`` import: a deletion does
not leave its constant behind, and a constant that only tests read is
configuration of nothing.

Every parameter with a default of a ``src/biflab`` function is passed,
by keyword or by position, by some call in ``src/biflab``, the
benchmark or the acceptance checks: an option that only unit tests set
is deleted.  Calls go by name: a call of a class counts for its
``__init__``, a method call skips ``self``, a name imported ``as`` an
alias counts for the name it imports, and a ``*`` or ``**`` argument
passes every position or keyword.
"""

import ast
import math
import os
import subprocess
import sys
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


def function_level_relative_imports(source):
    """Lines of the relative imports inside a function body."""
    return sorted({n.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(node) if isinstance(n, ast.ImportFrom) and n.level > 0})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_level_relative_imports(path):
    assert function_level_relative_imports(path.read_text()) == []


def test_checker_finds_function_level_relative_imports():
    source = ("from .errors import A\nimport math\n"
              "def f():\n    from scipy.spatial import cKDTree\n    import os\n"
              "    for _ in range(2):\n        from .hyperbolic import g\n"
              "    def h():\n        from . import io\n    return A, math\n")
    assert function_level_relative_imports(source) == [7, 9]


def oracle_imports(source, package):
    """Lines of the imports of ``package`` or a submodule, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(a.name.split(".")[0] == package for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == package)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert oracle_imports(path.read_text(), "scipy") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mpmath_imports(path):
    assert oracle_imports(path.read_text(), "mpmath") == []


def test_checker_finds_scipy_imports():
    source = ("import scipy\nimport numpy, scipy.linalg as la\nimport scipyish\n"
              "from scipy.ndimage import gaussian_filter\nfrom . import scipy\n"
              "def f():\n    from scipy.spatial import cKDTree\n    return cKDTree\n")
    assert oracle_imports(source, "scipy") == [1, 2, 4, 7]
    assert oracle_imports(source.replace("scipy", "mpmath"), "mpmath") == [1, 2, 4, 7]


def cli_import_loads(package):
    """Modules of ``package`` that ``import biflab.cli`` loads in a fresh interpreter."""
    code = ("import sys, biflab.cli\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n")
    path = os.pathsep.join([str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path})
    return run.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert cli_import_loads("scipy") == "[]"


def test_cli_import_loads_no_mpmath():
    assert cli_import_loads("mpmath") == "[]"


def dataclass_fields(source):
    """(line, class, field) of each field of a ``@dataclass`` class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(isinstance(d, ast.Name) and d.id == "dataclass"
                   or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == "dataclass" for d in node.decorator_list):
            continue
        out += [(stmt.lineno, node.name, stmt.target.id) for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def attributes_read(source):
    """Names read as attributes (``x.name`` in a load) anywhere in a module."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # a field that no module or test reads is a result nothing looks at
    read = set().union(*(attributes_read(p.read_text()) for p in MODULES))
    unread = [(p.name, line, cls, name) for p in SOURCES
              for line, cls, name in dataclass_fields(p.read_text()) if name not in read]
    assert unread == []


def test_checker_finds_unread_fields():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "@dataclass\nclass B:\n    z: float\n    w = 1\n"
              "class C:\n    v: int\n"
              "def f(a, b):\n    a.y = b.x\n    return a\n")
    assert dataclass_fields(source) == [(4, "A", "x"), (5, "A", "y"), (8, "B", "z")]
    assert attributes_read(source) == {"x"}


def unnamed_error_types(errors_source, sources):
    """(line, class) of each class of the errors module, other than
    ``BiflabError``, that none of the other modules' sources names."""
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for source in sources for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.Name, ast.Attribute))}
    return [(node.lineno, node.name) for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.name != "BiflabError"
            and node.name not in named]


def test_every_error_type_is_named():
    errors = ROOT / "src" / "biflab" / "errors.py"
    assert unnamed_error_types(errors.read_text(),
                               [p.read_text() for p in SOURCES if p != errors]) == []


def test_checker_finds_unnamed_error_types():
    errors_source = ("class BiflabError(Exception):\n    pass\n"
                     "class A(BiflabError):\n    pass\n"
                     "class B(A):\n    pass\n"
                     "class W(UserWarning):\n    pass\n")
    sources = ["from .errors import A\nraise A('x')\n",
               "from . import errors\nwarn('w', errors.W)\n"]
    assert unnamed_error_types(errors_source, sources) == [(5, "B")]
    assert unnamed_error_types(errors_source, sources[:1]) == [(5, "B"), (7, "W")]


def names_referenced(nodes):
    """Names the syntax trees ``nodes`` read (``x``), read as attributes
    (``m.x``) or import (``from m import x``)."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out |= {alias.name for alias in n.names}
    return out


def unreached_definitions(modules, users):
    """(module, line, name) of each public top-level function or class of
    ``modules``, a {module name: source} map, and of each public method of
    a top-level class, that no other top-level statement of its module
    (nor, for a method, another statement of its class), no other module
    and none of the ``users`` sources names."""
    bodies = {name: ast.parse(source).body for name, source in modules.items()}
    used = {name: names_referenced(body) for name, body in bodies.items()}
    users = names_referenced(ast.parse(source) for source in users)
    out = []
    for name, body in bodies.items():
        elsewhere = users.union(*(u for other, u in used.items() if other != name))
        for i, stmt in enumerate(body):
            rest = body[:i] + body[i + 1:]
            defs = [(stmt, rest)]
            if isinstance(stmt, ast.ClassDef):
                defs += [(m, rest + [s for s in stmt.body if s is not m]) for m in stmt.body]
            for d, others in defs:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and not d.name.startswith("_")
                        and d.name not in elsewhere
                        and d.name not in names_referenced(others)):
                    out.append((name, d.lineno, d.name))
    return out


# what reaches the library besides itself: the benchmark child with its
# workloads (the README commands), its tracer (which wraps
# ``MapFamily.eval``, ``deriv`` and ``preimages`` by name) and the
# acceptance criteria
LIBRARY_USERS = [ROOT / "perfbench" / "child.py", ROOT / "perfbench" / "workloads.py",
                 ROOT / "perfbench" / "spans.py", ROOT / "tests" / "test_acceptance.py"]


def test_every_public_definition_is_reached():
    # a public function or class that only unit tests call is deleted
    modules = {p.stem: p.read_text() for p in SOURCES}
    assert unreached_definitions(modules, [p.read_text() for p in LIBRARY_USERS]) == []


def test_checker_finds_unreached_definitions():
    modules = {"a": ("from .b import used\n"
                     "def kept():\n    return helper()\n"
                     "def helper():\n    return kept\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class Result:\n    pass\n"
                     "def _private():\n    pass\n"),
               "b": ("def used():\n    pass\n"
                     "def by_attribute():\n    pass\n"
                     "def by_user():\n    pass\n"
                     "def orphan():\n    return Result\n")}
    users = ["from lib import a\na.by_attribute()\n", "import lib\nlib.b.by_user()\n"]
    assert unreached_definitions(modules, users) == [("a", 6, "recursive"), ("b", 7, "orphan")]
    assert unreached_definitions(modules, users[:1]) == [
        ("a", 6, "recursive"), ("b", 5, "by_user"), ("b", 7, "orphan")]


def defaulted_parameters(source):
    """(line, callee, parameter, position) of each parameter with a
    default of a ``def`` in the module: ``callee`` is the name a call
    uses (the class, for ``__init__``) and ``position`` the index of the
    positional argument that fills it, None for a keyword-only one."""
    tree = ast.parse(source)
    methods = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    methods[fn] = (cls.name if fn.name == "__init__" else fn.name,
                                   0 if static else 1)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callee, skip = methods.get(fn, (fn.name, 0))
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(p.lineno, callee, p.arg, i - skip)
                for i, p in enumerate(positional) if i >= first]
        out += [(p.lineno, callee, p.arg, None)
                for p, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def calls_passing(sources):
    """{callee name: (keywords passed, most positional arguments)} over
    every call of the ``sources``; a ``**`` argument passes the keyword
    None and a ``*`` one infinitely many positions."""
    trees = [ast.parse(source) for source in sources]
    target = {alias.asname: alias.name for tree in trees for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) for alias in n.names if alias.asname}
    out = {}
    for n in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(n, ast.Call) or not isinstance(n.func, (ast.Name, ast.Attribute)):
            continue
        name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        name = target.get(name, name)
        keywords, most = out.get(name, (set(), 0))
        count = math.inf if any(isinstance(a, ast.Starred) for a in n.args) else len(n.args)
        out[name] = (keywords | {k.arg for k in n.keywords}, max(most, count))
    return out


def unpassed_defaults(modules, users):
    """(module, line, callee, parameter) of each defaulted parameter of
    ``modules``, a {module name: source} map, that no call of those
    modules or of the ``users`` sources passes."""
    calls = calls_passing(list(modules.values()) + list(users))
    out = []
    for module, source in modules.items():
        for line, callee, name, position in defaulted_parameters(source):
            keywords, most = calls.get(callee, (set(), 0))
            if not ({name, None} & keywords or position is not None and position < most):
                out.append((module, line, callee, name))
    return sorted(out)


def test_checker_finds_unreached_methods():
    modules = {"a": ("class K:\n"
                     "    def used(self):\n        return self.helper()\n"
                     "    def helper(self):\n        return 1\n"
                     "    @property\n    def size(self):\n        return 2\n"
                     "    def orphan(self):\n        return self.orphan()\n"
                     "    def __len__(self):\n        return 0\n"
                     "    def _private(self):\n        pass\n"
                     "def run():\n    return K().used()\n")}
    users = ["from lib.a import run\nrun().size\n"]
    assert unreached_definitions(modules, users) == [("a", 9, "orphan")]
    assert unreached_definitions(modules, []) == [("a", 7, "size"), ("a", 9, "orphan"),
                                                  ("a", 15, "run")]


def test_every_default_is_passed():
    # an option that only unit tests set is deleted
    modules = {p.stem: p.read_text() for p in SOURCES}
    users = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    assert unpassed_defaults(modules, [p.read_text() for p in users]) == []


def test_checker_finds_unpassed_defaults():
    modules = {"a": ("from .b import g as h\n"
                     "class K:\n    def __init__(self, x, y=1, z=2):\n        pass\n"
                     "    def m(self, u=0, v=0):\n        pass\n"
                     "    @staticmethod\n    def s(w=0, t=0):\n        pass\n"
                     "def f(a, b=1, c=2, *, d=3, e=4):\n    return K(0, 1).m(5)\n"),
               "b": ("def g(p=0, q=0):\n    pass\n"
                     "def star(r=0, s=0):\n    pass\n"
                     "def spread(v=0):\n    pass\n")}
    users = ["from lib.a import f, K\nf(0, c=1)\nh(q=1)\nK.s(0)\nstar(*rs)\nspread(**kw)\n",
             "from lib.a import f\nf(0, 1, d=2)\n"]
    assert unpassed_defaults(modules, users) == [
        ("a", 3, "K", "z"), ("a", 5, "m", "v"), ("a", 8, "s", "t"),
        ("a", 10, "f", "e"), ("b", 1, "g", "p")]
    assert unpassed_defaults(modules, users[:1]) == [
        ("a", 3, "K", "z"), ("a", 5, "m", "v"), ("a", 8, "s", "t"),
        ("a", 10, "f", "b"), ("a", 10, "f", "d"), ("a", 10, "f", "e"), ("b", 1, "g", "p")]


def module_constants(source):
    """(line, name) of each name bound by a top-level assignment of the
    module, dunders excepted."""
    out = []
    for stmt in ast.parse(source).body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        out += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))]
    return out


def unread_constants(modules):
    """(module, line, name) of each module-level constant of ``modules``,
    a {module name: source} map, that no module reads as a name (``x``
    in a load), an attribute (``m.x``) or a ``from`` import."""
    read = set()
    for source in modules.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {alias.name for alias in n.names}
    return [(module, line, name) for module, source in modules.items()
            for line, name in module_constants(source) if name not in read]


def test_every_constant_is_read():
    # a constant whose last reader went is deleted with it
    assert unread_constants({p.stem: p.read_text() for p in SOURCES}) == []


def test_checker_finds_unread_constants():
    modules = {"a": ("__all__ = ['f']\nLIMIT = 3\nORPHAN = 4\n_cache = {}\nWIDTH: int = 2\n"
                     "def f():\n    global _cache\n    _cache = {}\n    return LIMIT\n"),
               "b": ("from .a import WIDTH\nfrom . import a\nSTEP, SPAN = 1, 2\n"
                     "TABLE = {'k': SPAN}\nprint(a.TABLE)\n")}
    assert unread_constants(modules) == [("a", 3, "ORPHAN"), ("a", 4, "_cache"), ("b", 3, "STEP")]
