"""Checks on the package source itself, read with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lplattice"

# (module, function, parameter) whose body never reads the parameter, on purpose
UNREAD_ALLOWED = {
    # an op-table adapter: the runner passes tol after an op's fields to every
    # function in scenario._OPS, and E_C itself compares nothing
    ("scenario.py", "_cond_exp", "tol"),
    # the same, for realize: its type comes from the runner's memo, made at the run's tol
    ("scenario.py", "_realize", "tol"),
    # a suite-table checker: run_suites calls every checker as (seed, tol), and
    # this one compares at its own fixed check bounds
    ("verify.py", "check_cond_exp_axioms", "tol"),
}


def unread_parameters(source: str):
    """(function, parameter) for each parameter of a def whose body never
    reads it; a read inside a nested function or lambda counts."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for a in params:
            if a.arg not in read:
                yield node.name, a.arg


def test_the_scan_finds_unread_parameters():
    source = (
        "def f(a, b, /, c, *d, e, **g):\n"
        "    def inner(x):\n"
        "        return a + x\n"
        "    c = 1\n"
        "    return inner, lambda: e\n"
    )
    # c is only written, never read
    assert sorted(unread_parameters(source)) == [("f", "b"), ("f", "c"), ("f", "d"), ("f", "g")]


def test_every_parameter_is_read():
    found = {
        (path.name, function, param)
        for path in sorted(SRC.glob("*.py"))
        for function, param in unread_parameters(path.read_text(encoding="utf-8"))
    }
    assert found == UNREAD_ALLOWED


# files whose small literals are allowed: verify.py's are the fixed bounds of its checks
SMALL_LITERALS_EXEMPT = {"verify.py"}


def small_float_literals(source: str):
    """(line, value) of each float literal in (0, 1e-6) that is not the whole
    value of a module-level `NAME = literal`: a hidden tolerance."""
    tree = ast.parse(source)
    named = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and isinstance(stmt.value, ast.Constant):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if all(isinstance(t, ast.Name) for t in targets):
                named.add(id(stmt.value))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < node.value < 1e-6
            and id(node) not in named
        ):
            yield node.lineno, node.value


def test_the_scan_finds_small_literals():
    source = (
        "TOL = 1e-12\n"
        "BOUND: float = 1e-15\n"
        "PAIR = (1e-9, 2)\n"
        "def f(x):\n"
        "    LOCAL = 1e-7\n"
        "    return abs(x) <= 1e-15 or x == 0.0 or x > 1e-6 or x < -1e-8 + TOL\n"
        "class K:\n"
        "    EPS = 1e-13\n"
    )
    assert sorted(small_float_literals(source)) == [
        (3, 1e-9), (5, 1e-7), (6, 1e-15), (6, 1e-8), (8, 1e-13)
    ]


def test_no_hidden_small_constants():
    found = {
        (path.name, line, value)
        for path in sorted(SRC.glob("*.py"))
        if path.name not in SMALL_LITERALS_EXEMPT
        for line, value in small_float_literals(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def imported_modules(source: str):
    """The top-level package of each module an `import` or `from` names;
    relative imports name none."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_the_scan_finds_imports():
    source = (
        "import numpy as np, json\n"
        "from numpy.linalg import svd\n"
        "from . import core\n"
        "from .core import Space\n"
        "def f():\n"
        "    import fractions\n"
    )
    assert list(imported_modules(source)) == ["numpy", "json", "numpy", "fractions"]


def test_no_module_imports_numpy():
    # the package runs on the standard library alone; numpy is a test dependency
    found = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "numpy" in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def test_no_module_imports_dataclasses():
    # value classes derive from core._Value: dataclasses loads inspect, ast, dis
    # and tokenize, and compiles each decorated class's methods at import.
    # verify.SuiteResult alone stays a dataclass, because perfbench/selftest.py
    # copies one with dataclasses.replace; `lplattice run` never imports verify.py
    found = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert found == {"verify.py"}


def unreferenced_private_functions(sources):
    """(file, name) for each private function or method (a leading
    underscore, not a dunder) in sources, a {file: source} map, whose name no
    code outside its own definition reads: as a name, an attribute or a
    string (an op table names functions by string).  An import is no read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defs = [
        (name, node)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    reads = {}  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.setdefault(node.value, []).append(node)
    for name, node in defs:
        own = {id(n) for n in ast.walk(node)}
        if all(id(n) in own for n in reads.get(node.name, ())):
            yield name, node.name


def test_the_scan_finds_unreferenced_private_functions():
    sources = {
        "a.py": (
            "def _called():\n"
            "    return _by_name, OPS\n"
            "def _by_name():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "def _imported_only():\n"
            "    pass\n"
            "def unused_public():\n"
            "    pass\n"
            "OPS = {'x': ('_in_a_table',)}\n"
            "def _in_a_table():\n"
            "    pass\n"
            "class K:\n"
            "    def _method(self):\n"
            "        return self._other()\n"
            "    def _other(self):\n"
            "        return 0\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "b.py": "from a import _called, _imported_only\nprint(_called())\n",
    }
    assert sorted(unreferenced_private_functions(sources)) == [
        ("a.py", "_imported_only"), ("a.py", "_method"), ("a.py", "_recursive")
    ]


def test_every_private_function_is_referenced():
    # a private routine that only tests call belongs in the tests
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert set(unreferenced_private_functions(sources)) == set()
