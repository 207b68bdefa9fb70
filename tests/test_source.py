"""Checks on the package source itself, read with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lplattice"

# (module, function, parameter) whose body never reads the parameter, on purpose
UNREAD_ALLOWED = {
    # an op-table adapter: the runner passes tol after an op's fields to every
    # function in scenario._OPS, and E_C itself compares nothing
    ("scenario.py", "_cond_exp", "tol"),
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
