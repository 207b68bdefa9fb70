"""The README's Python examples run against the package as it is."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def run_block(source: str) -> int:
    """Run the block statement by statement; where an expression statement's
    line ends in a comment that is a Python literal, the expression must equal
    it.  Returns the number of lines so checked."""
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            try:
                expected = ast.literal_eval(comments.get(stmt.end_lineno, ""))
            except (ValueError, SyntaxError):
                continue  # prose, not a value
            assert value == expected, (ast.unparse(stmt), value, expected)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return checked


def test_the_runner_checks_literal_comments():
    assert run_block("x = 2  # two\nx + 1  # 3\nx  # the value of x\n'#'  # '#'\n") == 2
    with pytest.raises(AssertionError):
        run_block("[1, 2]  # [2, 1]\n")


BLOCKS = python_blocks(README.read_text(encoding="utf-8"))


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    assert run_block(block) > 0
