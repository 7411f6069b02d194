"""The package raises no `AssertionError`.

`cli.main` turns a `ValueError`, `KeyError`, `OSError`, `ZeroDivisionError`
or a non-finite state into exit code 2 and maps no other exception, so an
`AssertionError` would end a command in a traceback; an `assert` statement
is worse, since `python -O` strips it.  A property that the package builds
by construction is asserted in the tests instead (the Moser blocks' in
tests/test_moser.py).  Each module under src/todavolterra is parsed with
`ast` and searched for both forms.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "todavolterra"
MODULES = sorted(SRC.glob("*.py"))


def assertions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, form) of each `assert` and each `raise AssertionError[(...)]`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append((node.lineno, "raise AssertionError"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_raises_no_assertion(path):
    assert assertions(ast.parse(path.read_text(), str(path))) == []


def test_scan_finds_both_forms():
    # negative control: the scan must see what it is meant to reject
    tree = ast.parse("assert x\nraise AssertionError('a')\nraise AssertionError\n"
                     "raise ValueError('v')\n")
    assert assertions(tree) == [(1, "assert"), (2, "raise AssertionError"),
                                (3, "raise AssertionError")]
    assert "cli.py" in [p.name for p in MODULES]
