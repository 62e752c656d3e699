"""Rules about the package source itself."""

import ast
from pathlib import Path

import schmidtq

SOURCE = Path(schmidtq.__file__).parent


def test_no_module_rests_on_assert():
    # python -O strips assert statements, so a runtime invariant must raise.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
