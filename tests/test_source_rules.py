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


def test_partitions_reads_no_other_side():
    # The Schmidt-side tables stay independent of the product and colored
    # sides: partitions.py imports nothing from those modules.
    tree = ast.parse((SOURCE / "partitions.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names = [prefix + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [
            f"partitions.py:{node.lineno} {name}"
            for name in names
            if {"series", "colored", "identities"} & set(name.split("."))
        ]
    assert found == []
