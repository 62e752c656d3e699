"""Each script under ``demos/`` prints exactly what ``tests/golden/demos`` holds,
and the README's library tour runs and gives the values its comments state.

Regenerate a golden file only when an output change is intended:

    PYTHONPATH=src python3 demos/coefficient_hunt.py > tests/golden/demos/coefficient_hunt.txt
"""

import ast
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from test_cli import _subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_golden_output():
    golden = sorted((ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert [path.stem for path in golden] == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_output_is_unchanged(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=_subprocess_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()


def test_readme_library_tour_gives_the_values_it_states():
    # Each statement of the tour runs in order; a statement whose line ends
    # in a comment opening with a literal (an int, a string or a tuple) is
    # an expression equal to that literal.
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        token.start[0]: token.string
        for token in tokenize.generate_tokens(io.StringIO(tour).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    checked = []
    for statement in ast.parse(tour).body:
        comment = comments.get(statement.end_lineno, "#")
        stated = re.match(r'#\s*(\(.*?\)|"[^"]*"|\d+)', comment)
        if stated is None:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert got == ast.literal_eval(stated.group(1)), ast.unparse(statement)
        checked.append(got)
    assert checked == [13, 18, "1_2,1_2", "12,10,7,5,3,2,1", ("2,2,1,1", "6"), "pass", "pass"]
