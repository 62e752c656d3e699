"""Each script under ``demos/`` prints exactly what ``tests/golden/demos`` holds.

Regenerate a golden file only when an output change is intended:

    PYTHONPATH=src python3 demos/coefficient_hunt.py > tests/golden/demos/coefficient_hunt.txt
"""

import subprocess
import sys
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
