"""Byte-for-byte replay of the command line against ``tests/golden/cli.txt``.

The golden file lists every command of ``COMMANDS`` with its exit code and
its exact standard output, one ``|``-prefixed line per printed line.  It
pins the output of every README example, ``verify`` of every id at small
caps, and the order in which ``witness`` and ``enumerate`` print objects.

Regenerate it only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from schmidtq.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
README = Path(__file__).resolve().parent.parent / "README.md"

COMMANDS = (
    # README examples
    "map --bijection mork --partition 7,5,4,4,2,1",
    "coeff --identity overpartition --side product --mono q=6,t1=1,t2=2",
    "verify overpartition --q-cap 12",
    "witness --identity cor22 --mono q=6,t1=1,t2=2",
    "enumerate --class D --m 4 --schmidt-weight 5",
    "verify franklin_ext --m 2 --s 1 --n 6 --json",
    # verify, every id
    "verify ak_trivariate --q-cap 8",
    "verify ak_trivariate --q-cap 6 --json",
    "verify overpartition --q-cap 6",
    "verify cor22 --q-cap 10",
    "verify mork_odd --s-cap 12",
    "verify mork_even --s-cap 12",
    "verify psi_all --m 3 --s 1,2 --s-cap 10",
    "verify psi_dm --m 3 --s 1,2 --s-cap 10",
    "verify schmidt --n 6",
    "verify uncu --n 6",
    "verify ak_main --m 3 --s 1,2 --n 6",
    "verify franklin_ext --m 2 --s 1 --n 6",
    "verify franklin_ext --m 3 --s 1,3 --n 5 --json",
    "verify cauchy --n 6",
    "verify t1_slice --n 1 --q-cap 8",
    "verify schmidt --n 4 --m 3",
    "verify overpartition",
    # coeff, each side
    "coeff --identity ak_trivariate --side sum --mono q=6,t1=2,t2=2",
    "coeff --identity ak_trivariate --side enum --mono q=6,t1=2,t2=2",
    "coeff --identity cor22 --side enum --mono q=7,t1=1,t2=3",
    "coeff --identity overpartition --side enum --mono q=6,t1=1,t2=2",
    "coeff --identity psi_all --side enum --mono q=5,s=7 --m 3 --s 1,2",
    # witness order
    "witness --identity ak_trivariate --mono q=6,t1=2,t2=2",
    "witness --identity overpartition --mono q=6,t1=1,t2=2",
    "witness --identity cor22 --mono q=7,t1=1,t2=3",
    "witness --identity mork_odd --mono q=5,s=8",
    "witness --identity mork_even --mono q=3,s=8",
    "witness --identity psi_all --mono q=5,s=7 --m 3 --s 1,2",
    "witness --identity psi_dm --mono q=5,s=7 --m 3 --s 1,2",
    # enumerate order
    "enumerate --class P --n 0",
    "enumerate --class P --n 6",
    "enumerate --class D --n 7 --m 2",
    "enumerate --class F --n 6 --m 3",
    "enumerate --class R --n 8 --m 2",
    "enumerate --class cs --n 4 --m 2 --s 1",
    "enumerate --class cs --n 4 --m 2 --s 1 --top 2",
    "enumerate --class cs --n 4 --m 3 --s 1,3",
    "enumerate --class over --n 0",
    "enumerate --class over --n 4",
    "enumerate --class P --schmidt-weight 3",
    "enumerate --class D --schmidt-weight 4",
    "enumerate --class P --schmidt-weight 3 --m 3 --s 1,3",
    "enumerate --class D --schmidt-weight 3 --m 3 --s 1,2,3",
    # map, both directions
    "map --bijection mork --partition 12,10,7,5,3,2,1 --inverse",
    "map --bijection psi --m 3 --s 1,2 --partition 5,4,4,2,1",
    "map --bijection glaisher --m 2 --partition 4,4,3,1",
    "map --bijection decompose --m 3 --partition 5,5,5,5,2",
)


def replay(command):
    """Exit code and standard output of one command line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(shlex.split(command))
    return code, buf.getvalue()


def render(commands):
    blocks = []
    for command in commands:
        code, out = replay(command)
        lines = [f"$ schmidtq {command}", f"# exit {code}"]
        lines += [f"|{line}" for line in out.split("\n")[:-1]]
        if out and not out.endswith("\n"):
            raise ValueError(f"output of {command!r} does not end in a newline")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def parse(text):
    """``(command, exit code, stdout)`` records, in file order."""
    records = []
    for block in text.split("\n\n"):
        lines = block.strip("\n").split("\n")
        command = lines[0].removeprefix("$ schmidtq ")
        code = int(lines[1].removeprefix("# exit "))
        out = "".join(line[1:] + "\n" for line in lines[2:])
        records.append((command, code, out))
    return records


GOLDEN_RECORDS = parse(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_lists_every_command():
    assert [command for command, _, _ in GOLDEN_RECORDS] == list(COMMANDS)


def test_readme_examples_are_replayed():
    examples = re.findall(r"^schmidtq (.+)$", README.read_text(), flags=re.M)
    assert examples
    assert set(examples) <= set(COMMANDS)


@pytest.mark.parametrize(
    "command, code, out", GOLDEN_RECORDS, ids=[r[0] for r in GOLDEN_RECORDS]
)
def test_command_output_is_unchanged(command, code, out):
    assert replay(command) == (code, out)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(COMMANDS))
    sys.exit(0)
