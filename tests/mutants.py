"""A committed catalogue of source mutants, each of which some test must kill.

Each record names a file, an exact snippet of it, the replacement that
breaks the code, and the pytest node ids expected to fail.  For each
record the script copies ``src/`` to a temporary directory, applies the
record there, and runs ``python -m pytest -q -x`` on its node ids with
``PYTHONPATH`` set to the copy.  A mutant is killed when a test fails.
The script prints one line per mutant and exits 1 if any survives, or if
a record no longer applies.  Run it from anywhere, for every record or
for the named ones::

    python tests/mutants.py
    python tests/mutants.py walk-g-h-swapped mork-even-on-1

It uses the standard library only, and pytest does not collect it;
``tests/test_source_rules.py`` checks that every snippet occurs exactly
once in its file, so a change that moves mutated code must update its
record.  A change that removes the code of a record removes the record.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "product-c-off-by-one",
        "src/schmidtq/identities.py",
        "ctx.monomial(q=bisect_right(s, r), s=r)",
        "ctx.monomial(q=bisect_right(s, r - 1), s=r)",
        ("tests/test_identities.py::test_s_graded_product_matches_the_table_on_every_residue_set",),
    ),
    Mutant(
        "product-r-below-scap",
        "src/schmidtq/identities.py",
        'top = min(m if entry.family.cls == "P" else m - 1, scap)',
        'top = min(m if entry.family.cls == "P" else m - 1, scap - 1)',
        ("tests/test_identities.py::test_s_graded_sides_at_a_huge_modulus_stay_small",),
    ),
    Mutant(
        "product-class-d-to-m",
        "src/schmidtq/identities.py",
        'else m - 1, scap)',
        'else m, scap)',
        ("tests/test_identities.py::test_s_graded_product_matches_the_table_on_every_residue_set",),
    ),
    Mutant(
        "mork-even-on-1",
        "src/schmidtq/identities.py",
        'Family("D", (2, (2,)))',
        'Family("D", (2, (1,)))',
        ("tests/test_identities.py::test_mork_even_is_the_weight_on_the_even_residue",),
    ),
    Mutant(
        "walk-g-h-swapped",
        "src/schmidtq/partitions.py",
        "or spare > G * need + b * lead_u[child_k]\n"
        "                    or need > H * spare + b * lead_c[child_k]",
        "or spare > H * need + b * lead_u[child_k]\n"
        "                    or need > G * spare + b * lead_c[child_k]",
        ("tests/test_oracles.py::test_weight_walk_matches_brute_force_on_every_residue_set",),
    ),
    Mutant(
        "walk-lead-u-at-parent",
        "src/schmidtq/partitions.py",
        "b * lead_u[child_k]",
        "b * lead_u[k]",
        ("tests/test_oracles.py::test_weight_walk_matches_brute_force_on_every_residue_set",),
    ),
    Mutant(
        "sized-table-modulus-cap",
        "src/schmidtq/partitions.py",
        "range(1, min(m, cap + 1) + 1)",
        "range(1, min(m, cap) + 1)",
        ("tests/test_oracles.py::test_s_graded_sides_match_the_named_branches",),
    ),
    Mutant(
        "class-p-reads-class-d-cut",
        "src/schmidtq/partitions.py",
        "_TAIL_WEIGHT[cls], {}, out, shape)",
        '_TAIL_WEIGHT["D"], {}, out, shape)',
        ("tests/test_oracles.py::test_schmidt_bucket_lists_nest_within_the_cut",),
    ),
    Mutant(
        "colored-merge-repeat-count",
        "src/schmidtq/colored.py",
        "map(mul, values, repeat(count))",
        "repeat(count)",
        ("tests/test_oracles.py::test_colored_bucket_counts_match_summing_merge",),
    ),
    Mutant(
        "colored-pair-guard-removed",
        "src/schmidtq/colored.py",
        "if len(out) != pairs:",
        "if False:",
        ("tests/test_colored.py::test_colored_bucket_merge_refuses_keys_that_collide",),
    ),
)


def run(mutant):
    """pytest's exit code on the mutant's tests: 1 kills it, 0 lets it survive."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.path
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            return None
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        done = subprocess.run(argv + list(mutant.tests), cwd=ROOT, env=env, capture_output=True)
        return done.returncode


def main(names):
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        code = run(mutant)
        # pytest exits 1 when a test failed; 0 when all passed, and 2-5
        # when it could not run them.
        verdict = {None: "NOT APPLIED", 0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
        bad += verdict != "killed"
        print(f"{verdict:11} {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
