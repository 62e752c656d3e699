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
    Mutant(
        "coin-table-once-flipped",
        "src/schmidtq/colored.py",
        "range(n, a - 1, -1) if once else range(a, n + 1)",
        "range(a, n + 1) if once else range(n, a - 1, -1)",
        ("tests/test_acceptance.py::test_criterion_01_overpartition_three_way_q16",),
    ),
    Mutant(
        "pack-columns-sign-check",
        "src/schmidtq/series.py",
        "min(column) < 0",
        "min(column) < -1",
        ("tests/test_series.py::test_column_constructor_checks_as_the_dict_path",),
    ),
    Mutant(
        "pack-columns-cap-check",
        "src/schmidtq/series.py",
        "max(column) > cap",
        "max(column) > cap + 1",
        ("tests/test_series.py::test_column_constructor_checks_as_the_dict_path",),
    ),
    Mutant(
        "decompose-keeps-one-more-low",
        "src/schmidtq/bijections.py",
        "low += repeat(part, run % m)",
        "low += repeat(part, run % m + 1)",
        ("tests/test_bijections.py::test_decompose_examples",),
    ),
    Mutant(
        "class-f-without-last-gap",
        "src/schmidtq/partitions.py",
        "map(sub, t, (*t[1:], 0))",
        "map(sub, t, t[1:])",
        ("tests/test_oracles.py::test_in_class_matches_grouped_runs",),
    ),
    Mutant(
        "hook-sum-slice-past-cap",
        "src/schmidtq/identities.py",
        "coeffs[: qcap - e + 1]",
        "coeffs[: qcap - e + 2]",
        ("tests/test_oracles.py::test_hook_sums_step_only_in_cap_keys",),
    ),
    Mutant(
        "hook-sum-step-guard-dropped",
        "src/schmidtq/identities.py",
        "        if r <= qcap:\n",
        "        if True:\n",
        ("tests/test_oracles.py::test_hook_sums_step_only_in_cap_keys",),
    ),
    Mutant(
        "compare-sides-skips-the-last",
        "src/schmidtq/identities.py",
        "for name_b, b in sides[1:]:",
        "for name_b, b in sides[1:-1]:",
        ("tests/test_identities.py::test_failing_reports_pin_sides_params_and_caps",),
    ),
    Mutant(
        "class-d-walk-allows-m-copies",
        "src/schmidtq/partitions.py",
        "most=m - 1)",
        "most=m)",
        ("tests/test_oracles.py::test_class_d_stream_matches_the_multiplicity_rule",),
    ),
    # Dropping the guard would loop without end on a negative key, so the
    # record moves its bound onto the valid key 0 instead.
    Mutant(
        "split-bucket-refuses-key-zero",
        "src/schmidtq/partitions.py",
        "if key < 0:",
        "if key <= 0:",
        ("tests/test_partitions.py::test_split_bucket_rejects_a_negative_key",),
    ),
    Mutant(
        "glaisher-row-floor-for-mod",
        "src/schmidtq/bijections.py",
        "row += count % m",
        "row += count // m",
        ("tests/test_bijections.py::test_glaisher_examples",),
    ),
    Mutant(
        "add-copies-the-smaller-operand",
        "src/schmidtq/series.py",
        "if len(a) < len(b):",
        "if len(a) > len(b):",
        ("tests/test_series.py::test_a_sum_walks_only_the_smaller_operand",),
    ),
    Mutant(
        "fixed-row-residues-not-read-as-ints",
        "src/schmidtq/identities.py",
        "set(map(index, s))",
        "set(s)",
        (
            "tests/test_identities.py::"
            "test_fixed_counting_rows_take_their_own_modulus_and_residues_as_a_set",
        ),
    ),
    Mutant(
        "fixed-row-residues-ordered",
        "src/schmidtq/identities.py",
        "set(map(index, s)) != set(fixed_s)",
        "tuple(map(index, s)) != tuple(fixed_s)",
        ("tests/test_cli.py::test_fixed_rows_take_their_own_modulus_and_residues_as_a_set",),
    ),
    Mutant(
        "fixed-row-modulus-unchecked",
        "src/schmidtq/identities.py",
        "if m not in (None, fixed_m) or s is not None",
        "if s is not None",
        ("tests/test_identities.py::test_rows_refuse_a_modulus_or_block_they_do_not_take",),
    ),
    Mutant(
        "side-lookup-ignores-its-label",
        "src/schmidtq/identities.py",
        "        if name == label:\n",
        "        if True:\n",
        (
            "tests/test_identities.py::test_failing_reports_pin_sides_params_and_caps",
            "tests/test_cli.py::test_coeff_takes_every_report_label",
        ),
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
