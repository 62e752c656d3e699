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
    # Within a layer the bounded read takes residue 1 before 2, so a run from
    # residue 1 lands on a cell still to be read and a size repeats past its
    # bound; class P reads residue m - 1 first, missing the copies that the
    # lower residues move up to it.
    Mutant(
        "pass-residue-order-reversed",
        "src/schmidtq/partitions.py",
        "(*range(1, m), 0)",
        "(*range(m - 1, 0, -1), 0)",
        ("tests/test_oracles.py::test_schmidt_weight_totals_match_the_copying_pass[3]",),
    ),
    # Read first in a bounded class, the empty partition's runs land on
    # cells still to be read, which add runs of the same size to them.
    Mutant(
        "pass-first-before-steps",
        "src/schmidtq/partitions.py",
        "[*reversed(up), empty]",
        "[empty, *reversed(up)]",
        ("tests/test_oracles.py::test_residue_columns_match_the_copying_pass[2]",),
    ),
    # Read upward, a bounded class takes runs from cells its runs of the
    # same size filled, so a size repeats past its bound.
    Mutant(
        "pass-layers-read-upward",
        "src/schmidtq/partitions.py",
        "[*reversed(up), empty]",
        "[*up, empty]",
        ("tests/test_oracles.py::test_residue_columns_match_the_copying_pass[2]",),
    ),
    Mutant(
        "pass-runs-stop-short",
        "src/schmidtq/partitions.py",
        "range(1, most + 1)",
        "range(1, most)",
        ("tests/test_oracles.py::test_cor22_counts_match_the_copying_pass",),
    ),
    Mutant(
        "pass-layer-bound-off-by-one",
        "src/schmidtq/partitions.py",
        "if j >= limit:\n                    break",
        "if j >= limit - m:\n                    break",
        ("tests/test_oracles.py::test_cor22_counts_match_the_copying_pass",),
    ),
    # Read first, residue 0 misses the copies that residue m - 1 moves to
    # it without a gain.
    Mutant(
        "sweep-residue-0-first",
        "src/schmidtq/partitions.py",
        "(*range(1, m), 0)",
        "(0, *range(1, m))",
        ("tests/test_oracles.py::test_residue_columns_match_the_run_groups[2]",),
    ),
    # Read last, the empty partition's copy lands on a cell already read,
    # so no partition opens with two copies of its largest part.
    Mutant(
        "sweep-empty-read-last",
        "src/schmidtq/partitions.py",
        "[empty, *up]",
        "[*up, empty]",
        ("tests/test_oracles.py::test_schmidt_weight_totals_match_the_run_groups[2]",),
    ),
    Mutant(
        "sweep-copy-group-of-two",
        "src/schmidtq/partitions.py",
        "runs, reads = (1,)",
        "runs, reads = (2,)",
        ("tests/test_oracles.py::test_schmidt_weight_totals_match_the_run_groups[2]",),
    ),
    Mutant(
        "class-d-buckets-track-rho-m",
        "src/schmidtq/partitions.py",
        "rho = [*(base**j for j in range(m - 1)), 0]",
        "rho = [*(base**j for j in range(m - 1)), base ** (m - 1)]",
        ("tests/test_oracles.py::test_class_d_buckets_match_whole_walk_on_every_residue_set[3]",),
    ),
    Mutant(
        "class-d-buckets-take-blocks",
        "src/schmidtq/partitions.py",
        "_table(counted, n, most=_most(cls, m), rho=rho)",
        "_table(counted, n, rho=rho)",
        ("tests/test_oracles.py::test_class_d_buckets_match_whole_walk_on_every_residue_set[3]",),
    ),
    Mutant(
        "class-d-buckets-read-layer-below",
        "src/schmidtq/partitions.py",
        "rho=rho)[n * m :]",
        "rho=rho)[(n - 1) * m : n * m]",
        ("tests/test_oracles.py::test_class_d_buckets_match_whole_walk_on_every_residue_set[3]",),
    ),
    Mutant(
        "table-alt-coefficient-off-by-one",
        "src/schmidtq/partitions.py",
        "alt * (2 * gain - c)",
        "alt * (2 * gain - c + 1)",
        ("tests/test_oracles.py::test_cor22_counts_match_the_copying_pass",),
    ),
    Mutant(
        "class-d-runs-up-to-m",
        "src/schmidtq/partitions.py",
        'return None if cls == "P" else m - 1',
        'return None if cls == "P" else m',
        ("tests/test_oracles.py::test_residue_columns_match_the_copying_pass[2]",),
    ),
    Mutant(
        "class-rule-takes-class-f",
        "src/schmidtq/partitions.py",
        'if cls not in ("P", "D"):',
        'if cls not in ("P", "D", "F"):',
        ("tests/test_partitions.py::test_schmidt_weight_counters_take_classes_p_and_d_only",),
    ),
    Mutant(
        "weight-stream-class-d-allows-m-copies",
        "src/schmidtq/partitions.py",
        "if a == last and run == most:",
        "if a == last and run == m:",
        ("tests/test_oracles.py::test_partitions_with_schmidt_weight_matches_recursive_walk[2]",),
    ),
    Mutant(
        "witnesses-class-d-unbounded",
        "src/schmidtq/identities.py",
        "most=_most(entry.family.cls, m))",
        "most=None)",
        ("tests/test_oracles.py::test_s_graded_witnesses_match_the_filter[mork_odd]",),
    ),
    Mutant(
        "table-constant-field-scaled-by-a",
        "src/schmidtq/partitions.py",
        "change = a * e + f",
        "change = a * (e + f)",
        ("tests/test_oracles.py::test_cor22_counts_match_the_copying_pass",),
    ),
    # Residue m is the empty partition's: index 1 has no predecessor, so
    # its first copy or group takes nothing from rho.
    Mutant(
        "table-first-group-loses-rho-m",
        "src/schmidtq/partitions.py",
        "[rho[-1], *rho[:-1], 0]",
        "[rho[-1], *rho[:-1], rho[-1]]",
        ("tests/test_oracles.py::test_residue_columns_match_the_copying_pass[2]",),
    ),
    Mutant(
        "colored-merge-rest-outer-count-one",
        "src/schmidtq/colored.py",
        "zip(map(add, nus, repeat(key)), repeat(count))",
        "zip(map(add, nus, repeat(key)), repeat(1))",
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
        "packed-constructor-cap-test-dropped",
        "src/schmidtq/series.py",
        "if any(map(and_, map(add, terms, repeat(layout.off)), repeat(layout.guard))):",
        "if False:",
        ("tests/test_series.py::test_packed_constructor_refuses_keys_of_no_in_cap_vector",),
    ),
    Mutant(
        "packed-constructor-outside-mask-within-layout",
        "src/schmidtq/series.py",
        "outside = layout.guard | -1 << layout.width",
        "outside = layout.guard",
        ("tests/test_series.py::test_packed_constructor_refuses_keys_of_no_in_cap_vector",),
    ),
    # Every layer's cells hold keys of that layer alone, so only a
    # layer's first cell may go in by one update.
    Mutant(
        "layers-update-every-cell",
        "src/schmidtq/partitions.py",
        "        first = cells[i]\n"
        "        out.update(zip(map(add, first, repeat(shift)), first.values()))\n"
        "        for part in cells[i + 1 : i + m]:\n"
        "            for key, count in part.items():\n"
        "                key += shift\n"
        "                out[key] = get(key, 0) + count\n",
        "        for part in cells[i : i + m]:\n"
        "            out.update(zip(map(add, part, repeat(shift)), part.values()))\n",
        ("tests/test_oracles.py::test_q_graded_enum_sides_match_the_column_tables",),
    ),
    # A last part above the weight left shares the state of a last part
    # left whose run just closed a block; left + 1 keeps the counts and
    # only the kept-list count tells the two apart.
    Mutant(
        "bucket-state-above-left-keyed-above-left",
        "src/schmidtq/partitions.py",
        "state = (next_r, child_weight, left, 0)",
        "state = (next_r, child_weight, left + 1, 0)",
        (
            "tests/test_oracles.py::"
            "test_schmidt_bucket_lists_share_the_states_of_parts_above_the_weight_left",
        ),
    ),
    Mutant(
        "flat-partitions-refill-with-x-plus-one",
        "src/schmidtq/partitions.py",
        "                parts[h] = x\n                free -= x",
        "                parts[h] = x + 1\n                free -= x",
        ("tests/test_oracles.py::test_partitions_of_matches_recursive_walk",),
    ),
    Mutant(
        "colored-palette-ascending",
        "src/schmidtq/colored.py",
        "pairs = [(size, c) for c in range(hi - 1, lo - 1, -1)]",
        "pairs = [(size, c) for c in range(lo, hi)]",
        ("tests/test_oracles.py::test_colored_partitions_match_nested_generator[m2-s1-top3]",),
    ),
    Mutant(
        "overpartition-flags-swapped",
        "src/schmidtq/colored.py",
        "((size, count, False), (size, count, True))",
        "((size, count, True), (size, count, False))",
        ("tests/test_oracles.py::test_overpartitions_match_recursive_walk",),
    ),
    Mutant(
        "overpartition-text-one-copy-more",
        "src/schmidtq/colored.py",
        "toks += repeat(text, count - 1)",
        "toks += repeat(text, count)",
        (
            "tests/test_golden_cli.py::"
            "test_command_output_is_unchanged[enumerate --class over --n 4]",
        ),
    ),
    Mutant(
        "color-conjugate-marked-rows-below-the-rest",
        "src/schmidtq/bijections.py",
        "full * i + bisect_right(residues, rest), rest or m)",
        "full * i + bisect_right(residues, rest - 1), rest or m)",
        ("tests/test_oracles.py::test_color_conjugate_matches_per_column_map[3]",),
    ),
    # A column of height divisible by m overshoots its last marked row by
    # m - s_i, which makes its color m.
    Mutant(
        "color-conjugate-full-block-color-m-minus-1",
        "src/schmidtq/bijections.py",
        "rest or m)",
        "rest or m - 1)",
        ("tests/test_oracles.py::test_color_conjugate_matches_per_column_map[2]",),
    ),
    Mutant(
        "inverse-row-walk-skips-heights-equal-to-the-row",
        "src/schmidtq/bijections.py",
        "while heights[k - 1] < r:",
        "while heights[k - 1] <= r:",
        ("tests/test_oracles.py::test_color_conjugate_matches_per_column_map[2]",),
    ),
    Mutant(
        "inverse-palette-ceiling-m",
        "src/schmidtq/bijections.py",
        "bounds = (*residues, m + 1)",
        "bounds = (*residues, m)",
        ("tests/test_oracles.py::test_color_conjugate_matches_per_column_map[3]",),
    ),
    Mutant(
        "mork-durfee-column-walk-one-column-early",
        "src/schmidtq/bijections.py",
        "while rows[k - 1] <= r + 1:",
        "while rows[k - 1] <= r:",
        ("tests/test_oracles.py::test_mork_maps_match_part_indexing_maps",),
    ),
    # int.__lt__ stands in for operator.lt, which bijections.py does not import.
    Mutant(
        "mork-forward-order-check-non-strict",
        "src/schmidtq/bijections.py",
        "any(map(le, out, (*out[1:], 0)))",
        "any(map(int.__lt__, out, (*out[1:], 0)))",
        (
            "tests/test_bijections.py::"
            "test_mork_forward_refuses_an_image_that_does_not_strictly_decrease",
        ),
    ),
    Mutant(
        "mork-inverse-peel-stops-before-the-outer-hook",
        "src/schmidtq/bijections.py",
        "for d in range(dm - 2, -1, -1):",
        "for d in range(dm - 2, 0, -1):",
        ("tests/test_oracles.py::test_mork_maps_match_part_indexing_maps",),
    ),
    # Equal arms give repeated parts, which the first check refuses, so
    # the mutant drops the arms' check rather than loosening it.
    Mutant(
        "mork-inverse-arms-unchecked",
        "src/schmidtq/bijections.py",
        "if any(map(le, arms, arms[1:])) or any(",
        "if any(",
        ("tests/test_oracles.py::test_bijections_refuse_as_their_replaced_bodies",),
    ),
    Mutant(
        "enumerate-write-drops-the-newline",
        "src/schmidtq/cli.py",
        'write(obj.to_text() + "\\n")',
        "write(obj.to_text())",
        ("tests/test_cli.py::test_enumerate_writes_each_object_text_on_a_line",),
    ),
    Mutant(
        "decompose-run-ends-one-part-early",
        "src/schmidtq/bijections.py",
        "compress(range(1, len(parts) + 1),",
        "compress(range(len(parts)),",
        ("tests/test_bijections.py::test_decompose_examples",),
    ),
    Mutant(
        "decompose-drops-a-single-low-copy",
        "src/schmidtq/bijections.py",
        "if cut > start:",
        "if cut > start + 1:",
        (
            "tests/test_oracles.py::"
            "test_decompose_and_merge_match_tuple_runs_and_validating_merge[2]",
        ),
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
    # G(t1 q) shifts q by the t1 degree j.
    Mutant(
        "euler-q-shift-one-short",
        "src/schmidtq/identities.py",
        "shifted = key - j  # (e - j, j, k)",
        "shifted = key - j + 1  # (e - j, j, k)",
        (
            "tests/test_oracles.py::"
            "test_q_graded_product_sides_match_the_running_series_product[ak_trivariate]",
        ),
    ),
    # (1 + t1 q) G(t1 q): the new part adds one to the t1 degree of G(t1 q)'s cell.
    Mutant(
        "euler-overpartition-second-term-reads-j",
        "src/schmidtq/identities.py",
        "others.append(shifted - t1)",
        "others.append(shifted)",
        (
            "tests/test_oracles.py::"
            "test_q_graded_product_sides_match_the_running_series_product[overpartition]",
        ),
    ),
    Mutant(
        "euler-distinct-range-one-too-tight",
        "src/schmidtq/identities.py",
        "else e - j * (j + 1) // 2",
        "else e - j * (j + 1) // 2 - 1",
        (
            "tests/test_oracles.py::"
            "test_q_graded_product_sides_match_the_running_series_product[overpartition]",
        ),
    ),
    Mutant(
        "euler-cor22-takes-the-t1-denominator",
        "src/schmidtq/identities.py",
        'with_t1_denominator=identity == "ak_trivariate"',
        'with_t1_denominator=identity != "overpartition"',
        ("tests/test_oracles.py::test_q_graded_product_sides_match_whole_series_products[cor22]",),
    ),
    # The routed side still equals the other sides, so only the audit of
    # the kernels each side reaches sees it.
    Mutant(
        "enum-side-through-the-product",
        "src/schmidtq/identities.py",
        "        table = _overpartition_table(cap, units)\n",
        "        return product_side(identity, qcap=cap)\n",
        (
            "tests/test_identities.py::"
            "test_every_pair_of_sides_reaches_disjoint_kernels[overpartition]",
        ),
    ),
    Mutant(
        "counting-side-through-the-other-table",
        "src/schmidtq/identities.py",
        '{"total": colored_partition_total(n, m, residues, top)}',
        '{"total": _schmidt_weight_total(n, m, residues, family.cls)}',
        (
            "tests/test_identities.py::"
            "test_the_sides_of_a_counting_theorem_share_only_the_input_checks[schmidt]",
        ),
    ),
    # Each new part reads the three states before it; the two shorter take t1.
    Mutant(
        "ln-t1-shift-skips-the-third-state",
        "src/schmidtq/identities.py",
        "for prev in (seq[-2], seq[-3]):",
        "for prev in (seq[-2],):",
        ("tests/test_oracles.py::test_ln_series_matches_the_series_op_recurrence",),
    ),
    # Q_r carries t2 on odd r only.
    Mutant(
        "ln-t2-on-even-indices",
        "src/schmidtq/identities.py",
        "quot = (r + 1) // 2 + r % 2 * t2",
        "quot = (r + 1) // 2 + (r + 1) % 2 * t2",
        ("tests/test_oracles.py::test_ln_series_matches_the_series_op_recurrence",),
    ),
    Mutant(
        "ln-divides-by-the-t1-step",
        "src/schmidtq/identities.py",
        "seq.append(_div_one_minus(tail, layout, quot))",
        "seq.append(_div_one_minus(tail, layout, step))",
        ("tests/test_oracles.py::test_ln_series_matches_the_series_op_recurrence",),
    ),
    # The division drops the keys shifted past the cap, so only the audit
    # of in-cap terms sees them handed over.
    Mutant(
        "ln-q-shift-not-cut",
        "src/schmidtq/identities.py",
        "if not (key + quot + off) & guard}",
        "}",
        ("tests/test_oracles.py::test_hook_sums_step_only_in_cap_keys",),
    ),
    Mutant(
        "cauchy-sum-odd-sign-dropped",
        "src/schmidtq/identities.py",
        "map(neg, coeffs) if k % 2 else coeffs",
        "coeffs",
        ("tests/test_oracles.py::test_cauchy_sum_matches_the_series_op_sum",),
    ),
    Mutant(
        "cauchy-sum-z-on-the-q-field",
        "src/schmidtq/identities.py",
        "z = 1 << _layout(ctx.caps).shifts[1]",
        "z = 1 << _layout(ctx.caps).shifts[0]",
        ("tests/test_oracles.py::test_cauchy_sum_matches_the_series_op_sum",),
    ),
    Mutant(
        "cauchy-sum-cut-one-past-the-cap",
        "src/schmidtq/identities.py",
        "gaussian_binomial_coeffs(N, k)[: qcap - e + 1]",
        "gaussian_binomial_coeffs(N, k)[: qcap - e + 2]",
        ("tests/test_oracles.py::test_cauchy_sum_matches_the_series_op_sum",),
    ),
    # The product stands in for the sum, so the two sides still agree and
    # only the audit of the kernels each side reaches sees it.
    Mutant(
        "cauchy-sum-through-the-product",
        "src/schmidtq/identities.py",
        "rhs = _cauchy_sum(ctx, N)",
        "rhs = poch_finite(ctx, ctx.monomial(z=1), ctx.monomial(q=1), N)",
        (
            "tests/test_identities.py::"
            "test_the_two_sides_of_cauchy_check_reach_disjoint_kernels",
        ),
    ),
    Mutant(
        "closed-form-horner-t2-step-dropped",
        "src/schmidtq/identities.py",
        "layout, mm + 1 + t2)",
        "layout, mm + 1)",
        ("tests/test_oracles.py::test_t1_slice_closed_form_matches_the_series_op_form",),
    ),
    # At caps 0 and 1 the step q^(mm + 1) is past the cap, where the division
    # finds no term yet; only the audit of in-cap steps sees it taken.  So
    # with the next record: the divisions by q^r drop the terms shifted past
    # the cap, so only that audit sees them handed over.
    Mutant(
        "closed-form-horner-step-guard-dropped",
        "src/schmidtq/identities.py",
        "        if mm < qcap:\n",
        "        if True:\n",
        ("tests/test_oracles.py::test_hook_sums_step_only_in_cap_keys",),
    ),
    Mutant(
        "closed-form-prefix-shift-not-cut",
        "src/schmidtq/identities.py",
        "if not (key + prefix_e + off) & guard}",
        "}",
        ("tests/test_oracles.py::test_hook_sums_step_only_in_cap_keys",),
    ),
    Mutant(
        "closed-form-one-division-short",
        "src/schmidtq/identities.py",
        "for r in range(1, J + 1):",
        "for r in range(1, J):",
        ("tests/test_oracles.py::test_t1_slice_closed_form_matches_the_series_op_form",),
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
        "glaisher-banks-past-m-only",
        "src/schmidtq/bijections.py",
        "if count >= m:",
        "if count > m:",
        ("tests/test_oracles.py::test_glaisher_maps_match_conjugating_maps[2]",),
    ),
    Mutant(
        "glaisher-row-floor-for-mod",
        "src/schmidtq/bijections.py",
        "count %= m",
        "count //= m",
        ("tests/test_bijections.py::test_glaisher_examples",),
    ),
    Mutant(
        "glaisher-expand-walk-steps-on-equal",
        "src/schmidtq/bijections.py",
        "while bank[k - 1] < cut:",
        "while bank[k - 1] <= cut:",
        ("tests/test_oracles.py::test_glaisher_maps_match_conjugating_maps[2]",),
    ),
    Mutant(
        "glaisher-expand-reports-the-first-banked-part",
        "src/schmidtq/bijections.py",
        "p = next(compress(bank, map(mod, bank, repeat(m))))",
        "p = bank[0]",
        ("tests/test_oracles.py::test_bijections_refuse_as_their_replaced_bodies",),
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
