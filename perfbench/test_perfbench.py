"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import counts  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_metrics_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_printed_metrics_match_the_spec():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = result(bench("objects", trace))
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counts_repeat_for_one_seed(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    for name in run.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("verify_q", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_decks_send_the_same_work_for_every_seed():
    # The seed orders each deck and picks only cost-neutral parameters: the
    # t1 slice and the objects workload's monomials and moduli.  Every other
    # op, and every family's op count, is fixed.
    seeded = {"t1_slice"}
    for name in workloads.WORKLOADS:
        decks = [workloads.build_deck(name, seed)[0] for seed in range(20)]
        assert len({frozenset(Counter(op.family for op in d).items()) for d in decks}) == 1
        if name != "objects":
            fixed = [sorted(op.label for op in d if op.family not in seeded) for d in decks]
            assert all(f == fixed[0] for f in fixed)


def test_every_series_op_has_a_digest():
    digests = json.loads(workloads.DIGESTS.read_text())
    for seed in range(50):
        deck, _ = workloads.build_deck("series_sides", seed)
        for op in deck:
            if op.kind in ("sum_side", "product_side", "ln_series"):
                assert op.label in digests


def test_closed_form_counts_match_brute_force():
    sys.path.insert(0, str(ROOT / "src"))
    from schmidtq import colored_partitions, overpartitions, partitions_of

    for n in range(12):
        assert counts.partition_count(n) == sum(1 for _ in partitions_of(n))
        assert counts.overpartition_count(n) == sum(1 for _ in overpartitions(n))
        assert counts.two_color_count(n) == sum(1 for _ in colored_partitions(n, 2, (1,), 3))
        assert counts.colored_count(n, (1, 3), 4) == sum(
            1 for _ in colored_partitions(n, 3, (1, 3), 4)
        )
        for m in (2, 3):
            assert counts.restricted_count(n, m) == sum(1 for _ in partitions_of(n, "D", m))
            assert counts.restricted_count(n, m) == sum(1 for _ in partitions_of(n, "F", m))
            assert counts.divisible_count(n, m) == sum(1 for _ in partitions_of(n, "R", m))


def test_tail_has_ten_samples_beyond_it():
    for name in workloads.WORKLOADS:
        deck, _ = workloads.build_deck(name, 1)
        n = workloads.min_passes(name, deck) * len(deck)
        values = sorted(random.random() for _ in range(n))
        cut = run.percentile(values, workloads.WORKLOADS[name][1])
        assert sum(1 for v in values if v > cut) >= 10
