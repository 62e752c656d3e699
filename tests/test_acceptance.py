"""Acceptance gate: ten checks, one line each under ``pytest -v``.

Every check is exact; the timed ones assert their wall-clock budget too.
"""

import time

from schmidtq import (
    ColoredPartition,
    Partition,
    Series,
    cauchy_check,
    color_conjugate,
    color_conjugate_inverse,
    color_counts,
    cs_validate,
    decompose_multiplicity,
    enum_side,
    glaisher_expand,
    glaisher_reduce,
    in_class,
    ln_series,
    merge_partitions,
    mork_forward,
    mork_inverse,
    partitions_of,
    partitions_with_schmidt_weight,
    poch_infinite_inverse,
    product_side,
    residue_column_count,
    schmidt_weight,
    size_graded_context,
    sum_side,
    trivariate_context,
    verify_counting,
    verify_identity,
    witnesses,
)
from conftest import repeated_size_count, residue_sets


def test_criterion_01_overpartition_three_way_q16():
    start = time.monotonic()
    report = verify_identity("overpartition", qcap=16)
    elapsed = time.monotonic() - start
    assert report.passed, report.evidence_text()
    assert elapsed < 60


def test_criterion_02_two_color_three_way_q16():
    start = time.monotonic()
    report = verify_identity("ak_trivariate", qcap=16)
    elapsed = time.monotonic() - start
    assert report.passed, report.evidence_text()
    assert elapsed < 60


def test_criterion_03_coefficient_six_with_witnesses():
    for series in (
        sum_side("overpartition", 6),
        product_side("overpartition", qcap=6),
        enum_side("overpartition", qcap=6),
        enum_side("cor22", qcap=6),
    ):
        assert series.coefficient_at(q=6, t1=1, t2=2) == 6
    assert witnesses("cor22", {"q": 6, "t1": 1, "t2": 2}) == [
        "5,3,1,1",
        "4,4,2",
        "4,3,1,1,1",
        "4,2,2,2",
        "3,3,3,1",
        "3,2,2,2,1",
    ]
    assert witnesses("overpartition", {"q": 6, "t1": 1, "t2": 2}) == [
        "4,1',1",
        "4',1,1",
        "3,2,1'",
        "3,2',1",
        "3',2,1",
        "2',2,2",
    ]


def test_criterion_04_color_conjugate_drawn_example():
    lam = Partition((5, 5, 4, 4, 4, 4, 4, 4, 3, 2, 1))
    mu = color_conjugate(lam, 5, (1, 2, 3))
    assert mu == ColoredPartition.from_text("7_1,6_5,6_4,6_3,2_2")
    assert mu.size == 27
    assert tuple(p for p, _ in mu.parts) == (7, 6, 6, 6, 2)
    assert sorted(c for _, c in mu.parts) == [1, 2, 3, 4, 5]
    assert color_conjugate_inverse(mu, 5, (1, 2, 3)) == lam


def test_criterion_05_hook_interleave_example_and_relations():
    lam = Partition((7, 5, 4, 4, 2, 1))
    mu = mork_forward(lam)
    assert mu == Partition((12, 10, 7, 5, 3, 2, 1))
    assert mork_inverse(mu) == lam
    for n in range(17):
        for lam in partitions_of(n):
            mu = mork_forward(lam)
            odd = sum(mu.part(k) for k in range(1, len(mu) + 1, 2))
            assert mu.size == 2 * lam.size - len(lam)
            assert odd == lam.size
            assert mu.size - odd == lam.size - len(lam)
            assert mork_inverse(mu) == lam


def test_criterion_06_color_conjugate_property_suite():
    start = time.monotonic()
    for n in range(15):
        for lam in partitions_of(n):
            for m in range(2, 6):
                for s in residue_sets(m, include_m=True):
                    mu = color_conjugate(lam, m, s)
                    assert cs_validate(mu, m, s, m + 1)
                    assert mu.size == schmidt_weight(lam, m, s)
                    counts = color_counts(mu, m)
                    for j in range(1, m + 1):
                        assert counts[j - 1] == residue_column_count(lam, m, j)
                    assert color_conjugate_inverse(mu, m, s) == lam
    assert time.monotonic() - start < 300


def test_criterion_07_block_banking_suite():
    for n in range(21):
        for lam in partitions_of(n):
            for m in (2, 3, 4):
                kept, banked = glaisher_reduce(lam, m)
                assert in_class(kept, "F", m)
                assert in_class(banked, "R", m)
                assert kept.size + banked.size == n
                assert glaisher_expand(kept, banked, m) == lam
    for n in range(15):
        for mu in partitions_of(n):
            for m in (2, 3, 4):
                low, bulk = decompose_multiplicity(mu, m)
                assert merge_partitions(low, bulk) == mu
                for i in range(1, m + 1):
                    s = tuple(range(1, i + 1))
                    assert schmidt_weight(mu, m, s) == schmidt_weight(
                        low, m, s
                    ) + schmidt_weight(bulk, m, s)


def test_criterion_08_counting_theorems():
    for n in range(13):
        assert verify_counting("schmidt", n=n).passed
    for n in range(9):
        assert verify_counting("uncu", n=n).passed
    for m in (2, 3):
        for s in residue_sets(m, include_m=False):
            for n in range(8):
                report = verify_counting("ak_main", n=n, m=m, s=set(s))
                assert report.passed, report.evidence_text()
        for s in residue_sets(m, include_m=True):
            for n in range(8):
                report = verify_counting("franklin_ext", n=n, m=m, s=set(s))
                assert report.passed, report.evidence_text()


def test_criterion_09_length_recurrence():
    qcap = 10
    ctx = trivariate_context(qcap)
    by_length = {}
    for w in range(qcap + 1):
        for lam in partitions_with_schmidt_weight(w, 2, (1,), "P"):
            if not in_class(lam, "D", 4):
                continue
            key = (w, repeated_size_count(lam), residue_column_count(lam, 2, 1))
            acc = by_length.setdefault(len(lam), {})
            acc[key] = acc.get(key, 0) + 1
    for n in range(9):
        assert ln_series(n, qcap) == Series(ctx, by_length.get(n, {}))
    total = ctx.zero()
    for n in range(2 * qcap + 2):
        total = total + ln_series(n, qcap)
    assert total == enum_side("cor22", qcap=qcap)


def test_criterion_10_size_graded_identities():
    for identity in ("mork_odd", "mork_even"):
        report = verify_identity(identity, scap=14)
        assert report.passed, report.evidence_text()
    scap = 12
    ctx = size_graded_context(scap)
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            for identity in ("psi_all", "psi_dm"):
                report = verify_identity(identity, scap=scap, m=m, i=i)
                assert report.passed, report.evidence_text()
            missing = poch_infinite_inverse(
                ctx, ctx.monomial(q=min(m, i), s=m), ctx.monomial(q=i, s=m)
            )
            lhs = product_side("psi_dm", scap=scap, m=m, i=i) * missing
            assert lhs == product_side("psi_all", scap=scap, m=m, i=i)
    for big_n in range(13):
        assert cauchy_check(big_n).passed
