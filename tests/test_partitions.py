"""Partition core: construction, conjugation, weights, classes, enumeration."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schmidtq import (
    Partition,
    in_class,
    normalize_residue_set,
    overpartitions,
    partition_groups,
    partitions_of,
    partitions_with_schmidt_weight,
    repetition_profile,
    residue_column_count,
    schmidt_bucket_counts,
    schmidt_weight,
    schmidt_weight_table,
    split_bucket,
    verify_counting,
)
from schmidtq import partitions

from conftest import Exactly, descending, exact, residue_sets, traced_peak


part_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=10)


def test_constructor_validates():
    Partition((3, 3, 1))
    Partition(())
    with pytest.raises(ValueError, match=exact("parts must be weakly decreasing, got (1, 2)")):
        Partition((1, 2))
    with pytest.raises(ValueError, match=exact("parts must be positive integers, got (0,)")):
        Partition((0,))
    with pytest.raises(ValueError, match=exact("parts must be positive integers, got (2, -1)")):
        Partition((2, -1))
    # Converted parts print as ints.
    with pytest.raises(ValueError, match=exact("parts must be weakly decreasing, got (1, 2)")):
        Partition([True, Exactly(2)])


@pytest.mark.parametrize(
    "parts", [[2.5, 1], [Fraction(7, 2)], ["3", "1"]], ids=["float", "fraction", "string"]
)
def test_constructor_refuses_non_integral_parts(parts):
    # These were truncated or parsed, so Partition([2.5, 1]) was (2, 1).
    with pytest.raises(TypeError):
        Partition(parts)


def test_size_streams_read_their_size_as_an_index():
    # A float size leaked into the parts: partition_groups(3.0) gave
    # ((3.0, 1),) and overpartitions(2.0) an Overpartition with a float size.
    for n in (3.0, 2.5, "3", Fraction(3)):
        for stream in (partition_groups, overpartitions):
            with pytest.raises(TypeError):
                list(stream(n))
    assert list(partition_groups(True)) == list(partition_groups(1))
    assert list(partition_groups(Exactly(3))) == list(partition_groups(3))
    assert list(overpartitions(True)) == list(overpartitions(1))
    assert list(overpartitions(Exactly(3))) == list(overpartitions(3))
    for groups in partition_groups(Exactly(3)):
        assert all(type(v) is int for group in groups for v in group)
    for mu in overpartitions(Exactly(3)):
        assert all(type(v) is int for entry in mu.entries for v in entry[:2])


def test_constructor_takes_bools_and_index_types():
    lam = Partition([Exactly(3), True, True])
    assert lam == Partition((3, 1, 1))
    assert all(type(p) is int for p in lam.parts)


def test_indexing_and_length():
    lam = Partition((3, 1))
    assert (lam.part(1), lam.part(2), lam.part(3), lam.part(99)) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        lam.part(0)
    assert len(lam) == 2
    assert lam.size == 4
    assert list(lam) == [3, 1]


def test_conjugate_examples():
    assert Partition(()).conjugate() == Partition(())
    assert Partition((3, 3)).conjugate() == Partition((2, 2, 2))
    assert Partition((7, 5, 4, 4, 2, 1)).conjugate() == Partition((6, 5, 4, 4, 2, 1, 1))


def test_conjugate_involution_small_sizes():
    for n in range(21):
        for lam in partitions_of(n):
            back = lam.conjugate().conjugate()
            assert back == lam
            assert lam.conjugate().size == n


@given(part_lists)
def test_conjugate_involution_random(parts):
    lam = descending(parts)
    assert lam.conjugate().conjugate() == lam


def test_schmidt_weight_examples():
    assert schmidt_weight(Partition((7, 5, 4, 4, 2, 1)), 2, (1,)) == 13
    fig = Partition((5, 5, 4, 4, 4, 4, 4, 4, 3, 2, 1))
    assert schmidt_weight(fig, 5, (1, 2, 3)) == 27
    assert schmidt_weight(Partition(()), 3, (1, 2)) == 0


def test_residue_set_validation():
    assert normalize_residue_set(3, {2, 1}) == (1, 2)
    with pytest.raises(ValueError):
        normalize_residue_set(1, (1,))
    with pytest.raises(ValueError):
        normalize_residue_set(3, (2,))  # 1 must be a member
    with pytest.raises(ValueError):
        normalize_residue_set(3, (1, 4))
    with pytest.raises(ValueError):
        normalize_residue_set(3, (1, 3), allow_m=False)


@pytest.mark.parametrize("s", [(1.9,), (1, 2.0), ("1",), (1, "2")], ids=str)
def test_residue_set_refuses_non_integral_residues(s):
    # These were truncated or parsed, so (1.9,) read as (1,).
    with pytest.raises(TypeError):
        normalize_residue_set(2, s)
    with pytest.raises(TypeError):
        verify_counting("franklin_ext", n=6, m=2, s=s)


def test_residue_set_takes_bools_and_index_types():
    assert normalize_residue_set(3, [Exactly(2), True]) == (1, 2)
    assert all(type(r) is int for r in normalize_residue_set(3, [Exactly(2), True]))


def test_rho_examples():
    assert residue_column_count(Partition((2, 1, 1)), 2, 1) == 2
    assert residue_column_count(Partition((3, 3)), 2, 1) == 0
    assert residue_column_count(Partition(()), 4, 2) == 0
    with pytest.raises(ValueError):
        residue_column_count(Partition((2,)), 2, 3)
    with pytest.raises(ValueError):
        residue_column_count(Partition((2,)), 2, 0)


def test_rho_totals_to_largest_part():
    # Each column of the diagram has exactly one height residue class.
    for n in range(21):
        for lam in partitions_of(n):
            for m in (2, 3, 5):
                total = sum(residue_column_count(lam, m, j) for j in range(1, m + 1))
                assert total == lam.part(1)


def test_rho_counts_column_heights():
    for n in range(13):
        for lam in partitions_of(n):
            cols = lam.conjugate().parts
            for m in (2, 3):
                for j in range(1, m + 1):
                    want = sum(1 for h in cols if (h - 1) % m + 1 == j)
                    assert residue_column_count(lam, m, j) == want


def test_class_membership_examples():
    assert not in_class(Partition((4, 4, 3, 1)), "D", 2)
    assert in_class(Partition((2, 2, 1, 1)), "F", 2)
    assert in_class(Partition((6, 2)), "R", 2)
    assert in_class(Partition(()), "D", 3)
    assert in_class(Partition(()), "F", 3)
    assert in_class(Partition(()), "R", 3)
    with pytest.raises(ValueError):
        in_class(Partition((1,)), "X", 2)


def test_gap_class_is_conjugate_of_bounded_multiplicity():
    for n in range(21):
        for lam in partitions_of(n):
            for m in (2, 3, 4):
                assert in_class(lam, "F", m) == in_class(lam.conjugate(), "D", m)


def test_repetition_profile_examples():
    assert repetition_profile(Partition((3, 3, 3, 1)), 2) == ((3, 3),)
    assert repetition_profile(Partition((1, 1, 1, 1, 1)), 3) == ((1, 5),)
    assert repetition_profile(Partition((5, 4, 2, 1)), 2) == ()
    assert repetition_profile(Partition((2, 2, 1, 1, 1)), 2) == ((2, 2), (1, 3))


def test_enumerate_by_size():
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert sum(1 for _ in partitions_of(5)) == 7
    assert {p.parts for p in partitions_of(3, "D", 2)} == {(3,), (2, 1)}
    assert [p.parts for p in partitions_of(0)] == [()]
    biggest_first = [p.parts for p in partitions_of(6)]
    assert biggest_first == sorted(biggest_first, reverse=True)


def test_enumerate_by_size_classes_agree_with_filters():
    for n in range(13):
        everything = list(partitions_of(n))
        for cls, m in (("D", 2), ("D", 3), ("F", 2), ("R", 3)):
            got = [p.parts for p in partitions_of(n, cls, m)]
            want = [p.parts for p in everything if in_class(p, cls, m)]
            assert got == want


def test_class_and_length_walks_meet_no_dead_end(monkeypatch):
    # Their rules list only the groups after which a prefix can still close,
    # so every prefix below the root has a group to add.
    walk = partitions._walk

    def checked(n, children, state=None, **kw):
        def listed(rem, last, st):
            kids = list(children(rem, last, st))
            assert kids or last > n, (n, rem, last, st)
            return kids

        return walk(n, listed, state, **kw)

    monkeypatch.setattr(partitions, "_walk", checked)
    for n in range(16):
        for cls in ("D", "F"):
            for m in (2, 3, 4):
                assert list(partitions_of(n, cls, m))
        for length in range(n + 1):
            for sizes in range(length + 1):
                list(partitions._length_walk(n, length, sizes))


def test_enumerate_by_schmidt_weight_examples():
    got = {p.parts for p in partitions_with_schmidt_weight(3, 2, (1,), "D")}
    assert got == {(3,), (3, 1), (3, 2)}
    got = {p.parts for p in partitions_with_schmidt_weight(1, 2, (1,), "P")}
    assert got == {(1,), (1, 1)}
    assert [p.parts for p in partitions_with_schmidt_weight(0, 3, (1, 2), "P")] == [()]


def test_enumerate_by_schmidt_weight_against_brute_force():
    # Any partition of Schmidt weight n has size at most m*n, since each
    # uncounted run of rows is dominated by the counted row above it.
    for m, s in ((2, (1,)), (3, (1, 2)), (3, (1, 3))):
        for n in range(5):
            want = set()
            for size in range(m * n + 1):
                for lam in partitions_of(size):
                    if schmidt_weight(lam, m, s) == n:
                        want.add(lam.parts)
            got = [p.parts for p in partitions_with_schmidt_weight(n, m, s, "P")]
            assert len(got) == len(set(got))
            assert set(got) == want


def test_weight_enumeration_counts_match_size_counts():
    # Bounded-multiplicity partitions graded by odd-index weight are
    # counted by ordinary partitions of that weight.
    for n in range(13):
        lhs = sum(1 for _ in partitions_with_schmidt_weight(n, 2, (1,), "D"))
        rhs = sum(1 for _ in partitions_of(n))
        assert lhs == rhs


def test_schmidt_weight_counters_take_classes_p_and_d_only():
    for cls in ("F", "R", "X"):
        with pytest.raises(ValueError, match="class must be 'P' or 'D'"):
            schmidt_bucket_counts(4, 2, (1,), cls)
        with pytest.raises(ValueError, match="class must be 'P' or 'D'"):
            schmidt_weight_table(2, (1,), cls, cap=4)
    with pytest.raises(ValueError, match="nonnegative"):
        schmidt_weight_table(2, (1,), "P", cap=-1)


@pytest.mark.parametrize("cls", ["P", "D"])
def test_weight_total_is_the_sum_of_the_buckets(cls):
    # The total the schmidt and uncu left sides read, against the buckets
    # of ak_main and franklin_ext summed: two counters of one family.
    cases = [(n, 2, (1,)) for n in range(19)]
    cases += [(n, m, s) for m in (3, 4) for s in residue_sets(m, True) for n in range(11)]
    for n, m, s in cases:
        want = sum(schmidt_bucket_counts(n, m, s, cls).values())
        assert partitions._schmidt_weight_total(n, m, s, cls) == want, (n, m, s)


def test_split_bucket_rejects_a_negative_key():
    assert split_bucket(0, 2, 2) == ((0,), ())
    with pytest.raises(ValueError, match="nonnegative"):
        split_bucket(-1, 2, 2)


def test_schmidt_weight_table_examples():
    # Distinct parts of size at most 4, by odd-index weight and size.
    want = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (2, 3): 1, (4, 4): 1, (3, 4): 1}
    assert schmidt_weight_table(2, (1,), "D", cap=4) == want


def test_schmidt_weight_table_with_a_modulus_above_the_size_cap():
    # With at most 6 parts, index k has residue k for every m > 6, so the
    # table cannot depend on m there; a huge m must cost no m^2 work.
    want = schmidt_weight_table(7, (1, 2), "P", cap=6)
    assert schmidt_weight_table(10**5, (1, 2), "P", cap=6) == want
    # A table of steps for every residue would hold m^2 entries; the
    # linear-in-m work peaks at about 0.4 MB here.
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert schmidt_weight_table(10**4, (1, 2), "P", cap=6) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_class_p_weight_total_at_a_large_modulus_stays_small():
    # Class P takes one copy per read, from one step per residue.  Runs of
    # 1 .. m - 1 copies would hold m^2 groups: 10.8 MB here.  The value is
    # the run-group oracle's in tests/test_oracles.py.
    assert partitions._schmidt_weight_total(8, 300, (1,), "P") == 2126829581112375
    peak = traced_peak(partitions._schmidt_weight_total, 8, 300, (1,), "P")
    assert peak < 2_000_000, peak


def test_serialization_roundtrip():
    lam = Partition((7, 5, 4, 4, 2, 1))
    assert lam.to_text() == "7,5,4,4,2,1"
    assert Partition.from_text("7,5,4,4,2,1") == lam
    assert Partition.from_text("") == Partition(())
    assert Partition(()).to_text() == ""
    with pytest.raises(ValueError):
        Partition.from_text("1,2")
    with pytest.raises(ValueError):
        Partition.from_text("0")
    with pytest.raises(ValueError):
        Partition.from_text("a,b")


@given(part_lists, st.integers(min_value=2, max_value=5))
def test_profile_matches_multiplicities(parts, m):
    lam = descending(parts)
    profile = dict(repetition_profile(lam, m))
    for v in set(lam.parts):
        mult = lam.multiplicity(v)
        if mult >= m:
            assert profile[v] == mult
        else:
            assert v not in profile
