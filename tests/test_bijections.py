"""The three maps: color-conjugation, hook interleaving, block banking."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schmidtq import (
    ColoredPartition,
    Partition,
    color_conjugate,
    color_conjugate_inverse,
    color_counts,
    cs_validate,
    decompose_multiplicity,
    glaisher_expand,
    glaisher_reduce,
    in_class,
    merge_partitions,
    mork_forward,
    mork_inverse,
    partitions_of,
    residue_column_count,
    schmidt_weight,
)

from conftest import descending, exact, residue_sets


part_lists = st.lists(st.integers(min_value=1, max_value=10), max_size=9)


# --- color conjugation -----------------------------------------------------


def test_color_conjugate_drawn_example():
    lam = Partition((5, 5, 4, 4, 4, 4, 4, 4, 3, 2, 1))
    mu = color_conjugate(lam, 5, (1, 2, 3))
    assert mu == ColoredPartition(((7, 1), (6, 5), (6, 4), (6, 3), (2, 2)))
    assert mu.size == 27 == schmidt_weight(lam, 5, (1, 2, 3))
    assert color_conjugate_inverse(mu, 5, (1, 2, 3)) == lam


def test_color_conjugate_small_example():
    mu = color_conjugate(Partition((2, 2)), 2, (1,))
    assert mu == ColoredPartition(((1, 2), (1, 2)))
    assert color_conjugate_inverse(mu, 2, (1,)) == Partition((2, 2))


def test_color_conjugate_empty():
    assert color_conjugate(Partition(()), 3, (1, 2)) == ColoredPartition(())
    assert color_conjugate_inverse(ColoredPartition(()), 3, (1, 2)) == Partition(())


def test_color_conjugate_statistic_transport():
    for n in range(11):
        for lam in partitions_of(n):
            for m in (2, 3):
                for s in residue_sets(m, include_m=True):
                    mu = color_conjugate(lam, m, s)
                    assert cs_validate(mu, m, s, m + 1)
                    assert mu.size == schmidt_weight(lam, m, s)
                    counts = color_counts(mu, m)
                    for j in range(1, m + 1):
                        assert counts[j - 1] == residue_column_count(lam, m, j)
                    assert color_conjugate_inverse(mu, m, s) == lam


def test_color_conjugate_injective():
    for m, s in ((2, (1,)), (3, (1, 2))):
        seen = {}
        for n in range(11):
            for lam in partitions_of(n):
                mu = color_conjugate(lam, m, s)
                key = mu.parts
                assert key not in seen or seen[key] == lam
                seen[key] = lam


def test_color_conjugate_inverse_rejects_bad_colors():
    # Size 2 may wear only color 2, size 1 only color 1.
    message = "part (2, 1) is not admissible for modulus 5, residues (1, 2, 3)"
    with pytest.raises(ValueError, match=exact(message)):
        color_conjugate_inverse(ColoredPartition(((2, 1),)), 5, (1, 2, 3))
    message = "part (1, 6) is not admissible for modulus 5, residues (1, 2, 3)"
    with pytest.raises(ValueError, match=exact(message)):
        color_conjugate_inverse(ColoredPartition(((1, 6),)), 5, (1, 2, 3))


@given(part_lists, st.integers(2, 5))
def test_color_conjugate_roundtrip_random(parts, m):
    lam = descending(parts)
    mu = color_conjugate(lam, m, (1,))
    assert color_conjugate_inverse(mu, m, (1,)) == lam


# --- hook interleaving -----------------------------------------------------


def test_mork_drawn_example():
    lam = Partition((7, 5, 4, 4, 2, 1))
    mu = mork_forward(lam)
    assert mu == Partition((12, 10, 7, 5, 3, 2, 1))
    assert mork_inverse(mu) == lam


def test_mork_small_cases():
    assert mork_forward(Partition(())) == Partition(())
    assert mork_forward(Partition((1,))) == Partition((1,))
    assert mork_forward(Partition((2, 1))) == Partition((3, 1))
    assert mork_inverse(Partition((3, 1))) == Partition((2, 1))


def test_mork_forward_distinct_and_invertible():
    for n in range(13):
        seen = set()
        for lam in partitions_of(n):
            mu = mork_forward(lam)
            parts = mu.parts
            assert len(set(parts)) == len(parts)  # images have distinct parts
            assert mu.parts not in seen
            seen.add(mu.parts)
            assert mork_inverse(mu) == lam


def test_mork_surjectivity_on_odd_index_sums():
    # Distinct-part partitions with odd-index sum n are exactly the
    # images of the unrestricted partitions of n.
    for n in range(11):
        image = {mork_forward(lam).parts for lam in partitions_of(n)}
        want = set()
        for size in range(2 * n + 1):
            for mu in partitions_of(size, "D", 2):
                odd = sum(mu.part(k) for k in range(1, len(mu) + 1, 2))
                if odd == n:
                    want.add(mu.parts)
        assert image == want


def test_mork_inverse_rejects_repeats():
    with pytest.raises(ValueError):
        mork_inverse(Partition((3, 3)))


def test_mork_forward_refuses_an_image_that_does_not_strictly_decrease():
    # Every partition maps to distinct parts, so only parts out of order,
    # which _trusted alone builds, reach the image check: (2, 3) walks to
    # the hooks 3, 2, 2, 1, which repeat.
    with pytest.raises(ValueError, match="does not strictly decrease"):
        mork_forward(Partition._trusted((2, 3)))


def test_mork_forward_inverts_mork_inverse_on_distinct_parts():
    # The images are exactly the distinct-part partitions: none is refused.
    for n in range(25):
        for mu in partitions_of(n, "D", 2):
            assert mork_forward(mork_inverse(mu)) == mu


def test_mork_size_relations():
    for n in range(13):
        for lam in partitions_of(n):
            mu = mork_forward(lam)
            assert mu.size == 2 * lam.size - len(lam)
            odd = sum(mu.part(k) for k in range(1, len(mu) + 1, 2))
            assert odd == lam.size
            assert mu.size - odd == lam.size - len(lam)


# --- block banking ---------------------------------------------------------


def test_glaisher_examples():
    kept, banked = glaisher_reduce(Partition((4, 4, 3, 1)), 2)
    assert (kept, banked) == (Partition((2, 2, 1, 1)), Partition((6,)))
    kept, banked = glaisher_reduce(Partition((3, 3, 3)), 3)
    assert (kept, banked) == (Partition(()), Partition((9,)))
    assert glaisher_expand(Partition((2, 2, 1, 1)), Partition((6,)), 2) == Partition((4, 4, 3, 1))


def test_glaisher_roundtrip_and_classes():
    for n in range(15):
        for lam in partitions_of(n):
            for m in (2, 3, 4):
                kept, banked = glaisher_reduce(lam, m)
                assert in_class(kept, "F", m)
                assert in_class(banked, "R", m)
                assert kept.size + banked.size == n
                assert glaisher_expand(kept, banked, m) == lam


def test_glaisher_expand_validation():
    gap = exact("(3, 1) has a gap of 2 or more, so it is not reduced")
    with pytest.raises(ValueError, match=gap):
        glaisher_expand(Partition((3, 1)), Partition(()), 2)
    with pytest.raises(ValueError, match=exact("banked part 3 is not divisible by 2")):
        glaisher_expand(Partition(()), Partition((3,)), 2)
    # The kept partition is checked first, then the banked parts in order.
    with pytest.raises(ValueError, match=gap):
        glaisher_expand(Partition((3, 1)), Partition((3,)), 2)
    with pytest.raises(ValueError, match=exact("banked part 3 is not divisible by 2")):
        glaisher_expand(Partition((2, 1)), Partition((4, 3, 1)), 2)


def test_glaisher_fixes_small_gap_partitions():
    for n in range(13):
        for m in (2, 3):
            for lam in partitions_of(n, "F", m):
                assert glaisher_reduce(lam, m) == (lam, Partition(()))


def test_decompose_examples():
    assert decompose_multiplicity(Partition((2, 1, 1)), 2) == (
        Partition((2,)),
        Partition((1, 1)),
    )
    assert decompose_multiplicity(Partition((1, 1, 1)), 3) == (
        Partition(()),
        Partition((1, 1, 1)),
    )


def test_decompose_roundtrip_and_weight_additivity():
    for n in range(12):
        for mu in partitions_of(n):
            for m in (2, 3):
                low, bulk = decompose_multiplicity(mu, m)
                assert in_class(low, "D", m)
                for v in set(bulk.parts):
                    assert bulk.multiplicity(v) % m == 0
                assert merge_partitions(low, bulk) == mu
                for i in range(1, m + 1):
                    s = tuple(range(1, i + 1))
                    assert schmidt_weight(mu, m, s) == schmidt_weight(
                        low, m, s
                    ) + schmidt_weight(bulk, m, s)


@given(part_lists, st.integers(2, 4))
def test_glaisher_roundtrip_random(parts, m):
    lam = descending(parts)
    kept, banked = glaisher_reduce(lam, m)
    assert glaisher_expand(kept, banked, m) == lam


@given(part_lists, st.integers(2, 4))
def test_decompose_merge_random(parts, m):
    mu = descending(parts)
    low, bulk = decompose_multiplicity(mu, m)
    assert merge_partitions(low, bulk) == mu
