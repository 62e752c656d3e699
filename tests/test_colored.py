"""Colored partitions with residue-keyed palettes, and overpartitions."""

from fractions import Fraction

import pytest

from schmidtq import (
    ColoredPartition,
    Overpartition,
    admissible_colors,
    color_counts,
    colored_bucket_counts,
    colored_partition_total,
    colored_partitions,
    cs_validate,
    over_stats,
    overpartitions,
    partitions_of,
)
from schmidtq import colored

from conftest import Exactly, exact, residue_sets


FIG_IMAGE = ColoredPartition(((7, 1), (6, 5), (6, 4), (6, 3), (2, 2)))


def test_admissible_colors():
    # i = 3 residues: sizes 1 mod 3 take color 1, sizes 2 mod 3 take
    # color 2, sizes 0 mod 3 take colors 3..5.
    assert list(admissible_colors(7, 5, (1, 2, 3), 6)) == [1]
    assert list(admissible_colors(2, 5, (1, 2, 3), 6)) == [2]
    assert list(admissible_colors(6, 5, (1, 2, 3), 6)) == [3, 4, 5]
    assert list(admissible_colors(1, 2, (1,), 3)) == [1, 2]
    assert list(admissible_colors(1, 2, (1,), 2)) == [1]


def test_palette_validation():
    with pytest.raises(ValueError):
        admissible_colors(1, 2, (1,), 4)  # top must be m or m+1
    with pytest.raises(ValueError):
        admissible_colors(1, 2, (1, 2), 2)  # residues must stay below top
    with pytest.raises(ValueError):
        admissible_colors(0, 2, (1,), 3)


CEILING_CALLS = {
    "admissible_colors": lambda top: admissible_colors(1, 2, (1,), top),
    "cs_validate": lambda top: cs_validate(ColoredPartition.from_text("2_2,1_1"), 2, (1,), top),
    "colored_partitions": lambda top: list(colored_partitions(8, 2, (1,), top)),
    "colored_bucket_counts": lambda top: colored_bucket_counts(8, 2, (1,), top),
    "colored_partition_total": lambda top: colored_partition_total(8, 2, (1,), top),
}


@pytest.mark.parametrize("name", CEILING_CALLS)
def test_palette_ceiling_is_read_through_index(name):
    # 3.0 == 3, so a ceiling compared as it came would pass for 3.
    call = CEILING_CALLS[name]
    for top in (3.0, Fraction(3), "3"):
        with pytest.raises(TypeError):
            call(top)
    assert call(Exactly(3)) == call(3)


def test_colored_bucket_merge_refuses_keys_that_collide(monkeypatch):
    # nu's digits moved down one, onto u's, make (u, nu) pairs share keys;
    # the merge writes each key once, so its pair count must see that.
    table = colored._coin_table

    def shifted(n, parts):
        return table(n, [(a, d // (n + 1) or d, once) for a, d, once in parts])

    monkeypatch.setattr(colored, "_coin_table", shifted)
    with pytest.raises(ArithmeticError, match="pairs wrote"):
        colored_bucket_counts(4, 2, (1,), 3)


def test_colored_bucket_images_count_each_nu_once():
    # The merge carries only the counts of the other row: a nu's key is
    # its multiplicities, so every count of its table is 1.
    for m in (2, 3, 4):
        for s in residue_sets(m, True):
            residues, top = colored._validate_palette(m, s, m + 1)
            for n in range(25):
                rows = colored._image_table(n, m, residues, top)
                assert set().union(*map(dict.values, rows)) == {1}, (m, s, n)


def test_cs_validate():
    assert cs_validate(FIG_IMAGE, 5, (1, 2, 3), 6)
    assert not cs_validate(ColoredPartition(((2, 1),)), 5, (1, 2, 3), 6)
    assert cs_validate(ColoredPartition(()), 5, (1, 2, 3), 6)


def test_color_counts():
    assert color_counts(FIG_IMAGE, 5) == (1, 1, 1, 1, 1)
    assert color_counts(ColoredPartition(((1, 1), (1, 1))), 2) == (2, 0)
    with pytest.raises(ValueError):
        color_counts(ColoredPartition(((1, 3),)), 2)


def test_colored_partition_canonical_form():
    mu = ColoredPartition(((2, 1), (7, 1), (6, 5), (6, 3)))
    assert mu.parts == ((7, 1), (6, 5), (6, 3), (2, 1))
    assert mu.size == 21
    assert mu.to_text() == "7_1,6_5,6_3,2_1"
    assert ColoredPartition.from_text("7_1,6_5,6_3,2_1") == mu
    assert ColoredPartition.from_text("") == ColoredPartition(())
    with pytest.raises(ValueError):
        ColoredPartition.from_text("3_")
    with pytest.raises(ValueError, match=exact("sizes and colors must be positive, got (0, 1)")):
        ColoredPartition(((0, 1),))
    with pytest.raises(ValueError, match=exact("sizes and colors must be positive, got (1, 0)")):
        ColoredPartition(((1, 0),))


@pytest.mark.parametrize("part", [(2.9, 1.2), ("2", 1)], ids=["float", "string"])
def test_colored_partition_refuses_non_integral_parts(part):
    # (2.9, 1.2) was truncated to (2, 1).
    with pytest.raises(TypeError):
        ColoredPartition([part])


def test_colored_partition_takes_bools_and_index_types():
    mu = ColoredPartition([(True, Exactly(2)), (Exactly(3), True)])
    assert mu.parts == ((3, 1), (1, 2))
    assert all(type(v) is int for part in mu.parts for v in part)


def test_two_colored_count_of_three():
    listing = list(colored_partitions(3, 2, (1,), 3))
    assert len(listing) == 10
    assert len(set(listing)) == 10
    for mu in listing:
        assert cs_validate(mu, 2, (1,), 3)
        assert mu.size == 3


def test_colored_counts_match_partition_pairs():
    # With two unrestricted colors, a colored partition is exactly a
    # pair of ordinary partitions.
    pcount = [sum(1 for _ in partitions_of(k)) for k in range(11)]
    for n in range(11):
        want = sum(pcount[k] * pcount[n - k] for k in range(n + 1))
        assert sum(1 for _ in colored_partitions(n, 2, (1,), 3)) == want


def test_single_color_collapses_to_plain_partitions():
    for n in range(9):
        got = sum(1 for _ in colored_partitions(n, 2, (1,), 2))
        assert got == sum(1 for _ in partitions_of(n))


def test_enumeration_is_deterministic_and_valid():
    for n in range(7):
        a = [mu.to_text() for mu in colored_partitions(n, 3, (1, 2), 4)]
        b = [mu.to_text() for mu in colored_partitions(n, 3, (1, 2), 4)]
        assert a == b
        assert len(a) == len(set(a))
        for mu in colored_partitions(n, 3, (1, 2), 4):
            assert cs_validate(mu, 3, (1, 2), 4)


def test_overpartition_construction():
    mu = Overpartition.from_flagged_parts(((3, True), (2, False), (1, True)))
    assert mu.size == 6
    assert len(mu) == 3
    assert mu.overlined_count == 2
    assert over_stats(mu) == (2, 3)
    assert mu.to_text() == "3',2,1'"
    assert Overpartition.from_text("3',2,1'") == mu
    with pytest.raises(ValueError):
        Overpartition.from_flagged_parts(((2, True), (2, True)))
    with pytest.raises(ValueError):
        Overpartition.from_text("1,2")  # must be weakly decreasing
    with pytest.raises(ValueError):
        Overpartition.from_text("2,2'")  # flag only on the first copy


@pytest.mark.parametrize(
    "entry",
    [
        (2.5, 1, True),
        (2, 1.9, False),
        (2.0, 1, False),
        (Fraction(3), 1, True),
        (2, Fraction(1), False),
        ("3", 1, False),
        (3, "1", True),
    ],
    ids=[
        "float-size",
        "float-count",
        "integral-float-size",
        "fraction-size",
        "fraction-count",
        "string-size",
        "string-count",
    ],
)
def test_overpartition_refuses_non_integral_sizes_and_counts(entry):
    # (2.5, 1.9, True) was truncated to (2, 1, True), and "3" was parsed.
    with pytest.raises(TypeError):
        Overpartition([entry])


def test_overpartition_takes_bools_and_index_types():
    mu = Overpartition([(Exactly(3), True, True), (True, Exactly(2), False)])
    assert mu.entries == ((3, 1, True), (1, 2, False))
    assert all(type(v) is int for entry in mu.entries for v in entry[:2])


def test_flagged_parts_group_sizes_by_their_int_value():
    # 2 and a size worth 2 through __index__ are one size, so a flagged
    # copy of one and a plain copy of the other make 2',2.
    mu = Overpartition.from_flagged_parts([(Exactly(2), True), (2, False)])
    assert mu.entries == ((2, 2, True),)
    assert mu.to_text() == "2',2"
    with pytest.raises(ValueError, match=exact("size 2 overlined more than once")):
        Overpartition.from_flagged_parts([(2, True), (Exactly(2), True)])
    for size in (2.0, 2.5, Fraction(2), "2"):
        with pytest.raises(TypeError):
            Overpartition.from_flagged_parts([(size, False)])


def test_overpartitions_of_three():
    texts = {mu.to_text() for mu in overpartitions(3)}
    assert texts == {
        "3", "3'", "2,1", "2',1", "2,1'", "2',1'", "1,1,1", "1',1,1",
    }


def test_overpartition_counts():
    # First occurrences of each part size may carry a flag, so the count
    # is sum over plain partitions of 2^(number of distinct sizes).
    want = [1, 2, 4, 8, 14, 24, 40, 64, 100]
    got = [sum(1 for _ in overpartitions(n)) for n in range(9)]
    assert got == want


def test_overpartition_enumeration_no_duplicates():
    for n in range(9):
        listing = list(overpartitions(n))
        assert len(listing) == len(set(listing))


def test_colored_partition_and_overpartition_on_one_tuple_differ():
    # Both hold one tuple; equal tuples make equal values only within a type.
    parts = ((3, 1, True),)
    mu, nu = ColoredPartition._trusted(parts), Overpartition._trusted(parts)
    assert mu != nu and nu != mu
    assert mu == ColoredPartition._trusted(parts) and nu == Overpartition._trusted(parts)
    assert hash(mu) == hash(nu) == hash(parts)


def test_colored_value_reprs_and_attributes():
    assert repr(Overpartition([(3, 1, True)])) == "Overpartition([(3, 1, True)])"
    assert repr(Overpartition()) == "Overpartition([])"
    assert repr(ColoredPartition([(2, 1), (7, 1)])) == "ColoredPartition([(7, 1), (2, 1)])"
    # Neither takes attributes beyond its tuple, and an overpartition is
    # read through its entries, not iterated.
    for value in (ColoredPartition([(2, 1)]), Overpartition([(2, 1, False)])):
        with pytest.raises(AttributeError):
            value.extra = 1
    with pytest.raises(TypeError):
        iter(Overpartition([(2, 1, False)]))
