"""Colored partitions with residue-keyed palettes, and overpartitions.

The coloring rule is driven by a modulus ``m``, an increasing residue set
``s = (s_1 < ... < s_i)`` with ``s_1 = 1``, and a palette ceiling ``top``
which is either ``m`` or ``m + 1``.  A part of size ``p`` determines
``k = ((p - 1) mod i) + 1`` and may wear exactly the colors
``s_k, s_k + 1, ..., s_{k+1} - 1`` where ``s_{i+1}`` is read as ``top``.

An overpartition is an ordinary partition in which the first occurrence
of each part size may additionally be overlined.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations_with_replacement, product, repeat
from operator import add, index

from .partitions import normalize_residue_set, partition_groups

__all__ = [
    "ColoredPartition",
    "Overpartition",
    "admissible_colors",
    "cs_validate",
    "color_counts",
    "colored_partitions",
    "colored_bucket_counts",
    "colored_partition_total",
    "overpartitions",
    "over_stats",
]


class _Value:
    """A value held as one tuple, equal only to one of its own type with that tuple."""

    __slots__ = ("_parts",)

    @classmethod
    def _trusted(cls, parts):
        # The enumerators build the stored tuple already; skip __init__.
        obj = object.__new__(cls)
        obj._parts = parts
        return obj

    def __eq__(self, other):
        return type(other) is type(self) and self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"{type(self).__name__}({list(self._parts)!r})"


class ColoredPartition(_Value):
    """A multiset of (size, color) pairs, stored sorted by size then color, both decreasing."""

    __slots__ = ()

    def __init__(self, parts=()):
        norm = []
        for size, color in parts:
            size, color = index(size), index(color)
            if size < 1 or color < 1:
                raise ValueError(f"sizes and colors must be positive, got ({size}, {color})")
            norm.append((size, color))
        norm.sort(reverse=True)
        self._parts = tuple(norm)

    @property
    def parts(self):
        return self._parts

    @property
    def size(self):
        return sum(p for p, _ in self._parts)

    def __len__(self):
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def to_text(self):
        """``size_color`` pairs joined by commas, e.g. ``"7_1,6_5,2_2"``."""
        return ",".join([f"{p}_{c}" for p, c in self._parts])

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for tok in text.split(","):
            size, _, color = tok.partition("_")
            if not _:
                raise ValueError(f"colored part must look like 'size_color', got {tok!r}")
            pairs.append((int(size), int(color)))
        return cls(pairs)


def _validate_palette(m, s, top):
    # The residues, and top read as sizes and parts are: operator.index
    # refuses 3.0, which would pass the test below as 3.
    residues = normalize_residue_set(m, s, allow_m=True)
    top = index(top)
    if top not in (m, m + 1):
        raise ValueError(f"palette ceiling must be {m} or {m + 1}, got {top}")
    if residues[-1] >= top:
        raise ValueError(f"residues must stay below the ceiling {top}, got {residues}")
    return residues, top


def _palette(size, residues, top):
    # The colors lo..hi-1 a part of this size may wear, as (lo, hi).
    i = len(residues)
    k = ((size - 1) % i) + 1
    return residues[k - 1], (residues[k] if k < i else top)


def admissible_colors(part_size, m, s, top):
    """The color range allowed on a part of the given size."""
    residues, top = _validate_palette(m, s, top)
    if part_size < 1:
        raise ValueError(f"part size must be positive, got {part_size}")
    return range(*_palette(part_size, residues, top))


def cs_validate(mu, m, s, top):
    """Whether every part of ``mu`` wears a color its size admits."""
    residues, top = _validate_palette(m, s, top)
    for size, color in mu.parts:
        lo, hi = _palette(size, residues, top)
        if not lo <= color < hi:
            return False
    return True


def color_counts(mu, m):
    """How many parts wear each of the colors ``1..m``, as a tuple."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"color count bound must be a positive integer, got {m!r}")
    counts = [0] * m
    for _, color in mu.parts:
        if color > m:
            raise ValueError(f"part color {color} exceeds the bound {m}")
        counts[color - 1] += 1
    return tuple(counts)


def colored_partitions(n, m, s, top):
    """Yield every admissible coloring of every partition of ``n``.

    Underlying partitions come out reverse-lexicographically; within one
    partition the color assignments run through each size's palette in
    decreasing order.
    """
    residues, top = _validate_palette(m, s, top)
    trusted = ColoredPartition._trusted
    for choices in _colorings(n, residues, top):
        for choice in choices:
            yield trusted(tuple(chain.from_iterable(choice)))


def _colored_partition_texts(n, m, s, top):
    """The ``to_text`` of each object of ``colored_partitions``, in its order."""
    residues, top = _validate_palette(m, s, top)
    for choices in _colorings(n, residues, top, _run_text):
        yield from map(",".join, choices)


def _run_text(run):
    return ",".join([f"{p}_{c}" for p, c in run])


def _colorings(n, residues, top, form=None):
    # Per partition of n, its colorings as choices of one run per group.
    # Each group's runs of (size, color) pairs are built once per
    # partition, and passed through form if one is given; an object is one
    # choice laid end to end.
    for groups in partition_groups(n):
        options = []
        for size, count in groups:
            lo, hi = _palette(size, residues, top)
            pairs = [(size, c) for c in range(hi - 1, lo - 1, -1)]
            runs = combinations_with_replacement(pairs, count)
            options.append(list(runs if form is None else map(form, runs)))
        yield product(*options)


class Overpartition(_Value):
    """A partition whose first occurrence of each size may be overlined.

    Stored as ``(size, count, overlined)`` entries with strictly
    decreasing sizes.
    """

    __slots__ = ()

    def __init__(self, entries=()):
        norm = []
        for size, count, overlined in entries:
            size, count = index(size), index(count)
            if size < 1 or count < 1:
                raise ValueError(f"sizes and counts must be positive, got ({size}, {count})")
            norm.append((size, count, bool(overlined)))
        norm.sort(key=lambda e: -e[0])
        sizes = [e[0] for e in norm]
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"duplicate size entries in {norm}")
        self._parts = tuple(norm)

    @classmethod
    def from_flagged_parts(cls, flagged):
        """Build from ``(size, overlined)`` pairs; at most one flagged copy per size."""
        by_size = {}
        for size, flag in flagged:
            size = index(size)  # so that 2 and an __index__ type worth 2 are one size
            count, seen = by_size.get(size, (0, False))
            if flag and seen:
                raise ValueError(f"size {size} overlined more than once")
            by_size[size] = (count + 1, seen or bool(flag))
        return cls((size, count, flag) for size, (count, flag) in by_size.items())

    @property
    def entries(self):
        return self._parts

    @property
    def size(self):
        return sum(s * c for s, c, _ in self._parts)

    @property
    def overlined_count(self):
        return sum(1 for _, _, flag in self._parts if flag)

    def __len__(self):
        return sum(c for _, c, _ in self._parts)

    def to_text(self):
        """Decreasing parts joined by commas, an apostrophe marking an overline: ``"3',2,1'"``."""
        toks = []
        for size, count, flag in self._parts:
            text = str(size)
            toks.append(text + "'" if flag else text)
            toks += repeat(text, count - 1)
        return ",".join(toks)

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if not text:
            return cls()
        flagged = []
        for tok in text.split(","):
            if tok.endswith("'"):
                flagged.append((int(tok[:-1]), True))
            else:
                flagged.append((int(tok), False))
        sizes = [s for s, _ in flagged]
        if sizes != sorted(sizes, reverse=True):
            raise ValueError(f"parts must be listed in decreasing order, got {text!r}")
        for (s1, f1), (s0, _) in zip(flagged[1:], flagged):
            if f1 and s1 == s0:
                raise ValueError(f"only the first occurrence of {s1} may be overlined")
        return cls.from_flagged_parts(flagged)


def overpartitions(n):
    """Yield the overpartitions of ``n``: each partition with every subset of sizes overlined."""
    n = index(n)
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    trusted = Overpartition._trusted
    for groups in partition_groups(n):
        entries = [((size, count, False), (size, count, True)) for size, count in groups]
        yield from map(trusted, product(*entries))


def over_stats(mu):
    """The pair (number of overlined parts, total number of parts)."""
    return mu.overlined_count, len(mu)


# ---------------------------------------------------------------------------
# counting without objects


def _coin_table(n, parts):
    # table[N] maps each packed vector to how many multisets of the given
    # part types weigh N <= n and sum to it.  parts lists (a, d, once)
    # triples, each a part type of weight a > 0 adding d to the vector.
    # Each type adds table[N - a], every vector moved by d, to table[N]:
    # for N upward it reads table[N - a] after that row's own update, so
    # it takes any number of copies; with once set, N runs downward and
    # reads it before, so it takes at most one.
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    table = [{} for _ in range(n + 1)]
    table[0][0] = 1
    for a, d, once in parts:
        for size in range(n, a - 1, -1) if once else range(a, n + 1):
            target = table[size]
            for v, count in table[size - a].items():
                target[v + d] = target.get(v + d, 0) + count
    return table


def _image_table(n, m, residues, top):
    # The partitions nu of N into the sizes whose palette holds color m,
    # keyed by the multiplicity of each size p at digit m - 2 + p in base
    # n + 1; no multiplicity exceeds n, so no two nus share a key.
    base = n + 1
    return _coin_table(
        n,
        [
            (p, base ** (m - 2 + p), False)
            for p in range(1, n + 1)
            if _palette(p, residues, top)[1] > m
        ],
    )


def colored_bucket_counts(n, m, s, top):
    """How many colored partitions of ``n`` fall in each packed bucket.

    The colored side of ``schmidt_bucket_counts``, in its layout: one int
    in base ``n + 1`` whose digit ``c - 1`` holds the number of parts
    colored ``c`` for ``c = 1 .. m-1``, and digit ``m - 2 + p`` the number
    of parts of size ``p`` colored ``m``.  Those parts form a partition
    nu into the sizes whose palette holds ``m``, which is empty for
    ``top == m``; the rest is a colored partition of ``n - |nu|`` with
    color ``m`` taken out of every palette, read off one table over the
    part types (size, color).
    """
    residues, top = _validate_palette(m, s, top)
    base = n + 1
    parts = []
    for a in range(n, 0, -1):
        lo, hi = _palette(a, residues, top)
        parts += [(a, base ** (color - 1), False) for color in range(lo, min(hi, m))]
    table = _coin_table(n, parts)
    # Each key arrives once: u fills digits 0 .. m-2 and nu the digits
    # above, and nu's digits fix its size, so no two (u, nu) pairs share a
    # key.  So each key of the shorter row writes its sums with the whole
    # longer row in one dict.update, with no sum and no Counter.__missing__
    # per key; the pair count guards that.  The shorter row is nus at
    # small sizes, and the one empty nu of ak_main (palette ceiling m).
    # A nu's key is its multiplicities, so each nu counts 1 and a pair
    # carries the count of its u.
    out = Counter()
    pairs = 0
    for size, nus in enumerate(_image_table(n, m, residues, top)):
        rest = table[n - size]
        pairs += len(nus) * len(rest)
        if len(nus) < len(rest):
            counts = rest.values()
            for key in nus:
                dict.update(out, zip(map(add, rest, repeat(key)), counts))
        else:
            for key, count in rest.items():
                dict.update(out, zip(map(add, nus, repeat(key)), repeat(count)))
    if len(out) != pairs:
        raise ArithmeticError(f"{pairs} (u, nu) pairs wrote {len(out)} keys")
    return out


def colored_partition_total(n, m, s, top):
    """How many colored partitions of ``n`` there are.

    Counts the objects of ``colored_partitions(n, m, s, top)`` without
    building them: the coin table over the part types (size, color), each
    adding nothing to the one vector 0, holds the count at ``[n][0]``.
    """
    residues, top = _validate_palette(m, s, top)
    parts = [(a, 0, False) for a in range(1, n + 1) for _ in range(*_palette(a, residues, top))]
    return _coin_table(n, parts)[n][0]


def _overpartition_table(qcap, units):
    # How many overpartitions of N <= qcap have o overlined and p plain
    # parts, counted in the units of (N, o, p).  One coin table over the
    # sizes a = qcap .. 1 keys table[N] by o and p: c >= 1 copies of a are c
    # plain ones, or an overlined first copy and c - 1 plain ones, so each
    # size is a plain type taken any number of times and an overlined type
    # taken at most once.  Rows of different N hold different keys, so each
    # goes in by one update.
    size, overlined, plain = units
    table = _coin_table(
        qcap,
        [part for a in range(qcap, 0, -1) for part in ((a, plain, False), (a, overlined, True))],
    )
    out = {}
    for n, row in enumerate(table):
        out.update(zip(map(add, row, repeat(n * size)), row.values()))
    return out
