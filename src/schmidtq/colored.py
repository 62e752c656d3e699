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
from itertools import combinations_with_replacement, product

from .partitions import normalize_residue_set, partition_groups

__all__ = [
    "ColoredPartition",
    "Overpartition",
    "admissible_colors",
    "cs_validate",
    "color_counts",
    "colored_partitions",
    "colored_partition_counts",
    "overpartitions",
    "overpartition_counts",
    "over_stats",
]


class ColoredPartition:
    """A multiset of (size, color) pairs, stored sorted by size then color, both decreasing."""

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        norm = []
        for size, color in parts:
            size, color = int(size), int(color)
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

    def __eq__(self, other):
        return isinstance(other, ColoredPartition) and self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"ColoredPartition({list(self._parts)!r})"

    def to_text(self):
        """``size_color`` pairs joined by commas, e.g. ``"7_1,6_5,2_2"``."""
        return ",".join(f"{p}_{c}" for p, c in self._parts)

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
    residues = normalize_residue_set(m, s, allow_m=True)
    if top not in (m, m + 1):
        raise ValueError(f"palette ceiling must be {m} or {m + 1}, got {top}")
    if residues[-1] >= top:
        raise ValueError(f"residues must stay below the ceiling {top}, got {residues}")
    return residues


def _palette(size, residues, top):
    # The colors lo..hi-1 a part of this size may wear, as (lo, hi).
    i = len(residues)
    k = ((size - 1) % i) + 1
    return residues[k - 1], (residues[k] if k < i else top)


def admissible_colors(part_size, m, s, top):
    """The color range allowed on a part of the given size."""
    residues = _validate_palette(m, s, top)
    if part_size < 1:
        raise ValueError(f"part size must be positive, got {part_size}")
    return range(*_palette(part_size, residues, top))


def cs_validate(mu, m, s, top):
    """Whether every part of ``mu`` wears a color its size admits."""
    residues = _validate_palette(m, s, top)
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
    residues = _validate_palette(m, s, top)
    for groups in partition_groups(n):
        options = []
        for size, count in groups:
            lo, hi = _palette(size, residues, top)
            palette = range(hi - 1, lo - 1, -1)
            options.append(list(combinations_with_replacement(palette, count)))
        for choice in product(*options):
            parts = []
            for (size, _), colors in zip(groups, choice):
                parts.extend((size, c) for c in colors)
            yield ColoredPartition(parts)


class Overpartition:
    """A partition whose first occurrence of each size may be overlined.

    Stored as ``(size, count, overlined)`` entries with strictly
    decreasing sizes.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        norm = []
        for size, count, overlined in entries:
            size, count = int(size), int(count)
            if size < 1 or count < 1:
                raise ValueError(f"sizes and counts must be positive, got ({size}, {count})")
            norm.append((size, count, bool(overlined)))
        norm.sort(key=lambda e: -e[0])
        sizes = [e[0] for e in norm]
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"duplicate size entries in {norm}")
        self._entries = tuple(norm)

    @classmethod
    def from_flagged_parts(cls, flagged):
        """Build from ``(size, overlined)`` pairs; at most one flagged copy per size."""
        by_size = {}
        for size, flag in flagged:
            count, seen = by_size.get(size, (0, False))
            if flag and seen:
                raise ValueError(f"size {size} overlined more than once")
            by_size[size] = (count + 1, seen or bool(flag))
        return cls((size, count, flag) for size, (count, flag) in by_size.items())

    @property
    def entries(self):
        return self._entries

    @property
    def size(self):
        return sum(s * c for s, c, _ in self._entries)

    @property
    def overlined_count(self):
        return sum(1 for _, _, flag in self._entries if flag)

    def __len__(self):
        return sum(c for _, c, _ in self._entries)

    def __eq__(self, other):
        return isinstance(other, Overpartition) and self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"Overpartition({list(self._entries)!r})"

    def to_text(self):
        """Decreasing parts joined by commas, an apostrophe marking an overline: ``"3',2,1'"``."""
        toks = []
        for size, count, flag in self._entries:
            toks.append(f"{size}'" if flag else str(size))
            toks.extend(str(size) for _ in range(count - 1))
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
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    for groups in partition_groups(n):
        for flags in product((False, True), repeat=len(groups)):
            yield Overpartition(
                (size, count, flag) for (size, count), flag in zip(groups, flags)
            )


def over_stats(mu):
    """The pair (number of overlined parts, total number of parts)."""
    return mu.overlined_count, len(mu)


# ---------------------------------------------------------------------------
# counting without objects


def _grouped_counts(n, width, key_of, weight_of):
    # Counter of statistic vectors over the objects on the partitions of n
    # whose decoration is chosen independently per (size, count) group.
    # weight_of(key) maps each vector to the number of ways to decorate a
    # group with key_of(size, count) == key; vectors add across groups.  A
    # partition's weight depends only on its sorted tuple of group keys, so
    # each distinct tuple is expanded once, from its longest expanded
    # prefix.  Entries never exceed n, so a vector is packed into one int
    # in base n + 1 and vector sums are int sums.
    base = n + 1
    shapes = Counter(
        tuple(sorted(key_of(size, count) for size, count in groups))
        for groups in partition_groups(n)
    )
    weights = {}
    polys = {(): {0: 1}}
    out = Counter()
    for shape, mult in shapes.items():
        poly = polys[()]
        for j, key in enumerate(shape, start=1):
            prefix = shape[:j]
            if prefix in polys:
                poly = polys[prefix]
                continue
            if key not in weights:
                weights[key] = {
                    sum(e * base**k for k, e in enumerate(vec)): d
                    for vec, d in weight_of(key).items()
                }
            step = {}
            for v, c in poly.items():
                for dv, d in weights[key].items():
                    step[v + dv] = step.get(v + dv, 0) + c * d
            poly = polys[prefix] = step
        for v, c in poly.items():
            out[v] += mult * c
    return Counter(
        {tuple(v // base**k % base for k in range(width)): c for v, c in out.items()}
    )


def colored_partition_counts(n, m, s, top):
    """How many colored partitions of ``n`` have each color-count vector.

    Counts the objects of ``colored_partitions(n, m, s, top)`` by
    ``color_counts(mu, m)`` without building them: ``c`` equal parts
    over a palette take each multiset of ``c`` palette colors once.
    """
    residues = _validate_palette(m, s, top)
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")

    def weight_of(key):
        (lo, hi), count = key
        dist = Counter()
        for colors in combinations_with_replacement(range(lo, hi), count):
            vec = [0] * m
            for color in colors:
                vec[color - 1] += 1
            dist[tuple(vec)] += 1
        return dist

    return _grouped_counts(
        n, m, lambda size, count: (_palette(size, residues, top), count), weight_of
    )


def overpartition_counts(n):
    """How many overpartitions of ``n`` have each (overlined, plain) part count.

    Counts the objects of ``overpartitions(n)`` without building them: a
    group of ``c`` equal parts is all plain or has one overlined copy,
    the weight ``t2^c + t1 t2^(c-1)``.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    return _grouped_counts(
        n, 2, lambda size, count: count, lambda c: {(0, c): 1, (1, c - 1): 1}
    )
