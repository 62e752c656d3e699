"""Integer partitions, their diagram statistics, and bounded enumerators.

A partition is a weakly decreasing tuple of positive integers.  Everything
in this module is pure and exact: no floats, no mutation, plain tuples
under the hood.  Indexing follows the usual convention that ``part(k)``
is 0 once ``k`` runs past the last part, which keeps the alternating-sum
and residue-class statistics below free of edge cases.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby

__all__ = [
    "Partition",
    "normalize_residue_set",
    "schmidt_weight",
    "residue_column_count",
    "in_class",
    "repetition_profile",
    "partition_groups",
    "partitions_of",
    "partitions_with_schmidt_weight",
]


class Partition:
    """A weakly decreasing sequence of positive integers.

    ``part(k)`` is 1-based and returns 0 beyond the last part.  Instances
    compare and hash by their part tuple and are immutable by convention.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        t = tuple(int(p) for p in parts)
        for a, b in zip(t, t[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {t}")
        if t and t[-1] < 1:
            raise ValueError(f"parts must be positive integers, got {t}")
        self._parts = t

    @classmethod
    def _trusted(cls, parts):
        # The enumerators build weakly decreasing tuples of positive ints
        # already; skip the validation of __init__.
        lam = object.__new__(cls)
        lam._parts = parts
        return lam

    @property
    def parts(self):
        return self._parts

    def part(self, k):
        """The k-th part (1-based), 0 when k exceeds the length."""
        if k < 1:
            raise ValueError(f"part index must be >= 1, got {k}")
        return self._parts[k - 1] if k <= len(self._parts) else 0

    @property
    def size(self):
        return sum(self._parts)

    def __len__(self):
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self._parts == other._parts

    def __lt__(self, other):
        # Lexicographic on part tuples; handy for deterministic sorting.
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts < other._parts

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"Partition({list(self._parts)!r})"

    def conjugate(self):
        """Reflect the Ferrers diagram: column heights become parts."""
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for p in self._parts:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def multiplicity(self, value):
        """How many parts equal ``value``."""
        return sum(1 for p in self._parts if p == value)

    def to_text(self):
        """Comma-separated parts, e.g. ``"7,5,4,4,2,1"``; empty string for the empty partition."""
        return ",".join(str(p) for p in self._parts)

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))


def normalize_residue_set(m, s, *, allow_m=True):
    """Validate a modulus/residue-set pair and return the residues as a sorted tuple.

    Requires an integer modulus ``m >= 2`` and residues forming a subset of
    ``{1, ..., m}`` (or ``{1, ..., m-1}`` when ``allow_m`` is false) that
    contains 1.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    residues = tuple(sorted({int(r) for r in s}))
    if not residues:
        raise ValueError("residue set must be nonempty")
    top = m if allow_m else m - 1
    if residues[0] != 1:
        raise ValueError(f"residue set must contain 1, got {residues}")
    if residues[-1] > top:
        raise ValueError(f"residues must lie in 1..{top}, got {residues}")
    return residues


def schmidt_weight(lam, m, s):
    """Sum of the parts sitting at indices whose residue mod ``m`` lies in ``s``.

    Indices are 1-based and the residue of an index divisible by ``m``
    counts as ``m`` itself.
    """
    residues = set(normalize_residue_set(m, s, allow_m=True))
    total = 0
    for k, p in enumerate(lam.parts, start=1):
        if ((k - 1) % m) + 1 in residues:
            total += p
    return total


def residue_column_count(lam, m, j):
    """Number of columns of the diagram whose height is congruent to ``j`` mod ``m``.

    Computed as the telescoping sum of ``part(mk+j) - part(mk+j+1)`` over
    ``k >= 0``, with ``j`` taken in ``1..m`` (a height divisible by ``m``
    counts under ``j = m``).
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    if not 1 <= j <= m:
        raise ValueError(f"residue must lie in 1..{m}, got {j}")
    total = 0
    idx = j
    n = len(lam)
    while idx <= n:
        total += lam.part(idx) - lam.part(idx + 1)
        idx += m
    return total


def _check_class(cls, m):
    if cls == "P":
        return
    if cls not in ("D", "F", "R"):
        raise ValueError(f"unknown class {cls!r}")
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"class {cls} needs an integer modulus >= 2, got {m!r}")


def in_class(lam, cls, m=None):
    """Membership test for the four part-condition classes.

    ``"P"`` is everything; ``"D"`` bounds every multiplicity below ``m``;
    ``"F"`` bounds every gap (including the last part) below ``m``;
    ``"R"`` keeps only parts divisible by ``m``.
    """
    _check_class(cls, m)
    groups = [(size, len(tuple(grp))) for size, grp in groupby(lam.parts)]
    return _groups_in_class(groups, cls, m)


def repetition_profile(lam, m):
    """Part sizes repeated at least ``m`` times, with their multiplicities.

    Returns ``((size, multiplicity), ...)`` in decreasing size order.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"threshold must be a positive integer, got {m!r}")
    out = []
    for size, grp in groupby(lam.parts):
        count = len(tuple(grp))
        if count >= m:
            out.append((size, count))
    return tuple(out)


def partition_groups(n):
    """Yield the partitions of ``n`` in multiplicity form, reverse-lexicographically.

    Each partition is a tuple of ``(size, count)`` pairs with strictly
    decreasing sizes.  The walk is iterative: the successor of a partition
    takes one copy of its smallest part above 1, lowers it by one, and
    refills that part and the trailing 1s greedily with the lowered size.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if n == 0:
        yield ()
        return
    groups = [(n, 1)]
    while True:
        yield tuple(groups)
        size, count = groups[-1]
        ones = 0
        if size == 1:
            ones = count
            groups.pop()
            if not groups:
                return
            size, count = groups[-1]
        if count == 1:
            groups.pop()
        else:
            groups[-1] = (size, count - 1)
        rest = size + ones
        size -= 1
        groups.append((size, rest // size))
        if rest % size:
            groups.append((rest % size, 1))


def _groups_in_class(groups, cls, m):
    # Class membership read off the multiplicity form; cls and m are valid.
    if cls == "P":
        return True
    if cls == "D":
        return all(count < m for _, count in groups)
    if cls == "F":
        sizes = [size for size, _ in groups] + [0]
        return all(a - b < m for a, b in zip(sizes, sizes[1:]))
    return all(size % m == 0 for size, _ in groups)


def _expand(groups):
    return tuple(size for size, count in groups for _ in range(count))


def partitions_of(n, cls="P", m=None):
    """Yield the partitions of ``n`` in the given class, reverse-lexicographically."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    _check_class(cls, m)
    for groups in partition_groups(n):
        if _groups_in_class(groups, cls, m):
            yield Partition._trusted(_expand(groups))


def partitions_with_schmidt_weight(n, m, s, cls="P"):
    """Yield the partitions whose index-residue weight equals ``n``.

    Only finitely many qualify: because index 1 is always counted, the
    largest part is at most ``n`` and the length is at most ``m * n``.
    ``cls`` may be ``"P"`` (no restriction) or ``"D"`` (multiplicities
    below ``m``).  Enumeration order is depth-first with parts tried in
    decreasing order, emitting each prefix before its extensions.
    """
    residues = normalize_residue_set(m, s, allow_m=True)
    if cls not in ("P", "D"):
        raise ValueError(f"class must be 'P' or 'D', got {cls!r}")
    if n < 0:
        raise ValueError(f"target weight must be nonnegative, got {n}")
    max_len = m * n
    counted = set(residues)

    def can_extend(length, weight):
        # A prefix still short of the target is dead once no counted index
        # remains in range; residues[0] is 1, so one recurs within m.
        idx = length + 1
        if idx > max_len:
            return False
        if weight < n:
            r = (idx - 1) % m + 1
            j = bisect_left(residues, r)
            gap = residues[j] - r if j < len(residues) else m - r + 1
            return idx + gap <= max_len
        return True

    # Iterative preorder walk over the prefixes that can still be extended:
    # parts is the current prefix, weights[d] and runs[d] are the weight and
    # the final run length of its first d parts, and nexts[d] is the next
    # part to try after them.  A child that cannot be extended is only
    # emitted, never entered.
    if n == 0:
        yield Partition._trusted(())
    bounded = cls == "D"
    parts, weights, runs = [], [0], [0]
    nexts = [n] if can_extend(0, 0) else []
    while nexts:
        depth = len(parts)
        weight = weights[-1]
        a = nexts[-1]
        is_counted = depth % m + 1 in counted
        if is_counted and a > n - weight:
            a = n - weight
        last = parts[-1] if parts else None
        if bounded and a == last and runs[-1] + 1 >= m:
            a -= 1
        if a < 1:
            nexts.pop()
            if parts:
                parts.pop()
                weights.pop()
                runs.pop()
            continue
        nexts[-1] = a - 1
        child_weight = weight + a if is_counted else weight
        parts.append(a)
        if child_weight == n:
            yield Partition._trusted(tuple(parts))
        if can_extend(depth + 1, child_weight):
            weights.append(child_weight)
            runs.append(runs[-1] + 1 if a == last else 1)
            nexts.append(a)
        else:
            parts.pop()
