"""Bijections between partition families that transport diagram statistics.

Four maps live here.  None of them walks the diagram cell by cell:
exactly ``lam_h - lam_(h+1)`` columns have height ``h`` (``lam`` read as
0 past the last part), so the maps read the column multiplicities off
the parts, and where a map still needs the conjugate it takes the
O(``lam_1 + len(lam)``) pointer walk of :meth:`Partition.conjugate`.

``color_conjugate`` sends an ordinary partition to a colored partition:
mark the rows of the diagram whose index residue lies in the chosen set,
replace each column by the count of marked cells it contains, and record
how far the column overshoots its last marked row as a color offset.
The inverse reads the overshoot back out of the color.

``mork_forward`` cuts the diagram into hooks along the main diagonal and
interleaves, for each diagonal cell, the hook through it with the hook
through the cell just right of it.  The images are exactly the
partitions with distinct parts, and the odd-indexed parts of the image
sum to the size of the source.

``glaisher_reduce`` removes the groups of ``m`` equal-height columns:
of the ``lam_h - lam_(h+1)`` columns of height ``h`` it keeps that count
mod ``m`` and banks each full group as a part ``h * m``; what remains
has all column multiplicities below ``m``, i.e. all gaps below ``m``.
``glaisher_expand`` puts each banked part ``p`` back as ``m`` cells on
each of the rows ``1 .. p / m``.

``decompose_multiplicity`` splits each part multiplicity into its
residue and its multiple-of-``m`` bulk.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

from .colored import ColoredPartition
from .partitions import Partition, _check_modulus, in_class, normalize_residue_set

__all__ = [
    "color_conjugate",
    "color_conjugate_inverse",
    "mork_forward",
    "mork_inverse",
    "glaisher_reduce",
    "glaisher_expand",
    "decompose_multiplicity",
    "merge_partitions",
]


def color_conjugate(lam, m, s):
    """Transpose the diagram while folding the marked-row structure into colors.

    Rows whose 1-based index has residue (mod ``m``, in ``1..m``) inside
    ``s`` are marked.  A column of height ``h`` containing ``p`` marked
    cells becomes a colored part of size ``p``; its color is ``s_k + j``
    where ``k = ((p - 1) mod i) + 1`` indexes the last marked row covered
    and ``j = h - (that row)`` counts the unmarked overhang.  The
    resulting parts satisfy the palette rule with ceiling ``m + 1``, the
    total size equals the marked-index weight of ``lam``, and the number
    of parts colored ``j`` equals the number of columns of height
    congruent to ``j`` mod ``m``.
    """
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    parts = []
    below = 0
    # lambda_h - lambda_(h+1) columns have height h.  Heights run from
    # len(lam) down, and (p, color) grows with the height, so the parts
    # come out in order.
    for h, part in zip(range(len(lam), 0, -1), reversed(lam.parts)):
        if part > below:
            # p counts the marked rows r <= h: i in each full block of m
            # rows, and the residues up to the rest.  Row 1 is always
            # marked, so every positive column has p >= 1, and s_k + j =
            # h - m * ((p - 1) // i).
            full, rest = divmod(h, m)
            p = full * i + bisect_right(residues, rest)
            parts += repeat((p, h - m * ((p - 1) // i)), part - below)
            below = part
    return ColoredPartition._trusted(tuple(parts))


def color_conjugate_inverse(mu, m, s):
    """Recover the partition whose marked-conjugate coloring is ``mu``.

    Each colored part (p, c) pins down a column height: the color offset
    ``c - s_k`` is the overhang above the p-th marked row.  Raises
    ``ValueError`` when some color is outside its size's palette.
    """
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    # A part p wears the colors bounds[k] .. bounds[k + 1] - 1, with
    # k = (p - 1) % i and the ceiling m + 1 past the last residue.
    bounds = (*residues, m + 1)
    heights = []
    for p, c in mu.parts:
        full, k = divmod(p - 1, i)
        if not bounds[k] <= c < bounds[k + 1]:
            raise ValueError(
                f"part ({p}, {c}) is not admissible for modulus {m}, residues {residues}"
            )
        heights.append(m * full + c)
    # mu's parts decrease, and the height grows with (p, c), so the
    # heights decrease too.
    return Partition._trusted(tuple(heights)).conjugate()


def mork_forward(lam):
    """Interleave the diagonal hooks with their right-shifted companions.

    For each diagonal cell (d, d) the image receives
    ``lam_d + conj_d - 2d + 1`` (the hook through (d, d)) and, when the
    cell (d, d + 1) exists, ``lam_d + conj_{d+1} - 2d`` (the hook through
    it).  The image has strictly decreasing parts.
    """
    rows = lam.parts
    out = []
    # Row d = r + 1 meets the diagonal while lam_d >= d.  Only the columns
    # up to the one just right of the Durfee square are read: k counts the
    # parts above r, the height conj_(r+1) of column r + 1, and falls as r
    # grows.  Rows 1 .. d all exceed r, so k never drops below d.
    k = len(rows)
    for r, row in enumerate(rows):
        if row <= r:
            break
        while rows[k - 1] <= r:
            k -= 1
        out.append(row + k - 2 * r - 1)
        if row > r + 1:
            while rows[k - 1] <= r + 1:
                k -= 1
            out.append(row + k - 2 * r - 2)
    return Partition(out)


def mork_inverse(mu):
    """Rebuild the partition whose interleaved diagonal hooks give ``mu``.

    Works back from the innermost hook: the last lower hook fixes the
    final arm/leg pair, and each earlier pair is determined by peeling
    one hook length off the next.  Raises ``ValueError`` when ``mu`` has
    repeated parts or the reconstructed arms and legs fail to decrease
    strictly, i.e. when ``mu`` is not an image of the map.
    """
    parts = mu.parts
    if len(set(parts)) != len(parts):
        raise ValueError(f"{parts} has repeated parts, so it is not an image")
    n = len(parts)
    if n == 0:
        return Partition()
    dm = (n + 1) // 2

    def mu_at(idx):
        return parts[idx - 1]

    arm = [0] * (dm + 2)
    leg = [0] * (dm + 2)
    arm[dm] = mu_at(2 * dm) if n % 2 == 0 else 0
    leg[dm] = mu_at(2 * dm - 1) - arm[dm] - 1
    for d in range(dm - 1, 0, -1):
        arm[d] = mu_at(2 * d) - leg[d + 1] - 1
        leg[d] = mu_at(2 * d - 1) - arm[d] - 1
    for d in range(1, dm + 1):
        if arm[d] < 0 or leg[d] < 0:
            raise ValueError(f"{parts} is not an image: negative hook component")
    for d in range(1, dm):
        if arm[d] <= arm[d + 1] or leg[d] <= leg[d + 1]:
            raise ValueError(f"{parts} is not an image: hook components must nest")
    rows = [arm[d] + d for d in range(1, dm + 1)]
    cols = [leg[d] + d for d in range(1, dm + 1)]
    # Rows below the diagonal square are read off the column heights: row r
    # counts the columns of height at least r, and cols strictly decreases.
    k = dm
    for r in range(dm + 1, cols[0] + 1):
        while cols[k - 1] < r:
            k -= 1
        rows.append(k)
    return Partition(rows)


def glaisher_reduce(lam, m):
    """Strip out full groups of ``m`` equal columns, banking them as parts of ``k * m``.

    Returns ``(kept, banked)`` where ``kept`` has all gaps below ``m``
    and ``banked`` has all parts divisible by ``m``, with sizes adding up
    to the size of ``lam``.
    """
    _check_modulus(m)
    kept = []
    banked = []
    row = 0
    below = 0
    # count = lambda_h - lambda_(h+1) columns have height h.  Kept row h
    # holds count % m of them for each height from h up, so walking the
    # heights from len(lam) down builds the kept rows from the last, and
    # the banked parts in decreasing order.
    for h, part in zip(range(len(lam), 0, -1), reversed(lam.parts)):
        count = part - below
        below = part
        row += count % m
        if row:
            kept.append(row)
        banked += repeat(h * m, count // m)
    kept.reverse()
    return Partition._trusted(tuple(kept)), Partition._trusted(tuple(banked))


def glaisher_expand(kept, banked, m):
    """Inverse of :func:`glaisher_reduce`: reinsert each banked part as ``m`` equal columns."""
    _check_modulus(m)
    if not in_class(kept, "F", m):
        raise ValueError(f"{kept.parts} has a gap of {m} or more, so it is not reduced")
    # Each banked part p puts m columns of height p / m back: m cells on
    # each of rows 1 .. p / m.  Adding to a prefix keeps the rows decreasing.
    rows = list(kept.parts)
    for p in banked.parts:
        if p % m:
            raise ValueError(f"banked part {p} is not divisible by {m}")
        h = p // m
        rows += repeat(0, h - len(rows))
        for r in range(h):
            rows[r] += m
    return Partition._trusted(tuple(rows))


def decompose_multiplicity(mu, m):
    """Split each part's multiplicity into (multiplicity mod ``m``, the rest).

    Returns ``(low, bulk)``: ``low`` keeps each part with its
    multiplicity reduced mod ``m`` (so ``low`` has multiplicities below
    ``m``) and ``bulk`` keeps the complementary ``m * floor(count / m)``
    copies (so every multiplicity in ``bulk`` is divisible by ``m``).
    """
    _check_modulus(m)
    parts = mu.parts
    low = []
    bulk = []
    run = 0
    # A run ends where the next part differs; the last part meets 0.  Both
    # outputs take the sizes in the order of mu, so they decrease.
    for part, following in zip(parts, (*parts[1:], 0)):
        run += 1
        if part != following:
            low += repeat(part, run % m)
            bulk += repeat(part, run - run % m)
            run = 0
    return Partition._trusted(tuple(low)), Partition._trusted(tuple(bulk))


def merge_partitions(a, b):
    """Union of two partitions as multisets of parts."""
    # Sorted parts of two partitions form a partition: nothing to check.
    # The C sort beat a one-pass merge loop in Python on two decreasing runs.
    return Partition._trusted(tuple(sorted(a.parts + b.parts, reverse=True)))
