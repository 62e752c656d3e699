"""Bijections between partition families that transport diagram statistics.

Four maps live here.  None of them walks the diagram cell by cell:
exactly ``lam_h - lam_(h+1)`` columns have height ``h`` (``lam`` read as
0 past the last part), so the maps read the column multiplicities off
the parts, and where a map needs a conjugate it takes the
O(``lam_1 + len(lam)``) pointer walk of :meth:`Partition.conjugate` on
the list it builds.  Each map builds its image in one pass, after the
checks that refuse bad input, and no image goes through the validating
``Partition`` constructor: only ``mork_forward`` checks its image, by
one comparison of neighbouring parts.

``color_conjugate`` sends an ordinary partition to a colored partition:
mark the rows of the diagram whose index residue lies in the chosen set,
replace each column by the count of marked cells it contains, and record
how far the column overshoots its last marked row as a color offset.
The inverse reads the overshoot back out of the color, which gives the
column heights, and conjugates them.

``mork_forward`` cuts the diagram into hooks along the main diagonal and
interleaves, for each diagonal cell, the hook through it with the hook
through the cell just right of it.  The images are exactly the
partitions with distinct parts, and the odd-indexed parts of the image
sum to the size of the source.  ``mork_inverse`` peels the hooks back
into arms and legs, whose nesting checks make the rows a partition.

``glaisher_reduce`` removes the groups of ``m`` equal-height columns:
of the ``lam_h - lam_(h+1)`` columns of height ``h`` it keeps that count
mod ``m`` and banks each full group as a part ``h * m``; what remains
has all column multiplicities below ``m``, i.e. all gaps below ``m``.
``glaisher_expand`` puts each banked part ``p`` back as ``m`` columns
of height ``p / m``: row ``r`` gains ``m`` times the number of banked
parts of at least ``m * r``, one pointer walk down the banked parts.

``decompose_multiplicity`` splits each part multiplicity into its
residue and its multiple-of-``m`` bulk, cutting each run of equal
parts into two slices.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, repeat
from operator import add, le, mod, ne

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
            # marked, so the last marked row is m * full + (a residue <=
            # rest) when rest > 0, and m * (full - 1) + (a residue) when
            # rest = 0: s_k + j is rest, or m.
            full, rest = divmod(h, m)
            parts += repeat((full * i + bisect_right(residues, rest), rest or m), part - below)
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
    # heights decrease too.  Row r counts the heights >= r: the pointer
    # walk of Partition.conjugate, on the list.
    rows = []
    k = len(heights)
    for r in range(1, heights[0] + 1) if heights else ():
        while heights[k - 1] < r:
            k -= 1
        rows.append(k)
    return Partition._trusted(tuple(rows))


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
    # up to the one just right of the Durfee square are read: k is the
    # height conj_(r+1) of column r + 1, the number of parts above r, and
    # falls as r grows.  Column 1 holds every part, and the walk for
    # column r + 2 is done by the time row r + 1 is read, since that row
    # meets the diagonal only if row r reaches column r + 2.
    k = len(rows)
    for r, row in enumerate(rows):
        if row <= r:
            break
        out.append(row + k - 2 * r - 1)
        if row > r + 1:
            while rows[k - 1] <= r + 1:
                k -= 1
            out.append(row + k - 2 * r - 2)
    # Every image strictly decreases to a positive last part; a part that
    # fails to means the map is broken, not the input.
    if any(map(le, out, (*out[1:], 0))):
        raise ValueError(f"image {out} of {rows} does not strictly decrease to a positive part")
    return Partition._trusted(tuple(out))


def mork_inverse(mu):
    """Rebuild the partition whose interleaved diagonal hooks give ``mu``.

    Works back from the innermost hook: the last lower hook fixes the
    final arm/leg pair, and each earlier pair is determined by peeling
    one hook length off the next.  Raises ``ValueError`` when ``mu`` has
    repeated parts or the reconstructed arms and legs fail to decrease
    strictly, i.e. when ``mu`` is not an image of the map.
    """
    parts = mu.parts
    n = len(parts)
    if len(set(parts)) != n:
        raise ValueError(f"{parts} has repeated parts, so it is not an image")
    if n == 0:
        return Partition()
    dm = (n + 1) // 2
    # arms[d] and legs[d] belong to the diagonal cell (d + 1, d + 1): parts
    # 2d and 2d + 1 (0-based) are its hook and the hook just right of it.
    # The innermost right hook is the arm alone, or absent when n is odd.
    arms = [0] * dm
    legs = [0] * dm
    arm = parts[n - 1] if n % 2 == 0 else 0
    leg = parts[2 * dm - 2] - arm - 1
    arms[-1], legs[-1] = arm, leg
    for d in range(dm - 2, -1, -1):
        arm = parts[2 * d + 1] - leg - 1
        leg = parts[2 * d] - arm - 1
        arms[d], legs[d] = arm, leg
    if min(arms) < 0 or min(legs) < 0:
        raise ValueError(f"{parts} is not an image: negative hook component")
    if any(map(le, arms, arms[1:])) or any(map(le, legs, legs[1:])):
        raise ValueError(f"{parts} is not an image: hook components must nest")
    # The arms and legs fall strictly to >= 0, so the rows of the Durfee
    # square (arm + d) and its columns (leg + d) decrease weakly from at
    # least dm.  Rows below the square are read off the column heights:
    # row r counts the columns of height at least r.
    rows = list(map(add, arms, range(1, dm + 1)))
    cols = list(map(add, legs, range(1, dm + 1)))
    k = dm
    for r in range(dm + 1, cols[0] + 1):
        while cols[k - 1] < r:
            k -= 1
        rows.append(k)
    return Partition._trusted(tuple(rows))


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
    # the banked parts in decreasing order.  Only a height with m columns
    # or more banks a part.
    for h, part in zip(range(len(lam), 0, -1), reversed(lam.parts)):
        count = part - below
        below = part
        if count >= m:
            banked += repeat(h * m, count // m)
            count %= m
        row += count
        if row:
            kept.append(row)
    kept.reverse()
    return Partition._trusted(tuple(kept)), Partition._trusted(tuple(banked))


def glaisher_expand(kept, banked, m):
    """Inverse of :func:`glaisher_reduce`: reinsert each banked part as ``m`` equal columns."""
    _check_modulus(m)
    if not in_class(kept, "F", m):
        raise ValueError(f"{kept.parts} has a gap of {m} or more, so it is not reduced")
    bank = banked.parts
    if not bank:
        return Partition._trusted(kept.parts)
    if any(map(mod, bank, repeat(m))):
        p = next(compress(bank, map(mod, bank, repeat(m))))
        raise ValueError(f"banked part {p} is not divisible by {m}")
    # Each banked part p puts m columns of height p / m back: row r gains
    # m for each banked part of at least m * r.  k counts those parts and
    # only falls as r grows, and the rows stay decreasing.
    rows = list(kept.parts)
    rows += repeat(0, bank[0] // m - len(rows))
    k = len(bank)
    for r, cut in enumerate(range(m, bank[0] + 1, m)):
        while bank[k - 1] < cut:
            k -= 1
        rows[r] += m * k
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
    start = 0
    # A run ends where the next part differs; the last part meets 0.  The
    # run parts[start:end] gives its first run % m copies to low and the
    # rest to bulk, so both outputs take the sizes in the order of mu.
    for end in compress(range(1, len(parts) + 1), map(ne, parts, (*parts[1:], 0))):
        cut = start + (end - start) % m
        if cut > start:
            low += parts[start:cut]
        if end > cut:
            bulk += parts[cut:end]
        start = end
    return Partition._trusted(tuple(low)), Partition._trusted(tuple(bulk))


def merge_partitions(a, b):
    """Union of two partitions as multisets of parts."""
    # Sorted parts of two partitions form a partition: nothing to check.
    # The C sort beat a one-pass merge loop in Python on two decreasing runs.
    return Partition._trusted(tuple(sorted(a.parts + b.parts, reverse=True)))
