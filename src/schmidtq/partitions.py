"""Integer partitions, their diagram statistics, and bounded enumerators.

A partition is a weakly decreasing tuple of positive integers.  Everything
in this module is pure and exact: no floats, no mutation, plain tuples
under the hood.  Indexing follows the usual convention that ``part(k)``
is 0 once ``k`` runs past the last part, which keeps the alternating-sum
and residue-class statistics below free of edge cases.

The Schmidt-side tables count without walking partitions, in one private
builder, ``_table``: a pass over the part sizes from the cap down to 1
that counts in place.  It keeps one layer per value of a capped field
(the weight, or the size) and in each layer one cell per residue of the
next index: a dict from the state's other fields, one packed int, to a
count.  For each size one loop reads the cells, each state read taking
one step per run of its residue's run list; the classes differ only in
the order of the reads and in the runs.  Class P takes runs of one copy
and reads up the layers, the empty partition first and in each layer
residues 1 .. m - 1, then 0: each copy lands on a cell still to be read,
so a state takes any number, from one step per residue.  A copy that
gains nothing stays in its layer, one residue up or from m - 1 to 0; one
from residue 0 gains, as a weight-capped table counts index 1 and a
sized copy gains size.  With runs bounded by ``most`` (class D and
``cor22``) the loop takes runs of 1 .. ``most`` copies and reads the
same cells in the reverse order, layers from the top down and in each
layer residue 0 first, then m - 1 down to 1, the empty partition last.
A run gains, or moves the residue up toward m without wrapping, so it
lands on a cell already read and no state takes two runs of one size.
A table names only the fields it tracks and ``most``, and the
builder derives every step from them.  Each table, by its capped field,
its other fields, ``most`` and reader:

- ``schmidt_weight_table`` and the ``mork_*``/``psi_*`` sides: the size;
  the weight; by class; the layers merged.
- ``residue_column_table`` and the ``ak_trivariate`` side: the weight;
  rho_1 .. rho_m; by class; the layers merged.
- the ``schmidt`` and ``uncu`` totals: the weight; none; by class; the
  cells of weight n summed.
- the ``cor22`` side: the weight; the repeated sizes and the alternating
  sum; 3, mod 2; the layers merged.
- the class-D buckets of ``schmidt_bucket_counts``: the weight;
  rho_1 .. rho_{m-1}; m - 1; the cells of weight n merged.

The tables count in their caller's units, one per field: a state's key is
the sum of each field times its unit, and the layers merge into one dict
with the capped field added the same way.  The enum sides pass the bit
fields of the series ring, and the public tables the digits of base
cap + 1.  No field of any state leaves 0..cap, so under either layout a
signed change never borrows from the next field.  The pass shares no
counting loop with the colored side and must not use
``colored._coin_table``: the two sides of a counting theorem are counted
apart, so a fault in one cannot cancel out.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, groupby, repeat, starmap
from operator import add, eq, floordiv, index, lt, mod, sub

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
    "residue_column_table",
    "schmidt_weight_table",
    "schmidt_bucket_counts",
    "split_bucket",
]


class Partition:
    """A weakly decreasing sequence of positive integers.

    ``part(k)`` is 1-based and returns 0 beyond the last part.  Instances
    compare and hash by their part tuple and are immutable by convention.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        # operator.index refuses floats, Fractions and strings instead of
        # truncating or parsing them; ints, bools and __index__ types pass.
        t = tuple(map(index, parts))
        if any(map(lt, t, t[1:])):
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
        """Reflect the Ferrers diagram: column heights become parts.

        One pointer walk over the columns and the parts, so O(lambda_1 +
        len) steps rather than one per cell; the output decreases by
        construction and is not validated again.
        """
        parts = self._parts
        if not parts:
            return self
        # Column c has height k, the number of parts at least c; k only
        # falls as c grows, so it moves down the parts at most len times.
        cols = []
        k = len(parts)
        for c in range(1, parts[0] + 1):
            while parts[k - 1] < c:
                k -= 1
            cols.append(k)
        return Partition._trusted(tuple(cols))

    def multiplicity(self, value):
        """How many parts equal ``value``."""
        return sum(1 for p in self._parts if p == value)

    def to_text(self):
        """Comma-separated parts, e.g. ``"7,5,4,4,2,1"``; empty string for the empty partition."""
        return ",".join(map(str, self._parts))

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))


def _check_modulus(m):
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")


def normalize_residue_set(m, s, *, allow_m=True):
    """Validate a modulus/residue-set pair and return the residues as a sorted tuple.

    Requires an integer modulus ``m >= 2`` and residues forming a subset of
    ``{1, ..., m}`` (or ``{1, ..., m-1}`` when ``allow_m`` is false) that
    contains 1.
    """
    _check_modulus(m)
    # operator.index refuses floats and strings instead of truncating or
    # parsing them, as Partition does for parts.
    residues = tuple(sorted(set(map(index, s))))
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
    return sum(p for k, p in enumerate(lam.parts) if k % m + 1 in residues)


def residue_column_count(lam, m, j):
    """Number of columns of the diagram whose height is congruent to ``j`` mod ``m``.

    Computed as the telescoping sum of ``part(mk+j) - part(mk+j+1)`` over
    ``k >= 0``, with ``j`` taken in ``1..m`` (a height divisible by ``m``
    counts under ``j = m``).
    """
    _check_modulus(m)
    if not 1 <= j <= m:
        raise ValueError(f"residue must lie in 1..{m}, got {j}")
    return sum(lam.part(k) - lam.part(k + 1) for k in range(j, len(lam) + 1, m))


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
    t = lam.parts
    if cls == "P":
        return True
    if cls == "D":
        # The parts decrease, so a size with m copies or more equals the
        # part m - 1 places on.
        return not any(map(eq, t, t[m - 1 :]))
    if cls == "F":
        # Every gap, the last part's down to 0 included.
        return all(map(lt, map(sub, t, (*t[1:], 0)), repeat(m)))
    return not any(map(mod, t, repeat(m)))


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
    n = index(n)
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


def _flat_partitions(n):
    # The partitions of n as part tuples, in partition_groups' order and by
    # its successor rule, on one list of n slots whose first k hold the
    # parts; h indexes the last part above 1.  Lowering a part of 2 turns
    # it into one more 1.  Otherwise the part x at h drops to x - 1, and
    # the 1 it frees and the trailing 1s refill the slots after it with
    # copies of x - 1 and one remainder.
    if n == 0:
        yield ()
        return
    parts = [1] * n
    parts[0] = n
    k = 1
    h = 0 if n > 1 else -1
    yield (n,)
    while h >= 0:
        x = parts[h] - 1
        if x == 1:
            parts[h] = 1
            h -= 1
            k += 1
        else:
            free = k - h
            parts[h] = x
            while free >= x:
                h += 1
                parts[h] = x
                free -= x
            if free == 0:
                k = h + 1
            else:
                k = h + 2
                if free > 1:
                    h += 1
                    parts[h] = free
        yield tuple(parts[:k])


def _expand(groups):
    return tuple(chain.from_iterable(starmap(repeat, groups)))


def partitions_of(n, cls="P", m=None):
    """Yield the partitions of ``n`` in the given class, reverse-lexicographically.

    Only members of the class are built.  Class R lists the partitions of
    ``n / m`` with every part scaled by ``m``.  Class D is the Schmidt-weight
    walk with every index counted, so the weight is the size, and at most
    ``m - 1`` copies of a size; class F walks the partitions of ``n`` without
    ever making a prefix that can no longer close with every gap below ``m``.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    _check_class(cls, m)
    if cls == "P":
        stream = _flat_partitions(n)
    elif cls == "R":
        stream = (
            tuple([m * p for p in parts])
            for parts in (_flat_partitions(n // m) if n % m == 0 else ())
        )
    elif cls == "D":
        stream = map(_expand, _weight_walk(n, m, range(1, m + 1), n, most=m - 1))
    else:
        stream = map(_expand, _walk(n, _gap_rule(m, n)))
    yield from map(Partition._trusted, stream)


def _walk(n, children, state=None, *, empty=True):
    # The one pruned walk behind the class and witness streams: depth first
    # over the groups (a, c), c copies of a part a, of the partitions of n,
    # sizes decreasing.  children(rem, last, state) lists the groups that may
    # follow a prefix that leaves rem to place and whose smallest size is last
    # (n + 1 at the root), as (a, c, child state) triples, a and then c
    # decreasing; that order makes the walk reverse-lexicographic.  It lists
    # every group a kept partition goes on with, and a group that leaves 0
    # only if it completes a kept partition; the fewer groups it lists that
    # cannot close, the fewer dead ends the walk meets.  Yields the groups of
    # each kept partition, and of the empty one at n = 0 when empty says so.
    stack = [(n, n + 1, state, ())]
    while stack:
        rem, last, state, groups = stack.pop()
        if not rem:
            if groups or empty:
                yield groups
            continue
        kids = [
            (rem - a * c, a, child, groups + ((a, c),))
            for a, c, child in children(rem, last, state)
        ]
        kids.reverse()
        stack += kids


def _gap_rule(m, n):
    # Class F: gaps below m, the last part's gap to 0 included.  close[a] is
    # the least that parts below a last part a must add to close: the descent
    # a - (m - 1), a - 2(m - 1), ... to a part below m.  Anything larger closes
    # too, by parts of size 1 after that descent, so a group of a > 1 closes
    # exactly when it leaves at least close[a], and a group of 1s when it
    # leaves nothing.
    close = [0] * (n + 1)
    for a in range(m, n + 1):
        close[a] = a - m + 1 + close[a - m + 1]

    def children(rem, last, _):
        lowest = max(last - m + 1, 1) if last <= n else 1
        for a in range(min(last - 1, rem), lowest - 1, -1):
            for c in range((rem - close[a]) // a, 0 if a > 1 else rem - 1, -1):
                yield a, c, None

    return children


def _length_walk(n, length, sizes=0):
    # The groups of the partitions of n with exactly `length` parts and at
    # least `sizes` distinct sizes, reverse-lexicographically.  The state is
    # (parts left, distinct sizes still needed).  After a group of size a,
    # the k parts left lie in 1..a-1, and d more sizes need at least 1..d
    # plus k - d parts 1, and leave room for at most a-1, ..., a-d plus k - d
    # parts a - 1.
    def children(rem, last, state):
        left, needed = state
        d = max(needed - 1, 0)
        for a in range(min(last - 1, rem), 0, -1):
            if rem > left * a:
                break
            for c in range(min(left, rem // a), 0, -1):
                k, after = left - c, rem - a * c
                if d <= min(k, a - 1) and d * (d + 1) // 2 + k - d <= after <= (
                    k * (a - 1) - d * (d - 1) // 2
                ):
                    yield a, c, (k, d)

    return _walk(n, children, (length, sizes), empty=length == 0 == sizes)


def _weight_walk(n, m, s, weight, *, most=None, repeated=None):
    # The groups of the partitions of n whose Schmidt weight on the residues
    # s mod m is `weight`, with at most `most` copies of a size, and with
    # exactly `repeated` sizes of two copies or more unless that is None,
    # reverse-lexicographically.  The state is (0-based index of the next
    # part, weight so far, repeated sizes so far): n parts at most, so n flags.
    # A group leaves need to the counted indices, spare to the others, and
    # parts of at most b.  Past the leading run of its kind from the index k
    # after the group (lead_u[k] uncounted, lead_c[k] counted), a part is at
    # most the part of the other kind just before its run, which is at most
    # G long if uncounted and H if counted.  So spare <= G * need + b *
    # lead_u[k] and need <= H * spare + b * lead_c[k]; for s = 1..i, G = m - i
    # and H = i.  With every index counted spare is 0: with most = m - 1 this
    # is class D.
    flags = [k % m + 1 in s for k in range(n)]
    before = list(accumulate(flags, initial=0))
    lead_u, lead_c = lead = [[0] * (n + 1), [0] * (n + 1)]
    for k in range(n - 1, -1, -1):
        lead[flags[k]][k] = lead[flags[k]][k + 1] + 1
    G = max((lead_u[k] for k in range(1, n) if flags[k - 1]), default=0)
    H = max((lead_c[k] for k in range(1, n) if not flags[k - 1]), default=0)

    def children(rem, last, state):
        k, w, rep = state
        for a in range(min(last - 1, rem), 0, -1):
            b = a - 1
            if most is not None and most * a * (a + 1) // 2 < rem:
                break
            room = most * a * b // 2 if most is not None else (rem if b else 0)
            for c in range(min(rem // a, most or rem), 0, -1):
                after = rem - a * c
                if after > room:
                    break
                child_k = k + c
                child_w = w + a * (before[child_k] - before[k])
                need = weight - child_w
                spare = after - need
                child_rep = rep + (c > 1)
                more = repeated - child_rep if repeated is not None else 0
                if (
                    need < 0
                    or spare < 0
                    or more < 0
                    or more > b
                    or more * (more + 1) > after
                    or spare > G * need + b * lead_u[child_k]
                    or need > H * spare + b * lead_c[child_k]
                ):
                    continue
                yield a, c, (child_k, child_w, child_rep)

    return _walk(n, children, (0, 0, 0), empty=weight == 0 and not repeated)


def partitions_with_schmidt_weight(n, m, s, cls="P"):
    """Yield the partitions whose index-residue weight equals ``n``.

    Only finitely many qualify: because index 1 is always counted, the
    largest part is at most ``n`` and the length is at most ``m * n``.
    ``cls`` may be ``"P"`` (no restriction) or ``"D"`` (multiplicities
    below ``m``).  Enumeration order is depth-first with parts tried in
    decreasing order, emitting each prefix before its extensions.
    """
    # A set, not the m flags of _schmidt_params, so a huge m costs nothing.
    counted = set(normalize_residue_set(m, s, allow_m=True))
    most = _most(cls, m)
    if n < 0:
        raise ValueError(f"target weight must be nonnegative, got {n}")
    # The walk shape and growth rule of schmidt_bucket_counts in class P,
    # which walks the subtree of a small remainder once per state where
    # this stream yields every node: a prefix of weight below n always
    # grows, as index 1's residue recurs within m and parts of size 1 fill
    # any deficit, and a prefix of weight n grows only while its next
    # index is not counted.
    # Each node is (residue in 1..m of the next index, weight, last part,
    # run length of the last part, parts); the root's last part n only
    # bounds the first part.  Children are pushed smallest part first, so
    # the largest pops first.
    stack = [(1, 0, n, 0, ())]
    while stack:
        r, weight, last, run, parts = stack.pop()
        is_counted = r in counted
        if weight == n:
            yield Partition._trusted(parts)
            if is_counted:
                continue
        next_r = r + 1 if r < m else 1
        top = min(last, n - weight) if is_counted else last
        for a in range(1, top + 1):
            if a == last and run == most:
                continue
            child_run = run + 1 if a == last else 1
            child_weight = weight + a if is_counted else weight
            stack.append((next_r, child_weight, a, child_run, parts + (a,)))


# ---------------------------------------------------------------------------
# counting without objects


def _schmidt_params(m, s, cls):
    # The residues and counted[r], whether a 0-based index of residue r is
    # counted, for the Schmidt-weight counters of classes P and D.
    residues = normalize_residue_set(m, s, allow_m=True)
    _most(cls, m)
    return residues, [r + 1 in residues for r in range(m)]


def _most(cls, m):
    # The one rule from a class to its run bound, the most equal parts a
    # partition of it keeps: m - 1 in class D, whose multiplicities stay
    # below m, and None in class P, whose read takes any number of copies
    # one at a time.  Any other class is refused.
    if cls not in ("P", "D"):
        raise ValueError(f"class must be 'P' or 'D', got {cls!r}")
    return None if cls == "P" else m - 1


def _table(counted, cap, *, most=None, sized=False, weight=0, alt=0, repeated=0, rho=None):
    # The one dynamic program behind the Schmidt-side tables.  The module
    # docstring says why its read orders are exact; no table can break
    # them, as each weight-capped one counts index 1 and each sized copy
    # gains size, so nothing here checks it.  counted[r] says whether a
    # 0-based index of residue r is counted, for m = len(counted).  The
    # capped field is the size when sized, else the weight.  The other
    # fields are one packed int, a sum of each field times its unit: the
    # weight when sized, alt (the alternating sum), repeated (the sizes with
    # two copies or more, bounded runs only) and rho, the units of rho_1 ..
    # rho_m, 0 for an entry not tracked.  Layer t, residue r is
    # cells[t * m + r], a dict from the other fields to a count; _table
    # returns the cells.
    m = len(counted)
    # before[j] counts the counted 0-based indices below j over two periods.
    before = list(accumulate(counted * 2, initial=0))
    # power[r]: rho's unit at the residue of the index before residue r, and
    # 0 at residue m, the empty partition's, as index 1 has no predecessor.
    power = [0] * (m + 1) if rho is None else [rho[-1], *rho[:-1], 0]
    limit = (cap + 1) * m
    cells = [{} for _ in range(limit)]
    # One loop reads the cells for every class.  Class P takes runs of one
    # copy and reads up the cells, in each layer residues 1 .. m - 1 and
    # then 0, so each copy lands on a cell still to be read.  The bounded
    # classes take runs of 1 .. most copies and read the same cells down,
    # so each run lands on a cell already read.  The empty partition, every
    # field 0, is kept out of the cells and read as residue m at index m,
    # first in class P and last otherwise: its groups land next residue - m
    # cells on.  Read last, it takes one run of a size at most; untracked,
    # rho_m's unit is 0 and residue m's groups are residue 0's, and layer 0
    # holds no other state, so reading it late loses nothing.
    up = [(cells[t * m + r], t * m + r, r) for t in range(cap + 1) for r in (*range(1, m), 0)]
    empty = ({0: 1}, m, m)
    if most is None:
        runs, reads = (1,), [empty, *up]
    else:
        runs, reads = range(1, most + 1), [*reversed(up), empty]
    groups = [()] * (m + 1)

    def group(r, c):
        # c copies from residue r sit on gain counted indices.  The group
        # moves a state a * g + d cells on and its other fields by a * e + f.
        gain = c // m * before[m] + before[r + c % m] - before[r]
        next_r = (r + c) % m
        e = weight * gain + alt * (2 * gain - c) + power[next_r] - power[r]
        return (c if sized else gain) * m, next_r - r, e, repeated * (c > 1)

    def fill(r):
        row = groups[r] = [group(r, c) for c in runs]
        return row

    read_cells = [src for src, _, _ in reads]
    for a in range(cap, 0, -1):
        # compress skips each empty cell as the loop reaches it, so class P
        # reads a cell after the copies it took.
        for src, i, r in compress(reads, read_cells):
            for g, d, e, f in groups[r] or fill(r):
                j = i + a * g + d
                if j >= limit:
                    break
                dst = cells[j]
                change = a * e + f
                for key, count in src.items():
                    key += change
                    dst[key] = dst.get(key, 0) + count
    cells[0][0] = 1
    return cells


def _layers(cells, m, unit):
    # The counts summed over the residue, in one dict: each key plus its
    # layer times unit, the capped field's unit.  Keys of different layers
    # differ, so the first cell of a layer goes in by one update and the
    # other cells add to it.
    out = {}
    get = out.get
    for i in range(0, len(cells), m):
        shift = i // m * unit
        first = cells[i]
        out.update(zip(map(add, first, repeat(shift)), first.values()))
        for part in cells[i + 1 : i + m]:
            for key, count in part.items():
                key += shift
                out[key] = get(key, 0) + count
    return out


def _unpacked(table, base, width):
    # A table counted in the digits of base, keyed by the tuples of its
    # first width digits, lowest first.
    keys = list(table)
    digits = [map(mod, map(floordiv, keys, repeat(base**j)), repeat(base)) for j in range(width)]
    return Counter(dict(zip(zip(*digits), table.values())))


def _cor22_counts(qcap, units):
    # Every partition with odd-index weight at most qcap and every
    # multiplicity below 4, counted by (weight, repeated sizes, alternating
    # sum) in the given units: runs of 1, 2 or 3 copies mod 2.  Each odd
    # index of a group adds a to the weight and to the alternating sum,
    # each even index subtracts a from the latter, and c > 1 makes the size
    # repeated.  The weight is the capped field; as index 1 is odd, the
    # other two stay in 0..qcap.
    weight, repeated, alt = units
    table = _table([True, False], qcap, most=3, alt=alt, repeated=repeated)
    return _layers(table, 2, weight)


def schmidt_weight_table(m, s, cls, *, cap):
    """How many partitions in the class have each ``(weight, size)``.

    Counts ``schmidt_weight(lam, m, s)`` and the size over the partitions
    of class ``"P"`` or ``"D"`` with size at most ``cap``, without walking
    them; the weight never exceeds the size.  One pass over the part
    sizes ``a = cap .. 1`` keeps a count for each state (size so far,
    weight so far, residue of the next index).  A copy of ``a`` adds ``a``
    to the size, and to the weight when its index's residue is in ``s``.
    """
    residues = normalize_residue_set(m, s, allow_m=True)
    base = cap + 1
    return _unpacked(_schmidt_weight_columns(m, residues, cls, cap, (1, base)), base, 2)


def _schmidt_weight_columns(m, s, cls, cap, units):
    # schmidt_weight_table counted in the units of (weight, size), for any
    # nonempty s: the size bounds the pass.  With at most cap parts no
    # index wraps mod min(m, cap + 1), so the pass runs mod that.
    counted = [r in s for r in range(1, min(m, cap + 1) + 1)]
    most = _most(cls, len(counted))
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    weight, size = units
    # The weight never exceeds the size.
    table = _table(counted, cap, most=most, sized=True, weight=weight)
    return _layers(table, len(counted), size)


def _schmidt_weight_total(n, m, s, cls):
    # How many partitions of the class have Schmidt weight n, from the
    # pass with the weight as its only field.
    cells = _table(_schmidt_params(m, s, cls)[1], n, most=_most(cls, m))
    return sum(part.get(0, 0) for part in cells[n * m :])


def residue_column_table(m, s, cls, *, qcap):
    """How many partitions in the class have each ``(weight, rho_1, ..., rho_m)``.

    Counts ``schmidt_weight(lam, m, s)`` and ``rho_j =
    residue_column_count(lam, m, j)`` for ``j = 1 .. m`` over the
    partitions of class ``"P"`` or ``"D"`` with Schmidt weight at most
    ``qcap``, without walking them.  One pass over the part sizes
    ``a = qcap .. 1`` keeps a count for each state (weight so far, rho so
    far, residue of the next index).  ``rho`` telescopes: ``c`` copies of
    ``a`` add ``a`` at the residue of their last index and take ``a`` from
    the residue of the index before their first, if there is one.
    """
    # m and s are checked before m sizes the units.
    normalize_residue_set(m, s, allow_m=True)
    base = qcap + 1
    table = _residue_columns(m, s, cls, qcap, [base**j for j in range(m + 1)])
    return _unpacked(table, base, m + 1)


def _residue_columns(m, s, cls, qcap, units):
    # residue_column_table counted in the units of (weight, rho_1, ..., rho_m).
    counted = _schmidt_params(m, s, cls)[1]
    if qcap < 0:
        raise ValueError(f"cap must be nonnegative, got {qcap}")
    # The weight is the capped field and rho the others.  Every prefix is a
    # partition whose parts are at most qcap, as index 1 is counted, so each
    # rho_j stays in 0..qcap.
    weight, *rho = units
    return _layers(_table(counted, qcap, most=_most(cls, m), rho=rho), m, weight)


# schmidt_bucket_counts keeps, in class P, one list of keys for each state
# with at most this much Schmidt weight left (and some left) whose next
# index is counted, and replays it for every later prefix in that state.
# Memory grows with the cut, and tracemalloc tests hold the peak within
# 3x a walk without these lists (Python 3.11, 2 vCPUs).  franklin_ext
# (m = 2, summed over n = 14, 16, 18, 20; medians of 60 interleaved CPU
# timings) and the tightest memory case:
#
#   cut                      7      8      9      10     11
#   franklin_ext, ms         18.4   16.8   16.0   15.8
#   (16, 4, (1, 3)) peak     1.97   2.31   2.60   2.90   3.10
#
# 10 leaves little room under the bound, so the cut is 9.
_TAIL_WEIGHT = 9

# How many replayed keys schmidt_bucket_counts gathers before it moves
# them into its Counter in one update.
_BATCH = 4096


def schmidt_bucket_counts(n, m, s, cls="P"):
    """How many partitions of Schmidt weight ``n`` fall in each packed bucket.

    Counts the objects of ``partitions_with_schmidt_weight(n, m, s, cls)``
    by one int in base ``n + 1``, without building them.  Digit ``j - 1``
    holds ``residue_column_count(lam, m, j)`` for ``j = 1 .. m-1``, and
    digit ``m - 2 + len(s) * a`` holds ``p // m`` for each size ``a``
    repeated ``p >= m`` times (class D repeats none): each block of ``m``
    equal parts maps to one part ``len(s) * a`` of the image.  Class D
    is read off the part-size pass of ``residue_column_table`` with rho_m
    left out, as the cells of weight ``n``.  Class P is one walk over
    its partitions, each counted once, its key the sum of its own parts'
    steps; the prefixes that share a small remainder share one walk of
    their completions.  :func:`split_bucket` reads a key.
    """
    residues, counted = _schmidt_params(m, s, cls)
    if n < 0:
        raise ValueError(f"target weight must be nonnegative, got {n}")
    # A part a at an index of 0-based residue r adds a to rho_{r+1} and
    # takes it from rho_r, where rho_0 means rho_m; rho_m is not tracked.
    # Every prefix is a partition whose parts are at most n, so each rho
    # entry lies in 0..n.  The m indices of a block hold len(s) counted
    # ones, so a block of a weighs at least len(s) * a and every image
    # entry lies in 0..n as well.
    base = n + 1
    if cls == "D":
        # The weight is the capped field and rho_1 .. rho_{m-1} the other.
        rho = [*(base**j for j in range(m - 1)), 0]
        out = Counter()
        for cell in _table(counted, n, most=_most(cls, m), rho=rho)[n * m :]:
            out.update(cell)
        return out
    step = [
        (base**r if r < m - 1 else 0) - (base ** (r - 1) if r > 0 else 0) for r in range(m)
    ]
    i = len(residues)
    block = [base ** (m - 2 + i * a) if i * a <= n else 0 for a in range(n + 1)]
    out = Counter()
    if n == 0:
        out[0] = 1
    done = []
    shape = (n, m, counted, step, block)
    _bucket_walk([(0, 0, n, 0, 0)], done, _TAIL_WEIGHT, {}, out, shape)
    out.update(done)
    return out


def _bucket_walk(stack, done, cut, tails, out, shape):
    # Iterative preorder walk over the class-P prefixes of weight at most
    # n.  Each node is (residue of the next index, weight, last part, run
    # length of the last part mod m, key); the root's last part n only
    # bounds the first part.  A part adds its step to the key, and the part
    # that makes a run reach m copies adds its block too, so a key is
    # always a sum of the prefix's own steps.  A prefix is counted when it
    # is made, its key appended to done, and a prefix of weight n is
    # entered only if its next index is not counted, as only then can it
    # grow.
    #
    # The keys below a prefix are its key plus deltas that depend only on
    # its state: (residue of the next index, weight, last part, run length
    # mod m).  A prefix with 1..cut weight left whose next index is counted
    # has its keys put in done as its key plus the deltas of its state,
    # which tails maps to the keys, duplicates kept, of one walk below that
    # state from key 0.  That walk takes the same cut, so it reuses the
    # lists of the deeper states it reaches; every child of such a state
    # adds weight, so these walks nest at most cut deep.  No later part of
    # such a prefix exceeds its weight left, so a last part above that is
    # never repeated.  Every such prefix of one residue and weight shares
    # the state (residue, weight, weight left, 0) of a last part equal to
    # the weight left whose run just closed a block: in both the next part
    # is at most the weight left and starts a run of 1, as m >= 2.
    # Prefixes whose next index is not counted are walked as they are.
    # With out given, done is moved into it whenever a replay leaves it
    # _BATCH long, and the caller moves the rest; a walk below a state
    # leaves out None and keeps its whole list.  A closure that called
    # itself would form a cycle holding the memo until a full garbage
    # collection.
    n, m, counted, step, block = shape
    while stack:
        r, weight, last, run, key = stack.pop()
        is_counted = counted[r]
        next_r = r + 1 if r + 1 < m else 0
        grows = not counted[next_r]
        delta = step[r]
        child_weight = weight
        top = last
        if is_counted:
            top = min(last, n - weight)
        for a in range(top, 0, -1):
            if is_counted:
                child_weight = weight + a
            child_key = key + a * delta
            if a != last:
                child_run = 1
            elif run + 1 < m:
                child_run = run + 1
            else:
                child_run = 0
                child_key += block[a]
            if child_weight == n:
                done.append(child_key)
                if not grows:
                    continue
            elif not grows and n - child_weight <= cut:
                left = n - child_weight
                if a > left:
                    state = (next_r, child_weight, left, 0)
                else:
                    state = (next_r, child_weight, a, child_run)
                deltas = tails.get(state)
                if deltas is None:
                    deltas = tails[state] = []
                    _bucket_walk([(*state, 0)], deltas, cut, tails, None, shape)
                done.extend(map(add, deltas, repeat(child_key)))
                if out is not None and len(done) >= _BATCH:
                    out.update(done)
                    done.clear()
                continue
            stack.append((next_r, child_weight, a, child_run, child_key))


def split_bucket(key, n, m):
    """The ``(rho, image)`` pair of one :func:`schmidt_bucket_counts` key.

    ``rho`` is the tuple of digits ``0 .. m-2`` and ``image`` lists the
    sizes ``p`` counted at digit ``m - 2 + p``, in decreasing order.
    """
    if key < 0:
        # Floor division keeps a negative key at -1, so the digits never end.
        raise ValueError(f"bucket keys are nonnegative, got {key}")
    base = n + 1
    rho = tuple(_digits(key, base, m - 1))
    key //= base ** (m - 1)
    image = []
    size = 0
    while key:
        key, count = divmod(key, base)
        size += 1
        image += [size] * count
    return rho, tuple(reversed(image))


def _digits(v, base, width):
    # The first width digits of v in the given base, lowest first.
    out = []
    for _ in range(width):
        v, e = divmod(v, base)
        out.append(e)
    return out
