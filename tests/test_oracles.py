"""The fast paths against the algorithms they replaced.

The sum sides are nested the Horner way and the Pochhammer builders,
``ln_series`` and the t1 slice are built from the two linear steps
behind ``Series.mul_one_minus`` and ``Series.div_one_minus``.  The
functions below keep the earlier forms, which multiply whole truncated
geometric series and sum forward, as oracles.

Each product side is one running series: every factor of all its
Pochhammer families, largest total degree first.  The path it replaced,
one step per factor in generation order and one general product per
family, is kept below, and mixed families must give one series in the
builder's order, in generation order and in its reverse.

The enumerators walk partitions iteratively in multiplicity form, and
the enum sides and both sides of the counting theorems count without
building objects.  The recursive enumerators, the object-counting enum
sides and the object-counting bodies of ``verify_counting`` they
replaced are kept below as oracles too.  Every comparison is exact
equality, and enumerators must also keep their order.

The s-graded enum sides, the ``cor22`` side and the ``schmidt``/``uncu``
totals are filled in one pass over part sizes.  The per-size walk over
multiplicity groups and the preorder walk of the ``cor22`` side that
this replaced are kept below as well.  The pass counts in place, one
layer of residue cells per value of its capped field.  The pass it
replaced, which copied every packed-int state once per part size and
walked each class-P chain to add the blocks, is kept below with the four
tables on it, and every table must equal it exactly.

A series stores each exponent vector packed into one int and checks the
caps with one add and one mask.  The tuple-keyed multiply and divide
steps and the bucketed product it replaced are kept below, on plain
``{exponent tuple: coefficient}`` dicts, and so is the summed colored
Counter that the ``uncu`` colored total replaced.

The enum tables count straight into the ring's packed keys, in units
their caller gives, and the series checks their dict through one
constructor; the Pochhammer products generate their factors as packed
keys.  The tables that handed over one list per field, checked and
packed by the series, are kept below, and ``family_factors`` steps the
factors as ``Monomial`` products.  The tests read the private tables in the digits of base
cap + 1.

The ``ak_trivariate`` enum side is the theorem's Schmidt side,
``residue_column_table``, in place of the colored model of the product;
the overpartition side counts partitions by (distinct sizes, length);
and ``_cor22_counts`` packs its state into one int.  The colored count,
the per-group form and the tuple-keyed recurrence are kept below, with a
brute-force count and a tuple-keyed, one-group-at-a-time table.

Both sides of ``ak_main`` and ``franklin_ext`` count into one packed int
per bucket: ``schmidt_bucket_counts`` walks the class-P partitions of
Schmidt weight n with one int per node and reads class D off the
part-size pass, and ``colored_bucket_counts`` reads one table over the
part types (size, color).  The ``uncu`` total and the
overpartition side are tables over part sizes as well.  The
profile-carrying walk, the multiplicity-group counts and the partition
walk of the overpartition side they replaced are kept below.  The color
counts are read off ``colored_bucket_counts`` through ``split_bucket``,
and the overpartition counts off the ``(N, o, p)`` keys of
``_overpartition_table``.  In class P ``schmidt_bucket_counts`` lists the
keys below each state with little weight left and a counted next index
once, from the lists of the deeper states it reaches, and replays them.
The walk that built every key on the way down, in both classes, is kept
below; the replay must give its counts at every cut and stay within 3x
its tracemalloc peak, and the class-D pass must give its counts
exactly, holding memory that grows with the pass's states and not with
the partitions counted.  At every weight up to 20 (40 at m = 2) the
class-D pass is checked against a count over column heights, which
shares no code with the pass and is itself checked against the walk at
smaller weights.  The walk whose
lists each walked their whole subtree, at every state with little
weight left, is kept below too.  Its state keeps the run length of the
last part mod m, a block added as a run reaches m copies; the walk that
kept whole runs and added their blocks as they closed is kept below.
``colored_bucket_counts`` writes each key once, straight into its
``Counter``, as no two (color counts, nu) pairs share a key, and counts
each nu once, as its key is its multiplicities; the merge that summed
every product of counts into a dict and copied it is kept below.

The Gaussian binomials are products of one multiply and one divide step
per factor, and the ``schmidt`` colored side is a colored total with one
color per part.  The q-Pascal recursion and the walk over the partitions
of n they replaced are kept below.

A product with a single-term operand is a key shift, a sum copies the
larger operand and walks the smaller one, and the t1 slice sums only the
``j = J`` terms of the overpartition double sum.  The bucketed product
that every operand took, the add that filtered its whole result a second
time, and the slice read off the whole sum are kept below.

The ``Series`` constructor checks and packs a dict's keys a column at a
time.  The constructor that checked and packed one key at a time is kept
below, with ``operator.index`` in place of ``int``: valid input must give
the same terms, and bad input the same exception and message.

The bijections read the column multiplicities ``lam_h - lam_(h+1)`` off
the parts, and ``Partition.conjugate`` is one pointer walk.  The
cell-count conjugate, the ``Counter``-of-columns ``glaisher_reduce``, the
conjugate-and-sort ``glaisher_expand``, the per-column ``color_conjugate``
and its sorting inverse, the ``part()``-based ``mork_forward``, the
``sum``-based ``mork_inverse`` and the generator-expression expansion of
multiplicity groups are kept below: valid input must give the same
objects, and bad input the same exception and message.  So are the
forms that built a tuple for every run of equal parts, which
``decompose_multiplicity`` and ``in_class`` replaced by counting runs as
they pass and comparing neighbouring parts, and the validating
constructors that ``decompose_multiplicity`` and ``merge_partitions``
no longer call on outputs that decrease by construction.

Each streamed or mapped object is built once.  Class P steps one list of
parts by the successor rule of ``partition_groups``, and class R scales
that stream; ``colored_partitions`` lays pre-built runs of (size, color)
pairs end to end, and ``overpartitions`` takes the product of pre-built
flagged entries.  ``color_conjugate`` counts the marked rows of each
height inline, its inverse checks each palette against the residues and
the ceiling, and ``mork_forward`` reads the column heights only up to the
column just right of the Durfee square.  The builders they replaced are
kept below: each partition expanded from its groups, the nested
generators, the helper that counted the marked rows, the ``_palette``
check and the whole conjugate.  Streams must give the same objects in
the same order, and maps the same objects or the same error.

Each map builds its image in one pass after its checks: ``glaisher_reduce``
banks only the heights with m columns or more, ``glaisher_expand`` checks
every banked part first and then adds to each row in one pointer walk
down the banked parts, ``decompose_multiplicity`` slices each run once,
``color_conjugate`` reads the color off the rest of the height,
``color_conjugate_inverse`` conjugates its heights inline, and the mork
maps index the parts directly and build no validated ``Partition``.  The
bodies they replaced are kept below, and every output, and every error's
type and message, must equal theirs.

Every enum side hands its table to the ring as columns, one int list per
variable, and the double sums step one dict of packed keys, each level
a product of two cached Gaussian binomials cut at the cap.  The path
that keyed each table by tuples and handed it to the ``Series``
constructor, and the sum that built every level as a ``Series`` from one
Gaussian multinomial per (n, j, k) and divided through
``Series.div_one_minus``, are kept below.

The s-graded rows are instances of one family, class P or D on a residue
set S, fixed for ``mork_*``: ``mork_even`` is the weight on S = {2}, not
the size less the weight on {1}.  The counting theorems pair class D
with palette ceiling m and class P with m + 1.  The branches that named
each id in ``product_side``, ``enum_side``, ``witnesses`` and
``_counting_buckets`` are kept below.
So is the first-mismatch search that unpacked and sorted every term of
both sides, where only the keys that differ are unpacked now.

The Schmidt-weight walk flags the indices of S up to n and prunes by the
longest runs of either kind that S makes.  The walk it replaced, which
took the blocks S = 1..i alone and counted indices by a closed form, is
kept below, and so is a brute-force filter for every S.  Class D streams
on that walk with every index counted, and
the ``ak_trivariate`` witnesses take each group's color-1 count from
``itertools.product``.  The multiplicity rule class D walked with, and
the recursive generator of the color-1 counts, are kept below.

Every colored count reads one coin table of ``(a, d, once)`` part types.
The ``_add_part`` step it folds in, which the tuple-keyed overpartition
table still calls, and the list pass ``colored_partition_total`` made on
its own, are kept below.

One table builder, ``partitions._table``, derives every Schmidt-side
table's groups from the fields the table tracks.  The pass it replaced,
which took a ``steps(r)`` closure per table, the empty partition's
``first`` groups and its ``block`` from the caller, is kept below with
the helpers that built those: ``_part_size_pass``, ``_cells``,
``_schmidt_cells`` and ``_rho_steps``.  The column tables read it.

The builder reads the cells in one loop for every class: in class P
one copy per read, up the cells, and in the bounded classes runs of
1 .. most copies per read, down the cells.  Its earlier class-P path,
runs of 1 .. m - 1 copies read from the top layer down and then a sweep
up the layers adding blocks of m copies, is kept below as
``run_group_table``, and the class-P tables must equal it exactly; the
class-D tables must equal the copying pass at any modulus up to 6.

``ln_series``, the sum side of ``cauchy_check`` and the t1 slice's
closed form each build one dict of packed keys: key shifts cut at the
caps, ``_div_one_minus`` steps, and one ``dict.update`` per k of the
Cauchy sum.  The forms they replaced, which stepped ``Series`` objects
(a checked one-term series per shift, a copy per ``+``, ``q_binomial``
per k and ``Series.div_one_minus`` per step), are kept below, and the
packed builders must equal them exactly, with no stored zero.
"""

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import (
    accumulate,
    combinations,
    combinations_with_replacement,
    compress,
    count,
    groupby,
    permutations,
    product,
    repeat,
    starmap,
    zip_longest,
)
from math import comb, isqrt
from operator import add, eq, index, itemgetter, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtq import (
    ColoredPartition,
    Overpartition,
    Partition,
    Series,
    SeriesContext,
    VerificationReport,
    admissible_colors,
    geometric_inverse,
    color_conjugate,
    color_conjugate_inverse,
    color_counts,
    colored_bucket_counts,
    colored_partition_total,
    colored_partitions,
    decompose_multiplicity,
    enum_side,
    glaisher_expand,
    glaisher_reduce,
    in_class,
    ln_series,
    merge_partitions,
    mork_forward,
    mork_inverse,
    normalize_residue_set,
    over_stats,
    overpartitions,
    partitions_of,
    partitions_with_schmidt_weight,
    poch_finite,
    poch_infinite,
    poch_infinite_inverse,
    product_side,
    q_binomial,
    repetition_profile,
    residue_column_count,
    residue_column_table,
    schmidt_bucket_counts,
    schmidt_weight,
    schmidt_weight_table,
    size_graded_context,
    split_bucket,
    sum_side,
    t1_slice_check,
    trivariate_context,
    verify_counting,
    witnesses,
)
from schmidtq import identities, partitions
from schmidtq.colored import (
    _coin_table,
    _colored_partition_texts,
    _overpartition_table,
    _palette,
    _validate_palette,
)
from schmidtq.identities import (
    IDENTITY_TABLE,
    _compare_sides,
    _hook_exponent,
    _series_mismatch,
    _t1_slice_closed_form,
)
from schmidtq.partitions import (
    _check_class,
    _check_modulus,
    _cor22_counts,
    _digits,
    _expand,
    _residue_columns,
    _schmidt_params,
    _schmidt_weight_columns,
    _schmidt_weight_total,
    _weight_walk,
    partition_groups,
)
from schmidtq.series import (
    Monomial,
    _div_one_minus,
    _factor_keys,
    _Family,
    _layout,
    _poch_product,
    gaussian_binomial_coeffs,
    gaussian_multinomial_coeffs,
)

from conftest import (
    Exactly,
    every_residue_set,
    repeated_size_count,
    residue_sets,
    traced_peak,
)


# --- the replaced algorithms -------------------------------------------------


def forward_hook_sum(qcap, with_t1_denominator):
    ctx = trivariate_context(qcap)
    total = ctx.zero()
    denom = ctx.one()
    n = 0
    while True:
        if with_t1_denominator:
            floor = n * (n - 1) // 2
        else:
            floor = max(0, (n * n - 1) // 4)
        if n > 0 and floor > qcap:
            break
        if n > 0:
            denom = denom * geometric_inverse(ctx, ctx.monomial(q=n))
            denom = denom * geometric_inverse(ctx, ctx.monomial(q=n, t2=1))
            if with_t1_denominator:
                denom = denom * geometric_inverse(ctx, ctx.monomial(q=n, t1=1))
        inner = {}
        for j in range(n + 1):
            for k in range(max(0, n - j), n + 1):
                e = _hook_exponent(n, j, k, with_t1_denominator)
                if e > qcap:
                    continue
                sign = -1 if (j + k + n) % 2 else 1
                for d, c in enumerate(gaussian_multinomial_coeffs(n, (n - j, n - k, j + k - n))):
                    if c and e + d <= qcap:
                        key = (e + d, j, k)
                        inner[key] = inner.get(key, 0) + sign * c
        if inner:
            total = total + Series(ctx, inner) * denom
        n += 1
    return total


def series_step_hook_sum(qcap, js, *, with_t1_denominator):
    """``_hook_sum`` with every level a ``Series`` and every step a ``Series`` method.

    Each inner level is a tuple-keyed dict handed to the constructor, with
    one Gaussian multinomial per (n, j, k), and each Horner step divides by
    a ``Monomial`` through ``Series.div_one_minus``.
    """
    ctx = trivariate_context(qcap)
    inners = []
    n = 0
    while True:
        if with_t1_denominator:
            floor = n * (n - 1) // 2
        else:
            floor = max(0, (n * n - 1) // 4)
        if floor > qcap:
            break
        inner = {}
        for j in js:
            if j > n:
                break
            for k in range(max(0, n - j), n + 1):
                e = _hook_exponent(n, j, k, with_t1_denominator)
                if e > qcap:
                    continue
                sign = -1 if (j + k + n) % 2 else 1
                for d, c in enumerate(gaussian_multinomial_coeffs(n, (n - j, n - k, j + k - n))):
                    if c and e + d <= qcap:
                        key = (e + d, j, k)
                        inner[key] = inner.get(key, 0) + sign * c
        inners.append(Series(ctx, inner))
        n += 1
    acc = ctx.zero()
    for n in range(len(inners) - 1, -1, -1):
        r = n + 1
        acc = acc.div_one_minus(ctx.monomial(q=r)).div_one_minus(ctx.monomial(q=r, t2=1))
        if with_t1_denominator:
            acc = acc.div_one_minus(ctx.monomial(q=r, t1=1))
        acc = acc + inners[n]
    return acc


def _add_part(table, a, d, sizes):
    # table[N] += table[N - a] with every vector moved by d, for N in
    # sizes: one more part of weight a.  Upward sizes read table[N - a]
    # after its own update, so they take any number of copies; downward
    # sizes read it before, so they take at most one.
    for size in sizes:
        target = table[size]
        for v, count in table[size - a].items():
            target[v + d] = target.get(v + d, 0) + count


def tuple_overpartition_table(qcap):
    """``_overpartition_table`` keyed by the tuples ``(N, o, p)``."""
    base = qcap + 1
    table = [{} for _ in range(qcap + 1)]
    table[0][0] = 1
    for a in range(qcap, 0, -1):
        _add_part(table, a, 1, range(a, qcap + 1))
        _add_part(table, a, base, range(qcap, a - 1, -1))
    return {
        (n, *divmod(v, base)): count for n, row in enumerate(table) for v, count in row.items()
    }


def tuple_table_enum_side(identity, *, qcap=None, scap=None, m=None, i=None):
    """``enum_side`` as the constructor's dict path: each table keyed by tuples."""
    if identity == "ak_trivariate":
        return Series(trivariate_context(qcap), residue_column_table(2, (1,), "P", qcap=qcap))
    if identity == "overpartition":
        return Series(trivariate_context(qcap), tuple_overpartition_table(qcap))
    if identity == "cor22":
        return Series(trivariate_context(qcap), tuple_cor22_counts(qcap))
    if identity in ("mork_odd", "mork_even"):
        table = schmidt_weight_table(2, (1,), "D", cap=scap)
        if identity == "mork_even":
            table = {(size - odd, size): count for (odd, size), count in table.items()}
        return Series(size_graded_context(scap), table)
    cls = "P" if identity == "psi_all" else "D"
    table = schmidt_weight_table(m, tuple(range(1, i + 1)), cls, cap=scap)
    return Series(size_graded_context(scap), table)


def factor(ctx, mon, coefficient=1):
    return Series(ctx, {tuple([0] * len(ctx.caps)): 1, tuple(mon): -coefficient})


def family_factors(ctx, z, g, n=None, coefficient=1, divide=False):
    """The in-cap factors of one Pochhammer family, in generation order.

    The family is ``1 - coefficient * z * g**k`` for ``k < n`` (every k
    when n is None), or with ``divide`` the inverses ``1 / (1 - z * g**k)``;
    each factor is ``(monomial, coefficient, divide)``.  An infinite family
    needs a nonconstant ratio.
    """
    factors = []
    cur = z
    for _ in count() if n is None else range(n):
        if cur.within(ctx.caps):
            factors.append((cur, coefficient, divide))
        elif n is None:
            break
        cur = cur * g
    return factors


def _part_size_pass(cells, m, steps, *, block=None, first=None):
    # The one dynamic program behind the Schmidt-side tables; the module
    # docstring says why its read order is exact.  Layer t, residue r is
    # cells[t * m + r], a dict from a state's other fields, one packed int,
    # to its count.  steps(r) lists the groups from residue r as (g, next
    # residue, e, f), gains g growing: the group of parts of size a adds
    # a * g to t and a * e + f to the other fields.  It is asked once for
    # each residue met, and groups[r] keeps its answer as (g * m, next
    # residue - r, e, f), so a group moves a state a * g * m + next residue
    # - r cells on.  The empty partition, if kept out of the cells, is read
    # last from cell 0 with the groups that first lists.  A block (g, d), m
    # copies of a part 1, adds a * g to t and a * d to the other fields.
    limit = len(cells)
    cap = limit // m - 1
    order = (0, *range(m - 1, 0, -1))
    reads = [(cells[t * m + r], t * m + r, r) for t in range(cap, -1, -1) for r in order]
    groups = [()] * (m + 1)

    def fill(r):
        row = groups[r] = [(g * m, next_r - r, e, f) for g, next_r, e, f in steps(r)]
        return row

    if first:
        reads.append(({0: 1}, 0, m))
        groups[m] = [(g * m, next_r, e, f) for g, next_r, e, f in first]
    read_cells = [src for src, _, _ in reads]
    for a in range(cap, 0, -1):
        # compress skips each empty cell as the loop reaches it.
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
        if block:
            change = a * block[1]
            # t ascending: compress reads each source as the sweep reaches
            # it, after the blocks it took below.
            for src, dst in compress(zip(cells, cells[a * block[0] * m :]), cells):
                for key, count in src.items():
                    key += change
                    dst[key] = dst.get(key, 0) + count
    return cells


def _cells(cap, m, *, empty=True):
    # The empty cells of layers 0 .. cap, with the empty partition in layer
    # 0 at residue 0 unless it is kept out.
    cells = [{} for _ in range((cap + 1) * m)]
    if empty:
        cells[0][0] = 1
    return cells


def _schmidt_cells(counted, cls, cap, *, unit=None):
    # The pass's cells for the class-P/D partitions with parts at most cap:
    # the size capped and the weight the other field, in the given unit,
    # when a unit is given, else the weight capped and no other field; the
    # weight never exceeds the size.
    # before[j] counts the counted 0-based indices below j over two periods,
    # so c < m copies from residue r sit on before[r + c] - before[r] of
    # them.
    m = len(counted)
    before = list(accumulate(counted * 2, initial=0))
    sized = unit is not None

    def steps(r):
        gains = [before[r + c] - before[r] for c in range(1, m)]
        if sized:
            return [(c, (r + c) % m, gain * unit, 0) for c, gain in enumerate(gains, 1)]
        return [(gain, (r + c) % m, 0, 0) for c, gain in enumerate(gains, 1)]

    block = ((m, sum(counted) * unit) if sized else (sum(counted), 0)) if cls == "P" else None
    return _part_size_pass(_cells(cap, m), m, steps, block=block)


def _rho_steps(before, power):
    # The groups of 0 < j < m copies from residue r for the tables that
    # track rho, weight capped; power[r] is rho's digit at the residue of
    # the index before residue r, or 0 where that entry is not tracked.
    m = len(power)

    def steps(r):
        # Zero copies leave a state as it is.
        return [
            (before[r + j] - before[r], (r + j) % m, power[(r + j) % m] - power[r], 0)
            for j in range(1, m)
        ]

    return steps


def column_layers(cells, m):
    """The pass's cells summed over the residue as three lists, layer by
    layer: the capped field, the other fields' packed int and the counts."""
    top, fields, counts = [], [], []
    for i in range(0, len(cells), m):
        acc = Counter()
        for part in cells[i : i + m]:
            acc.update(part)
        top += repeat(i // m, len(acc))
        fields += acc
        counts += acc.values()
    return top, fields, counts


def column_cor22_counts(qcap):
    """``_cor22_counts`` as columns (weight, repeated sizes, alternating sum)
    and counts, the other two fields packed in base qcap + 1 during the pass."""
    base = qcap + 1

    def steps(r):
        return [
            (odd, r ^ (c & 1), 2 * odd - c, (c > 1) * base)
            for c, odd in ((1, 1 - r), (2, 1), (3, 2 - r))
        ]

    weight, packed, counts = column_layers(_part_size_pass(_cells(qcap, 2), 2, steps), 2)
    return [weight, [key // base for key in packed], [key % base for key in packed]], counts


def column_schmidt_weight_columns(m, s, cls, cap):
    """``_schmidt_weight_columns`` as columns (weight, size) and counts."""
    counted = [r in s for r in range(1, min(m, cap + 1) + 1)]
    size, weight, counts = column_layers(_schmidt_cells(counted, cls, cap, unit=1), len(counted))
    return [weight, size], counts


def column_residue_columns(m, s, cls, qcap):
    """``_residue_columns`` as columns (weight, rho_1, ..., rho_m) and counts,
    rho packed in base qcap + 1 during the pass."""
    residues, counted = _schmidt_params(m, s, cls)
    base = qcap + 1
    before = list(accumulate(counted * 2, initial=0))
    power = [base ** ((r - 1) % m) for r in range(m)]
    first = [(before[c], c % m, power[c % m], 0) for c in range(1, m + 1 if cls == "P" else m)]
    block = (len(residues), 0) if cls == "P" else None
    cells = _part_size_pass(
        _cells(qcap, m, empty=False), m, _rho_steps(before, power), block=block, first=first
    )
    cells[0][0] = 1
    weight, rho, counts = column_layers(cells, m)
    return [weight, *([key // base**j % base for key in rho] for j in range(m))], counts


def column_overpartition_table(qcap):
    """``_overpartition_table`` as columns (N, o, p) and counts, (o, p)
    packed in base qcap + 1 during the table."""
    base = qcap + 1
    parts = [part for a in range(qcap, 0, -1) for part in ((a, 1, False), (a, base, True))]
    sizes, keys, counts = [], [], []
    for n, row in enumerate(_coin_table(qcap, parts)):
        sizes += repeat(n, len(row))
        keys += row
        counts += row.values()
    return [sizes, [key // base for key in keys], [key % base for key in keys]], counts


def column_enum_side(identity, *, qcap=None, scap=None, m=None, i=None):
    """``enum_side`` from the column tables, their rows through the row constructor."""
    ctx = trivariate_context(qcap) if qcap is not None else size_graded_context(scap)
    if identity == "ak_trivariate":
        columns, counts = column_residue_columns(2, (1,), "P", qcap)
    elif identity == "overpartition":
        columns, counts = column_overpartition_table(qcap)
    elif identity == "cor22":
        columns, counts = column_cor22_counts(qcap)
    else:
        family = IDENTITY_TABLE[identity].family
        m, s = family.fixed or (m, tuple(range(1, i + 1)))
        columns, counts = column_schmidt_weight_columns(m, s, family.cls, scap)
    return Series(ctx, list(zip(zip(*columns), counts)))


def by_steps(ctx, factors):
    # One multiply or divide step per factor, in the order given.
    out = ctx.one()
    for mon, coefficient, divide in factors:
        out = out.div_one_minus(mon) if divide else out.mul_one_minus(mon, coefficient)
    return out


def by_products(ctx, factors):
    # One whole-series product per factor.  Nonconstant monomials only: the
    # whole-series factor merges 1 and -c into one key when mon is constant.
    out = ctx.one()
    for mon, coefficient, divide in factors:
        out = out * (geometric_inverse(ctx, mon) if divide else factor(ctx, mon, coefficient))
    return out


def product_families(identity, *, qcap=None, scap=None, m=None, i=None):
    """``(ctx, [(base, ratio, coefficient, divide), ...])``: each product side's infinite families."""
    if identity in ("ak_trivariate", "overpartition", "cor22"):
        ctx = trivariate_context(qcap)
        q = ctx.monomial(q=1)
        t2 = (ctx.monomial(q=1, t2=1), q, 1, True)
        if identity == "ak_trivariate":
            return ctx, [(ctx.monomial(q=1, t1=1), q, 1, True), t2]
        return ctx, [(ctx.monomial(q=1, t1=1), q, -1, False), t2]
    ctx = size_graded_context(scap)
    if identity == "mork_odd":
        return ctx, [(ctx.monomial(q=1, s=1), ctx.monomial(q=1, s=2), 1, True)]
    if identity == "mork_even":
        return ctx, [(ctx.monomial(s=1), ctx.monomial(q=1, s=2), 1, True)]
    ratio = ctx.monomial(q=i, s=m)
    last = m if identity == "psi_all" else m - 1
    return ctx, [(ctx.monomial(q=min(r, i), s=r), ratio, 1, True) for r in range(1, last + 1)]


def product_side_by_families(build, identity, **caps):
    # One general product per family; build multiplies out each family's
    # factors in generation order.
    ctx, families = product_families(identity, **caps)
    out = ctx.one()
    for z, g, coefficient, divide in families:
        out = out * build(ctx, family_factors(ctx, z, g, None, coefficient, divide))
    return out


def running_q_graded_product(identity, qcap):
    """The path ``_euler_product`` replaced: one running series stepped by
    every in-cap factor of the product's families, largest first."""
    ctx, families = product_families(identity, qcap=qcap)
    return _poch_product(ctx, [_Family(z, g, coefficient=c, divide=d) for z, g, c, d in families])


@lru_cache(maxsize=None)
def part_count_tables(cap):
    """``(plain, distinct)``: ``plain[n][k]`` counts the partitions of n into
    k parts, and ``distinct[n][k]`` those whose k parts are distinct, for
    every n <= cap, each partition enumerated."""
    plain = [[0] * (cap + 1) for _ in range(cap + 1)]
    distinct = [[0] * (cap + 1) for _ in range(cap + 1)]
    for n in range(cap + 1):
        for lam in recursive_partitions_of(n):
            plain[n][len(lam)] += 1
            distinct[n][len(lam)] += len(set(lam.parts)) == len(lam)
    return plain, distinct


def counted_q_graded_product(identity, qcap):
    """A q-graded product side as the pairs of its two colors' partitions:
    t1 counts the parts of the first (distinct for the overpartition
    product), t2 those of the second, q the size of both."""
    plain, distinct = part_count_tables(30)
    first = plain if identity == "ak_trivariate" else distinct
    terms = Counter()
    for e1, j in product(range(qcap + 1), repeat=2):
        if first[e1][j]:
            for e2, k in product(range(qcap - e1 + 1), range(qcap + 1)):
                terms[(e1 + e2, j, k)] += first[e1][j] * plain[e2][k]
    return Series(trivariate_context(qcap), terms)


def ln_series_by_products(n, qcap):
    ctx = trivariate_context(qcap)
    caps = ctx.caps
    seq = [ctx.one()]

    def step_monomial(r):
        if r % 2 == 0:
            return ctx.monomial(q=r // 2)
        return ctx.monomial(q=(r + 1) // 2, t2=1)

    t1 = Series(ctx, {ctx.monomial(t1=1): 1}) if ctx.monomial(t1=1).within(caps) else ctx.zero()
    for r in range(1, n + 1):
        quot = step_monomial(r)
        if not quot.within(caps):
            seq.append(ctx.zero())
            continue
        head = Series(ctx, {quot: 1}) * geometric_inverse(ctx, quot)
        if r == 1:
            seq.append(head)
        elif r == 2:
            first = step_monomial(1)
            val = head * t1
            if first.within(caps):
                val = val + head * Series(ctx, {first: 1}) * geometric_inverse(ctx, first)
            seq.append(val)
        else:
            tail = seq[r - 1] + t1 * (seq[r - 2] + seq[r - 3])
            seq.append(head * tail)
    return seq[n]


def t1_closed_form_by_products(ctx, J):
    qcap = ctx.caps[0]
    prefix_e = J * (J + 1) // 2
    if prefix_e > qcap:
        return ctx.zero()
    prefix = Series(ctx, {ctx.monomial(q=prefix_e): 1})
    for r in range(1, J + 1):
        prefix = prefix * geometric_inverse(ctx, ctx.monomial(q=r))
    inner = ctx.zero()
    denom = ctx.one()
    mm = 0
    while mm * mm <= qcap:
        if mm > 0:
            denom = denom * geometric_inverse(ctx, ctx.monomial(q=mm))
            denom = denom * geometric_inverse(ctx, ctx.monomial(q=mm, t2=1))
        inner = inner + Series(ctx, {ctx.monomial(q=mm * mm, t2=mm): 1}) * denom
        mm += 1
    return prefix * inner


def series_op_ln_series(n, qcap):
    """``ln_series`` with every state a ``Series``: a checked one-term
    series per shift, a copy per ``+`` and ``Series.div_one_minus`` per step."""
    ctx = trivariate_context(qcap)
    t1 = ctx.term(1, ctx.monomial(t1=1)) if qcap else ctx.zero()
    seq = [ctx.zero(), ctx.zero(), ctx.one()]
    for r in range(1, n + 1):
        quot = ctx.monomial(q=(r + 1) // 2, t2=r % 2)
        if not quot.within(ctx.caps):
            seq.append(ctx.zero())
            continue
        tail = seq[-1] + t1 * (seq[-2] + seq[-3])
        seq.append((ctx.term(1, quot) * tail).div_one_minus(quot))
    return seq[-1]


def series_op_cauchy_sum(ctx, N):
    """The sum side of ``cauchy_check`` as a ``Series`` sum of one-term
    series times ``q_binomial``."""
    rhs = ctx.zero()
    for k in range(N + 1):
        e = k * (k - 1) // 2
        if e > ctx.caps[0]:
            continue
        sign = -1 if k % 2 else 1
        rhs = rhs + Series(ctx, {ctx.monomial(q=e, z=k): sign}) * q_binomial(ctx, N, k)
    return rhs


def series_op_t1_slice_closed_form(ctx, J):
    """``_t1_slice_closed_form`` nested on ``Series`` objects, each step a
    ``Series.div_one_minus`` call and each term a one-term series."""
    qcap = ctx.caps[0]
    prefix_e = J * (J + 1) // 2
    if prefix_e > qcap:
        return ctx.zero()
    inner = ctx.zero()
    for mm in range(isqrt(qcap), -1, -1):
        r = mm + 1
        inner = inner.div_one_minus(ctx.monomial(q=r)).div_one_minus(ctx.monomial(q=r, t2=1))
        inner = inner + ctx.term(1, ctx.monomial(q=mm * mm, t2=mm))
    out = ctx.term(1, ctx.monomial(q=prefix_e)) * inner
    for r in range(1, J + 1):
        out = out.div_one_minus(ctx.monomial(q=r))
    return out


@lru_cache(maxsize=None)
def pascal_gaussian_binomial(n, k):
    """``[n, k]`` by the q-Pascal rule ``[n, k] = [n-1, k-1] + q^k [n-1, k]``."""
    if k < 0 or k > n:
        return (0,)
    if k == 0 or k == n:
        return (1,)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(pascal_gaussian_binomial(n - 1, k - 1)):
        out[i] += c
    for i, c in enumerate(pascal_gaussian_binomial(n - 1, k)):
        out[i + k] += c
    return tuple(out)


# --- the replaced bijections ------------------------------------------------


def cell_count_conjugate(lam):
    """The conjugate, counting the diagram one cell at a time."""
    if not lam.parts:
        return Partition()
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for c in range(p):
            cols[c] += 1
    return Partition(cols)


def counter_glaisher_reduce(lam, m):
    heights = Counter(cell_count_conjugate(lam).parts)
    kept_cols = []
    banked = []
    for h, count in heights.items():
        kept_cols.extend([h] * (count % m))
        banked.extend([h * m] * (count // m))
    kept = cell_count_conjugate(Partition(sorted(kept_cols, reverse=True)))
    return kept, Partition(sorted(banked, reverse=True))


def conjugate_and_sort_glaisher_expand(kept, banked, m):
    if not in_class_by_parts(kept.parts, "F", m):
        raise ValueError(f"{kept.parts} has a gap of {m} or more, so it is not reduced")
    cols = list(cell_count_conjugate(kept).parts)
    for p in banked.parts:
        if p % m:
            raise ValueError(f"banked part {p} is not divisible by {m}")
        cols.extend([p // m] * m)
    return cell_count_conjugate(Partition(sorted(cols, reverse=True)))


def per_column_color_conjugate(lam, m, s):
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    parts = []
    for h in cell_count_conjugate(lam).parts:
        full, rem = divmod(h, m)
        p = full * i + sum(1 for r in residues if r <= rem)
        k = ((p - 1) % i) + 1
        last_marked = m * ((p - 1) // i) + residues[k - 1]
        parts.append((p, residues[k - 1] + h - last_marked))
    return ColoredPartition(parts)


def sorting_color_conjugate_inverse(mu, m, s):
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    heights = []
    for p, c in mu.parts:
        lo, hi = _palette(p, residues, m + 1)
        if not lo <= c < hi:
            raise ValueError(
                f"part ({p}, {c}) is not admissible for modulus {m}, residues {residues}"
            )
        heights.append(m * ((p - 1) // i) + lo + (c - lo))
    heights.sort(reverse=True)
    return cell_count_conjugate(Partition(heights))


def part_based_mork_forward(lam):
    conj = cell_count_conjugate(lam)
    out = []
    d = 1
    while lam.part(d) >= d:
        out.append(lam.part(d) + conj.part(d) - 2 * d + 1)
        if lam.part(d) >= d + 1:
            out.append(lam.part(d) + conj.part(d + 1) - 2 * d)
        d += 1
    return Partition(out)


def sum_based_mork_inverse(mu):
    parts = mu.parts
    if len(set(parts)) != len(parts):
        raise ValueError(f"{parts} has repeated parts, so it is not an image")
    n = len(parts)
    if n == 0:
        return Partition()
    dm = (n + 1) // 2
    arm = [0] * (dm + 2)
    leg = [0] * (dm + 2)
    arm[dm] = parts[2 * dm - 1] if n % 2 == 0 else 0
    leg[dm] = parts[2 * dm - 2] - arm[dm] - 1
    for d in range(dm - 1, 0, -1):
        arm[d] = parts[2 * d - 1] - leg[d + 1] - 1
        leg[d] = parts[2 * d - 2] - arm[d] - 1
    for d in range(1, dm + 1):
        if arm[d] < 0 or leg[d] < 0:
            raise ValueError(f"{parts} is not an image: negative hook component")
    for d in range(1, dm):
        if arm[d] <= arm[d + 1] or leg[d] <= leg[d + 1]:
            raise ValueError(f"{parts} is not an image: hook components must nest")
    rows = [arm[d] + d for d in range(1, dm + 1)]
    cols = [leg[d] + d for d in range(1, dm + 1)]
    for r in range(dm + 1, cols[0] + 1):
        rows.append(sum(1 for c in cols if c >= r))
    return Partition(rows)


def generator_expand(groups):
    return tuple(size for size, count in groups for _ in range(count))


def bisect_color_conjugate(lam, m, s):
    """``color_conjugate`` with the marked rows of each height counted by a
    helper of their own."""
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)

    def marked_rows_below(h):
        full, rem = divmod(h, m)
        return full * i + bisect_right(residues, rem)

    parts = []
    below = 0
    for h, part in zip(range(len(lam), 0, -1), reversed(lam.parts)):
        if part > below:
            p = marked_rows_below(h)
            parts += repeat((p, h - m * ((p - 1) // i)), part - below)
            below = part
    return ColoredPartition._trusted(tuple(parts))


def palette_color_conjugate_inverse(mu, m, s):
    """``color_conjugate_inverse`` checking each part through ``_palette``."""
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    heights = []
    for p, c in mu.parts:
        lo, hi = _palette(p, residues, m + 1)
        if not lo <= c < hi:
            raise ValueError(
                f"part ({p}, {c}) is not admissible for modulus {m}, residues {residues}"
            )
        heights.append(m * ((p - 1) // i) + c)
    return Partition._trusted(tuple(heights)).conjugate()


def conjugate_mork_forward(lam):
    """``mork_forward`` reading the column heights off the whole conjugate."""
    rows = lam.parts
    cols = lam.conjugate().parts
    out = []
    for r, row in enumerate(rows):
        if row <= r:
            break
        out.append(row + cols[r] - 2 * r - 1)
        if row > r + 1:
            out.append(row + cols[r + 1] - 2 * r - 2)
    return Partition(out)


def quotient_color_conjugate(lam, m, s):
    """``color_conjugate`` taking each color as ``h - m * ((p - 1) // i)``."""
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    parts = []
    below = 0
    for h, part in zip(range(len(lam), 0, -1), reversed(lam.parts)):
        if part > below:
            full, rest = divmod(h, m)
            p = full * i + bisect_right(residues, rest)
            parts += repeat((p, h - m * ((p - 1) // i)), part - below)
            below = part
    return ColoredPartition._trusted(tuple(parts))


def conjugating_color_conjugate_inverse(mu, m, s):
    """``color_conjugate_inverse`` conjugating a ``Partition`` of the heights."""
    residues = normalize_residue_set(m, s, allow_m=True)
    i = len(residues)
    bounds = (*residues, m + 1)
    heights = []
    for p, c in mu.parts:
        full, k = divmod(p - 1, i)
        if not bounds[k] <= c < bounds[k + 1]:
            raise ValueError(
                f"part ({p}, {c}) is not admissible for modulus {m}, residues {residues}"
            )
        heights.append(m * full + c)
    return Partition._trusted(tuple(heights)).conjugate()


def validating_mork_forward(lam):
    """``mork_forward`` walking to both columns of each diagonal cell, its
    image checked by the ``Partition`` constructor."""
    rows = lam.parts
    out = []
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


def closure_mork_inverse(mu):
    """``mork_inverse`` reading mu through a 1-based closure, one check per
    diagonal cell, its rows checked by the ``Partition`` constructor."""
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
    k = dm
    for r in range(dm + 1, cols[0] + 1):
        while cols[k - 1] < r:
            k -= 1
        rows.append(k)
    return Partition(rows)


def every_height_glaisher_reduce(lam, m):
    """``glaisher_reduce`` extending the bank at every height, by zero parts too."""
    _check_modulus(m)
    kept = []
    banked = []
    row = 0
    below = 0
    for h, part in zip(range(len(lam), 0, -1), reversed(lam.parts)):
        columns = part - below
        below = part
        row += columns % m
        if row:
            kept.append(row)
        banked += repeat(h * m, columns // m)
    kept.reverse()
    return Partition._trusted(tuple(kept)), Partition._trusted(tuple(banked))


def per_row_glaisher_expand(kept, banked, m):
    """``glaisher_expand`` adding m to every row of every banked part, checking
    each part as it comes."""
    _check_modulus(m)
    if not in_class(kept, "F", m):
        raise ValueError(f"{kept.parts} has a gap of {m} or more, so it is not reduced")
    rows = list(kept.parts)
    for p in banked.parts:
        if p % m:
            raise ValueError(f"banked part {p} is not divisible by {m}")
        h = p // m
        rows += repeat(0, h - len(rows))
        for r in range(h):
            rows[r] += m
    return Partition._trusted(tuple(rows))


def per_part_decompose_multiplicity(mu, m):
    """``decompose_multiplicity`` counting each run one part at a time and
    extending both outputs at every run, by zero copies too."""
    _check_modulus(m)
    parts = mu.parts
    low = []
    bulk = []
    run = 0
    for part, following in zip(parts, (*parts[1:], 0)):
        run += 1
        if part != following:
            low += repeat(part, run % m)
            bulk += repeat(part, run - run % m)
            run = 0
    return Partition._trusted(tuple(low)), Partition._trusted(tuple(bulk))


def tuple_run_decompose_multiplicity(mu, m):
    low = []
    bulk = []
    for size, grp in groupby(mu.parts):
        count = len(tuple(grp))
        low.extend([size] * (count % m))
        bulk.extend([size] * (count - count % m))
    return Partition(low), Partition(bulk)


def validating_merge_partitions(a, b):
    return Partition(sorted(a.parts + b.parts, reverse=True))


# --- the replaced enumerators ------------------------------------------------


def descending_sequences(n, maxpart):
    if n == 0:
        yield ()
        return
    for a in range(min(n, maxpart), 0, -1):
        for rest in descending_sequences(n - a, a):
            yield (a,) + rest


def groups_in_class(groups, cls, m):
    """Class membership read off the multiplicity form; cls and m are valid."""
    if cls == "P":
        return True
    if cls == "D":
        return all(count < m for _, count in groups)
    if cls == "F":
        sizes = [size for size, _ in groups] + [0]
        return all(a - b < m for a, b in zip(sizes, sizes[1:]))
    return all(size % m == 0 for size, _ in groups)


def grouped_in_class(lam, cls, m=None):
    """``in_class`` from a tuple built for every run of equal parts."""
    _check_class(cls, m)
    groups = [(size, len(tuple(grp))) for size, grp in groupby(lam.parts)]
    return groups_in_class(groups, cls, m)


def in_class_by_parts(parts, cls, m):
    if cls == "P":
        return True
    if cls == "D":
        return all(len(tuple(grp)) < m for _, grp in groupby(parts))
    if cls == "F":
        padded = parts + (0,)
        return all(a - b < m for a, b in zip(padded, padded[1:]))
    return all(p % m == 0 for p in parts)


def recursive_partitions_of(n, cls="P", m=None):
    for seq in descending_sequences(n, n):
        if in_class_by_parts(seq, cls, m):
            yield Partition(seq)


def expanded_partitions_of(n, cls="P", m=None):
    """``partitions_of`` in classes P and R, each partition expanded from the
    multiplicity form of ``partition_groups``."""
    if cls == "P":
        stream = partition_groups(n)
    else:
        stream = (
            tuple((m * size, count) for size, count in groups)
            for groups in (partition_groups(n // m) if n % m == 0 else ())
        )
    for groups in stream:
        yield Partition._trusted(_expand(groups))


def nested_colored_partitions(n, m, s, top):
    """``colored_partitions`` building each object's pairs by a nested
    generator over the groups and their color tuples."""
    residues, top = _validate_palette(m, s, top)
    for groups in partition_groups(n):
        options = []
        for size, count in groups:
            lo, hi = _palette(size, residues, top)
            palette = range(hi - 1, lo - 1, -1)
            options.append(list(combinations_with_replacement(palette, count)))
        for choice in product(*options):
            yield ColoredPartition._trusted(
                tuple((size, c) for (size, _), colors in zip(groups, choice) for c in colors)
            )


def nested_overpartitions(n):
    """``overpartitions`` zipping each partition's groups with a flag tuple."""
    for groups in partition_groups(n):
        for flags in product((False, True), repeat=len(groups)):
            yield Overpartition._trusted(
                tuple((size, count, flag) for (size, count), flag in zip(groups, flags))
            )


def recursive_colored_partitions(n, m, s, top):
    residues = normalize_residue_set(m, s)
    i = len(residues)
    for lam in recursive_partitions_of(n):
        groups = [(size, len(tuple(grp))) for size, grp in groupby(lam.parts)]
        options = []
        for size, count in groups:
            k = ((size - 1) % i) + 1
            lo = residues[k - 1]
            hi = residues[k] if k < i else top
            palette = range(hi - 1, lo - 1, -1)
            options.append(list(combinations_with_replacement(palette, count)))
        for choice in product(*options):
            parts = []
            for (size, _), colors in zip(groups, choice):
                parts.extend((size, c) for c in colors)
            yield ColoredPartition(parts)


def recursive_overpartitions(n):
    for lam in recursive_partitions_of(n):
        groups = [(size, len(tuple(grp))) for size, grp in groupby(lam.parts)]
        for flags in product((False, True), repeat=len(groups)):
            yield Overpartition((size, count, flag) for (size, count), flag in zip(groups, flags))


def recursive_partitions_with_schmidt_weight(n, m, s, cls="P"):
    residues = set(normalize_residue_set(m, s))
    max_len = m * n
    counted = [False] + [((k - 1) % m) + 1 in residues for k in range(1, max_len + 1)]

    def next_counted(idx):
        while idx <= max_len and not counted[idx]:
            idx += 1
        return idx

    def extend(prefix, weight, maxpart, run_len):
        if weight == n:
            yield Partition(prefix)
        idx = len(prefix) + 1
        if idx > max_len:
            return
        if weight < n and next_counted(idx) > max_len:
            return
        is_counted = counted[idx]
        last = prefix[-1] if prefix else None
        for a in range(maxpart, 0, -1):
            w2 = weight + a if is_counted else weight
            if w2 > n:
                continue
            if cls == "D" and a == last and run_len + 1 >= m:
                continue
            yield from extend(prefix + (a,), w2, a, run_len + 1 if a == last else 1)

    yield from extend((), 0, n, 0)


def _multiplicity_rule(most):
    # Class D: at most `most` copies of a size, and no group that leaves more
    # than the sizes below it hold with `most` copies each.
    def children(rem, last, _):
        for a in range(min(last - 1, rem), 0, -1):
            below = most * a * (a - 1) // 2
            if below + most * a < rem:
                break
            for c in range(min(most, rem // a), 0, -1):
                if rem - a * c > below:
                    break
                yield a, c, None

    return children


def _splits(total, bounds):
    # Every (j_1, ..., j_k) with 0 <= j_g <= bounds[g] summing to total, in
    # lexicographic order.
    if not bounds:
        if total == 0:
            yield ()
        return
    rest = sum(bounds[1:])
    for j in range(max(total - rest, 0), min(bounds[0], total) + 1):
        for tail in _splits(total - j, bounds[1:]):
            yield (j, *tail)


def splits_ak_trivariate_witnesses(q, t1, t2):
    """The ``ak_trivariate`` branch of ``witnesses`` on the recursive ``_splits``."""
    return [
        ColoredPartition._trusted(
            tuple(
                part
                for (a, c), j in zip(groups, ones)
                for part in ((a, 2),) * (c - j) + ((a, 1),) * j
            )
        ).to_text()
        for groups in partitions._length_walk(q, t1 + t2)
        for ones in _splits(t1, [c for _, c in groups])
    ]


def filtered_partitions_of(n, cls="P", m=None):
    """``partitions_of`` as a filter over every partition of n."""
    for groups in partition_groups(n):
        if groups_in_class(groups, cls, m):
            yield Partition(size for size, count in groups for _ in range(count))


def filtered_witness_lists(identity, size, m=None, i=None):
    """The witnesses of every monomial at one size, by the filter ``witnesses``
    replaced: one walk over every object of the size, in its order, each text
    appended to the list of the monomial its statistics land on."""
    out = {}

    def add(key, obj):
        out.setdefault(key, []).append(obj.to_text())

    if identity == "ak_trivariate":
        for mu in colored_partitions(size, 2, (1,), 3):
            add((size, *color_counts(mu, 2)), mu)
    elif identity == "overpartition":
        for mu in overpartitions(size):
            o, length = over_stats(mu)
            add((size, o, length - o), mu)
    elif identity == "cor22":
        for lam in partitions_with_schmidt_weight(size, 2, (1,), "P"):
            if in_class_by_parts(lam.parts, "D", 4):
                add((size, repeated_size_count(lam), residue_column_count(lam, 2, 1)), lam)
    elif identity in ("mork_odd", "mork_even"):
        for lam in filtered_partitions_of(size, "D", 2):
            odd = schmidt_weight(lam, 2, (1,))
            add((odd if identity == "mork_odd" else size - odd, size), lam)
    else:
        cls = "P" if identity == "psi_all" else "D"
        for lam in filtered_partitions_of(size, cls, m):
            add((schmidt_weight(lam, m, tuple(range(1, i + 1))), size), lam)
    return out


def object_counting_enum_terms(identity, qcap):
    acc = Counter()
    for n in range(qcap + 1):
        if identity == "ak_trivariate":
            for mu in recursive_colored_partitions(n, 2, (1,), 3):
                acc[(n, *color_counts(mu, 2))] += 1
        elif identity == "overpartition":
            for mu in recursive_overpartitions(n):
                o, length = over_stats(mu)
                acc[(n, o, length - o)] += 1
        else:
            for lam in recursive_partitions_with_schmidt_weight(n, 2, (1,), "P"):
                if not in_class_by_parts(lam.parts, "D", 4):
                    continue
                repeated = sum(1 for _, grp in groupby(lam.parts) if len(tuple(grp)) > 1)
                acc[(n, repeated, residue_column_count(lam, 2, 1))] += 1
    return acc


def object_counting_s_graded_terms(identity, scap, m=None, i=None):
    acc = Counter()
    for size in range(scap + 1):
        if identity in ("mork_odd", "mork_even"):
            for lam in partitions_of(size, "D", 2):
                odd = schmidt_weight(lam, 2, (1,))
                acc[(odd if identity == "mork_odd" else size - odd, size)] += 1
        else:
            cls = "P" if identity == "psi_all" else "D"
            for lam in partitions_of(size, cls, m):
                acc[(schmidt_weight(lam, m, tuple(range(1, i + 1))), size)] += 1
    return acc


def group_walk_distribution(n, m, s, cls="P"):
    """Schmidt weights of the partitions of n in the class, one partition at a time."""
    residues = normalize_residue_set(m, s, allow_m=True)
    _check_class(cls, m)
    counted = [r + 1 in residues for r in range(m)]
    hits = [[sum(counted[(r + j) % m] for j in range(k)) for k in range(m)] for r in range(m)]
    full = len(residues)
    out = Counter()
    for groups in partition_groups(n):
        if not groups_in_class(groups, cls, m):
            continue
        weight = start = 0
        for size, count in groups:
            weight += size * (count // m * full + hits[start % m][count % m])
            start += count
        out[weight] += 1
    return out


def preorder_cor22_counts(qcap):
    """The cor22 enum terms from a preorder walk over every counted partition."""
    acc = Counter({(0, 0, 0): 1})
    stack = [(0, 0, 0, qcap, 0, True)]
    while stack:
        weight, alt, repeated, last, run, odd = stack.pop()
        for a in range(min(last, qcap - weight) if odd else last, 0, -1):
            if a == last:
                if run == 3:
                    continue
                child_run, child_repeated = run + 1, repeated + (run == 1)
            else:
                child_run, child_repeated = 1, repeated
            if odd:
                child_weight, child_alt = weight + a, alt + a
            else:
                child_weight, child_alt = weight, alt - a
            acc[(child_weight, child_repeated, child_alt)] += 1
            stack.append((child_weight, child_alt, child_repeated, a, child_run, not odd))
    return acc


def group_walk_table(m, s, cls, cap):
    """``schmidt_weight_table`` from one group walk per size."""
    return Counter(
        {
            (w, size): count
            for size in range(cap + 1)
            for w, count in group_walk_distribution(size, m, s, cls).items()
        }
    )


# --- the replaced counting sides ---------------------------------------------


def grouped_counts(n, key_of, weight_of):
    """Statistic vectors of the objects on the partitions of n, one group at a time.

    Each (size, count) group is decorated independently; weight_of(key)
    maps each vector to the number of ways to decorate a group with
    key_of(size, count) == key, and vectors add across groups.  Each
    distinct sorted tuple of group keys is expanded once, from its longest
    expanded prefix.  Vectors are packed into one int in base n + 1.
    """
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
    return out


def color_count_vectors(lo, hi, count, m):
    """The color-count vectors of count equal parts over the palette lo..hi-1."""
    dist = Counter()
    for colors in combinations_with_replacement(range(lo, hi), count):
        vec = [0] * m
        for color in colors:
            vec[color - 1] += 1
        dist[tuple(vec)] += 1
    return dist


def palette_of(size, m, s, top):
    lo = admissible_colors(size, m, s, top)
    return lo.start, lo.stop


def grouped_colored_partition_counts(n, m, s, top):
    """The colored partitions of n by color-count vector, over multiplicity groups."""
    packed = grouped_counts(
        n,
        lambda size, count: (palette_of(size, m, s, top), count),
        lambda key: color_count_vectors(*key[0], key[1], m),
    )
    return Counter({tuple(_digits(v, n + 1, m)): c for v, c in packed.items()})


def grouped_colored_partition_total(n, m, s, top):
    """``colored_partition_total`` over multiplicity groups, one number per group."""
    counts = grouped_counts(
        n,
        lambda size, count: comb(len(range(*palette_of(size, m, s, top))) + count - 1, count),
        lambda w: {(): w},
    )
    return sum(counts.values())


def list_colored_partition_total(n, m, s, top):
    """``colored_partition_total`` as one pass over the part types (size,
    color): ``ways[k]`` counts the colored partitions of ``k`` into the
    types seen so far, and a type of size ``a`` adds ``ways[k - a]`` to
    ``ways[k]`` for ``k`` upward."""
    ways = [1] + [0] * n
    for a in range(1, n + 1):
        lo, hi = palette_of(a, m, s, top)
        for _ in range(lo, hi):
            for k in range(a, n + 1):
                ways[k] += ways[k - a]
    return ways[n]


def grouped_top_color_part_counts(n, m, s):
    """The colored partitions of n by color-count vector and the sizes of
    the parts colored m, over multiplicity groups: a group key carries its
    size when its palette holds m, and its color-m parts sit at entry
    m + size - 1 of the vector."""

    def key_of(size, count):
        lo, hi = palette_of(size, m, s, m + 1)
        return (lo, hi), count, size if hi > m else 0

    def weight_of(key):
        (lo, hi), count, size = key
        dist = color_count_vectors(lo, hi, count, m)
        if not size:
            return dist
        return {vec + (0,) * (size - 1) + (vec[m - 1],): d for vec, d in dist.items()}

    base = n + 1
    out = Counter()
    for v, c in grouped_counts(n, key_of, weight_of).items():
        counts = _digits(v, base, m)
        v //= base**m
        sizes = []
        size = 0
        while v:
            v, e = divmod(v, base)
            size += 1
            sizes += [size] * e
        out[tuple(counts), tuple(reversed(sizes))] = c
    return out


def walk_overpartition_counts(n):
    """The overpartitions of n by (overlined, plain) part count, from a walk
    over the partitions of n counted by (distinct sizes d, length l), each
    carrying C(d, o) overpartitions."""
    shapes = Counter(
        (len(groups), sum(count for _, count in groups)) for groups in partition_groups(n)
    )
    out = Counter()
    for (d, length), count in shapes.items():
        for o in range(d + 1):
            out[o, length - o] += comb(d, o) * count
    return out


def schmidt_weight_statistics(n, m, s, cls="P"):
    """How many partitions of Schmidt weight n have each (rho, repetition profile),
    from a walk that carries the profile tuple at every node."""
    _, counted = _schmidt_params(m, s, cls)
    bounded = cls == "D"
    base = n + 1
    step = [
        (base**r if r < m - 1 else 0) - (base ** (r - 1) if r > 0 else 0) for r in range(m)
    ]
    packed = Counter()
    stack = [(0, 0, n, 0, 0, ())]
    while stack:
        r, weight, last, run, rho, profile = stack.pop()
        if weight == n:
            packed[rho, profile + ((last, run),) if run >= m else profile] += 1
        is_counted = counted[r]
        next_r = r + 1 if r + 1 < m else 0
        delta = step[r]
        for a in range(min(last, n - weight) if is_counted else last, 0, -1):
            if a == last:
                if bounded and run + 1 == m:
                    continue
                child_run, child_profile = run + 1, profile
            else:
                child_run = 1
                child_profile = profile + ((last, run),) if run >= m else profile
            stack.append(
                (
                    next_r,
                    weight + a if is_counted else weight,
                    a,
                    child_run,
                    rho + a * delta,
                    child_profile,
                )
            )
    return Counter(
        {(tuple(_digits(rho, base, m - 1)), profile): c for (rho, profile), c in packed.items()}
    )


def bucket_layout(n, m, s, cls):
    """``(counted, bounded, step, block)``: which 0-based residues count,
    whether runs stop below m, and the key steps of a part at each residue
    and of a block of each size, as ``schmidt_bucket_counts`` packs them."""
    residues, counted = _schmidt_params(m, s, cls)
    base = n + 1
    step = [
        (base**r if r < m - 1 else 0) - (base ** (r - 1) if r > 0 else 0) for r in range(m)
    ]
    i = len(residues)
    block = [base ** (m - 2 + i * a) if i * a <= n else 0 for a in range(n + 1)]
    return counted, cls == "D", step, block


def walk_schmidt_bucket_counts(n, m, s, cls="P"):
    """``schmidt_bucket_counts`` from one walk over every partition of Schmidt
    weight n, each key built on the way down with no subtree shared."""
    counted, bounded, step, block = bucket_layout(n, m, s, cls)
    out = Counter()
    if n == 0:
        out[0] = 1
    stack = [(0, 0, n, 0, 0)]
    while stack:
        r, weight, last, run, key = stack.pop()
        closed = key + run // m * block[last]
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
            if a == last:
                if bounded and run + 1 == m:
                    continue
                child_run, child_key = run + 1, key + a * delta
            else:
                child_run, child_key = 1, closed + a * delta
            if child_weight == n:
                out[child_key + child_run // m * block[a]] += 1
                if not grows:
                    continue
            stack.append((next_r, child_weight, a, child_run, child_key))
    return out


def class_d_buckets_by_weight(top, m, s):
    """``schmidt_bucket_counts(n, m, s, "D")`` for every n <= top, from one
    walk over the class-D partitions of Schmidt weight at most top.  Each
    is keyed on the way down by its weight and rho_1, ..., rho_{m-1}, the
    digits of one int in base top + 1, and the keys are packed per weight
    n in base n + 1."""
    counted = _schmidt_params(m, s, "D")[1]
    base = top + 1
    # Digit j - 1 holds rho_j and digit m - 1 the weight.  A part a at
    # residue r adds a to rho_{r+1} and takes it from rho_r, where rho_0
    # means rho_m, which is not tracked.
    unit = base ** (m - 1)
    step = [
        (base**r if r < m - 1 else 0) - (base ** (r - 1) if r > 0 else 0) + counted[r] * unit
        for r in range(m)
    ]
    found = {0: 1}
    get = found.get
    # (residue of the next index, weight, last part, run of the last part, key)
    stack = [(0, 0, top, 0, 0)]
    while stack:
        r, weight, last, run, key = stack.pop()
        top_part = min(last, top - weight) if counted[r] else last
        next_r, delta, gain = (r + 1) % m, step[r], counted[r]
        for a in range(1, top_part + 1):
            if a == last and run + 1 == m:
                continue
            child = key + a * delta
            found[child] = get(child, 0) + 1
            stack.append((next_r, weight + a * gain, a, run + 1 if a == last else 1, child))
    tables = [Counter() for _ in range(top + 1)]
    for key, count in found.items():
        *rho, weight = _digits(key, base, m)
        tables[weight][sum(e * (weight + 1) ** j for j, e in enumerate(rho))] += count
    return tables


def class_d_buckets_by_columns(top, m, s):
    """``schmidt_bucket_counts(n, m, s, "D")`` for every n <= top, counted
    over the column heights rather than the parts.  A part p repeats
    conj_p - conj_(p+1) times, so a partition is in class D exactly when
    its column heights, read down to 0, never drop by m or more.  A column
    of height h adds the counted rows r <= h to the Schmidt weight and 1
    to rho_j for h = j mod m, j < m.  One pass over the heights h = 1, 2,
    ... keeps the column sets by how far below h their tallest column is,
    0 .. m - 2, and counts each set as it takes its tallest column."""
    residues = set(normalize_residue_set(m, s))
    base = top + 1
    # Digit j - 1 holds rho_j and digit m - 1 the weight.
    unit = base ** (m - 1)
    found = Counter({0: 1})
    open_sets = [Counter({0: 1})] + [Counter() for _ in range(m - 2)]
    marked = 0
    h = 0
    while any(open_sets):
        h += 1
        marked += (h - 1) % m + 1 in residues
        if marked > top:
            break
        step = marked * unit + (base ** (h % m - 1) if h % m else 0)
        # open_sets[g] holds the sets whose tallest column is g + 1 below h,
        # so each may take h; those of open_sets[m - 2] would be m below
        # h + 1 and are dropped.
        taller = Counter()
        for below in open_sets:
            for key, ways in below.items():
                key += step
                while key // unit <= top:
                    taller[key] += ways
                    key += step
        found.update(taller)
        open_sets = [taller] + open_sets[:-1]
    tables = [Counter() for _ in range(top + 1)]
    for key, ways in found.items():
        *rho, weight = _digits(key, base, m)
        tables[weight][sum(e * (weight + 1) ** j for j, e in enumerate(rho))] += ways
    return tables


def full_run_schmidt_bucket_counts(n, m, s, cls="P"):
    """``schmidt_bucket_counts`` with the walk that tracked each run in full
    and added its blocks when the run closed, replaying small-remainder
    subtrees as the walk does."""
    out = Counter()
    if n == 0:
        out[0] = 1
    done = []
    shape = (n, m, *bucket_layout(n, m, s, cls))
    full_run_bucket_walk([(0, 0, n, 0, 0)], done, 5, {}, out, shape)
    out.update(done)
    return out


def full_run_bucket_walk(stack, done, cut, tails, out, shape):
    n, m, counted, bounded, step, block = shape
    while stack:
        r, weight, last, run, key = stack.pop()
        closed = key + run // m * block[last]
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
            if a == last:
                if bounded and run + 1 == m:
                    continue
                child_run, child_key = run + 1, key + a * delta
            else:
                child_run, child_key = 1, closed + a * delta
            if child_weight == n:
                done.append(child_key + child_run // m * block[a])
                if not grows:
                    continue
            elif n - child_weight <= cut:
                state = (next_r, child_weight, a, child_run)
                deltas = tails.get(state)
                if deltas is None:
                    deltas = tails[state] = []
                    full_run_bucket_walk([(*state, 0)], deltas, 0, tails, out, shape)
                out.update(map(add, deltas, repeat(child_key)))
                continue
            stack.append((next_r, child_weight, a, child_run, child_key))


def flat_tail_schmidt_bucket_counts(n, m, s, cls="P"):
    """``schmidt_bucket_counts`` with the walk whose lists each walked
    their state's whole subtree, one ``Counter.update`` per replay."""
    out = Counter()
    if n == 0:
        out[0] = 1
    done = []
    shape = (n, m, *bucket_layout(n, m, s, cls))
    flat_tail_bucket_walk([(0, 0, n, 0, 0)], done, 5, {}, out, shape)
    out.update(done)
    return out


def flat_tail_bucket_walk(stack, done, cut, tails, out, shape):
    # Every prefix with 1..cut weight left takes a list, built by a walk
    # with cut 0, so the lists hold disjoint subtrees.
    n, m, counted, bounded, step, block = shape
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
            elif bounded:
                continue
            else:
                child_run = 0
                child_key += block[a]
            if child_weight == n:
                done.append(child_key)
                if not grows:
                    continue
            elif n - child_weight <= cut:
                state = (next_r, child_weight, a, child_run)
                deltas = tails.get(state)
                if deltas is None:
                    deltas = tails[state] = []
                    flat_tail_bucket_walk([(*state, 0)], deltas, 0, tails, out, shape)
                out.update(map(add, deltas, repeat(child_key)))
                continue
            stack.append((next_r, child_weight, a, child_run, child_key))


def summing_colored_bucket_counts(n, m, s, top):
    """``colored_bucket_counts`` with the merge that added each key to a
    plain dict through ``get`` and copied the dict into a ``Counter``."""
    residues, top = _validate_palette(m, s, top)
    base = n + 1
    parts = []
    for a in range(n, 0, -1):
        lo, hi = _palette(a, residues, top)
        parts += [(a, base ** (color - 1), False) for color in range(lo, min(hi, m))]
    table = _coin_table(n, parts)
    images = _coin_table(
        n,
        [
            (p, base ** (m - 2 + p), False)
            for p in range(1, n + 1)
            if _palette(p, residues, top)[1] > m
        ],
    )
    out = {}
    get = out.get
    for size, nus in enumerate(images):
        rest = table[n - size]
        for v, count in nus.items():
            for u, ways in rest.items():
                out[u + v] = get(u + v, 0) + count * ways
    return Counter(out)


def unpacked(counts, bucket_of):
    """A Counter of packed keys, keyed by the buckets they stand for."""
    out = Counter()
    for key, count in counts.items():
        out[bucket_of(key)] += count
    return out


def color_buckets(n, m, s, top):
    """``colored_bucket_counts`` keyed by (color counts, sizes of the parts colored m)."""

    def bucket(key):
        counts, sizes = split_bucket(key, n, m)
        return (*counts, len(sizes)), sizes

    return unpacked(colored_bucket_counts(n, m, s, top), bucket)


def color_count_table(n, m, s, top):
    """``colored_bucket_counts`` keyed by color counts alone."""
    return unpacked(color_buckets(n, m, s, top), itemgetter(0))


def keyed(table, *args, fields):
    """A private enum table counted in the digits of base cap + 1, cap its
    last argument, keyed by the tuples of its first ``fields`` digits."""
    base = args[-1] + 1
    packed = table(*args, [base**j for j in range(fields)])
    return Counter({tuple(_digits(key, base, fields)): count for key, count in packed.items()})


def overpartition_rows(cap):
    """``_overpartition_table(cap)`` as one row per size, keyed by (overlined, plain) part count."""
    rows = [Counter() for _ in range(cap + 1)]
    for (n, o, p), count in keyed(_overpartition_table, cap, fields=3).items():
        rows[n][o, p] += count
    return rows


def object_counting_buckets(theorem, n, m=None, s=None, extra=()):
    """(report, Schmidt-side buckets, colored-side buckets) from counted objects.

    ``extra`` lists colored-side buckets that each gain one object, as if
    the colored side counted too many there.
    """
    if theorem in ("schmidt", "uncu"):
        cls = "D" if theorem == "schmidt" else "P"
        lhs = sum(1 for _ in partitions_with_schmidt_weight(n, 2, (1,), cls))
        if theorem == "schmidt":
            rhs = sum(1 for _ in partitions_of(n))
        else:
            rhs = sum(1 for _ in colored_partitions(n, 2, (1,), 3))
        params = {"m": 2, "s": [1]}
        lhs, rhs = {"total": lhs}, {"total": rhs}
        pairs = [("total", lhs["total"], rhs["total"])]
    elif theorem == "ak_main":
        residues = normalize_residue_set(m, s, allow_m=False)
        lhs = Counter()
        for lam in partitions_with_schmidt_weight(n, m, residues, "D"):
            lhs[tuple(residue_column_count(lam, m, j) for j in range(1, m))] += 1
        rhs = Counter()
        for mu in colored_partitions(n, m, residues, m):
            rhs[color_counts(mu, m)[: m - 1]] += 1
        rhs.update(extra)
        params = {"m": m, "s": list(residues)}
        pairs = [
            (f"rho={key}", lhs.get(key, 0), rhs.get(key, 0))
            for key in sorted(set(lhs) | set(rhs))
        ]
    else:
        residues = normalize_residue_set(m, s, allow_m=True)
        i = len(residues)
        schmidt_buckets = Counter()
        for lam in partitions_with_schmidt_weight(n, m, residues, "P"):
            rho = tuple(residue_column_count(lam, m, j) for j in range(1, m))
            schmidt_buckets[(rho, repetition_profile(lam, m))] += 1
        rhs = Counter()
        for mu in colored_partitions(n, m, residues, m + 1):
            top_parts = tuple(sorted((p for p, c in mu.parts if c == m), reverse=True))
            rhs[(color_counts(mu, m)[: m - 1], top_parts)] += 1
        rhs.update(extra)
        lhs = Counter()
        preimages = {}
        for (rho, profile), count in schmidt_buckets.items():
            image = []
            for alpha, p in profile:
                image.extend([i * alpha] * (p // m))
            ckey = (rho, tuple(sorted(image, reverse=True)))
            lhs[ckey] += count
            preimages.setdefault(ckey, []).append(profile)
        params = {"m": m, "s": list(residues)}
        pairs = [
            (
                f"rho={ckey[0]} color_{m}_parts={ckey[1]}"
                f" profiles={tuple(sorted(preimages.get(ckey, ())))}",
                lhs.get(ckey, 0),
                rhs.get(ckey, 0),
            )
            for ckey in sorted(set(lhs) | set(rhs))
        ]
    report = VerificationReport(theorem, params, {"n": n}, "pass")
    for label, a, b in pairs:
        if a != b:
            mismatch = {"bucket": label, "lhs": a, "rhs": b}
            report = VerificationReport(theorem, params, {"n": n}, "fail", mismatch)
            break
    return report, lhs, rhs


def tuple_mul_one_minus(terms, caps, mon, coefficient):
    # In place: terms *= (1 - coefficient * x^mon).  The snapshot keeps
    # each shifted term reading the input coefficient, also when mon is
    # constant.
    for key, value in list(terms.items()):
        shifted = tuple(map(add, key, mon))
        if all(map(le, shifted, caps)):
            value = terms.get(shifted, 0) - coefficient * value
            if value:
                terms[shifted] = value
            else:
                terms.pop(shifted, None)


def tuple_div_one_minus(terms, caps, mon):
    # In place: terms /= (1 - x^mon) by out[k] = in[k] + out[k - mon].
    # Taken in ascending order of an exponent that mon raises, the first
    # key met on a chain is its lowest input key; the chain is walked once
    # from there up to the caps, reading every input value before
    # overwriting it.
    if not any(mon):
        raise ValueError("cannot divide by 1 - 1; the monomial must be nonconstant")
    walked = set()
    for key in sorted(terms, key=itemgetter(next(i for i, e in enumerate(mon) if e))):
        if key in walked:
            continue
        acc = 0
        while all(map(le, key, caps)):
            walked.add(key)
            acc += terms.get(key, 0)
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
            key = tuple(map(add, key, mon))


def tuple_bucket_variable(a, b, caps):
    best, best_pairs = 0, None
    for v, cap in enumerate(caps):
        below = [0] * (cap + 1)
        for m2 in b:
            below[m2[v]] += 1
        for e in range(1, cap + 1):
            below[e] += below[e - 1]
        pairs = sum(below[cap - m1[v]] for m1 in a)
        if best_pairs is None or pairs < best_pairs:
            best, best_pairs = v, pairs
    return best


def tuple_bucketed_mul(a, b, caps):
    # b is bucketed by the exponent that leaves the fewest pairs; a pair
    # whose bucket exponent overflows its cap is never formed, and the
    # rest are checked against every cap.
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if not a:
        return out
    v = tuple_bucket_variable(a, b, caps)
    buckets = {}
    for m2, c2 in b.items():
        buckets.setdefault(m2[v], []).append((m2, c2))
    levels = sorted(buckets.items())
    for m1, c1 in a.items():
        room = tuple(c - e for c, e in zip(caps, m1))
        for e, items in levels:
            if e > room[v]:
                break
            for m2, c2 in items:
                if all(map(le, m2, room)):
                    key = tuple(map(add, m1, m2))
                    out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _bucket_field(a, b, caps, layout):
    """The ``(shift, mask, cap)`` of the variable that leaves ``a * b`` the fewest pairs.

    Bucketing ``b`` by variable v, a pair (m1, m2) is visited when
    ``m2[v] <= caps[v] - m1[v]``; the count for each v comes from a
    cumulative histogram of b's exponents.  A ring without variables gets
    ``(0, 0, 0)``: one bucket, every pair visited.
    """
    best, best_pairs = (0, 0, 0), None
    for cap, shift, mask in zip(caps, layout.shifts, layout.masks):
        below = [0] * (cap + 1)
        for m2 in b:
            below[(m2 >> shift) & mask] += 1
        for e in range(1, cap + 1):
            below[e] += below[e - 1]
        pairs = sum(below[cap - ((m1 >> shift) & mask)] for m1 in a)
        if best_pairs is None or pairs < best_pairs:
            best, best_pairs = (shift, mask, cap), pairs
    return best


def bucketed_mul(x, y):
    """The packed terms of ``x * y`` by the bucketed product that every product once took."""
    caps = x.context.caps
    a, b = x._terms, y._terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if not a:
        return out
    layout = _layout(caps)
    off, guard = layout.off, layout.guard
    shift, mask, cap = _bucket_field(a, b, caps, layout)
    buckets = {}
    for m2, c2 in b.items():
        buckets.setdefault((m2 >> shift) & mask, []).append((m2, c2))
    levels = sorted(buckets.items())
    for m1, c1 in a.items():
        room = cap - ((m1 >> shift) & mask)
        m1_off = m1 + off
        for e, items in levels:
            if e > room:
                break
            for m2, c2 in items:
                if not (m1_off + m2) & guard:
                    key = m1 + m2
                    out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def refiltering_add(x, y):
    """The packed terms of ``x + y`` by a copy, a merge and a second pass dropping zeros."""
    out = dict(x._terms)
    for k, v in y._terms.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def sliced_full_sum(J, qcap):
    """The packed terms of the t1^J slice of the whole overpartition sum, moved to t1^0."""
    full = sum_side("overpartition", qcap)
    sliced = {}
    for mon, coeff in full.sorted_terms():
        if mon[1] == J:
            sliced[(mon[0], 0, mon[2])] = coeff
    return Series(full.context, sliced)._terms


def tuple_terms(series):
    return {tuple(mon): c for mon, c in series.sorted_terms()}


def per_key_series_terms(context, terms):
    """The packed terms of ``Series(context, terms)``, checked and packed one key at a time."""
    items = terms.items() if hasattr(terms, "items") else terms
    width, caps = len(context.variables), context.caps
    pack = _layout(caps).pack
    acc = {}
    for mon, coeff in items:
        key = tuple(map(index, mon))
        if len(key) != width:
            raise ValueError(f"monomial {key} has wrong arity for {context.variables}")
        if min(key, default=0) < 0:
            raise ValueError(f"exponents must be nonnegative, got {key}")
        if not all(map(le, key, caps)):
            raise ValueError(f"monomial {key} exceeds caps {caps}")
        coeff = index(coeff)
        if coeff:
            packed = pack(key)
            acc[packed] = acc.get(packed, 0) + coeff
    return {k: v for k, v in acc.items() if v}


def colored_enum_terms(qcap):
    """The ak_trivariate terms of the product's model: 2-colored partitions by color counts."""
    acc = Counter()
    for n in range(qcap + 1):
        for (c1, c2), count in color_count_table(n, 2, (1,), 3).items():
            acc[(n, c1, c2)] += count
    return acc


def grouped_overpartition_counts(n):
    """The overpartitions of n by (overlined, plain) part count, with the
    weight t2^c + t1 t2^(c-1) per group."""
    packed = grouped_counts(n, lambda size, count: count, lambda c: {(0, c): 1, (1, c - 1): 1})
    return Counter({tuple(_digits(v, n + 1, 2)): c for v, c in packed.items()})


def tuple_cor22_counts(qcap):
    """``_cor22_counts`` with the state (odd, weight, repeated sizes, alternating sum)."""
    states = Counter({(1, 0, 0, 0): 1})
    for a in range(qcap, 0, -1):
        for (odd, weight, repeated, alt), count in list(states.items()):
            for c in (1, 2, 3):
                on_odd = (c + odd) // 2
                if weight + a * on_odd > qcap:
                    break
                key = (
                    odd ^ (c & 1),
                    weight + a * on_odd,
                    repeated + (c > 1),
                    alt + a * (2 * on_odd - c),
                )
                states[key] += count
    acc = Counter()
    for (_, weight, repeated, alt), count in states.items():
        acc[weight, repeated, alt] += count
    return acc


def brute_residue_columns(n, m, s, cls):
    """(weight, rho_1, ..., rho_m) of each partition of Schmidt weight n."""
    return Counter(
        (n, *(residue_column_count(lam, m, j) for j in range(1, m + 1)))
        for lam in partitions_with_schmidt_weight(n, m, s, cls)
    )


def group_at_a_time_residue_columns(m, s, cls, qcap):
    """``residue_column_table`` from tuple-keyed states, one group of c copies at a time."""
    residues = normalize_residue_set(m, s, allow_m=True)
    counted = [r + 1 in residues for r in range(m)]
    # (residue of the next index, weight, rho); weight 0 only when empty.
    states = Counter({(0, 0, (0,) * m): 1})
    for a in range(qcap, 0, -1):
        for (r, weight, rho), count in list(states.items()):
            gain = 0
            for c in range(1, m if cls == "D" else qcap * m + 1):
                gain += a * counted[(r + c - 1) % m]
                if weight + gain > qcap:
                    break
                new = list(rho)
                new[(r + c - 1) % m] += a
                if weight:
                    new[(r - 1) % m] -= a
                states[(r + c) % m, weight + gain, tuple(new)] += count
    out = Counter()
    for (_, weight, rho), count in states.items():
        out[(weight, *rho)] += count
    return out


def copying_part_size_pass(states, cap, limit, m, steps, *, block=0, first=()):
    """The part-size pass that copied every packed-int state once per part size.

    For each a = cap .. 1 every old state, keyed by one int whose lowest
    field is the residue mod m of its next index, takes the groups of a
    that ``steps(a, r)`` lists as key steps, up to the first that reaches
    ``limit``; the empty partition, if kept out, takes ``a * g + d`` for
    ``(g, d)`` in ``first``; a nonzero block then divides by
    ``1 - x^(a * block)`` chain by chain.
    """
    for a in range(cap, 0, -1):
        rows = {r: steps(a, r) for r in {key % m for key in states}}
        out = states.copy()
        for key, count in states.items():
            for step in rows[key % m]:
                target = key + step
                if target >= limit:
                    break
                out[target] = out.get(target, 0) + count
        for g, d in first:
            target = a * g + d
            if target >= limit:
                break
            out[target] = out.get(target, 0) + 1
        if block:
            step = a * block
            pending, out = out, {}
            for key in sorted(pending):
                if key not in pending:
                    continue
                acc = 0
                while key < limit:
                    acc += pending.pop(key, 0)
                    out[key] = acc
                    key += step
        states = out
    return states


def copying_sum_over_residue(states, m, seed=()):
    """The copying pass's states summed over their residue field."""
    packed = Counter(dict(seed))
    for key, count in states.items():
        packed[key // m] += count
    return packed


def copying_cor22_counts(qcap):
    """``_cor22_counts`` on the copying pass: state (((weight * base +
    repeated) * base + alt) * 2 + odd), odd saying the next index is odd."""
    base = qcap + 1
    unit = base * base * 2

    def steps(a, odd):
        return [
            a * ((c + odd) // 2 * unit + (2 * ((c + odd) // 2) - c) * 2)
            + (c > 1) * base * 2
            + (odd ^ (c & 1))
            - odd
            for c in (1, 2, 3)
        ]

    states = copying_part_size_pass({1: 1}, qcap, base * unit, 2, steps)
    packed = copying_sum_over_residue(states, 2)
    return Counter(
        {(key // (base * base), key // base % base, key % base): c for key, c in packed.items()}
    )


def copying_schmidt_states(counted, cls, cap, *, sized):
    """The copying pass's states for classes P and D: ((size * (cap + 1) +
    weight) * m + r) when sized, else (weight * m + r)."""
    m = len(counted)
    before = list(accumulate(counted * 2, initial=0))
    unit = (cap + 1) * m if sized else 0

    def steps(a, r):
        most = min(m - 1, cap // a) if sized else m - 1
        return [
            a * (c * unit + (before[r + c] - before[r]) * m) + (r + c) % m - r
            for c in range(1, most + 1)
        ]

    block = m * unit + sum(counted) * m if cls == "P" else 0
    return copying_part_size_pass({0: 1}, cap, (cap + 1) * (unit or m), m, steps, block=block)


def copying_schmidt_weight_columns(m, s, cls, cap):
    """``_schmidt_weight_columns`` on the copying pass, keyed by (weight, size)."""
    counted = [r in s for r in range(1, min(m, cap + 1) + 1)]
    packed = copying_sum_over_residue(
        copying_schmidt_states(counted, cls, cap, sized=True), len(counted)
    )
    return Counter({(key % (cap + 1), key // (cap + 1)): c for key, c in packed.items()})


def copying_schmidt_weight_total(n, m, s, cls):
    """``_schmidt_weight_total`` on the copying pass."""
    states = copying_schmidt_states(_schmidt_params(m, s, cls)[1], cls, n, sized=False)
    return sum(states.get(n * m + r, 0) for r in range(m))


def copying_residue_columns(m, s, cls, qcap):
    """``_residue_columns`` on the copying pass, keyed by (weight, rho_1, ..., rho_m):
    state ((weight * base**m + rho) * m + r), the empty partition kept out."""
    residues, counted = _schmidt_params(m, s, cls)
    base = qcap + 1
    unit = base**m * m
    before = list(accumulate(counted * 2, initial=0))
    power = [base ** ((r - 1) % m) * m for r in range(m)]

    def steps(a, r):
        return [
            a * ((before[r + j] - before[r]) * unit + power[(r + j) % m] - power[r])
            + (r + j) % m
            - r
            for j in range(1, m)
        ]

    first = [
        (before[c] * unit + power[c % m], c % m) for c in range(1, m + 1 if cls == "P" else m)
    ]
    block = len(residues) * unit if cls == "P" else 0
    states = copying_part_size_pass({}, qcap, base * unit, m, steps, block=block, first=first)
    packed = copying_sum_over_residue(states, m, {0: 1})
    return Counter(
        {
            (key // base**m, *(key // base**j % base for j in range(m))): c
            for key, c in packed.items()
        }
    )


def run_group_table(counted, cap, *, sized=False, weight=0, rho=None):
    """``partitions._table`` in class P as runs and blocks: for each size,
    runs of 1 .. m - 1 copies read from the top layer down, residue 0 first,
    then one sweep up the layers adding blocks of m copies.  The empty
    partition, which the sweep does not read, takes its first block as one
    more group."""
    m = len(counted)
    before = list(accumulate(counted * 2, initial=0))
    power = [0] * (m + 1) if rho is None else [rho[-1], *rho[:-1], 0]
    limit = (cap + 1) * m
    cells = [{} for _ in range(limit)]
    order = (0, *range(m - 1, 0, -1))
    reads = [(cells[t * m + r], t * m + r, r) for t in range(cap, -1, -1) for r in order]
    reads.append(({0: 1}, m, m))
    groups = [()] * (m + 1)

    def group(r, c):
        gain = c // m * before[m] + before[r + c % m] - before[r]
        next_r = (r + c) % m
        return (c if sized else gain) * m, next_r - r, weight * gain + power[next_r] - power[r]

    def fill(r):
        row = groups[r] = [group(r, c) for c in range(1, m + 1 if r == m else m)]
        return row

    # A block keeps the residue and rho.
    shift, _, block = group(0, m)
    read_cells = [src for src, _, _ in reads]
    for a in range(cap, 0, -1):
        for src, i, r in compress(reads, read_cells):
            for g, d, e in groups[r] or fill(r):
                j = i + a * g + d
                if j >= limit:
                    break
                dst = cells[j]
                for key, count in src.items():
                    dst[key + a * e] = dst.get(key + a * e, 0) + count
        # t ascending, so a layer adds blocks to the one a block above it
        # after taking its own.
        for src, dst in compress(zip(cells, cells[a * shift :]), cells):
            for key, count in src.items():
                dst[key + a * block] = dst.get(key + a * block, 0) + count
    cells[0][0] = 1
    return cells


def run_group_residue_columns(m, s, qcap, units):
    """``_residue_columns`` in class P on the run groups."""
    weight, *rho = units
    cells = run_group_table(_schmidt_params(m, s, "P")[1], qcap, rho=rho)
    return partitions._layers(cells, m, weight)


def run_group_schmidt_weight_columns(m, s, cap, units):
    """``_schmidt_weight_columns`` in class P on the run groups."""
    weight, size = units
    counted = [r in s for r in range(1, min(m, cap + 1) + 1)]
    cells = run_group_table(counted, cap, sized=True, weight=weight)
    return partitions._layers(cells, len(counted), size)


def run_group_schmidt_weight_total(n, m, s):
    """``_schmidt_weight_total`` in class P on the run groups."""
    cells = run_group_table(_schmidt_params(m, s, "P")[1], n)
    return sum(part.get(0, 0) for part in cells[n * m :])


def sorting_series_mismatch(name_a, a, name_b, b):
    """The first mismatch from every term of both sides, unpacked, sorted and re-read."""
    if a == b:
        return None
    keys = {tuple(mon) for mon, _ in a.sorted_terms()}
    keys |= {tuple(mon) for mon, _ in b.sorted_terms()}
    for key in sorted(keys, key=lambda t: (sum(t), t)):
        ca = a.coefficient(key)
        cb = b.coefficient(key)
        if ca != cb:
            names = a.context.variables
            return {
                "monomial": {v: e for v, e in zip(names, key) if e},
                "lhs": ca,
                "rhs": cb,
                "sides": [name_a, name_b],
            }
    return None


def pairwise_compare_sides(theorem, params, caps, sides):
    # Every pair of sides in order, the first that differs reported.
    for idx_a in range(len(sides)):
        for idx_b in range(idx_a + 1, len(sides)):
            name_a, a = sides[idx_a]
            name_b, b = sides[idx_b]
            mismatch = sorting_series_mismatch(name_a, a, name_b, b)
            if mismatch is not None:
                return VerificationReport(theorem, params, caps, "fail", mismatch)
    return VerificationReport(theorem, params, caps, "pass")


def block_weight_walk(n, m, i, weight, *, most=None, repeated=None):
    """``_weight_walk`` on the block 1..i alone, its counted indices in closed form.

    The state is (0-based residue of the next index, weight so far, repeated
    sizes so far).  Every uncounted part is at most the counted part that
    opens its window of m indices, and every counted part past the first
    counted run at most the uncounted part just before its window; so spare
    is at most (m - i) * need, and need at most i * spare, each plus the
    opening run of its kind.
    """

    def counted(x):
        # Counted 0-based indices below x.
        return x // m * i + min(x % m, i)

    def children(rem, last, state):
        r, w, rep = state
        for a in range(min(last - 1, rem), 0, -1):
            b = a - 1
            if most is not None and most * a * (a + 1) // 2 < rem:
                break
            room = most * a * b // 2 if most is not None else (rem if b else 0)
            for c in range(min(rem // a, most or rem), 0, -1):
                after = rem - a * c
                if after > room:
                    break
                child_w = w + a * (counted(r + c) - counted(r))
                need = weight - child_w
                spare = after - need
                child_rep = rep + (c > 1)
                more = repeated - child_rep if repeated is not None else 0
                child_r = (r + c) % m
                if (
                    need < 0
                    or spare < 0
                    or more < 0
                    or more > b
                    or more * (more + 1) > after
                    or spare > (m - i) * need + (b * (m - child_r) if child_r >= i else 0)
                    or (i < m and need > i * spare + (b * (i - child_r) if child_r < i else 0))
                ):
                    continue
                yield a, c, (child_r, child_w, child_rep)

    return partitions._walk(n, children, (0, 0, 0), empty=weight == 0 and not repeated)


def set_weight(groups, m, s):
    """The weight on the residue set s mod m of a partition's groups, any s."""
    parts = _expand(groups)
    return sum(p for k, p in enumerate(parts) if k % m + 1 in s)


def named_product_side(identity, scap, m=None, i=None):
    """The s-graded branches of ``product_side`` that named each id."""
    ctx = size_graded_context(scap)
    if identity == "mork_odd":
        return poch_infinite_inverse(ctx, ctx.monomial(q=1, s=1), ctx.monomial(q=1, s=2))
    if identity == "mork_even":
        return poch_infinite_inverse(ctx, ctx.monomial(s=1), ctx.monomial(q=1, s=2))
    ratio = ctx.monomial(q=i, s=m)
    last = m if identity == "psi_all" else m - 1
    families = [
        _Family(ctx.monomial(q=min(r, i), s=r), ratio, divide=True) for r in range(1, last + 1)
    ]
    return _poch_product(ctx, families)


def named_enum_side(identity, scap, m=None, i=None):
    """The s-graded branches of ``enum_side`` that named each id."""
    if identity in ("mork_odd", "mork_even"):
        table = schmidt_weight_table(2, (1,), "D", cap=scap)
        if identity == "mork_even":
            table = {(size - weight, size): count for (weight, size), count in table.items()}
        return Series(size_graded_context(scap), table)
    cls = "P" if identity == "psi_all" else "D"
    table = schmidt_weight_table(m, tuple(range(1, i + 1)), cls, cap=scap)
    return Series(size_graded_context(scap), table)


def named_witnesses(identity, q, size, m=None, i=None):
    """The s-graded branches of ``witnesses`` that named each id, on the block walk."""
    if identity in ("mork_odd", "mork_even"):
        stream = block_weight_walk(size, 2, 1, q if identity == "mork_odd" else size - q, most=1)
    else:
        most = None if identity == "psi_all" else m - 1
        stream = block_weight_walk(size, m, i, q, most=most)
    return [",".join(str(a) for a, c in groups for _ in range(c)) for groups in stream]


def named_counting_buckets(theorem, n, m, s):
    """``_counting_buckets`` with one branch per theorem."""
    if theorem in ("schmidt", "uncu"):
        if m not in (None, 2) or (s is not None and normalize_residue_set(2, s) != (1,)):
            raise ValueError("this count is specific to modulus 2, residues {1}")
        cls = "D" if theorem == "schmidt" else "P"
        lhs = _schmidt_weight_total(n, 2, (1,), cls)
        rhs = colored_partition_total(n, 2, (1,), 2 if theorem == "schmidt" else 3)
        return {"m": 2, "s": [1]}, {"total": lhs}, {"total": rhs}, str
    if s is None and theorem in ("ak_main", "franklin_ext"):
        raise ValueError("a residue set is required here")
    if theorem == "ak_main":
        residues = normalize_residue_set(m, s, allow_m=False)
        lhs = schmidt_bucket_counts(n, m, residues, "D")
        rhs = colored_bucket_counts(n, m, residues, m)
        return {"m": m, "s": list(residues)}, lhs, rhs, lambda key: split_bucket(key, n, m)[0]
    if theorem == "franklin_ext":
        residues = normalize_residue_set(m, s, allow_m=True)
        lhs = schmidt_bucket_counts(n, m, residues, "P")
        rhs = colored_bucket_counts(n, m, residues, m + 1)
        return {"m": m, "s": list(residues)}, lhs, rhs, lambda key: split_bucket(key, n, m)
    raise ValueError(f"unknown counting theorem {theorem!r}")


# --- exact equality ----------------------------------------------------------


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_enum_sides_match_object_counting(identity):
    # Terms of q-degree n come only from objects of size (or weight) n, so
    # one count up to the largest cap gives the oracle at every smaller cap.
    terms = object_counting_enum_terms(identity, 18)
    for qcap in range(19):
        want = Series(trivariate_context(qcap), {k: v for k, v in terms.items() if k[0] <= qcap})
        assert enum_side(identity, qcap=qcap) == want, qcap


def test_partitions_of_matches_recursive_walk():
    # Class P steps one list of parts by the successor rule of
    # partition_groups, and class R scales that stream by m; both must
    # also give the groups of partition_groups, expanded.
    for n in range(23):
        got = list(partitions_of(n))
        assert got == list(recursive_partitions_of(n)) == list(expanded_partitions_of(n)), n
        for m in (2, 3, 4):
            for cls in ("D", "F", "R"):
                assert list(partitions_of(n, cls, m)) == list(
                    recursive_partitions_of(n, cls, m)
                ), (n, cls, m)
            assert list(partitions_of(n, "R", m)) == list(expanded_partitions_of(n, "R", m))


def test_class_d_stream_matches_the_multiplicity_rule():
    # Class D streams on the weight walk with every index counted; the
    # rule of its own that it replaced must give the same groups in order.
    for m, top in [(m, 20) for m in range(2, 7)] + [(10**6, 12)]:
        for n in range(top + 1):
            want = [_expand(groups) for groups in partitions._walk(n, _multiplicity_rule(m - 1))]
            assert [lam.parts for lam in partitions_of(n, "D", m)] == want, (m, n)


def test_weight_walk_matches_the_block_walk():
    # Blocks 1..i with and without a multiplicity bound, the cor22 witness
    # walk, and class D with every index counted, at a huge m too.
    for m in (2, 3, 4, 5):
        for i in range(1, m + 1):
            for most in (None, m - 1):
                for n in range(15):
                    for w in range(n + 1):
                        got = list(_weight_walk(n, m, range(1, i + 1), w, most=most))
                        assert got == list(block_weight_walk(n, m, i, w, most=most)), (m, i, n, w)
    for q in range(13):
        for t1 in range(q + 1):
            for t2 in range(q + 1):
                got = list(_weight_walk(2 * q - t2, 2, (1,), q, most=3, repeated=t1))
                want = list(block_weight_walk(2 * q - t2, 2, 1, q, most=3, repeated=t1))
                assert got == want, (q, t1, t2)
    for m in (*range(2, 7), 10**6):
        for n in range(19):
            got = list(_weight_walk(n, m, range(1, m + 1), n, most=m - 1))
            assert got == list(block_weight_walk(n, m, m, n, most=m - 1)), (m, n)


def test_weight_walk_matches_brute_force_on_every_residue_set():
    # Sets without 1 and with gaps too: the walk lists, in order, the
    # partitions of n with each weight and at most `most` copies of a size.
    for m in (2, 3, 4):
        for most in (None, m - 1):
            kept = [
                [g for g in partition_groups(n) if most is None or all(c <= most for _, c in g)]
                for n in range(12)
            ]
            for s in every_residue_set(m):
                for n, groups in enumerate(kept):
                    for w in range(n + 1):
                        want = [g for g in groups if set_weight(g, m, s) == w]
                        assert list(_weight_walk(n, m, s, w, most=most)) == want, (m, s, n, w)


def test_ak_trivariate_witnesses_match_the_recursive_splits():
    for q in range(15):
        for t1 in range(q + 1):
            for t2 in range(q + 1 - t1):
                want = splits_ak_trivariate_witnesses(q, t1, t2)
                assert witnesses("ak_trivariate", {"q": q, "t1": t1, "t2": t2}) == want, (q, t1, t2)


def test_class_streams_match_the_filter():
    for n in range(23):
        for cls in ("D", "F", "R"):
            for m in (2, 3, 4):
                assert list(partitions_of(n, cls, m)) == list(
                    filtered_partitions_of(n, cls, m)
                ), (n, cls, m)


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_witnesses_match_the_filter(identity):
    # Every witness monomial of size q has t1, t2 <= q; the monomials around
    # them must have none.
    for q in range(15):
        want = filtered_witness_lists(identity, q)
        assert all(t1 <= q and t2 <= q for _, t1, t2 in want), q
        for t1 in range(q + 2):
            for t2 in range(q + 2):
                got = witnesses(identity, {"q": q, "t1": t1, "t2": t2})
                assert got == want.get((q, t1, t2), []), (q, t1, t2)


@pytest.mark.parametrize("identity", ["mork_odd", "mork_even", "psi_all", "psi_dm"])
def test_s_graded_witnesses_match_the_filter(identity):
    if identity.startswith("mork"):
        params = [(None, None)]
    else:
        params = [(m, i) for m in (2, 3, 4) for i in range(1, m + 1)]
    for m, i in params:
        for s in range(15):
            want = filtered_witness_lists(identity, s, m, i)
            for q in range(s + 2):
                got = witnesses(identity, {"q": q, "s": s}, m=m, i=i)
                assert got == want.get((q, s), []), (m, i, s, q)


PALETTES = [(2, (1,), 3), (2, (1,), 2), (3, (1, 2), 3), (3, (1, 3), 4), (3, (1, 2, 3), 4)]


@pytest.mark.parametrize("m, s, top", PALETTES)
def test_colored_partitions_match_recursive_walk(m, s, top):
    for n in range(15):
        got = list(colored_partitions(n, m, s, top))
        assert got == list(recursive_colored_partitions(n, m, s, top)), n
        # The stream builds through the trusted constructor.
        assert all(ColoredPartition(mu.parts) == mu for mu in got), n


@pytest.mark.parametrize("m, s, top", PALETTES)
def test_colored_partition_texts_match_each_objects_text(m, s, top):
    # enumerate --class cs writes these texts, formatted run by run.
    for n in range(13):
        want = [mu.to_text() for mu in recursive_colored_partitions(n, m, s, top)]
        assert list(_colored_partition_texts(n, m, s, top)) == want, n


def test_overpartitions_match_recursive_walk():
    for n in range(17):
        got = list(overpartitions(n))
        assert got == list(recursive_overpartitions(n)) == list(nested_overpartitions(n)), n
        # The stream builds through the trusted constructor.
        assert all(Overpartition(mu.entries) == mu for mu in got), n


def same_stream(got, want):
    """Whether two streams give equal objects in the same order, compared
    one pair at a time so that neither is held whole."""
    return all(starmap(eq, zip_longest(got, want)))


EVERY_PALETTE = [
    (m, s, top)
    for m in (2, 3, 4)
    for s in residue_sets(m, True)
    for top in (m, m + 1)
    if s[-1] < top
]


@pytest.mark.parametrize(
    "m, s, top",
    EVERY_PALETTE,
    ids=[f"m{m}-s{''.join(map(str, s))}-top{top}" for m, s, top in EVERY_PALETTE],
)
def test_colored_partitions_match_nested_generator(m, s, top):
    # 813,050 objects at (4, {1}, 5) over n <= 16, so the streams are
    # compared pair by pair.
    for n in range(17):
        assert same_stream(
            colored_partitions(n, m, s, top), nested_colored_partitions(n, m, s, top)
        ), n


@pytest.mark.parametrize("m, s, top", PALETTES)
def test_colored_partition_counts_match_objects(m, s, top):
    for n in range(13):
        want = Counter(color_counts(mu, m) for mu in recursive_colored_partitions(n, m, s, top))
        assert color_count_table(n, m, s, top) == want, n


def test_overpartition_counts_match_objects():
    rows = overpartition_rows(14)
    for n in range(15):
        want = Counter()
        for mu in recursive_overpartitions(n):
            o, length = over_stats(mu)
            want[(o, length - o)] += 1
        assert rows[n] == want, n


@pytest.mark.parametrize("m", [2, 3, 4])
def test_partitions_with_schmidt_weight_matches_recursive_walk(m):
    for s in residue_sets(m, True):
        for cls in ("P", "D"):
            for n in range(10):
                assert list(partitions_with_schmidt_weight(n, m, s, cls)) == list(
                    recursive_partitions_with_schmidt_weight(n, m, s, cls)
                ), (s, cls, n)
    if m == 2:
        # The deepest stacks the objects benchmark deck streams.
        for cls in ("P", "D"):
            for n in range(10, 15):
                assert list(partitions_with_schmidt_weight(n, 2, (1,), cls)) == list(
                    recursive_partitions_with_schmidt_weight(n, 2, (1,), cls)
                ), (cls, n)



@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition"])
def test_hook_sums_match_forward_summation(identity):
    for qcap in range(17):
        want = forward_hook_sum(qcap, identity == "ak_trivariate")
        assert sum_side(identity, qcap) == want, qcap


POCH_CASES = [
    # (context, base, ratio); bases free of q as in mork_even, and unequal caps.
    (SeriesContext(("q",), (12,)), {"q": 1}, {"q": 1}),
    (SeriesContext(("q", "s"), (14, 9)), {"s": 1}, {"q": 1, "s": 2}),
    (SeriesContext(("q", "s"), (14, 9)), {"q": 2, "s": 1}, {"q": 1}),
    (SeriesContext(("q", "t1", "t2"), (10, 3, 4)), {"q": 1, "t1": 1}, {"q": 1}),
    (SeriesContext(("q", "t1", "t2"), (10, 3, 4)), {"t2": 1}, {"t1": 1}),
    (SeriesContext(("q", "s", "t"), (11, 6, 2)), {"q": 1, "s": 1}, {"q": 2, "t": 1}),
]


@pytest.mark.parametrize("ctx, base, ratio", POCH_CASES)
def test_pochhammer_builders_match_whole_series_products(ctx, base, ratio):
    z, g = ctx.monomial(**base), ctx.monomial(**ratio)
    for coefficient in (1, -1, 2):
        for n in (0, 1, 3, 20):
            want = by_products(ctx, family_factors(ctx, z, g, n, coefficient))
            assert poch_finite(ctx, z, g, n, coefficient) == want
        want = by_products(ctx, family_factors(ctx, z, g, None, coefficient))
        assert poch_infinite(ctx, z, g, coefficient) == want
    want = by_products(ctx, family_factors(ctx, z, g, divide=True))
    assert poch_infinite_inverse(ctx, z, g) == want
    # A constant ratio repeats one factor n times.
    const = ctx.monomial()
    want = by_products(ctx, family_factors(ctx, z, const, 4, 3))
    assert poch_finite(ctx, z, const, 4, 3) == want
    # A constant ratio with a base above the caps repeats a factor of 1.
    above = ctx.monomial(**{v: c + 1 for v, c in zip(ctx.variables, ctx.caps)})
    want = by_products(ctx, family_factors(ctx, above, const, 4, 3))
    assert poch_finite(ctx, above, const, 4, 3) == want == ctx.one()
    # Multiply and divide families together, with coefficients -1, 1 and 2
    # and a finite family with a constant ratio: the builder's order
    # (largest total degree first), generation order and its reverse give
    # one series.
    families = [
        _Family(z, g, divide=True),
        _Family(g, z * g, coefficient=-1),
        _Family(z * g, const, 3, coefficient=2),
        _Family(z, g, 5),
        _Family(g, g, divide=True),
    ]
    factors = [f for family in families for f in family_factors(ctx, *family)]
    pack = _layout(ctx.caps).pack
    descending = sorted(factors, key=lambda f: (sum(f[0]), pack(f[0])), reverse=True)
    want = by_products(ctx, factors)
    assert len(want) > 1
    assert _poch_product(ctx, families) == by_steps(ctx, descending) == want
    assert by_steps(ctx, factors) == by_steps(ctx, factors[::-1]) == want


FACTOR_KINDS = ("any", "g-outside", "g-constant", "z-outside", "n-zero")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_factor_steps_match_monomial_steps(data):
    # The factors are packed once and stepped by g's key; the path they
    # replaced multiplied Monomials and checked each against the caps, as
    # family_factors does.
    width = data.draw(st.integers(1, 3))
    caps = tuple(data.draw(st.lists(st.integers(0, 6), min_size=width, max_size=width)))
    ctx = SeriesContext(("q", "t1", "t2")[:width], caps)
    kind = data.draw(st.sampled_from(FACTOR_KINDS))

    def vector(outside=False):
        exps = data.draw(st.tuples(*(st.integers(0, cap + 2) for cap in caps)))
        if outside:
            at = data.draw(st.integers(0, width - 1))
            exps = exps[:at] + (caps[at] + data.draw(st.integers(1, 9)),) + exps[at + 1 :]
        return Monomial(exps)

    z = vector(kind == "z-outside")
    g = Monomial([0] * width) if kind == "g-constant" else vector(kind == "g-outside")
    n = 0 if kind == "n-zero" else data.draw(st.none() | st.integers(1, 8))
    if n is None and g.is_constant():
        # An infinite family needs a nonconstant ratio.
        n = data.draw(st.integers(1, 8))
    pack = _layout(caps).pack
    want = [(sum(mon), pack(mon)) for mon, _, _ in family_factors(ctx, z, g, n)]
    assert _factor_keys(ctx, z, g, n) == want


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_product_sides_match_whole_series_products(identity):
    for qcap in (0, 1, 5, 12):
        want = product_side_by_families(by_products, identity, qcap=qcap)
        assert product_side(identity, qcap=qcap) == want, qcap


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_product_sides_match_the_running_series_product(identity):
    for qcap in range(41):
        got = product_side(identity, qcap=qcap)
        assert got == running_q_graded_product(identity, qcap), qcap
        assert_no_stored_zero(got)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ak_trivariate", "overpartition", "cor22"]), st.integers(0, 30))
def test_q_graded_product_sides_count_pairs_of_partitions(identity, qcap):
    assert product_side(identity, qcap=qcap) == counted_q_graded_product(identity, qcap)


@pytest.mark.parametrize("identity", ["mork_odd", "mork_even"])
def test_interleave_product_sides_match_whole_series_products(identity):
    for scap in (0, 1, 7, 20):
        want = product_side_by_families(by_products, identity, scap=scap)
        assert product_side(identity, scap=scap) == want, scap


@pytest.mark.parametrize("identity", ["psi_all", "psi_dm"])
def test_residue_product_sides_match_whole_series_products(identity):
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            want = product_side_by_families(by_products, identity, scap=18, m=m, i=i)
            assert product_side(identity, scap=18, m=m, i=i) == want, (m, i)


@pytest.mark.parametrize("identity", identities.SERIES_IDENTITIES)
def test_product_sides_match_per_family_steps_at_benchmark_caps(identity):
    # The path the one running series replaced: each family built by one
    # step per factor in generation order, and one general product per
    # family.  The caps are those of the series_sides benchmark.
    entry = identities.IDENTITY_TABLE[identity]
    name = identities.RING_CAPS[entry.ring]
    # A row takes (m, i) exactly when its family fixes nothing.
    params = {"m": 3, "i": 2} if entry.family and not entry.family.fixed else {}
    for cap in {"qcap": (16, 20, 24), "scap": (30, 35, 40)}[name]:
        caps = {name: cap, **params}
        want = product_side_by_families(by_steps, identity, **caps)
        assert product_side(identity, **caps) == want, caps


def test_ln_series_matches_whole_series_recurrence():
    for qcap in (0, 1, 2, 16):
        for n in range(8):
            assert ln_series(n, qcap) == ln_series_by_products(n, qcap), (n, qcap)


def test_t1_slice_closed_form_matches_whole_series_products():
    for J in range(4):
        for qcap in (0, 2, 9, 16):
            ctx = trivariate_context(qcap)
            assert _t1_slice_closed_form(ctx, J) == t1_closed_form_by_products(ctx, J), (J, qcap)


def test_ln_series_matches_the_series_op_recurrence():
    for qcap in range(25):
        for n in range(10):
            got = ln_series(n, qcap)
            assert got == series_op_ln_series(n, qcap), (n, qcap)
            assert_no_stored_zero(got)


def test_cauchy_sum_matches_the_series_op_sum():
    # At the default cap C(N, 2), where the whole sum is in cap, and at
    # caps 0, 1 and N, which cut it.
    for N in range(17):
        for qcap in sorted({N * (N - 1) // 2, 0, 1, N}):
            ctx = SeriesContext(("q", "z"), (qcap, N))
            got = identities._cauchy_sum(ctx, N)
            assert got == series_op_cauchy_sum(ctx, N), (N, qcap)
            assert_no_stored_zero(got)


def test_t1_slice_closed_form_matches_the_series_op_form():
    for qcap in range(31):
        ctx = trivariate_context(qcap)
        for J in range(7):
            got = _t1_slice_closed_form(ctx, J)
            assert got == series_op_t1_slice_closed_form(ctx, J), (J, qcap)
            assert_no_stored_zero(got)


def test_negative_hook_exponent_raises(monkeypatch):
    # An explicit raise, not an assert, so the check survives python -O.
    monkeypatch.setattr(identities, "_hook_exponent", lambda n, j, k, with_t1: -1)
    with pytest.raises(ArithmeticError, match="negative exponent"):
        sum_side("overpartition", 4)


def test_hook_exponent_past_the_cap_raises(monkeypatch):
    # An explicit raise, not an assert: with every exponent 0 at cap 0, the
    # term n = k = 1 would carry t2^1 into a packed key whose t2 field
    # holds only 0.
    monkeypatch.setattr(identities, "_hook_exponent", lambda n, j, k, with_t1: 0)
    with pytest.raises(ArithmeticError, match="exponent above 0 at n=1, j=0, k=1"):
        sum_side("ak_trivariate", 0)


@pytest.mark.parametrize("with_t1", [True, False])
def test_hook_sums_match_series_steps(with_t1):
    for qcap in range(25):
        got = identities._hook_sum(qcap, range(qcap + 1), with_t1_denominator=with_t1)
        assert got == series_step_hook_sum(qcap, range(qcap + 1), with_t1_denominator=with_t1)
        assert_no_stored_zero(got)


def test_t1_slices_match_series_steps():
    for qcap in range(25):
        for J in range(5):
            got = identities._hook_sum(qcap, range(J, J + 1), with_t1_denominator=False)
            want = series_step_hook_sum(qcap, range(J, J + 1), with_t1_denominator=False)
            assert got == want, (qcap, J)


def test_hook_sums_step_only_in_cap_keys(monkeypatch):
    # _div_one_minus takes packed in-cap keys, as its terms and as its
    # step: the Horner steps of q^r with r past the cap are skipped, not
    # divided by, and every level is cut at the cap before it is added.
    # (The step would drop an out-of-cap term unseen.)  The same holds for
    # the t1 slice's closed form and for the shifted states of ln_series.
    steps, out_of_cap = [], []

    def checked(terms, layout, step):
        steps.append(step)
        out_of_cap.extend(key for key in (step, *terms) if (key + layout.off) & layout.guard)
        return _div_one_minus(terms, layout, step)

    monkeypatch.setattr(identities, "_div_one_minus", checked)
    for qcap in range(13):
        for identity in ("ak_trivariate", "overpartition"):
            sum_side(identity, qcap)
        # J = 0 runs the closed form's Horner loop at caps 0 and 1 too.
        for J in (0, 2):
            t1_slice_check(J, qcap)
        ln_series(6, qcap)
    assert steps and out_of_cap == []


# The (m, i) of the psi sides in the enum_counts deck.
DECK_MODULI = ((2, 1), (3, 2), (4, 2))
ENUM_DECK_PARAMS = [
    ("mork_odd", None, None),
    ("mork_even", None, None),
    *((identity, m, i) for identity in ("psi_all", "psi_dm") for m, i in DECK_MODULI),
]


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_enum_sides_match_tuple_tables(identity):
    for qcap in range(23):
        got = enum_side(identity, qcap=qcap)
        assert got == tuple_table_enum_side(identity, qcap=qcap), qcap
        assert_no_stored_zero(got)


@pytest.mark.parametrize(
    "identity, m, i", ENUM_DECK_PARAMS, ids=[f"{x}-m{m}-i{i}" for x, m, i in ENUM_DECK_PARAMS]
)
def test_s_graded_enum_sides_match_tuple_tables(identity, m, i):
    # Every cap up to 22 and the enum_counts deck's caps 26 and 30.
    for scap in [*range(23), 26, 30]:
        got = enum_side(identity, scap=scap, m=m, i=i)
        assert got == tuple_table_enum_side(identity, scap=scap, m=m, i=i), scap
        assert_no_stored_zero(got)


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_enum_sides_match_the_column_tables(identity):
    # The tables count in the ring's bit fields and hand the series one dict;
    # the tables they replaced handed over one list per field.
    for qcap in range(31):
        assert enum_side(identity, qcap=qcap) == column_enum_side(identity, qcap=qcap), qcap


# Every s-graded row at m = 2..5 with every block.
S_GRADED_ROWS = [("mork_odd", None, None), ("mork_even", None, None)] + [
    (identity, m, i)
    for identity in ("psi_all", "psi_dm")
    for m in range(2, 6)
    for i in range(1, m + 1)
]


def test_s_graded_enum_sides_match_the_column_tables():
    for identity, m, i in S_GRADED_ROWS:
        for scap in range(26):
            got = enum_side(identity, scap=scap, m=m, i=i)
            assert got == column_enum_side(identity, scap=scap, m=m, i=i), (identity, m, i, scap)


@pytest.mark.parametrize("identity", ["mork_odd", "mork_even", "psi_all", "psi_dm"])
def test_s_graded_enum_sides_match_object_counting(identity):
    # Terms of q-degree n come only from partitions of n, so one count at
    # the largest cap gives the oracle at every smaller cap.
    params = [(None, None)] if identity.startswith("mork") else [
        (m, i) for m in (2, 3, 4) for i in range(1, m + 1)
    ]
    for m, i in params:
        terms = object_counting_s_graded_terms(identity, 18, m, i)
        for scap in range(19):
            want = Series(
                size_graded_context(scap), {k: v for k, v in terms.items() if k[1] <= scap}
            )
            assert enum_side(identity, scap=scap, m=m, i=i) == want, (m, i, scap)


COUNTING_CASES = [("schmidt", None, None), ("uncu", None, None)] + [
    (theorem, m, s)
    for theorem, include_m in (("ak_main", False), ("franklin_ext", True))
    for m in (2, 3, 4)
    for s in residue_sets(m, include_m)
]


@pytest.mark.parametrize(
    "theorem, m, s",
    COUNTING_CASES,
    ids=[f"{t}-m{m}-s{','.join(map(str, s))}" if m else t for t, m, s in COUNTING_CASES],
)
def test_counting_theorems_match_object_counting(theorem, m, s):
    for n in range(15):
        report, lhs, rhs = object_counting_buckets(theorem, n, m, s)
        _, got_lhs, got_rhs, bucket_of = identities._counting_buckets(theorem, n, m, s)
        assert (unpacked(got_lhs, bucket_of), unpacked(got_rhs, bucket_of)) == (lhs, rhs), n
        assert verify_counting(theorem, n=n, m=m, s=s) == report, n


def _bump(monkeypatch, n, m, buckets):
    # One colored bucket off by one for each (rho or color counts, sizes of
    # the parts colored m) in buckets, packed as colored_bucket_counts
    # packs them.
    original = identities.colored_bucket_counts
    base = n + 1
    keys = [
        sum(e * base**k for k, e in enumerate(counts))
        + sum(base ** (m - 2 + p) for p in sizes)
        for counts, sizes in buckets
    ]

    def bumped(*args):
        counts = original(*args)
        for key in keys:
            counts[key] += 1
        return counts

    monkeypatch.setattr(identities, "colored_bucket_counts", bumped)


def test_failing_counting_reports_keep_their_evidence(monkeypatch):
    # Expected strings are those of the object-counting verifier with one
    # extra colored partition in the same bucket: 5_1,2_2,1_1 for
    # franklin_ext and 4_2,1_1,1_1 for ak_main.
    _bump(monkeypatch, 8, 2, [((2,), (2,))])
    report = verify_counting("franklin_ext", n=8, m=2, s=(1,))
    assert report.evidence_text() == (
        "bucket rho=(2,) color_2_parts=(2,) profiles=(((2, 2),), ((2, 3),)): 3 != 4"
    )
    assert report.to_json_text() == (
        '{"caps":{"n":"8"},"mismatch":{"bucket":"rho=(2,) color_2_parts=(2,)'
        ' profiles=(((2, 2),), ((2, 3),))","lhs":"3","rhs":"4"},'
        '"params":{"m":"2","s":["1"]},"status":"fail","theorem":"franklin_ext"}'
    )
    monkeypatch.undo()
    _bump(monkeypatch, 6, 3, [((2, 1), ())])
    report = verify_counting("ak_main", n=6, m=3, s=(1, 2))
    assert report.evidence_text() == "bucket rho=(2, 1): 2 != 3"
    assert report.to_json_text() == (
        '{"caps":{"n":"6"},"mismatch":{"bucket":"rho=(2, 1)","lhs":"2","rhs":"3"},'
        '"params":{"m":"3","s":["1","2"]},"status":"fail","theorem":"ak_main"}'
    )


def test_counting_reports_read_stored_zero_counts_as_missing(monkeypatch):
    # The sides compare as dicts first, so a key stored with count 0 on
    # one side alone makes them differ; read as Counters they still match.
    # Key 0, the first bucket of all, holds no partition of 8.
    original = identities.schmidt_bucket_counts

    def padded(*args):
        counts = original(*args)
        assert 0 not in counts
        counts[0] = 0
        return counts

    monkeypatch.setattr(identities, "schmidt_bucket_counts", padded)
    for theorem, m, s in [("franklin_ext", 2, (1,)), ("ak_main", 3, (1, 2))]:
        report = verify_counting(theorem, n=8, m=m, s=s)
        assert report == VerificationReport(theorem, {"m": m, "s": list(s)}, {"n": 8}, "pass")
    # A real mismatch is labelled as it is without the zero.
    _bump(monkeypatch, 8, 2, [((2,), (2,))])
    report = verify_counting("franklin_ext", n=8, m=2, s=(1,))
    assert report.evidence_text() == (
        "bucket rho=(2,) color_2_parts=(2,) profiles=(((2, 2),), ((2, 3),)): 3 != 4"
    )


@pytest.mark.parametrize("s, profile", [((1,), "((4, 4),)"), ((1, 3), "((2, 4),)")])
def test_failing_report_names_the_first_bucket_in_bucket_order(monkeypatch, s, profile):
    # Two colored buckets off by one whose packed keys order the other way
    # round: rho = (0, 1) comes first as a bucket, but its color-3 part of
    # size 4 sits on a higher digit than everything the other key holds.
    first, second = ((0, 1), (4,)), ((1, 0), (2,))
    n, m = 9, 3
    _, _, _, bucket_of = identities._counting_buckets("franklin_ext", n, m, s)
    _bump(monkeypatch, n, m, [first, second])
    _, _, rhs, _ = identities._counting_buckets("franklin_ext", n, m, s)
    keys = {bucket_of(key): key for key in rhs}
    assert keys[second] < keys[first]
    want, _, _ = object_counting_buckets("franklin_ext", n, m, s, extra=[first, second])
    report = verify_counting("franklin_ext", n=n, m=m, s=s)
    assert report.evidence_text() == want.evidence_text()
    assert report.to_json_text() == want.to_json_text()
    assert report.evidence_text() == (
        f"bucket rho=(0, 1) color_3_parts=(4,) profiles=({profile},): 1 != 2"
    )


TABLE_CASES = [(m, s, cls) for m in (2, 3, 4) for s in residue_sets(m, True) for cls in "PD"]


@pytest.mark.parametrize(
    "m, s, cls", TABLE_CASES, ids=[f"m{m}-s{','.join(map(str, s))}-{c}" for m, s, c in TABLE_CASES]
)
def test_schmidt_weight_table_matches_group_walk(m, s, cls):
    # One walk up to the largest cap gives every smaller cap.
    walks = [group_walk_distribution(size, m, s, cls) for size in range(31)]
    for scap in range(31):
        want = Counter(
            {(w, size): count for size in range(scap + 1) for w, count in walks[size].items()}
        )
        assert schmidt_weight_table(m, s, cls, cap=scap) == want, scap


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_schmidt_weight_table_matches_group_walk_at_any_caps(data):
    m = data.draw(st.integers(2, 5))
    extra = data.draw(st.sets(st.integers(2, m)))
    cls = data.draw(st.sampled_from("PD"))
    cap = data.draw(st.integers(0, 24))
    s = (1, *sorted(extra))
    assert schmidt_weight_table(m, s, cls, cap=cap) == group_walk_table(m, s, cls, cap)


def test_cor22_counts_match_preorder_walk():
    for qcap in range(23):
        assert keyed(_cor22_counts, qcap, fields=3) == preorder_cor22_counts(qcap), qcap


@pytest.mark.parametrize("m", [2, 3, 4])
def test_residue_columns_match_the_copying_pass(m):
    cases = [(s, cls, qcap) for s in residue_sets(m, True) for cls in "PD" for qcap in range(13)]
    if m == 2:
        cases += [((1,), "P", qcap) for qcap in range(13, 23)]
    for s, cls, qcap in cases:
        got = keyed(_residue_columns, m, s, cls, qcap, fields=m + 1)
        assert got == copying_residue_columns(m, s, cls, qcap), (s, cls, qcap)


def test_cor22_counts_match_the_copying_pass():
    for qcap in range(23):
        assert keyed(_cor22_counts, qcap, fields=3) == copying_cor22_counts(qcap), qcap


@pytest.mark.parametrize("m", [2, 3, 4, 5, 10**4])
def test_schmidt_weight_columns_match_the_copying_pass(m):
    if m == 10**4:
        cases = [((1,), cls, 6) for cls in "PD"]
    else:
        cases = [(s, cls, cap) for s in every_residue_set(m) for cls in "PD" for cap in range(17)]
    for s, cls, cap in cases:
        got = keyed(_schmidt_weight_columns, m, s, cls, cap, fields=2)
        assert got == copying_schmidt_weight_columns(m, s, cls, cap), (s, cls, cap)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_schmidt_weight_totals_match_the_copying_pass(m):
    for s in residue_sets(m, True):
        for cls in "PD":
            for n in range(21):
                want = copying_schmidt_weight_total(n, m, s, cls)
                assert _schmidt_weight_total(n, m, s, cls) == want, (s, cls, n)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_residue_columns_match_the_run_groups(m):
    cases = [(s, qcap) for s in residue_sets(m, True) for qcap in range(13)]
    if m == 2:
        cases += [((1,), qcap) for qcap in range(13, 31)]
    for s, qcap in cases:
        got = keyed(_residue_columns, m, s, "P", qcap, fields=m + 1)
        assert got == keyed(run_group_residue_columns, m, s, qcap, fields=m + 1), (s, qcap)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 10**4])
def test_schmidt_weight_columns_match_the_run_groups(m):
    if m == 10**4:
        cases = [((1,), 6)]
    else:
        cases = [(s, cap) for s in every_residue_set(m) for cap in range(17)]
    for s, cap in cases:
        got = keyed(_schmidt_weight_columns, m, s, "P", cap, fields=2)
        assert got == keyed(run_group_schmidt_weight_columns, m, s, cap, fields=2), (s, cap)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_schmidt_weight_totals_match_the_run_groups(m):
    for s in residue_sets(m, True):
        for n in range(21):
            want = run_group_schmidt_weight_total(n, m, s)
            assert _schmidt_weight_total(n, m, s, "P") == want, (s, n)


def test_schmidt_weight_total_at_a_large_modulus_matches_the_run_groups():
    # tests/test_partitions.py pins this value and the sweep's peak.
    want = run_group_schmidt_weight_total(8, 300, (1,))
    assert _schmidt_weight_total(8, 300, (1,), "P") == want == 2126829581112375


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_p_tables_match_the_run_groups_at_any_modulus(data):
    m = data.draw(st.integers(2, 6), label="m")
    kind = data.draw(st.sampled_from(["columns", "sized", "total"]), label="kind")
    if kind == "sized":
        s = data.draw(st.sampled_from(every_residue_set(m)), label="s")
        cap = data.draw(st.integers(0, 14), label="cap")
        got = keyed(_schmidt_weight_columns, m, s, "P", cap, fields=2)
        assert got == keyed(run_group_schmidt_weight_columns, m, s, cap, fields=2)
        return
    s = data.draw(st.sampled_from(residue_sets(m, True)), label="s")
    cap = data.draw(st.integers(0, 12), label="cap")
    if kind == "total":
        assert _schmidt_weight_total(cap, m, s, "P") == run_group_schmidt_weight_total(cap, m, s)
    else:
        got = keyed(_residue_columns, m, s, "P", cap, fields=m + 1)
        assert got == keyed(run_group_residue_columns, m, s, cap, fields=m + 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_d_tables_match_the_copying_pass_at_any_modulus(data):
    m = data.draw(st.integers(2, 6), label="m")
    kind = data.draw(st.sampled_from(["columns", "sized", "total"]), label="kind")
    if kind == "sized":
        s = data.draw(st.sampled_from(every_residue_set(m)), label="s")
        cap = data.draw(st.integers(0, 14), label="cap")
        got = keyed(_schmidt_weight_columns, m, s, "D", cap, fields=2)
        assert got == copying_schmidt_weight_columns(m, s, "D", cap)
        return
    s = data.draw(st.sampled_from(residue_sets(m, True)), label="s")
    cap = data.draw(st.integers(0, 12), label="cap")
    if kind == "total":
        assert _schmidt_weight_total(cap, m, s, "D") == copying_schmidt_weight_total(cap, m, s, "D")
    else:
        got = keyed(_residue_columns, m, s, "D", cap, fields=m + 1)
        assert got == copying_residue_columns(m, s, "D", cap)


@pytest.mark.parametrize("theorem, cls", [("schmidt", "D"), ("uncu", "P")])
def test_odd_index_totals_match_schmidt_weight_walk(theorem, cls):
    for n in range(21):
        want = sum(schmidt_weight_statistics(n, 2, (1,), cls).values())
        _, lhs, _, _ = identities._counting_buckets(theorem, n, None, None)
        assert lhs == {"total": want}, n


# Caps at the edges of the packed field widths: a cap of 2**k - 1 fills
# its field's low bits, and 2**k needs one more bit.
CAP_EDGES = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 40)


def packed_context(data):
    """A context of 1-5 variables with caps at the field-width edges."""
    width = data.draw(st.integers(1, 5))
    caps = data.draw(st.lists(st.sampled_from(CAP_EDGES), min_size=width, max_size=width))
    return SeriesContext(("q", "t1", "t2", "s", "z")[:width], tuple(caps))


def tuple_keyed(data, ctx):
    """A tuple-keyed dict of nonzero terms, some coefficients negative, inside the caps."""
    exponents = st.tuples(*(st.integers(0, cap) for cap in ctx.caps))
    pairs = data.draw(st.lists(st.tuples(exponents, st.integers(-9, 9)), max_size=12))
    terms = {}
    for key, c in pairs:
        terms[key] = terms.get(key, 0) + c
    return {k: c for k, c in terms.items() if c}


def step_exponents(data, ctx):
    # Up to twice past each field's width, so some steps lie above the caps
    # and some would carry into the next field if they were packed.
    return tuple(data.draw(st.integers(0, 1 << (cap.bit_length() + 2))) for cap in ctx.caps)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_multiply_step_matches_tuple_keyed_step(data):
    ctx = packed_context(data)
    terms = tuple_keyed(data, ctx)
    mon = step_exponents(data, ctx)
    c = data.draw(st.integers(-4, 4))
    got = Series(ctx, terms).mul_one_minus(mon, c)
    tuple_mul_one_minus(terms, ctx.caps, mon, c)
    assert tuple_terms(got) == terms


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_divide_step_matches_tuple_keyed_step(data):
    ctx = packed_context(data)
    terms = tuple_keyed(data, ctx)
    mon = step_exponents(data, ctx)
    if not any(mon):
        with pytest.raises(ValueError):
            Series(ctx, terms).div_one_minus(mon)
        return
    got = Series(ctx, terms).div_one_minus(mon)
    tuple_div_one_minus(terms, ctx.caps, mon)
    assert tuple_terms(got) == terms


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_product_matches_tuple_keyed_bucketed_product(data):
    ctx = packed_context(data)
    a, b = tuple_keyed(data, ctx), tuple_keyed(data, ctx)
    got = Series(ctx, a) * Series(ctx, b)
    assert tuple_terms(got) == tuple_bucketed_mul(a, b, ctx.caps)
    assert got._terms == bucketed_mul(Series(ctx, a), Series(ctx, b))


def any_ring(data):
    """The zero-variable ring, or a context of 1-5 variables at the field-width edges."""
    if data.draw(st.integers(0, 5)) == 0:
        return SeriesContext((), ())
    return packed_context(data)


def single_term(data, ctx):
    """One in-cap term with a nonzero coefficient, often negative."""
    key = data.draw(st.tuples(*(st.integers(0, cap) for cap in ctx.caps)))
    return ctx.term(data.draw(st.integers(-9, 9).filter(bool)), key)


def assert_no_stored_zero(series):
    assert all(series._terms.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_term_product_matches_bucketed_product(data):
    ctx = any_ring(data)
    a, t = Series(ctx, tuple_keyed(data, ctx)), single_term(data, ctx)
    want = bucketed_mul(a, t)
    for got in (a * t, t * a):
        assert got._terms == want
        assert_no_stored_zero(got)
    assert (t * t)._terms == bucketed_mul(t, t)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_add_matches_refiltering_add(data):
    ctx = any_ring(data)
    a = tuple_keyed(data, ctx)
    b = tuple_keyed(data, ctx)
    # Cancel some of a's terms outright and shift others, so sums meet
    # zero, survive changed, and pass through untouched.
    if a:
        for key in data.draw(st.lists(st.sampled_from(sorted(a)), unique=True)):
            b[key] = -a[key] + data.draw(st.sampled_from([0, 0, 1, -2]))
    x, y = Series(ctx, a), Series(ctx, b)
    pairs = [(x + y, x, y), (y + x, y, x), (x - y, x, -y), (x + (-x), x, -x)]
    for got, left, right in pairs:
        assert got._terms == refiltering_add(left, right)
        assert_no_stored_zero(got)


def test_t1_slice_sums_only_its_own_terms():
    # The j = J terms alone, against the slice of the whole double sum, for
    # every J up to one past the cap (an empty slice).
    for qcap in range(21):
        ctx = trivariate_context(qcap)
        for J in range(qcap + 2):
            got = identities._t1_slice_sum(ctx, J)
            assert got._terms == sliced_full_sum(J, qcap), (J, qcap)
            assert_no_stored_zero(got)


SPOILED_SIDES = [()] + [(i,) for i in range(4)] + list(combinations(range(4), 2))


@pytest.mark.parametrize("shared", [True, False], ids=["same-change", "own-change"])
@pytest.mark.parametrize(
    "spoiled", SPOILED_SIDES, ids=["-".join(map(str, at)) or "none" for at in SPOILED_SIDES]
)
def test_first_side_comparison_matches_pairwise_comparison(spoiled, shared):
    # cor22's four sides, one coefficient changed in each spoiled side:
    # the same change, so that two spoiled sides agree with each other, or
    # a change of its own at another monomial.
    qcap = 5
    build = {"sum": sum_side, "product": product_side, "enum": enum_side}
    entry = IDENTITY_TABLE["cor22"]
    sides = [(label, build[side](source, qcap=qcap)) for label, side, source in entry.sides]
    assert len(sides) == 4
    ctx = trivariate_context(qcap)
    for n, at in enumerate(spoiled):
        change = ctx.term(1, (3, 1, 1)) if shared else ctx.term(n + 2, (2 + n, n, 1))
        sides[at] = (sides[at][0], sides[at][1] + change)
    args = ("cor22", {}, dict.fromkeys(("q", "t1", "t2"), qcap), sides)
    report = _compare_sides(*args)
    assert report == pairwise_compare_sides(*args)
    assert report.status == ("fail" if spoiled else "pass")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coefficient_is_zero_off_the_caps(data):
    ctx = packed_context(data)
    terms = tuple_keyed(data, ctx)
    series = Series(ctx, terms)
    for key, c in terms.items():
        assert series.coefficient(key) == c
    caps = ctx.caps
    vi = data.draw(st.integers(0, len(caps) - 1))
    base = list(data.draw(st.sampled_from(sorted(terms) or [(0,) * len(caps)])))
    # Negative, just above the cap, and a whole field width above it: the
    # last would alias the next field's exponent if it were packed.
    for e in (-1, caps[vi] + 1, 1 << (caps[vi].bit_length() + 1)):
        key = list(base)
        key[vi] = e
        assert series.coefficient(key) == 0, key
    assert series.coefficient(base + [0]) == 0
    assert series.coefficient(base[:-1]) == 0


# Each kind of row the column checks must hand to the key-by-key scan: a
# key that is a bare int, of the wrong arity, negative, over a cap (by
# one, or at the next field's lowest bit), a float, holding a bool or an
# __index__ object, or a list; or an in-cap key with a bool, __index__ or
# float coefficient.  "none" adds no such row and "two" adds two.
ODD_KINDS = ("bare", "arity", "negative", "over", "float", "index", "coefficient", "list")
NEEDS_A_VARIABLE = ("negative", "over", "float", "index")


def odd_row(data, caps, kind):
    key = list(data.draw(st.tuples(*(st.integers(0, c) for c in caps))))
    if kind == "coefficient":
        return tuple(key), data.draw(st.sampled_from([True, False, Exactly(2), 1.0, 1.5]))
    coeff = data.draw(st.integers(-3, 3))
    if kind == "list":
        return key, coeff
    if kind == "bare":
        return data.draw(st.integers(0, 6)), coeff
    if kind == "arity":
        wrong = st.lists(st.integers(0, 6), max_size=5).filter(lambda k: len(k) != len(caps))
        return tuple(data.draw(wrong)), coeff
    i = data.draw(st.integers(0, len(caps) - 1))
    if kind == "negative":
        key[i] = -1
    elif kind == "over":
        key[i] = data.draw(st.sampled_from([caps[i] + 1, 1 << (caps[i].bit_length() + 1)]))
    elif kind == "float":
        key[i] += data.draw(st.sampled_from([0.0, 0.5]))
    else:
        key[i] = data.draw(st.sampled_from([bool(key[i] % 2), Exactly(key[i])]))
    return tuple(key), coeff


def constructor_rows(data, caps, odd_kinds):
    """In-cap (key, coefficient) rows, some keys Monomials, with repeated
    keys, zero coefficients and pairs that cancel, and one odd row of each
    given kind at a drawn place."""
    exponents = st.tuples(*(st.integers(0, c) for c in caps))
    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        if rows and data.draw(st.integers(0, 3)) == 0:
            key, coeff = data.draw(st.sampled_from(rows))
            rows.append((key, -coeff))
        else:
            key = data.draw(exponents)
            key = Monomial(key) if data.draw(st.booleans()) else key
            rows.append((key, data.draw(st.integers(-3, 3))))
    for kind in odd_kinds:
        rows.insert(data.draw(st.integers(0, len(rows))), odd_row(data, caps, kind))
    return rows


@pytest.mark.parametrize("kind", ("none",) + ODD_KINDS + ("two",))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constructor_matches_per_key_constructor(kind, data):
    if kind == "two":
        odd_kinds = data.draw(st.lists(st.sampled_from(ODD_KINDS), min_size=2, max_size=2))
    else:
        odd_kinds = [kind] if kind != "none" else []
    least = 1 if set(odd_kinds) & set(NEEDS_A_VARIABLE) else 0
    width = data.draw(st.integers(least, 4))
    caps = tuple(data.draw(st.lists(st.integers(0, 6), min_size=width, max_size=width)))
    ctx = SeriesContext(("q", "t1", "t2", "s")[:width], caps)
    # A list key cannot be a dict key.
    forms = ["list", "generator"] + ["dict", "dict"] * ("list" not in odd_kinds)
    form = data.draw(st.sampled_from(forms))
    rows = constructor_rows(data, caps, odd_kinds)

    def fresh():
        if form == "dict":
            return dict(rows)
        return list(rows) if form == "list" else (row for row in rows)

    try:
        want = per_key_series_terms(ctx, fresh())
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err)) as got:
            Series(ctx, fresh())
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        assert Series(ctx, fresh())._terms == want


def test_coefficient_and_steps_never_pack_a_key_wider_than_its_field():
    # Caps (3, 3) give 3-bit fields, so (8, 0) would pack to the int of (0, 1).
    ctx = SeriesContext(("q", "t1"), (3, 3))
    series = Series(ctx, {(0, 1): 5, (3, 3): 7})
    assert series.coefficient((0, 1)) == 5
    assert series.coefficient((8, 0)) == 0
    assert series.coefficient((-8, 1)) == 0
    assert series.coefficient((3, 3, 0)) == 0
    assert series.mul_one_minus((8, 0), 1) == series
    assert series.div_one_minus((0, 8)) == series


def test_colored_partition_total_matches_summed_counts():
    for n in range(31):
        assert colored_partition_total(n, 2, (1,), 3) == sum(
            colored_bucket_counts(n, 2, (1,), 3).values()
        ), n
    for m, s, top in PALETTES:
        for n in range(13):
            assert colored_partition_total(n, m, s, top) == sum(
                colored_bucket_counts(n, m, s, top).values()
            ), (m, s, top, n)


def test_ak_trivariate_schmidt_side_matches_colored_model():
    terms = colored_enum_terms(24)
    for qcap in range(25):
        want = Series(trivariate_context(qcap), {k: v for k, v in terms.items() if k[0] <= qcap})
        assert enum_side("ak_trivariate", qcap=qcap) == want, qcap


def test_overpartition_counts_match_group_weights():
    rows = overpartition_rows(30)
    for n in range(31):
        assert rows[n] == grouped_overpartition_counts(n), n


def test_packed_cor22_counts_match_tuple_keyed_counts():
    for qcap in range(31):
        assert keyed(_cor22_counts, qcap, fields=3) == tuple_cor22_counts(qcap), qcap


@pytest.mark.parametrize(
    "m, s, cls", TABLE_CASES, ids=[f"m{m}-s{','.join(map(str, s))}-{c}" for m, s, c in TABLE_CASES]
)
def test_residue_column_table_matches_brute_force(m, s, cls):
    # Every entry of weight w comes from a partition of Schmidt weight w.
    walks = [brute_residue_columns(n, m, s, cls) for n in range(10)]
    for qcap in range(10):
        want = sum(walks[: qcap + 1], Counter())
        assert residue_column_table(m, s, cls, qcap=qcap) == want, qcap


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_residue_column_table_matches_group_at_a_time_table(data):
    m = data.draw(st.integers(2, 5))
    extra = data.draw(st.sets(st.integers(2, m)))
    cls = data.draw(st.sampled_from("PD"))
    qcap = data.draw(st.integers(0, 14))
    s = (1, *sorted(extra))
    assert residue_column_table(m, s, cls, qcap=qcap) == group_at_a_time_residue_columns(
        m, s, cls, qcap
    )


def profile_buckets(n, m, s, cls):
    """``schmidt_weight_statistics`` with each profile mapped to its image."""
    i = len(normalize_residue_set(m, s, allow_m=True))
    out = Counter()
    for (rho, profile), count in schmidt_weight_statistics(n, m, s, cls).items():
        image = sorted((i * alpha for alpha, p in profile for _ in range(p // m)), reverse=True)
        out[rho, tuple(image)] += count
    return out


@pytest.mark.parametrize(
    "m, s, cls", TABLE_CASES, ids=[f"m{m}-s{','.join(map(str, s))}-{c}" for m, s, c in TABLE_CASES]
)
def test_schmidt_bucket_counts_match_profile_walk(m, s, cls):
    for n in range(13):
        got = unpacked(schmidt_bucket_counts(n, m, s, cls), lambda key: split_bucket(key, n, m))
        assert got == profile_buckets(n, m, s, cls), n


def test_schmidt_bucket_counts_match_profile_walk_at_larger_weights():
    for n in range(13, 19):
        got = unpacked(schmidt_bucket_counts(n, 2, (1,), "P"), lambda key: split_bucket(key, n, 2))
        assert got == profile_buckets(n, 2, (1,), "P"), n


@pytest.mark.parametrize(
    "m, s, cls", TABLE_CASES, ids=[f"m{m}-s{','.join(map(str, s))}-{c}" for m, s, c in TABLE_CASES]
)
def test_schmidt_bucket_counts_match_whole_walk(m, s, cls):
    for n in range(15):
        assert schmidt_bucket_counts(n, m, s, cls) == walk_schmidt_bucket_counts(n, m, s, cls), n


def test_schmidt_bucket_counts_match_whole_walk_at_larger_weights():
    for n in range(15, 23):
        assert schmidt_bucket_counts(n, 2, (1,), "P") == walk_schmidt_bucket_counts(
            n, 2, (1,), "P"
        ), n


LARGE_MODULI = [(6, 12, (1,), "P"), (5, 20, (1,), "P"), (8, 6, (1, 2), "D")]


@pytest.mark.parametrize(
    "n, m, s, cls", LARGE_MODULI, ids=[f"n{n}-m{m}-{c}" for n, m, _, c in LARGE_MODULI]
)
def test_schmidt_bucket_counts_match_whole_walk_at_large_moduli(n, m, s, cls):
    assert schmidt_bucket_counts(n, m, s, cls) == walk_schmidt_bucket_counts(n, m, s, cls)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_schmidt_bucket_counts_match_whole_walk_at_any_weight(data):
    # Reaches modulus 5, past the parametrized grid.
    m = data.draw(st.integers(2, 5))
    s = data.draw(st.sampled_from(residue_sets(m, True)))
    cls = data.draw(st.sampled_from("PD"))
    n = data.draw(st.integers(0, 12))
    assert schmidt_bucket_counts(n, m, s, cls) == walk_schmidt_bucket_counts(n, m, s, cls)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_class_d_buckets_match_whole_walk_on_every_residue_set(m):
    # Class D is read off the part-size pass, not walked; one count over
    # the column heights of every class-D partition of each weight up to
    # the top must give the same Counters exactly.  The walk over the parts
    # took 6.9 million partitions at S = {1}, m = 5; the test below checks
    # the column count against it at smaller tops.
    top = 40 if m == 2 else 20
    for s in residue_sets(m, True):
        tables = class_d_buckets_by_columns(top, m, s)
        for n in range(top + 1):
            assert schmidt_bucket_counts(n, m, s, "D") == tables[n], (s, n)


@pytest.mark.parametrize("m, top", [(2, 24), (3, 16), (4, 14), (5, 12)])
def test_class_d_column_count_matches_the_walk_over_parts(m, top):
    for s in residue_sets(m, True):
        assert class_d_buckets_by_columns(top, m, s) == class_d_buckets_by_weight(top, m, s), s


@pytest.mark.parametrize("m", [2, 3, 4])
def test_class_d_walk_by_weight_matches_one_walk_per_weight(m):
    # The oracle above walks every weight at once; the walk of one weight at
    # a time must give each weight's Counter.
    for s in residue_sets(m, True):
        tables = class_d_buckets_by_weight(16, m, s)
        for n in range(17):
            assert tables[n] == walk_schmidt_bucket_counts(n, m, s, "D"), (s, n)


def test_class_d_buckets_match_whole_walk_at_weight_40():
    # 17,977 partitions at n = 36 and more here; the walk takes 85 ms.
    assert schmidt_bucket_counts(40, 3, (1, 2), "D") == walk_schmidt_bucket_counts(
        40, 3, (1, 2), "D"
    )


@pytest.mark.parametrize("m", [2, 3, 4])
def test_franklin_ext_buckets_match_full_run_walk(m):
    # The walk keeps each run mod m and adds a block as the run reaches m
    # copies; the walk that kept whole runs added them as the run closed.
    top = 20 if m == 2 else 16
    for s in residue_sets(m, True):
        for n in range(top + 1):
            assert schmidt_bucket_counts(n, m, s, "P") == full_run_schmidt_bucket_counts(
                n, m, s, "P"
            ), (s, n)


def test_ak_main_buckets_match_full_run_walk():
    for n in range(21):
        assert schmidt_bucket_counts(n, 3, (1, 2), "D") == full_run_schmidt_bucket_counts(
            n, 3, (1, 2), "D"
        ), n


@pytest.mark.parametrize("m", [2, 3, 4])
def test_schmidt_bucket_counts_match_flat_tail_walk(m):
    # The lists reuse the lists of deeper states, and only states before a
    # counted index keep one; every list once walked its whole subtree.
    top = 20 if m == 2 else 16
    for s in residue_sets(m, True):
        for cls in "PD":
            for n in range(top + 1):
                assert schmidt_bucket_counts(n, m, s, cls) == flat_tail_schmidt_bucket_counts(
                    n, m, s, cls
                ), (s, cls, n)


CUT_CASES = [(20, 2, (1,)), (6, 12, (1,)), (16, 4, (1, 3))]


@pytest.mark.parametrize("n, m, s", CUT_CASES, ids=[f"n{n}-m{m}-P" for n, m, _ in CUT_CASES])
def test_schmidt_bucket_counts_do_not_depend_on_the_cut(monkeypatch, n, m, s):
    want = walk_schmidt_bucket_counts(n, m, s, "P")
    for cut in range(11):
        monkeypatch.setattr(partitions, "_TAIL_WEIGHT", cut)
        assert schmidt_bucket_counts(n, m, s, "P") == want, cut


@pytest.mark.parametrize("n, m, s", CUT_CASES, ids=[f"n{n}-m{m}-P" for n, m, _ in CUT_CASES])
def test_schmidt_bucket_lists_nest_within_the_cut(monkeypatch, n, m, s):
    # The main walk takes the cut.  Each kept state is walked once, from
    # key 0 with that cut, and only if its next index is counted and it has
    # 1..cut weight left; every child of such a state adds weight, so the
    # walks nest at most cut deep, and they do nest: a list reuses deeper
    # lists.
    walk = partitions._bucket_walk
    calls = []
    depth = [0]

    def traced(stack, done, cut, tails, out, shape):
        calls.append((stack[0], cut, depth[0], out))
        depth[0] += 1
        try:
            walk(stack, done, cut, tails, out, shape)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(partitions, "_bucket_walk", traced)
    assert schmidt_bucket_counts(n, m, s, "P") == walk_schmidt_bucket_counts(n, m, s, "P")
    (_, cut, _, _), *tails = calls
    assert cut == partitions._TAIL_WEIGHT
    counted = _schmidt_params(m, s, "P")[1]
    states = [node[:4] for node, *_ in tails]
    assert len(set(states)) == len(states)
    for (r, weight, _, _, key), tail_cut, _, out in tails:
        assert (key, tail_cut, out) == (0, cut, None)
        assert counted[r] and 0 < n - weight <= cut
    assert 1 < max(d for *_, d, _ in tails) <= cut


def test_schmidt_bucket_lists_share_the_states_of_parts_above_the_weight_left(monkeypatch):
    # A kept state's next index is counted, so no later part reaches a last
    # part above its weight left, and every such state of one residue and
    # weight shares the list of (residue, weight, weight left, 0), a last
    # part equal to the weight left whose run just closed a block.  At
    # (20, 2, {1}) that keeps 86 lists; keyed as (residue, weight, weight
    # left + 1, 0) it kept 92, and by the last part and its run 200.
    walk = partitions._bucket_walk
    states = []

    def traced(stack, done, cut, tails, out, shape):
        if out is None:
            states.append(stack[0][:4])
        walk(stack, done, cut, tails, out, shape)

    monkeypatch.setattr(partitions, "_bucket_walk", traced)
    assert schmidt_bucket_counts(20, 2, (1,), "P") == walk_schmidt_bucket_counts(20, 2, (1,), "P")
    assert len(states) == 86
    for _, weight, last, run in states:
        assert last <= 20 - weight


def test_class_d_buckets_walk_nothing(monkeypatch):
    # Class D is read off the part-size pass; the bucket walk is class P's.
    def refused(*args):
        raise AssertionError("class D walked")

    monkeypatch.setattr(partitions, "_bucket_walk", refused)
    assert schmidt_bucket_counts(14, 3, (1, 2), "D") == walk_schmidt_bucket_counts(
        14, 3, (1, 2), "D"
    )


# In class D the whole walk's Counter holds one entry per rho bucket, while
# the pass keeps one per (weight, residue, rho) state for every weight up to
# n, so the pass holds more at a small m and n: 43 KB against 5 KB at (20, 3,
# (1, 2)), 12x at (20, 4, (1, 2)).  At a large m the two come close.
MEMORY_CASES = [
    (20, 2, (1,), "P"),
    (6, 12, (1,), "P"),
    (16, 4, (1, 3), "P"),
    (8, 20, (1, 2), "D"),
]


@pytest.mark.parametrize(
    "n, m, s, cls", MEMORY_CASES, ids=[f"n{n}-m{m}-{c}" for n, m, _, c in MEMORY_CASES]
)
def test_schmidt_bucket_counts_memory_stays_near_the_whole_walk(n, m, s, cls):
    # In class P a list is copied into the lists above it, so the lists
    # hold more deltas than partitions counted, but only states with at
    # most _TAIL_WEIGHT weight left keep one.
    walk = traced_peak(walk_schmidt_bucket_counts, n, m, s, cls)
    assert traced_peak(schmidt_bucket_counts, n, m, s, cls) <= 3 * walk


@pytest.mark.parametrize("m, low, high", [(3, 20, 36), (4, 20, 32)], ids=["m3", "m4"])
def test_schmidt_bucket_counts_memory_in_class_d_grows_slower_than_the_partitions(m, low, high):
    # The pass keeps nothing per partition counted: from n = 20 to 36 at
    # m = 3 the partitions grow 28.7x (627 to 17,977) and the peak 6.3x, so
    # the bytes per partition fall from 69 to 15 (at m = 4, n 20 to 32,
    # from 75 to 21).  A list of one key per partition would keep them at
    # 8 or more.  A first call in a process also fills the tuple free lists
    # and the ABC caches, and would be measured with them.
    per_partition = []
    for n in (low, high):
        total = sum(schmidt_bucket_counts(n, m, (1, 2), "D").values())
        per_partition.append(traced_peak(schmidt_bucket_counts, n, m, (1, 2), "D") / total)
    assert per_partition[1] <= per_partition[0] / 2


@pytest.mark.parametrize("m, s, top", PALETTES)
def test_colored_partition_counts_match_group_walk(m, s, top):
    for n in range(21):
        assert color_count_table(n, m, s, top) == grouped_colored_partition_counts(
            n, m, s, top
        ), n


@pytest.mark.parametrize("m", [2, 3, 4])
def test_top_color_part_counts_match_group_walk(m):
    for s in residue_sets(m, True):
        for n in range(15):
            got = color_buckets(n, m, s, m + 1)
            assert got == grouped_top_color_part_counts(n, m, s), (s, n)


def test_colored_bucket_counts_unpack_to_top_color_part_counts():
    # Both sides of franklin_ext share the layout of split_bucket: its image
    # sizes are the sizes of the parts colored m, read off the objects here.
    for m, s in [(2, (1,)), (3, (1, 3)), (4, (1, 2, 4))]:
        for n in range(13):
            want = Counter(
                (color_counts(mu, m), tuple(p for p, c in mu.parts if c == m))
                for mu in colored_partitions(n, m, s, m + 1)
            )
            assert color_buckets(n, m, s, m + 1) == want, (m, s, n)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_colored_bucket_counts_match_summing_merge(m):
    # Each key is written once, straight into the Counter; the merge that
    # summed into a dict and copied it must give the same Counter exactly.
    top_n = 20 if m == 2 else 16
    # Every S at both ceilings, the entries of PALETTES among them.
    palettes = [(s, m + 1) for s in residue_sets(m, True)]
    palettes += [(s, m) for s in residue_sets(m, False)]
    for s, top in palettes:
        for n in range(top_n + 1):
            got = colored_bucket_counts(n, m, s, top)
            want = summing_colored_bucket_counts(n, m, s, top)
            assert type(got) is Counter and got == want, (s, top, n)
            assert got.keys() == want.keys() and 0 not in got.values(), (s, top, n)


def test_colored_partition_total_matches_group_walk():
    for n in range(36):
        assert colored_partition_total(n, 2, (1,), 3) == grouped_colored_partition_total(
            n, 2, (1,), 3
        ), n
    for m, s, top in PALETTES:
        for n in range(17):
            assert colored_partition_total(n, m, s, top) == grouped_colored_partition_total(
                n, m, s, top
            ), (m, s, top, n)


def test_colored_partition_total_matches_list_pass():
    # Every valid palette for m = 2 .. 4: top = m keeps S below m, and
    # top = m + 1 lets S hold m.
    palettes = [
        (m, s, top)
        for m in (2, 3, 4)
        for top in (m, m + 1)
        for s in residue_sets(m, top > m)
    ]
    for m, s, top in palettes:
        for n in range(41):
            assert colored_partition_total(n, m, s, top) == list_colored_partition_total(
                n, m, s, top
            ), (m, s, top, n)


def test_overpartition_counts_match_partition_walk():
    rows = overpartition_rows(30)
    for n in range(31):
        assert rows[n] == walk_overpartition_counts(n), n


def test_overpartition_enum_side_matches_partition_walk():
    terms = Counter()
    for n in range(25):
        for (o, p), count in walk_overpartition_counts(n).items():
            terms[n, o, p] += count
    for qcap in range(25):
        want = Series(trivariate_context(qcap), {k: v for k, v in terms.items() if k[0] <= qcap})
        assert enum_side("overpartition", qcap=qcap) == want, qcap


def test_gaussian_binomials_match_q_pascal_recursion():
    for n in range(40):
        for k in range(-1, n + 2):
            assert gaussian_binomial_coeffs(n, k) == pascal_gaussian_binomial(n, k), (n, k)


def test_schmidt_colored_side_matches_partition_walk():
    for n in range(36):
        _, _, rhs, _ = identities._counting_buckets("schmidt", n, None, None)
        assert rhs == {"total": sum(1 for _ in partition_groups(n))}, n


@lru_cache(maxsize=None)
def partitions_up_to(n):
    """Every partition of size at most n, smallest sizes first."""
    return tuple(lam for size in range(n + 1) for lam in partitions_of(size))


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of its ValueError
    or TypeError."""
    try:
        return f(*args)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def test_conjugate_matches_cell_count():
    for lam in partitions_up_to(20):
        conj = lam.conjugate()
        assert conj == cell_count_conjugate(lam), lam
        assert conj.conjugate() == lam


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_in_class_matches_grouped_runs(m):
    for lam in partitions_up_to(20):
        for cls in "PDFR":
            assert in_class(lam, cls, m) == grouped_in_class(lam, cls, m), (cls, lam)


def test_in_class_refuses_as_grouped_runs():
    lam = Partition((2, 1))
    for cls, m in [("X", 2), ("D", None), ("F", 1), ("R", 2.0), ("D", True)]:
        assert outcome(in_class, lam, cls, m) == outcome(grouped_in_class, lam, cls, m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_decompose_and_merge_match_tuple_runs_and_validating_merge(m):
    for lam in partitions_up_to(16):
        low, bulk = decompose_multiplicity(lam, m)
        assert (low, bulk) == tuple_run_decompose_multiplicity(lam, m), lam
        assert (low, bulk) == per_part_decompose_multiplicity(lam, m), lam
        assert merge_partitions(low, bulk) == validating_merge_partitions(low, bulk) == lam
        # Any two partitions, not only the halves of one.
        assert merge_partitions(lam, low) == validating_merge_partitions(lam, low)


def test_expand_matches_generator_expression():
    for n in range(21):
        for groups in partition_groups(n):
            assert _expand(groups) == generator_expand(groups), groups


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_glaisher_maps_match_conjugating_maps(m):
    for lam in partitions_up_to(20):
        kept, banked = glaisher_reduce(lam, m)
        assert (kept, banked) == counter_glaisher_reduce(lam, m), lam
        assert (kept, banked) == every_height_glaisher_reduce(lam, m), lam
        back = glaisher_expand(kept, banked, m)
        assert back == conjugate_and_sort_glaisher_expand(kept, banked, m) == lam
        assert back == per_row_glaisher_expand(kept, banked, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_color_conjugate_matches_per_column_map(m):
    for s in residue_sets(m, True):
        for lam in partitions_up_to(20):
            mu = color_conjugate(lam, m, s)
            assert mu == per_column_color_conjugate(lam, m, s) == bisect_color_conjugate(
                lam, m, s
            ), (s, lam)
            assert mu == quotient_color_conjugate(lam, m, s), (s, lam)
            back = color_conjugate_inverse(mu, m, s)
            assert back == sorting_color_conjugate_inverse(mu, m, s) == lam
            assert back == palette_color_conjugate_inverse(mu, m, s)
            assert back == conjugating_color_conjugate_inverse(mu, m, s)
        # Every single part (p, c) with c up to one past the ceiling m + 1:
        # the admissible ones map alike, the rest refuse alike.
        for p in range(1, 9):
            for c in range(1, m + 3):
                mu = ColoredPartition([(p, c)])
                got = outcome(color_conjugate_inverse, mu, m, s)
                assert got == outcome(palette_color_conjugate_inverse, mu, m, s), (s, p, c)
                assert got == outcome(conjugating_color_conjugate_inverse, mu, m, s)


def test_mork_maps_match_part_indexing_maps():
    for lam in partitions_up_to(20):
        mu = mork_forward(lam)
        assert mu == part_based_mork_forward(lam) == conjugate_mork_forward(lam), lam
        assert mu == validating_mork_forward(lam), lam
        assert mork_inverse(mu) == sum_based_mork_inverse(mu) == lam
        assert mork_inverse(mu) == closure_mork_inverse(mu)
    # Every distinct-part partition, and partitions with repeats, which
    # all refuse with the same message.
    for n in range(25):
        for mu in partitions_of(n, "D", 2):
            got = mork_inverse(mu)
            assert got == sum_based_mork_inverse(mu) == closure_mork_inverse(mu), mu
    for mu in partitions_up_to(12):
        got = outcome(mork_inverse, mu)
        assert got == outcome(sum_based_mork_inverse, mu) == outcome(closure_mork_inverse, mu), mu


def test_bijections_refuse_as_their_replaced_bodies():
    lam = Partition((4, 4, 3, 1))
    mu = color_conjugate(lam, 3, (1, 2))
    cases = []
    for m in (1, 2.0, True):
        cases += [
            (glaisher_reduce, every_height_glaisher_reduce, (lam, m)),
            (glaisher_expand, per_row_glaisher_expand, (Partition((2, 1)), Partition((4,)), m)),
            (decompose_multiplicity, per_part_decompose_multiplicity, (lam, m)),
            (color_conjugate, quotient_color_conjugate, (lam, m, (1,))),
            (color_conjugate_inverse, conjugating_color_conjugate_inverse, (mu, m, (1,))),
        ]
    # A residue of 0, one above m = 3, and a float residue.
    for s in ((0, 1), (1, 4), (1, 2.0)):
        cases += [
            (color_conjugate, quotient_color_conjugate, (lam, 3, s)),
            (color_conjugate_inverse, conjugating_color_conjugate_inverse, (mu, 3, s)),
        ]
    # Part 1 wears color 1 alone at m = 3 on {1, 2}, and part 2 colors 2 and 3.
    for nu in ([(2, 3), (1, 2)], [(2, 1)], [(3, 1), (2, 4)]):
        cases.append(
            (
                color_conjugate_inverse,
                conjugating_color_conjugate_inverse,
                (ColoredPartition(nu), 3, (1, 2)),
            )
        )
    # Gaps of m or more, the last part's included; the gap check comes
    # before the banked parts'; the first banked part not divisible by m
    # is the one reported.
    for kept, banked in [
        ((4, 1), ()),
        ((2,), (4,)),
        ((4, 1), (3,)),
        ((1,), (5, 4)),
        ((1,), (6, 4, 3)),
        ((1,), (6, 5, 3)),
    ]:
        cases.append(
            (glaisher_expand, per_row_glaisher_expand, (Partition(kept), Partition(banked), 2))
        )
    # Repeated parts, and parts out of order that only _trusted builds,
    # which give negative or non-nesting hooks.
    for parts in [(3, 3), (5, 3, 3, 1), (1, 3), (1, 2, 5, 3), (2, 1, 4, 3)]:
        cases.append((mork_inverse, closure_mork_inverse, (Partition._trusted(parts),)))
    for f, oracle, args in cases:
        got = outcome(f, *args)
        assert got == outcome(oracle, *args), (f.__name__, args)
        assert isinstance(got, tuple) and got[0] in (ValueError, TypeError), (f.__name__, args)
    # Every arrangement of up to five of the parts 1 .. 7, refused or not.
    for k in range(6):
        for parts in permutations(range(1, 8), k):
            nu = Partition._trusted(parts)
            assert outcome(mork_inverse, nu) == outcome(closure_mork_inverse, nu), parts


drawn_partitions = st.lists(st.integers(1, 60), max_size=40).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


drawn_colored = st.lists(st.tuples(st.integers(1, 30), st.integers(1, 10)), max_size=20).map(
    ColoredPartition
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    lam=drawn_partitions,
    kept=drawn_partitions,
    banked=drawn_partitions,
    nu=drawn_colored,
)
def test_bijections_match_replaced_maps_past_the_grid(data, lam, kept, banked, nu):
    # Up to 40 parts of up to 60 and moduli up to 8, past the n <= 20 grid.
    m = data.draw(st.integers(2, 8))
    s = data.draw(st.sampled_from(residue_sets(m, True)))
    assert lam.conjugate() == cell_count_conjugate(lam)
    groups = tuple((size, len(tuple(run))) for size, run in groupby(lam.parts))
    assert _expand(groups) == generator_expand(groups)
    reduced = glaisher_reduce(lam, m)
    assert reduced == counter_glaisher_reduce(lam, m) == every_height_glaisher_reduce(lam, m)
    assert glaisher_expand(*reduced, m) == per_row_glaisher_expand(*reduced, m) == lam
    # Any pair, reduced or not, gives the same partition or the same error.
    got = outcome(glaisher_expand, kept, banked, m)
    assert got == outcome(conjugate_and_sort_glaisher_expand, kept, banked, m)
    assert got == outcome(per_row_glaisher_expand, kept, banked, m)
    # Banked parts that are all multiples of m, beside a reduced kept
    # partition and beside any.
    scaled = Partition([p * m for p in banked.parts])
    for k in (reduced[0], kept):
        got = outcome(glaisher_expand, k, scaled, m)
        assert got == outcome(per_row_glaisher_expand, k, scaled, m)
        assert got == outcome(conjugate_and_sort_glaisher_expand, k, scaled, m)
    split = decompose_multiplicity(lam, m)
    assert split == tuple_run_decompose_multiplicity(lam, m)
    assert split == per_part_decompose_multiplicity(lam, m)
    mu = color_conjugate(lam, m, s)
    assert mu == per_column_color_conjugate(lam, m, s) == bisect_color_conjugate(lam, m, s)
    assert mu == quotient_color_conjugate(lam, m, s)
    back = color_conjugate_inverse(mu, m, s)
    assert back == sorting_color_conjugate_inverse(mu, m, s) == lam
    assert back == palette_color_conjugate_inverse(mu, m, s)
    assert back == conjugating_color_conjugate_inverse(mu, m, s)
    # Any colored partition, admissible or not, maps alike or refuses alike.
    got = outcome(color_conjugate_inverse, nu, m, s)
    assert got == outcome(palette_color_conjugate_inverse, nu, m, s)
    assert got == outcome(conjugating_color_conjugate_inverse, nu, m, s)
    image = mork_forward(lam)
    assert image == part_based_mork_forward(lam) == conjugate_mork_forward(lam)
    assert image == validating_mork_forward(lam)
    assert mork_inverse(image) == sum_based_mork_inverse(image) == lam
    assert mork_inverse(image) == closure_mork_inverse(image)
    distinct = Partition(sorted(set(kept.parts), reverse=True))
    for nu in (kept, distinct):
        got = outcome(mork_inverse, nu)
        assert got == outcome(sum_based_mork_inverse, nu) == outcome(closure_mork_inverse, nu)


# --- one family per table row ------------------------------------------------


FAMILY_PARAMS = [
    (identity, m, i)
    for identity in ("mork_odd", "mork_even", "psi_all", "psi_dm")
    # A mork row fixes m = 2 and may be given it, and mork_odd its S = {1} as i = 1.
    for m, i in (
        [(None, None), (2, 1)] if identity.startswith("mork") else DECK_MODULI + ((3, 3), (4, 4))
    )
]


def given_block(identity, i):
    """The i a FAMILY_PARAMS case hands over: mork_even's S = {2} is no block 1..i."""
    return None if identity == "mork_even" else i


@pytest.mark.parametrize(
    "identity, m, i", FAMILY_PARAMS, ids=[f"{x}-m{m}-i{i}" for x, m, i in FAMILY_PARAMS]
)
def test_s_graded_sides_match_the_named_branches(identity, m, i):
    block = given_block(identity, i)
    for scap in range(31):
        assert product_side(identity, scap=scap, m=m, i=block) == named_product_side(
            identity, scap, m, i
        ), scap
        want = named_enum_side(identity, scap, m, i)
        assert enum_side(identity, scap=scap, m=m, i=block) == want, scap


@pytest.mark.parametrize(
    "identity, m, i", FAMILY_PARAMS, ids=[f"{x}-m{m}-i{i}" for x, m, i in FAMILY_PARAMS]
)
def test_s_graded_witnesses_match_the_named_branches(identity, m, i):
    for s in range(15):
        for q in range(s + 2):
            got = witnesses(identity, {"q": q, "s": s}, m=m, i=given_block(identity, i))
            assert got == named_witnesses(identity, q, s, m, i), (s, q)


FAMILY_COUNTING_CASES = [
    (theorem, m, s) for theorem in ("schmidt", "uncu") for m, s in ((None, None), (2, (1,)))
] + [
    (theorem, m, s)
    for theorem, include_m in (("ak_main", False), ("franklin_ext", True))
    for m in (2, 3, 4)
    for s in residue_sets(m, include_m)
]


@pytest.mark.parametrize(
    "theorem, m, s",
    FAMILY_COUNTING_CASES,
    ids=[f"{t}-m{m}-s{','.join(map(str, s))}" if s else t for t, m, s in FAMILY_COUNTING_CASES],
)
def test_counting_buckets_match_the_named_branches(theorem, m, s):
    for n in range(13):
        params, lhs, rhs, bucket_of = identities._counting_buckets(theorem, n, m, s)
        want_params, want_lhs, want_rhs, want_bucket_of = named_counting_buckets(theorem, n, m, s)
        assert (params, lhs, rhs) == (want_params, want_lhs, want_rhs), n
        for key in lhs.keys() | rhs.keys():
            assert bucket_of(key) == want_bucket_of(key), (n, key)


@pytest.mark.parametrize(
    "theorem, m, s",
    [("schmidt", 3, None), ("uncu", 2, (1, 2)), ("ak_main", 3, (1, 3)), ("ak_main", 3, None)]
    + [("franklin_ext", 1, (1,)), ("franklin_ext", 3, (2,)), ("nope", 2, (1,))],
)
def test_counting_buckets_refuse_as_the_named_branches(theorem, m, s):
    got = outcome(identities._counting_buckets, theorem, 4, m, s)
    assert got == outcome(named_counting_buckets, theorem, 4, m, s)
    assert got[0] is ValueError


def edited_terms(data, ctx, terms):
    """terms with 0-3 coefficients changed, added or removed."""
    out = dict(terms)
    exponents = st.tuples(*(st.integers(0, cap) for cap in ctx.caps))
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["change", "add", "remove"] if out else ["add"]))
        if kind == "add":
            out[data.draw(exponents)] = data.draw(st.integers(-9, 9).filter(bool))
        else:
            key = data.draw(st.sampled_from(sorted(out)))
            if kind == "remove":
                del out[key]
            else:
                out[key] += data.draw(st.integers(-3, 3).filter(bool))
    return {k: c for k, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_series_mismatch_matches_sorting_every_term(data):
    width = data.draw(st.integers(1, 3))
    caps = data.draw(st.lists(st.sampled_from(CAP_EDGES), min_size=width, max_size=width))
    ctx = SeriesContext(("q", "t1", "s")[:width], tuple(caps))
    terms = tuple_keyed(data, ctx)
    a, b = Series(ctx, terms), Series(ctx, edited_terms(data, ctx, terms))
    for x, y in ((a, b), (b, a), (a, a)):
        assert _series_mismatch("x", x, "y", y) == sorting_series_mismatch("x", x, "y", y)
