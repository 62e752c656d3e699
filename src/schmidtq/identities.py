"""Builders and verifiers for the partition identities.

Every identity gets its computable sides built independently, truncated
to explicit caps, and compared term-by-term:

- ``ak_trivariate``: the trivariate hook-exponent sum equals
  1/((t1 q; q)oo (t2 q; q)oo), which enumerates 2-colored partitions by
  color counts and size; the enum side counts partitions by odd-index
  weight and by the numbers of columns of odd and even height.
- ``overpartition``: the companion sum with exponent
  C(n,2) + C(k+1,2) + j^2 - nj + j equals (-t1 q; q)oo / (t2 q; q)oo,
  which enumerates overpartitions by overlined/plain part counts.
- ``cor22``: the bounded-repetition form: partitions with every
  multiplicity below 4, graded by repeated-size count, alternating sum,
  and odd-index weight, match the overpartition enumeration.
- ``psi_all`` / ``psi_dm``: Schmidt weights on a residue set S mod m, of class
  P / D, against products with bases q^c(r) s^r, c(r) = |S ∩ {1..r}|, and ratio
  q^|S| s^m, on the block S = 1..i given as (m, i).  ``mork_odd`` / ``mork_even``
  fix m = 2, S = {1} / {2} in class D: the odd / even index sum, against
  1/(qs; qs^2)oo and 1/(s; qs^2)oo.  Each side builds the four rows on one path
  from each row's ``Family``, which alone says what (m, S) the row may be given.

The counting theorems, class D with palette ceiling m (``schmidt``,
``ak_main``) or class P with m + 1 (``uncu``, ``franklin_ext``), share one
path and are verified bucket-by-bucket from scratch enumerations on both
sides.  All arithmetic is exact; a report either passes or carries the
first mismatching monomial or bucket.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product, repeat
from math import isqrt
from operator import add, getitem, index, neg
from typing import NamedTuple

from .colored import (
    Overpartition,
    _overpartition_table,
    colored_bucket_counts,
    colored_partition_total,
)
from .partitions import (
    _check_modulus,
    _cor22_counts,
    _length_walk,
    _most,
    _residue_columns,
    _schmidt_weight_columns,
    _schmidt_weight_total,
    _weight_walk,
    normalize_residue_set,
    partitions_with_schmidt_weight,
    repetition_profile,
    residue_column_count,
    schmidt_bucket_counts,
    split_bucket,
)
from .series import (
    Series,
    SeriesContext,
    _dense_mul,
    _div_one_minus,
    _divide_by_monomial,
    _Family,
    _layout,
    _poch_product,
    gaussian_binomial_coeffs,
    poch_finite,
)

__all__ = [
    "IDENTITY_TABLE",
    "RING_CAPS",
    "RING_VARIABLES",
    "SERIES_IDENTITIES",
    "COUNTING_THEOREMS",
    "VerificationReport",
    "trivariate_context",
    "size_graded_context",
    "sum_side",
    "product_side",
    "enum_side",
    "ln_series",
    "cauchy_check",
    "t1_slice_check",
    "verify_identity",
    "verify_counting",
    "witnesses",
    "check_exponents",
]


class Family(NamedTuple):
    """The Schmidt-side family one row of a table instantiates."""

    cls: str  # "P" or "D"
    fixed: tuple = ()  # the (m, S) the row fixes; () when the caller gives them


class SeriesIdentity(NamedTuple):
    """One row of ``IDENTITY_TABLE``."""

    ring: tuple  # the variables of its ring; RING_CAPS names the cap
    sides: tuple  # (label, side, source id) per compared side, in report order
    family: Family | None = None  # an s-graded row's; it takes (m, i) when this fixes nothing


_Q_T1_T2 = ("q", "t1", "t2")
_Q_S = ("q", "s")

# The keyword of each ring's cap, which bounds every variable of the ring.
RING_CAPS = {_Q_T1_T2: "qcap", _Q_S: "scap"}


def _own(identity, *sides):
    return tuple((side, side, identity) for side in sides)


IDENTITY_TABLE = {
    "ak_trivariate": SeriesIdentity(_Q_T1_T2, _own("ak_trivariate", "sum", "product", "enum")),
    "overpartition": SeriesIdentity(_Q_T1_T2, _own("overpartition", "sum", "product", "enum")),
    # cor22 is the overpartition series read off bounded-repetition partitions.
    "cor22": SeriesIdentity(
        _Q_T1_T2,
        (("enum", "enum", "cor22"), ("enum_overpartition", "enum", "overpartition"))
        + _own("overpartition", "sum", "product"),
    ),
    # mork_* is class D at m = 2, weighted by the odd or the even index sum.
    "mork_odd": SeriesIdentity(
        _Q_S, _own("mork_odd", "product", "enum"), Family("D", (2, (1,)))
    ),
    "mork_even": SeriesIdentity(
        _Q_S, _own("mork_even", "product", "enum"), Family("D", (2, (2,)))
    ),
    "psi_all": SeriesIdentity(_Q_S, _own("psi_all", "product", "enum"), Family("P")),
    "psi_dm": SeriesIdentity(_Q_S, _own("psi_dm", "product", "enum"), Family("D")),
}

SERIES_IDENTITIES = tuple(IDENTITY_TABLE)

# The variables a monomial of some series identity may name: q, t1, t2, s.
RING_VARIABLES = tuple(dict.fromkeys(v for entry in IDENTITY_TABLE.values() for v in entry.ring))

# Glaisher's pairing (class D, palette ceiling m) and Franklin's (class P,
# ceiling m + 1); a row that fixes (2, {1}) is read as one total.
COUNTING_TABLE = {
    "schmidt": Family("D", (2, (1,))),
    "uncu": Family("P", (2, (1,))),
    "ak_main": Family("D"),
    "franklin_ext": Family("P"),
}

COUNTING_THEOREMS = tuple(COUNTING_TABLE)


def trivariate_context(qcap):
    """Ring for the q/t1/t2 identities; uniform caps are exact because
    every monomial on every side has q-degree at least t1-degree + t2-degree."""
    if qcap < 0:
        raise ValueError(f"cap must be nonnegative, got {qcap}")
    return SeriesContext(_Q_T1_T2, (qcap, qcap, qcap))


def size_graded_context(scap):
    """Ring for the s-graded identities; the tracked weight never exceeds the size."""
    if scap < 0:
        raise ValueError(f"cap must be nonnegative, got {scap}")
    return SeriesContext(_Q_S, (scap, scap))


# ---------------------------------------------------------------------------
# reports


def _stringify(value):
    # Decimal strings for every number so arbitrarily large counts survive
    # any JSON consumer.
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    raise TypeError(f"cannot serialize {value!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity or counting check, with mismatch evidence on failure."""

    theorem: str
    params: dict
    caps: dict
    status: str
    mismatch: dict | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be pass or fail, got {self.status!r}")
        if self.status == "fail" and not self.mismatch:
            raise ValueError("failing reports must carry mismatch evidence")

    @property
    def passed(self):
        return self.status == "pass"

    def to_json_dict(self):
        out = {
            "theorem": self.theorem,
            "params": _stringify(self.params),
            "caps": _stringify(self.caps),
            "status": self.status,
        }
        if self.mismatch is not None:
            out["mismatch"] = _stringify(self.mismatch)
        return out

    def to_json_text(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    def evidence_text(self):
        """One human-readable line of mismatch evidence, empty when passing."""
        if self.mismatch is None:
            return ""
        mm = self.mismatch
        if "monomial" in mm:
            mono = mm["monomial"]
            where = "*".join(
                f"{v}^{e}" if e != 1 else v for v, e in mono.items()
            ) or "1"
            sides = mm.get("sides")
            tag = f" ({sides[0]} vs {sides[1]})" if sides else ""
            return f"first mismatch at {where}{tag}: {mm['lhs']} != {mm['rhs']}"
        return f"bucket {mm['bucket']}: {mm['lhs']} != {mm['rhs']}"


def _series_mismatch(name_a, a, name_b, b):
    # The least differing key by (total degree, exponents); only those unpack.
    ta, tb = a._terms, b._terms
    if ta == tb:
        return None
    unpack = _layout(a.context.caps).unpack
    key = min((k for k, _ in ta.items() ^ tb.items()), key=lambda k: (sum(unpack(k)), unpack(k)))
    return {
        "monomial": {v: e for v, e in zip(a.context.variables, unpack(key)) if e},
        "lhs": ta.get(key, 0),
        "rhs": tb.get(key, 0),
        "sides": [name_a, name_b],
    }


def _compare_sides(theorem, params, caps, sides):
    # Series equality is transitive, so the first differing pair of sides,
    # taken in pairwise order, always holds the first side: comparing it
    # with each later side in turn gives the same report.
    name_a, a = sides[0]
    for name_b, b in sides[1:]:
        mismatch = _series_mismatch(name_a, a, name_b, b)
        if mismatch is not None:
            return VerificationReport(theorem, params, caps, "fail", mismatch)
    return VerificationReport(theorem, params, caps, "pass")


# ---------------------------------------------------------------------------
# sum sides


def _hook_exponent(n, j, k, with_t1_denominator):
    if with_t1_denominator:
        return n * (n - 1) // 2 + j * (j + 1) // 2 + k * (k + 1) // 2
    return n * (n - 1) // 2 + k * (k + 1) // 2 + j * j - n * j + j


def _hook_floor(n, with_t1_denominator):
    # A provable floor for the least q-exponent at n, monotone in n; the
    # per-pair check in _hook_sum applies the exact cutoff.
    if with_t1_denominator:
        return n * (n - 1) // 2
    return max(0, (n * n - 1) // 4)


def _hook_sum(qcap, js, *, with_t1_denominator):
    # The sum of inner_n / D_n, where D_n is the product over r = 1..n of
    # (1 - q^r)(1 - t2 q^r), times (1 - t1 q^r) with the t1 denominator.
    # Nested the Horner way from the largest n down,
    # acc = inner_n + acc / (D_{n+1} / D_n), so each level costs two or
    # three linear division steps instead of products of whole series.
    # acc is one dict of packed keys: each level divides it by the packed
    # steps q^r, t2 q^r (and t1 q^r), all in cap when r is, then adds
    # inner_n into it in place.  inner_n keeps the terms whose t1 exponent
    # j lies in js, an ascending range.  Every term has j <= e: e is at
    # least C(j + 1, 2) with the t1 denominator and at least
    # (n - j)^2 + C(j + 1, 2) without it.  So range(qcap + 1) keeps every
    # in-cap term.
    ctx = trivariate_context(qcap)
    layout = _layout(ctx.caps)
    # Variable order of trivariate_context is (q, t1, t2).
    _, t1, t2 = (1 << shift for shift in layout.shifts)
    top = 0
    while _hook_floor(top + 1, with_t1_denominator) <= qcap:
        top += 1
    acc = {}
    for n in range(top, -1, -1):
        r = n + 1
        if r <= qcap:
            acc = _div_one_minus(acc, layout, r)
            acc = _div_one_minus(acc, layout, r + t2)
            if with_t1_denominator:
                acc = _div_one_minus(acc, layout, r + t1)
        for j in js:
            if j > n:
                break
            for k in range(max(0, n - j), n + 1):
                e = _hook_exponent(n, j, k, with_t1_denominator)
                if e < 0:
                    raise ArithmeticError(f"negative exponent {e} at n={n}, j={j}, k={k}")
                if e > qcap:
                    continue
                if j > qcap or k > qcap:
                    raise ArithmeticError(f"t1 or t2 exponent above {qcap} at n={n}, j={j}, k={k}")
                sign = -1 if (j + k + n) % 2 else 1
                # [n; n - j, n - k, j + k - n] = [n, j] [j, n - k], cut at the cap.
                coeffs = _dense_mul(
                    gaussian_binomial_coeffs(n, j), gaussian_binomial_coeffs(j, n - k)
                )
                key = e + j * t1 + k * t2
                for c in coeffs[: qcap - e + 1]:
                    if c:
                        c = acc.get(key, 0) + sign * c
                        if c:
                            acc[key] = c
                        else:
                            del acc[key]
                    key += 1
    return Series._raw(ctx, acc)


def _euler_product(qcap, *, with_t1_denominator):
    # 1/((t1 q; q)oo (t2 q; q)oo), or (-t1 q; q)oo / (t2 q; q)oo without the
    # t1 denominator, from Euler's q-difference equations (G. E. Andrews,
    # The Theory of Partitions, 1976, ch. 2).  With c(e, j, k) the
    # coefficient of q^e t1^j t2^k, each equation gives a cell from two
    # cells of lower q-exponent:
    #   c(e, 0, k) = c(e - 1, 0, k - 1) + c(e - k, 0, k), from G(t2 q) = (1 - t2 q) G(t2);
    #   c(e, j, k) = c(e - 1, j - 1, k) + c(e - j, j, k) for j >= 1, from
    #     G(t1 q) = (1 - t1 q) G(t1), with the t1 denominator;
    #   c(e, j, k) = c(e - j, j, k) + c(e - j, j - 1, k) for j >= 1, from
    #     G(t1) = (1 + t1 q) G(t1 q), without it.
    # A cell other than (0, 0, 0) is nonzero exactly when j + k <= e, or
    # C(j + 1, 2) + k <= e without the denominator.  So the layers are
    # filled by ascending e, and the cells of layer e are those of layer
    # e - 1, each one q higher, and the cells whose bound is e.  keys,
    # reads and others hold each such cell's packed key and its two reads,
    # less e; every field is at most e, so each key read or written is in
    # cap, and each value written is positive.
    ctx = trivariate_context(qcap)
    # Variable order of trivariate_context is (q, t1, t2).
    _, t1, t2 = (1 << shift for shift in _layout(ctx.caps).shifts)
    keys, reads, others = [], [], []
    out = {0: 1}
    get = out.get
    for e in range(1, qcap + 1):
        key = e * t2
        keys.append(key)
        reads.append(key - 1 - t2)
        others.append(key - e)
        for j in range(1, e + 1):
            k = e - j if with_t1_denominator else e - j * (j + 1) // 2
            if k < 0:
                break
            key = j * t1 + k * t2
            shifted = key - j  # (e - j, j, k)
            keys.append(key)
            if with_t1_denominator:
                reads.append(key - 1 - t1)
                others.append(shifted)
            else:
                reads.append(shifted)
                others.append(shifted - t1)
        lower = map(get, map(add, reads, repeat(e)), repeat(0))
        out.update(
            zip(
                map(add, keys, repeat(e)),
                map(add, lower, map(get, map(add, others, repeat(e)), repeat(0))),
            )
        )
    return Series._raw(ctx, out)


def sum_side(identity, qcap, *, m=None, i=None):
    """The explicit double-sum side, summed until its minimal exponent leaves the caps.

    No identity with a sum side takes ``m`` or ``i``; any but None is refused.
    """
    _checked(identity, m, i)
    if identity == "ak_trivariate":
        return _hook_sum(qcap, range(qcap + 1), with_t1_denominator=True)
    if identity == "overpartition":
        return _hook_sum(qcap, range(qcap + 1), with_t1_denominator=False)
    raise ValueError(f"no sum side for {identity!r}")


# ---------------------------------------------------------------------------
# product sides


def _check_fixed(family, m, s, what):
    # Refuse any m or s (None when not given) but the family's own; s reads as a set of ints.
    fixed_m, fixed_s = family.fixed
    if m is not None:
        _check_modulus(m)
    if m not in (None, fixed_m) or s is not None and set(map(index, s)) != set(fixed_s):
        raise ValueError(f"this {what} is specific to modulus {fixed_m}, residues {set(fixed_s)}")


def _checked(identity, m, i, **caps):
    # (entry, its ring's cap if caps are given, report params, m, S) of one series
    # identity; S is an s-graded row's sorted residues, a given block 1..i as a range.
    entry = IDENTITY_TABLE.get(identity)
    if entry is None:
        raise ValueError(f"unknown identity {identity!r}")
    family, params, residues = entry.family, {}, None
    if family and family.fixed:
        # A fixed row may be given its own modulus, and an i whose block 1..i is its S.
        if i is not None and not isinstance(i, int):
            raise ValueError(f"residue block length must be an integer, got {i!r}")
        _check_fixed(family, m, None if i is None else range(1, i + 1), "identity")
        m, residues = family.fixed
    elif family:
        _check_modulus(m)
        if not isinstance(i, int) or not 1 <= i <= m:
            raise ValueError(f"residue block length must lie in 1..{m}, got {i!r}")
        params, residues = {"m": m, "i": i}, range(1, i + 1)
    elif m is not None or i is not None:
        raise ValueError("this identity takes no modulus or residues")
    name = RING_CAPS[entry.ring]
    for other, value in caps.items():
        if other != name and value is not None:
            raise ValueError(f"{identity} takes no {other}; its ring's cap is {name}")
    cap = _required(caps[name], name) if caps else None
    return entry, cap, params, m, residues


def product_side(identity, *, qcap=None, scap=None, m=None, i=None):
    """The infinite-product side, truncated to the caps.

    A q-graded product, 1/((t1 q; q)oo (t2 q; q)oo) for ``ak_trivariate``
    and (-t1 q; q)oo / (t2 q; q)oo for ``overpartition`` and ``cor22``, is
    filled by ``_euler_product`` in one pass over its cells, each
    coefficient the sum of two of lower q-degree.  An s-graded product is
    a list of Pochhammer families, built as one running series by
    ``_poch_product``, largest factors first.  It has bases q^c(r) s^r,
    c(r) = |S ∩ {1..r}|, and ratio q^|S| s^m, for r = 1..m in class P,
    1..m-1 in class D; no r past scap keeps s^r in the cap.
    """
    entry, _, _, m, s = _checked(identity, m, i, qcap=qcap, scap=scap)
    if entry.family is None:
        # cor22 compares against the overpartition product.
        return _euler_product(qcap, with_t1_denominator=identity == "ak_trivariate")
    ctx = size_graded_context(scap)
    ratio = ctx.monomial(q=len(s), s=m)
    top = min(m if entry.family.cls == "P" else m - 1, scap)
    families = [
        _Family(ctx.monomial(q=bisect_right(s, r), s=r), ratio, divide=True)
        for r in range(1, top + 1)
    ]
    return _poch_product(ctx, families)


def _required(value, name):
    if value is None:
        raise ValueError(f"{name} is required here")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------------------
# enumeration sides


def enum_side(identity, *, qcap=None, scap=None, m=None, i=None):
    """The brute-force generating function, graded exactly like the other sides."""
    entry, cap, _, m, s = _checked(identity, m, i, qcap=qcap, scap=scap)
    ctx = trivariate_context(cap) if entry.family is None else size_graded_context(cap)
    # Each table counts straight into the ring's keys: one bit field per variable.
    units = [1 << shift for shift in _layout(ctx.caps).shifts]
    if identity == "ak_trivariate":
        # The Schmidt side of the theorem: odd-index weight and the
        # residue column counts, not the product's colored model.
        table = _residue_columns(2, (1,), "P", cap, units)
    elif identity == "overpartition":
        table = _overpartition_table(cap, units)
    elif identity == "cor22":
        table = _cor22_counts(cap, units)
    else:
        table = _schmidt_weight_columns(m, s, entry.family.cls, cap, units)
    return Series._from_packed(ctx, table)


# ---------------------------------------------------------------------------
# the length recurrence


def ln_series(n, qcap):
    """Generating function for the bounded-repetition statistics over
    partitions with exactly ``n`` parts, by the three-term recurrence.

    The step factor for index ``r`` is ``Q_r/(1 - Q_r)`` with
    ``Q_{2k} = q^k`` and ``Q_{2k+1} = t2 q^{k+1}``; each new part
    contributes the previous three states, the two shorter ones weighted
    by ``t1``.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"part count must be a nonnegative integer, got {n!r}")
    ctx = trivariate_context(qcap)
    layout = _layout(ctx.caps)
    off, guard = layout.off, layout.guard
    # Variable order of trivariate_context is (q, t1, t2).
    _, t1, t2 = (1 << shift for shift in layout.shifts)
    # Two zero states before the empty partition's make the general step
    # also the step of r = 1 and r = 2.  Every state is a dict of packed
    # keys with positive counts, so no sum below cancels.
    seq = [{}, {}, {0: 1}]
    for r in range(1, n + 1):
        if (r + 1) // 2 > qcap:
            # Q_r leaves the caps, and so does every later Q_r: no state
            # from here on has a term.
            return Series._raw(ctx, {})
        # seq[r] = Q_r / (1 - Q_r) * (seq[r-1] + t1 (seq[r-2] + seq[r-3])):
        # key shifts by Q_r and t1 Q_r, each in cap, then one division step.
        quot = (r + 1) // 2 + r % 2 * t2
        tail = {key + quot: v for key, v in seq[-1].items() if not (key + quot + off) & guard}
        get = tail.get
        step = quot + t1
        for prev in (seq[-2], seq[-3]):
            for key, v in prev.items():
                key += step
                if not (key + off) & guard:
                    tail[key] = get(key, 0) + v
        seq.append(_div_one_minus(tail, layout, quot))
    return Series._raw(ctx, seq[-1])


# ---------------------------------------------------------------------------
# the two standalone checks


def cauchy_check(N, qcap=None):
    """Finite product (z; q)_N against its alternating binomial expansion."""
    if not isinstance(N, int) or N < 0:
        raise ValueError(f"factor count must be a nonnegative integer, got {N!r}")
    if qcap is None:
        qcap = N * (N - 1) // 2
    ctx = SeriesContext(("q", "z"), (qcap, N))
    lhs = poch_finite(ctx, ctx.monomial(z=1), ctx.monomial(q=1), N)
    rhs = _cauchy_sum(ctx, N)
    return _compare_sides(
        "cauchy",
        {"n": N},
        {"q": qcap, "z": N},
        [("product", lhs), ("sum", rhs)],
    )


def _cauchy_sum(ctx, N):
    # The sum of (-1)^k q^C(k,2) z^k [N, k], cut at the q cap of the ring
    # (q, z).  Each k's Gaussian coefficients are positive and fill a run
    # of consecutive q exponents under its own z^k, so one update per k
    # writes them, and no key is written twice.
    qcap = ctx.caps[0]
    z = 1 << _layout(ctx.caps).shifts[1]
    out = {}
    for k in range(N + 1):
        e = k * (k - 1) // 2
        if e > qcap:
            break
        coeffs = gaussian_binomial_coeffs(N, k)[: qcap - e + 1]
        start = e + k * z
        out.update(zip(range(start, start + len(coeffs)), map(neg, coeffs) if k % 2 else coeffs))
    return Series._raw(ctx, out)


def t1_slice_check(J, qcap):
    """One fixed power of t1, read off the double sum and off the closed form.

    The t1^J slice of the overpartition double sum is the sum of its
    ``j = J`` terms alone, exactly: the denominators ``D_n`` hold no t1,
    so every division step keeps a term's t1 degree, and no other term
    reaches t1^J.  Only those terms are summed, and the result is shifted
    from t1^J down to t1^0.
    """
    if not isinstance(J, int) or J < 0:
        raise ValueError(f"slice index must be a nonnegative integer, got {J!r}")
    qcap = _required(qcap, "qcap")
    ctx = trivariate_context(qcap)
    return _compare_sides(
        "t1_slice",
        {"j": J},
        {"q": qcap, "t1": qcap, "t2": qcap},
        [("sum_slice", _t1_slice_sum(ctx, J)), ("closed_form", _t1_slice_closed_form(ctx, J))],
    )


def _t1_slice_sum(ctx, J):
    # The j = J terms of the overpartition double sum, shifted from t1^J
    # down to t1^0.
    sliced = _hook_sum(ctx.caps[0], range(J, J + 1), with_t1_denominator=False)
    return _divide_by_monomial(sliced, ctx.monomial(t1=J))


def _t1_slice_closed_form(ctx, J):
    # q^C(J+1,2) / (q; q)_J times the sum over m of
    # q^(m^2) t2^m / ((q; q)_m (t2 q; q)_m), the sum nested the Horner way
    # on one dict of packed keys.  Its terms count partitions, so every
    # coefficient is positive.
    qcap = ctx.caps[0]
    layout = _layout(ctx.caps)
    off, guard = layout.off, layout.guard
    # Variable order of trivariate_context is (q, t1, t2).
    t2 = 1 << layout.shifts[2]
    prefix_e = J * (J + 1) // 2
    if prefix_e > qcap:
        return Series._raw(ctx, {})
    inner = {}
    for mm in range(isqrt(qcap), -1, -1):
        if mm < qcap:
            # 1 / ((1 - q^r) (1 - t2 q^r)) at r = mm + 1, both in cap.
            inner = _div_one_minus(_div_one_minus(inner, layout, mm + 1), layout, mm + 1 + t2)
        key = mm * mm + mm * t2
        inner[key] = inner.get(key, 0) + 1
    out = {key + prefix_e: v for key, v in inner.items() if not (key + prefix_e + off) & guard}
    # J <= C(J+1, 2) <= qcap, so every q^r below is in cap.
    for r in range(1, J + 1):
        out = _div_one_minus(out, layout, r)
    return Series._raw(ctx, out)


# ---------------------------------------------------------------------------
# the verifiers


def _side_builder(identity, label):
    # The builders are read when this runs, so wrappers installed on this module apply.
    for name, kind, source in IDENTITY_TABLE[identity].sides:
        if name == label:
            build = {"sum": sum_side, "product": product_side, "enum": enum_side}[kind]
            return partial(build, source)
    raise ValueError(f"{identity} has no {label} side")


def verify_identity(identity, *, qcap=None, scap=None, m=None, i=None):
    """Build every compared side of one identity and compare each with the first."""
    entry, cap, params, _, _ = _checked(identity, m, i, qcap=qcap, scap=scap)
    kwargs = {RING_CAPS[entry.ring]: cap, **params}
    sides = [(label, _side_builder(identity, label)(**kwargs)) for label, _, _ in entry.sides]
    return _compare_sides(identity, params, dict.fromkeys(entry.ring, cap), sides)


def _counting_buckets(theorem, n, m, s):
    # (params, Schmidt-side buckets, colored-side buckets, bucket_of) of
    # one counting theorem.  The Schmidt side counts the partitions of
    # Schmidt weight n; the colored side counts the colored partitions of
    # n without building them.  Neither reads the other.  bucket_of maps a
    # key of either side to the bucket it stands for.
    family = COUNTING_TABLE.get(theorem)
    if family is None:
        raise ValueError(f"unknown counting theorem {theorem!r}")
    if family.fixed:
        _check_fixed(family, m, s, "count")
        m, residues = family.fixed
    elif s is None:
        raise ValueError("a residue set is required here")
    else:
        residues = normalize_residue_set(m, s, allow_m=family.cls == "P")
    top = m if family.cls == "D" else m + 1
    params = {"m": m, "s": list(residues)}
    if family.fixed:
        lhs = _schmidt_weight_total(n, m, residues, family.cls)
        return params, {"total": lhs}, {"total": colored_partition_total(n, m, residues, top)}, str
    # Keys pack rho_1 .. rho_{m-1} (the counts of colors 1 .. m-1) and in class
    # P the image of the m-blocks (the sizes of the parts colored m), which
    # pools profiles: multiplicities 2 and 3 both bank one block at m = 2.
    lhs = schmidt_bucket_counts(n, m, residues, family.cls)
    rhs = colored_bucket_counts(n, m, residues, top)
    if family.cls == "D":
        return params, lhs, rhs, lambda key: split_bucket(key, n, m)[0]
    return params, lhs, rhs, lambda key: split_bucket(key, n, m)


def _bucket_label(theorem, n, params, bucket):
    family = COUNTING_TABLE[theorem]
    if family.fixed:
        return str(bucket)
    if family.cls == "D":
        return f"rho={bucket}"
    # The repetition profiles of the partitions in this bucket, from a
    # walk that only a failing report pays for.
    m, residues = params["m"], tuple(params["s"])
    rho, image = bucket
    profiles = set()
    for lam in partitions_with_schmidt_weight(n, m, residues, "P"):
        profile = repetition_profile(lam, m)
        blocks = sorted(
            (len(residues) * alpha for alpha, p in profile for _ in range(p // m)),
            reverse=True,
        )
        if tuple(blocks) == image and rho == tuple(
            residue_column_count(lam, m, j) for j in range(1, m)
        ):
            profiles.add(profile)
    return f"rho={rho} color_{m}_parts={image} profiles={tuple(sorted(profiles))}"


def verify_counting(theorem, *, n, m=None, s=None):
    """Bucket-by-bucket comparison of a Schmidt-side count with its colored-side count."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"weight must be a nonnegative integer, got {n!r}")
    params, lhs, rhs, bucket_of = _counting_buckets(theorem, n, m, s)
    caps = {"n": n}
    # dict equality runs in C; Counter's runs a Python generator.  Sides
    # that differ only by keys stored with count 0 still pass, as Counters.
    differing = ()
    if not dict.__eq__(lhs, rhs):
        keys = lhs.keys() | rhs.keys()
        differing = [key for key in keys if lhs.get(key, 0) != rhs.get(key, 0)]
    if not differing:
        return VerificationReport(theorem, params, caps, "pass")
    # Keys order otherwise than buckets, so only the mismatching keys are
    # unpacked, and the first of their buckets is the one labelled.
    key = min(differing, key=bucket_of)
    bucket = _bucket_label(theorem, n, params, bucket_of(key))
    mismatch = {"bucket": bucket, "lhs": lhs.get(key, 0), "rhs": rhs.get(key, 0)}
    return VerificationReport(theorem, params, caps, "fail", mismatch)


# ---------------------------------------------------------------------------
# witness extraction


def check_exponents(identity, exponents):
    """Raise ``ValueError`` unless ``exponents`` maps names in
    ``RING_VARIABLES`` (q, t1, t2, s) to nonnegative integers, none nonzero
    outside the identity's ring: a monomial in such a variable lies on none
    of its sides."""
    unknown = set(exponents) - set(RING_VARIABLES)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    for v, e in exponents.items():
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent for {v} must be a nonnegative integer, got {e!r}")
    outside = sorted(set(RING_VARIABLES) - set(IDENTITY_TABLE[identity].ring))
    if any(exponents.get(v) for v in outside):
        plural = "s" if len(outside) > 1 else ""
        raise ValueError(f"{identity} has no variable{plural} {', '.join(outside)}")


def witnesses(identity, exponents, *, m=None, i=None):
    """Serialized enumerated objects landing on one monomial of an enum side.

    ``exponents`` maps variable names (q, t1, t2, s) to target exponents;
    omitted variables mean zero.  A nonzero exponent of a variable the
    identity is not graded by (s for the q/t1/t2 identities, t1 or t2 for
    the s-graded ones) raises ``ValueError``.  Objects come back in
    enumeration order: partitions reverse-lexicographically, and within one
    partition the colorings or overlinings in the order of
    ``colored_partitions`` and ``overpartitions``.  Only objects on the
    monomial are built.
    """
    exps = dict(exponents)
    entry, _, _, m, s = _checked(identity, m, i)
    check_exponents(identity, exps)
    q = exps.get("q", 0)
    t1 = exps.get("t1", 0)
    t2 = exps.get("t2", 0)
    size = exps.get("s", 0)
    if identity == "ak_trivariate":
        # The 2-colored partitions of q with t1 parts colored 1 and t2
        # colored 2: each group of c copies takes j of color 1, the rest of
        # color 2 first, the tuples of j in lexicographic order.  A line
        # joins each group's text for its j, ColoredPartition.to_text's.
        lines = []
        for groups in _length_walk(q, t1 + t2):
            texts = [
                [",".join([f"{a}_2"] * (c - j) + [f"{a}_1"] * j) for j in range(c + 1)]
                for a, c in groups
            ]
            for ones in product(*(range(c + 1) for _, c in groups)):
                if sum(ones) == t1:
                    lines.append(",".join(map(getitem, texts, ones)))
        return lines
    if identity == "overpartition":
        # t1 of the sizes overlined, their flags in the order of
        # overpartitions: the sets of plain sizes in lexicographic order.
        return [
            Overpartition._trusted(
                tuple((a, c, g not in plain) for g, (a, c) in enumerate(groups))
            ).to_text()
            for groups in _length_walk(q, t1 + t2, t1)
            for plain in combinations(range(len(groups)), len(groups) - t1)
        ]
    if identity == "cor22":
        # Odd-index weight q and alternating sum t2 put q - t2 on the even
        # indices, so these are partitions of 2q - t2.
        stream = _weight_walk(2 * q - t2, 2, (1,), q, most=3, repeated=t1)
    else:
        stream = _weight_walk(size, m, s, q, most=_most(entry.family.cls, m))
    return [",".join([",".join([str(a)] * c) for a, c in groups]) for groups in stream]

