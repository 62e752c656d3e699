"""Builders and verifiers for the partition identities.

Every identity gets its computable sides built independently, truncated
to explicit caps, and compared term-by-term:

- ``ak_trivariate``: the trivariate hook-exponent sum equals
  1/((t1 q; q)oo (t2 q; q)oo), which enumerates 2-colored partitions by
  color counts and size.
- ``overpartition``: the companion sum with exponent
  C(n,2) + C(k+1,2) + j^2 - nj + j equals (-t1 q; q)oo / (t2 q; q)oo,
  which enumerates overpartitions by overlined/plain part counts.
- ``cor22``: the bounded-repetition form: partitions with every
  multiplicity below 4, graded by repeated-size count, alternating sum,
  and odd-index weight, match the overpartition enumeration.
- ``mork_odd`` / ``mork_even``: distinct-part-free gradings of
  multiplicity-bounded partitions by odd/even index sums against the
  lacunary products 1/(qs; qs^2)oo and 1/(s; qs^2)oo.
- ``psi_all`` / ``psi_dm``: block-residue weights against the products
  over residue classes r with base s^r q^min(r, i) and ratio s^m q^i.

Counting theorems are verified bucket-by-bucket from scratch
enumerations on both sides.  All arithmetic is exact; a report either
passes or carries the first mismatching monomial or bucket.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from math import isqrt

from .colored import (
    color_counts,
    colored_partition_counts,
    colored_partitions,
    over_stats,
    overpartition_counts,
    overpartitions,
)
from .partitions import (
    Partition,
    in_class,
    normalize_residue_set,
    partitions_of,
    partitions_with_schmidt_weight,
    repetition_profile,
    residue_column_count,
    schmidt_weight,
)
from .series import (
    Series,
    SeriesContext,
    gaussian_multinomial_coeffs,
    poch_finite,
    poch_infinite,
    poch_infinite_inverse,
    q_binomial,
)

__all__ = [
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
]

SERIES_IDENTITIES = (
    "ak_trivariate",
    "overpartition",
    "cor22",
    "mork_odd",
    "mork_even",
    "psi_all",
    "psi_dm",
)

COUNTING_THEOREMS = ("schmidt", "uncu", "ak_main", "franklin_ext")


def trivariate_context(qcap):
    """Ring for the q/t1/t2 identities; uniform caps are exact because
    every monomial on every side has q-degree at least t1-degree + t2-degree."""
    if qcap < 0:
        raise ValueError(f"cap must be nonnegative, got {qcap}")
    return SeriesContext(("q", "t1", "t2"), (qcap, qcap, qcap))


def size_graded_context(scap):
    """Ring for the s-graded identities; the tracked weight never exceeds the size."""
    if scap < 0:
        raise ValueError(f"cap must be nonnegative, got {scap}")
    return SeriesContext(("q", "s"), (scap, scap))


# ---------------------------------------------------------------------------
# reports


def _stringify(value):
    # Decimal strings for every number so arbitrarily large counts survive
    # any JSON consumer.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
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


def _compare_sides(theorem, params, caps, sides):
    for idx_a in range(len(sides)):
        for idx_b in range(idx_a + 1, len(sides)):
            name_a, a = sides[idx_a]
            name_b, b = sides[idx_b]
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


def _hook_sum(qcap, with_t1_denominator):
    # The sum of inner_n / D_n, where D_n is the product over r = 1..n of
    # (1 - q^r)(1 - t2 q^r), times (1 - t1 q^r) with the t1 denominator.
    # Nested the Horner way from the largest n down,
    # acc = inner_n + acc / (D_{n+1} / D_n), so each level costs two or
    # three linear division steps instead of products of whole series.
    ctx = trivariate_context(qcap)
    inners = []
    n = 0
    while True:
        # Provable, monotone floor for the minimal q-exponent at this n;
        # the per-pair scan below applies the exact cutoff.
        if with_t1_denominator:
            floor = n * (n - 1) // 2
        else:
            floor = max(0, (n * n - 1) // 4)
        if n > 0 and floor > qcap:
            break
        inner = {}
        for j in range(n + 1):
            for k in range(max(0, n - j), n + 1):
                e = _hook_exponent(n, j, k, with_t1_denominator)
                if e < 0:
                    raise ArithmeticError(f"negative exponent {e} at n={n}, j={j}, k={k}")
                if e > qcap:
                    continue
                sign = -1 if (j + k + n) % 2 else 1
                # Variable order of trivariate_context is (q, t1, t2).
                for d, c in enumerate(
                    gaussian_multinomial_coeffs(n, (n - j, n - k, j + k - n))
                ):
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


def sum_side(identity, qcap):
    """The explicit double-sum side, summed until its minimal exponent leaves the caps."""
    if identity == "ak_trivariate":
        return _hook_sum(qcap, with_t1_denominator=True)
    if identity == "overpartition":
        return _hook_sum(qcap, with_t1_denominator=False)
    raise ValueError(f"no sum side for {identity!r}")


# ---------------------------------------------------------------------------
# product sides


def _psi_params(m, i):
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    if not isinstance(i, int) or not 1 <= i <= m:
        raise ValueError(f"residue block length must lie in 1..{m}, got {i!r}")
    return m, i


def product_side(identity, *, qcap=None, scap=None, m=None, i=None):
    """The infinite-product side, truncated to the caps."""
    if identity == "ak_trivariate":
        ctx = trivariate_context(_required(qcap, "qcap"))
        q = ctx.monomial(q=1)
        return poch_infinite_inverse(ctx, ctx.monomial(q=1, t1=1), q) * poch_infinite_inverse(
            ctx, ctx.monomial(q=1, t2=1), q
        )
    if identity in ("overpartition", "cor22"):
        ctx = trivariate_context(_required(qcap, "qcap"))
        q = ctx.monomial(q=1)
        numer = poch_infinite(ctx, ctx.monomial(q=1, t1=1), q, coefficient=-1)
        return numer * poch_infinite_inverse(ctx, ctx.monomial(q=1, t2=1), q)
    if identity == "mork_odd":
        ctx = size_graded_context(_required(scap, "scap"))
        return poch_infinite_inverse(ctx, ctx.monomial(q=1, s=1), ctx.monomial(q=1, s=2))
    if identity == "mork_even":
        ctx = size_graded_context(_required(scap, "scap"))
        return poch_infinite_inverse(ctx, ctx.monomial(s=1), ctx.monomial(q=1, s=2))
    if identity in ("psi_all", "psi_dm"):
        m, i = _psi_params(m, i)
        ctx = size_graded_context(_required(scap, "scap"))
        ratio = ctx.monomial(q=i, s=m)
        last = m if identity == "psi_all" else m - 1
        out = ctx.one()
        for r in range(1, last + 1):
            out = out * poch_infinite_inverse(ctx, ctx.monomial(q=min(r, i), s=r), ratio)
        return out
    raise ValueError(f"no product side for {identity!r}")


def _required(value, name):
    if value is None:
        raise ValueError(f"{name} is required here")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------------------
# enumeration sides


def _repeated_size_count(lam):
    # Number of part sizes occurring more than once; inside multiplicity-
    # below-4 partitions this is exactly the count of sizes used 2 or 3 times.
    return sum(1 for _, grp in groupby(lam.parts) if len(tuple(grp)) > 1)


def _cor22_counts(qcap):
    # One iterative preorder walk over every partition with odd-index
    # weight at most qcap and every multiplicity below 4, counted by
    # (weight, repeated sizes, alternating sum).  Appending part a at an odd
    # index adds a to the weight and to the alternating sum, at an even
    # index subtracts it from the alternating sum; a second copy of a size
    # makes it repeated, and a fourth copy is never appended.  Each node is
    # (weight, alternating sum, repeated sizes, last part, run length of the
    # last part, whether the next index is odd).
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


def enum_side(identity, *, qcap=None, scap=None, m=None, i=None):
    """The brute-force generating function, graded exactly like the other sides."""
    if identity == "ak_trivariate":
        qcap = _required(qcap, "qcap")
        acc = Counter()
        for n in range(qcap + 1):
            for (c1, c2), count in colored_partition_counts(n, 2, (1,), 3).items():
                acc[(n, c1, c2)] += count
        return Series(trivariate_context(qcap), acc)
    if identity == "overpartition":
        qcap = _required(qcap, "qcap")
        acc = Counter()
        for n in range(qcap + 1):
            for (overlined, plain), count in overpartition_counts(n).items():
                acc[(n, overlined, plain)] += count
        return Series(trivariate_context(qcap), acc)
    if identity == "cor22":
        qcap = _required(qcap, "qcap")
        return Series(trivariate_context(qcap), _cor22_counts(qcap))
    if identity in ("mork_odd", "mork_even"):
        scap = _required(scap, "scap")
        ctx = size_graded_context(scap)
        acc = Counter()
        for size in range(scap + 1):
            for lam in partitions_of(size, "D", 2):
                odd = schmidt_weight(lam, 2, (1,))
                w = odd if identity == "mork_odd" else size - odd
                acc[(w, size)] += 1
        return Series(ctx, acc)
    if identity in ("psi_all", "psi_dm"):
        m, i = _psi_params(m, i)
        scap = _required(scap, "scap")
        ctx = size_graded_context(scap)
        residues = tuple(range(1, i + 1))
        cls = "P" if identity == "psi_all" else "D"
        acc = Counter()
        for size in range(scap + 1):
            for lam in partitions_of(size, cls, m):
                acc[(schmidt_weight(lam, m, residues), size)] += 1
        return Series(ctx, acc)
    raise ValueError(f"no enumeration side for {identity!r}")


# ---------------------------------------------------------------------------
# the length recurrence


def ln_series(n, qcap):
    """Generating function for the bounded-repetition statistics over
    partitions with exactly ``n`` parts, by the three-term recurrence.

    The step factor for index ``r`` is ``Q_r/(1 - Q_r)`` with
    ``Q_{2k} = q^k`` and ``Q_{2k+1} = t2 q^{k+1}``; each new part beyond
    the second contributes the previous three states, the two shorter
    ones weighted by ``t1``.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"part count must be a nonnegative integer, got {n!r}")
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
        # seq[r] = Q_r / (1 - Q_r) * tail: a shift, then one division step.
        if r == 1:
            tail = ctx.one()
        elif r == 2:
            first = step_monomial(1)
            tail = t1
            if first.within(caps):
                tail = tail + ctx.term(1, first).div_one_minus(first)
        else:
            tail = seq[r - 1] + t1 * (seq[r - 2] + seq[r - 3])
        seq.append((ctx.term(1, quot) * tail).div_one_minus(quot))
    return seq[n]


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
    rhs = ctx.zero()
    for k in range(N + 1):
        e = k * (k - 1) // 2
        if e > qcap:
            continue
        sign = -1 if k % 2 else 1
        rhs = rhs + Series(ctx, {ctx.monomial(q=e, z=k): sign}) * q_binomial(ctx, N, k)
    return _compare_sides(
        "cauchy",
        {"n": N},
        {"q": qcap, "z": N},
        [("product", lhs), ("sum", rhs)],
    )


def t1_slice_check(J, qcap):
    """One fixed power of t1, read off the double sum and off the closed form."""
    if not isinstance(J, int) or J < 0:
        raise ValueError(f"slice index must be a nonnegative integer, got {J!r}")
    qcap = _required(qcap, "qcap")
    full = sum_side("overpartition", qcap)
    ctx = full.context
    sliced = {}
    for mon, coeff in full.sorted_terms():
        if mon[1] == J:
            sliced[(mon[0], 0, mon[2])] = coeff
    lhs = Series(ctx, sliced)
    return _compare_sides(
        "t1_slice",
        {"j": J},
        {"q": qcap, "t1": qcap, "t2": qcap},
        [("sum_slice", lhs), ("closed_form", _t1_slice_closed_form(ctx, J))],
    )


def _t1_slice_closed_form(ctx, J):
    # q^C(J+1,2) / (q; q)_J times the sum over m of
    # q^(m^2) t2^m / ((q; q)_m (t2 q; q)_m), the sum nested the Horner way.
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


# ---------------------------------------------------------------------------
# the verifiers


def verify_identity(identity, *, qcap=None, scap=None, m=None, i=None):
    """Build every available side of one identity and compare all pairs."""
    if identity in ("ak_trivariate", "overpartition"):
        qcap = _required(qcap, "qcap")
        sides = [
            ("sum", sum_side(identity, qcap)),
            ("product", product_side(identity, qcap=qcap)),
            ("enum", enum_side(identity, qcap=qcap)),
        ]
        return _compare_sides(
            identity, {}, {"q": qcap, "t1": qcap, "t2": qcap}, sides
        )
    if identity == "cor22":
        qcap = _required(qcap, "qcap")
        sides = [
            ("enum", enum_side("cor22", qcap=qcap)),
            ("enum_overpartition", enum_side("overpartition", qcap=qcap)),
            ("sum", sum_side("overpartition", qcap)),
            ("product", product_side("overpartition", qcap=qcap)),
        ]
        return _compare_sides(
            identity, {}, {"q": qcap, "t1": qcap, "t2": qcap}, sides
        )
    if identity in ("mork_odd", "mork_even"):
        scap = _required(scap, "scap")
        sides = [
            ("product", product_side(identity, scap=scap)),
            ("enum", enum_side(identity, scap=scap)),
        ]
        return _compare_sides(identity, {}, {"q": scap, "s": scap}, sides)
    if identity in ("psi_all", "psi_dm"):
        m, i = _psi_params(m, i)
        scap = _required(scap, "scap")
        sides = [
            ("product", product_side(identity, scap=scap, m=m, i=i)),
            ("enum", enum_side(identity, scap=scap, m=m, i=i)),
        ]
        return _compare_sides(
            identity, {"m": m, "i": i}, {"q": scap, "s": scap}, sides
        )
    raise ValueError(f"unknown identity {identity!r}")


def _bucket_report(theorem, params, caps, pairs):
    # pairs: ordered (bucket label, lhs count, rhs count)
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            return VerificationReport(
                theorem,
                params,
                caps,
                "fail",
                {"bucket": label, "lhs": lhs, "rhs": rhs},
            )
    return VerificationReport(theorem, params, caps, "pass")


def verify_counting(theorem, *, n, m=None, s=None):
    """Bucket-by-bucket comparison of a Schmidt-side count with its colored-side count."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"weight must be a nonnegative integer, got {n!r}")
    if theorem == "schmidt":
        _check_odd_index_count(m, s)
        lhs = sum(1 for _ in partitions_with_schmidt_weight(n, 2, (1,), "D"))
        rhs = sum(1 for _ in partitions_of(n))
        return _bucket_report(
            theorem, {"m": 2, "s": [1]}, {"n": n}, [("total", lhs, rhs)]
        )
    if theorem == "uncu":
        _check_odd_index_count(m, s)
        lhs = sum(1 for _ in partitions_with_schmidt_weight(n, 2, (1,), "P"))
        rhs = sum(1 for _ in colored_partitions(n, 2, (1,), 3))
        return _bucket_report(
            theorem, {"m": 2, "s": [1]}, {"n": n}, [("total", lhs, rhs)]
        )
    if theorem == "ak_main":
        residues = normalize_residue_set(m, _required_set(s), allow_m=False)
        rho_range = range(1, m)
        schmidt_buckets = Counter()
        for lam in partitions_with_schmidt_weight(n, m, residues, "D"):
            key = tuple(residue_column_count(lam, m, j) for j in rho_range)
            schmidt_buckets[key] += 1
        colored_buckets = Counter()
        for mu in colored_partitions(n, m, residues, m):
            counts = color_counts(mu, m)
            colored_buckets[counts[: m - 1]] += 1
        pairs = []
        for key in sorted(set(schmidt_buckets) | set(colored_buckets)):
            pairs.append(
                (f"rho={key}", schmidt_buckets.get(key, 0), colored_buckets.get(key, 0))
            )
        return _bucket_report(
            theorem, {"m": m, "s": list(residues)}, {"n": n}, pairs
        )
    if theorem == "franklin_ext":
        residues = normalize_residue_set(m, _required_set(s), allow_m=True)
        i = len(residues)
        rho_range = range(1, m)
        schmidt_buckets = Counter()
        for lam in partitions_with_schmidt_weight(n, m, residues, "P"):
            rho = tuple(residue_column_count(lam, m, j) for j in rho_range)
            profile = repetition_profile(lam, m)
            schmidt_buckets[(rho, profile)] += 1
        colored_buckets = Counter()
        for mu in colored_partitions(n, m, residues, m + 1):
            counts = color_counts(mu, m)
            top_parts = tuple(
                sorted((p for p, c in mu.parts if c == m), reverse=True)
            )
            colored_buckets[(counts[: m - 1], top_parts)] += 1
        # The Schmidt-side tuple drives the comparison, and its derived
        # colored-side condition is the bucket.  The floor in p // m
        # collapses distinct repetition profiles onto one condition (at
        # modulus 2, multiplicities 2 and 3 both bank one block), so
        # preimage counts are summed rather than assumed unique; each
        # derived bucket must then match the colored count on its own.
        derived = Counter()
        preimages = {}
        for (rho, profile), count in schmidt_buckets.items():
            image = []
            for alpha, p in profile:
                image.extend([i * alpha] * (p // m))
            ckey = (rho, tuple(sorted(image, reverse=True)))
            derived[ckey] += count
            preimages.setdefault(ckey, []).append(profile)
        pairs = []
        for ckey in sorted(set(derived) | set(colored_buckets)):
            rho, top_parts = ckey
            label = (
                f"rho={rho} color_{m}_parts={top_parts}"
                f" profiles={tuple(sorted(preimages.get(ckey, ())))}"
            )
            pairs.append((label, derived.get(ckey, 0), colored_buckets.get(ckey, 0)))
        return _bucket_report(
            theorem, {"m": m, "s": list(residues)}, {"n": n}, pairs
        )
    raise ValueError(f"unknown counting theorem {theorem!r}")


def _check_odd_index_count(m, s):
    # schmidt and uncu count odd-index weights: modulus 2, residues {1},
    # however the residue set is spelled.
    if m not in (None, 2) or (s is not None and normalize_residue_set(2, s) != (1,)):
        raise ValueError("this count is specific to modulus 2, residues {1}")


def _required_set(s):
    if s is None:
        raise ValueError("a residue set is required here")
    return s


# ---------------------------------------------------------------------------
# witness extraction


def witnesses(identity, exponents, *, m=None, i=None):
    """Serialized enumerated objects landing on one monomial of an enum side.

    ``exponents`` maps variable names (q, t1, t2, s) to target exponents;
    omitted variables mean zero.  Objects come back in enumeration order.
    """
    exps = dict(exponents)
    unknown = set(exps) - {"q", "t1", "t2", "s"}
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    for v, e in exps.items():
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent for {v} must be a nonnegative integer, got {e!r}")
    q = exps.get("q", 0)
    t1 = exps.get("t1", 0)
    t2 = exps.get("t2", 0)
    size = exps.get("s", 0)
    out = []
    if identity == "ak_trivariate":
        for mu in colored_partitions(q, 2, (1,), 3):
            if color_counts(mu, 2) == (t1, t2):
                out.append(mu.to_text())
    elif identity == "overpartition":
        for mu in overpartitions(q):
            o, length = over_stats(mu)
            if o == t1 and length - o == t2:
                out.append(mu.to_text())
    elif identity == "cor22":
        for lam in partitions_with_schmidt_weight(q, 2, (1,), "P"):
            if not in_class(lam, "D", 4):
                continue
            if _repeated_size_count(lam) == t1 and residue_column_count(lam, 2, 1) == t2:
                out.append(lam.to_text())
    elif identity in ("mork_odd", "mork_even"):
        for lam in partitions_of(size, "D", 2):
            odd = schmidt_weight(lam, 2, (1,))
            w = odd if identity == "mork_odd" else size - odd
            if w == q:
                out.append(lam.to_text())
    elif identity in ("psi_all", "psi_dm"):
        m, i = _psi_params(m, i)
        residues = tuple(range(1, i + 1))
        cls = "P" if identity == "psi_all" else "D"
        for lam in partitions_of(size, cls, m):
            if schmidt_weight(lam, m, residues) == q:
                out.append(lam.to_text())
    else:
        raise ValueError(f"no enumeration to search for {identity!r}")
    return out
