"""The linear-time series paths against the algorithms they replaced.

The sum sides are nested the Horner way and the Pochhammer builders,
``ln_series`` and the t1 slice are built from the two linear steps
``Series.mul_one_minus`` and ``Series.div_one_minus``.  The functions
below keep the earlier forms, which multiply whole truncated geometric
series and sum forward, as oracles; every comparison is exact equality.
"""

import pytest

from schmidtq import (
    Series,
    SeriesContext,
    geometric_inverse,
    ln_series,
    poch_finite,
    poch_infinite,
    poch_infinite_inverse,
    product_side,
    size_graded_context,
    sum_side,
    trivariate_context,
)
from schmidtq import identities
from schmidtq.identities import _hook_exponent, _t1_slice_closed_form
from schmidtq.series import gaussian_multinomial_coeffs


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


def factor(ctx, mon, coefficient=1):
    return Series(ctx, {tuple([0] * len(ctx.caps)): 1, tuple(mon): -coefficient})


def poch_finite_by_products(ctx, z, g, n, coefficient=1):
    # Nonconstant z only: the whole-series factor above merges 1 and -c
    # into one key when z is constant.
    result = ctx.one()
    cur = z
    for _ in range(n):
        if cur.within(ctx.caps):
            result = result * factor(ctx, cur, coefficient)
        elif not g.is_constant():
            break
        cur = cur * g
    return result


def poch_infinite_by_products(ctx, z, g, coefficient=1):
    result = ctx.one()
    cur = z
    while cur.within(ctx.caps):
        result = result * factor(ctx, cur, coefficient)
        cur = cur * g
    return result


def poch_infinite_inverse_by_products(ctx, z, g):
    result = ctx.one()
    cur = z
    while cur.within(ctx.caps):
        result = result * geometric_inverse(ctx, cur)
        cur = cur * g
    return result


def product_side_by_products(identity, *, qcap=None, scap=None, m=None, i=None):
    if identity == "ak_trivariate":
        ctx = trivariate_context(qcap)
        q = ctx.monomial(q=1)
        return poch_infinite_inverse_by_products(
            ctx, ctx.monomial(q=1, t1=1), q
        ) * poch_infinite_inverse_by_products(ctx, ctx.monomial(q=1, t2=1), q)
    if identity in ("overpartition", "cor22"):
        ctx = trivariate_context(qcap)
        q = ctx.monomial(q=1)
        numer = poch_infinite_by_products(ctx, ctx.monomial(q=1, t1=1), q, coefficient=-1)
        return numer * poch_infinite_inverse_by_products(ctx, ctx.monomial(q=1, t2=1), q)
    ctx = size_graded_context(scap)
    if identity == "mork_odd":
        return poch_infinite_inverse_by_products(ctx, ctx.monomial(q=1, s=1), ctx.monomial(q=1, s=2))
    if identity == "mork_even":
        return poch_infinite_inverse_by_products(ctx, ctx.monomial(s=1), ctx.monomial(q=1, s=2))
    ratio = ctx.monomial(q=i, s=m)
    last = m if identity == "psi_all" else m - 1
    out = ctx.one()
    for r in range(1, last + 1):
        out = out * poch_infinite_inverse_by_products(ctx, ctx.monomial(q=min(r, i), s=r), ratio)
    return out


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


# --- exact equality ----------------------------------------------------------


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
]


@pytest.mark.parametrize("ctx, base, ratio", POCH_CASES)
def test_pochhammer_builders_match_whole_series_products(ctx, base, ratio):
    z, g = ctx.monomial(**base), ctx.monomial(**ratio)
    for coefficient in (1, -1, 2):
        for n in (0, 1, 3, 20):
            assert poch_finite(ctx, z, g, n, coefficient) == poch_finite_by_products(
                ctx, z, g, n, coefficient
            )
        assert poch_infinite(ctx, z, g, coefficient) == poch_infinite_by_products(
            ctx, z, g, coefficient
        )
    assert poch_infinite_inverse(ctx, z, g) == poch_infinite_inverse_by_products(ctx, z, g)
    # A constant ratio repeats one factor n times.
    const = ctx.monomial()
    assert poch_finite(ctx, z, const, 4, 3) == poch_finite_by_products(ctx, z, const, 4, 3)


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_q_graded_product_sides_match_whole_series_products(identity):
    for qcap in (0, 1, 5, 12):
        want = product_side_by_products(identity, qcap=qcap)
        assert product_side(identity, qcap=qcap) == want, qcap


@pytest.mark.parametrize("identity", ["mork_odd", "mork_even"])
def test_interleave_product_sides_match_whole_series_products(identity):
    for scap in (0, 1, 7, 20):
        want = product_side_by_products(identity, scap=scap)
        assert product_side(identity, scap=scap) == want, scap


@pytest.mark.parametrize("identity", ["psi_all", "psi_dm"])
def test_residue_product_sides_match_whole_series_products(identity):
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            want = product_side_by_products(identity, scap=18, m=m, i=i)
            assert product_side(identity, scap=18, m=m, i=i) == want, (m, i)


def test_ln_series_matches_whole_series_recurrence():
    for n in range(8):
        assert ln_series(n, 16) == ln_series_by_products(n, 16), n


def test_t1_slice_closed_form_matches_whole_series_products():
    for J in range(4):
        for qcap in (0, 2, 9, 16):
            ctx = trivariate_context(qcap)
            assert _t1_slice_closed_form(ctx, J) == t1_closed_form_by_products(ctx, J), (J, qcap)


def test_negative_hook_exponent_raises(monkeypatch):
    # An explicit raise, not an assert, so the check survives python -O.
    monkeypatch.setattr(identities, "_hook_exponent", lambda n, j, k, with_t1: -1)
    with pytest.raises(ArithmeticError, match="negative exponent"):
        sum_side("overpartition", 4)
