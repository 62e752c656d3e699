"""Truncated multivariate series: exact arithmetic inside a degree box.

Truncation is an ideal quotient (a term is dropped only when some
exponent exceeds its cap), so multiplication stays associative and
every surviving coefficient is exact. Oracles below re-derive the same
numbers by dense convolution and by enumeration.
"""

import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtq import (
    Monomial,
    Series,
    SeriesContext,
    geometric_inverse,
    partitions_of,
    poch_finite,
    poch_infinite,
    poch_infinite_inverse,
    q_binomial,
    q_multinomial,
)
from schmidtq.series import _layout, gaussian_multinomial_coeffs

from conftest import Exactly


QCTX = SeriesContext(("q",), (8,))
Q = QCTX.monomial(q=1)


def qpoly(*coeffs):
    return Series(QCTX, {(i,): c for i, c in enumerate(coeffs)})


def test_context_validation():
    with pytest.raises(ValueError):
        SeriesContext(("q", "q"), (2, 2))
    with pytest.raises(ValueError):
        SeriesContext(("t 1",), (2,))
    with pytest.raises(ValueError):
        SeriesContext(("q",), (2, 3))
    with pytest.raises(ValueError):
        SeriesContext(("q",), (-1,))


def test_context_takes_any_identifier_as_a_name():
    ctx = SeriesContext(("x1", "y"), (2, 3))
    assert ctx.monomial(x1=1, y=3) == (1, 3)
    with pytest.raises(ValueError):
        SeriesContext((1,), (2,))


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((-1,))
    assert Monomial((2, 1)) * Monomial((0, 3)) == Monomial((2, 4))
    assert Monomial((1, 2)) ** 3 == Monomial((3, 6))
    assert Monomial((0, 0)).is_constant()
    assert Monomial((2, 1)).within((2, 1))
    assert not Monomial((2, 1)).within((1, 1))


def test_series_rejects_out_of_cap_terms():
    with pytest.raises(ValueError):
        Series(QCTX, {(9,): 1})
    with pytest.raises(ValueError):
        Series(QCTX, {(1, 1): 1})


def test_series_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match=r"exponents must be nonnegative, got \(-1,\)"):
        Series(QCTX, {(-1,): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        Series(SeriesContext(("q", "t1"), (3, 3)), [((0, 1), 2), ((1, -1), 1)])


def test_series_rejects_a_key_that_is_not_a_sequence():
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        Series(QCTX, {5: 1})


def test_series_merges_duplicates_and_drops_zeros():
    # From an iterable, and from a generator that can be read only once.
    assert Series(QCTX, [((2,), 3), ((1,), 1), (Monomial((2,)), -3)]) == qpoly(0, 1)
    assert Series(QCTX, (kv for kv in [((2,), 3), ((2,), -3)])) == QCTX.zero()
    dropped = Series(QCTX, {(0,): 0, (1,): 2, (3,): 0})
    assert dropped == qpoly(0, 2) and len(dropped) == 1


def test_zero_variable_ring_holds_constants():
    ctx = SeriesContext((), ())
    five = Series(ctx, {(): 5})
    assert str(five) == "5"
    assert five + five == ctx.constant(10)
    assert Series(ctx, [((), 2), ((), -2)]) == ctx.zero()
    assert five * five == ctx.constant(25)
    assert five**2 == ctx.constant(25)
    assert five**0 == ctx.one()
    assert five * 3 == 3 * five == ctx.constant(15)
    assert five * ctx.zero() == ctx.zero()
    assert five * -five == ctx.constant(-25)


TCTX = SeriesContext(("q", "t"), (3, 2))


def outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except (TypeError, ValueError) as err:
        return type(err), str(err)


# Keys of TCTX's layout that no in-cap vector packs to: q takes bits 0-2
# and t bits 3-5, the top bit of each field its guard.
PACKED_FLAWS = {
    "field-above-cap": ({3 << 3: 1}, "exceeds caps"),  # t = 3, below t's guard bit
    "negative-key": ({-1: 1}, "no key of the layout"),
    "guard-bit": ({1 << 2: 1}, "no key of the layout"),  # q = 4
    "bit-past-layout": ({1 << 6: 1}, "no key of the layout"),
    "non-int-key": ({1.0: 1}, "must be ints"),
    "non-int-count": ({1: 2.0}, "must be ints"),
}


@pytest.mark.parametrize("flaw", PACKED_FLAWS)
def test_packed_constructor_refuses_keys_of_no_in_cap_vector(flaw):
    terms, message = PACKED_FLAWS[flaw]
    with pytest.raises(ValueError, match=message):
        Series._from_packed(TCTX, {0: 1, **terms})


def test_packed_constructor_takes_in_cap_keys_and_drops_zero_counts():
    pack = _layout(TCTX.caps).pack
    got = Series._from_packed(TCTX, {pack((1, 0)): 5, pack((3, 2)): -2, pack((0, 1)): 0})
    assert got == Series(TCTX, {(1, 0): 5, (3, 2): -2}) and len(got) == 2
    assert Series._from_packed(TCTX, {}) == TCTX.zero()
    ctx = SeriesContext((), ())
    assert Series._from_packed(ctx, {0: 5}) == ctx.constant(5)
    with pytest.raises(ValueError, match="no key of the layout"):
        Series._from_packed(ctx, {1: 5})


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_constructor_takes_exactly_the_keys_of_in_cap_vectors(data):
    # Any int may be drawn as a key; the constructor must take a dict
    # exactly when every key packs an in-cap vector, and then hold the
    # series the row constructor builds from those vectors.
    width = data.draw(st.integers(0, 4))
    caps = tuple(data.draw(st.lists(st.integers(0, 5), min_size=width, max_size=width)))
    ctx = SeriesContext(("q", "t1", "t2", "s")[:width], caps)
    layout = _layout(caps)
    vectors = {layout.pack(v): v for v in itertools.product(*(range(cap + 1) for cap in caps))}
    key = st.sampled_from(sorted(vectors)) | st.integers(-4, 2 << layout.width)
    keys = data.draw(st.lists(key, max_size=8, unique=True))
    counts = data.draw(st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys)))
    got = outcome(lambda: Series._from_packed(ctx, dict(zip(keys, counts))))
    if set(keys) <= set(vectors):
        assert got == Series(ctx, {vectors[k]: c for k, c in zip(keys, counts)})
        assert all(got._terms.values())
    else:
        assert got[0] is ValueError


NOT_AN_INTEGER = "cannot be interpreted as an integer"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Series(QCTX, {(2.5,): 1}),
        lambda: Series(QCTX, {(2,): 1.9}),
        lambda: Series(QCTX, {("3",): 1}),
        lambda: Series(QCTX, [((2.0,), 1)]),
        lambda: qpoly(0, 0, 4).coefficient((2.7,)),
        lambda: SeriesContext(("q",), (8.5,)),
        lambda: Monomial((1.5,)),
        lambda: gaussian_multinomial_coeffs(3, (1.0, 2)),
    ],
    ids=[
        "float-exponent",
        "float-coefficient",
        "str-exponent",
        "integral-float-in-iterable",
        "float-coefficient-lookup",
        "float-cap",
        "float-monomial",
        "float-part",
    ],
)
def test_inexact_input_raises_type_error(build):
    with pytest.raises(TypeError, match=NOT_AN_INTEGER):
        build()


def test_bools_and_index_types_count_as_integers():
    assert Series(QCTX, {(Exactly(3),): True}) == Series(QCTX, {(3,): 1})
    assert Series(QCTX, [((True,), Exactly(3))]) == qpoly(0, 3)
    assert qpoly(0, 0, 0, 7).coefficient((Exactly(3),)) == 7
    assert SeriesContext(("q",), (Exactly(3),)).caps == (3,)
    assert Monomial((True, Exactly(3))) == (1, 3)
    assert gaussian_multinomial_coeffs(3, (Exactly(3), False)) == (1,)


def test_basic_arithmetic():
    one = QCTX.one()
    a = one + QCTX.term(1, Q)
    b = one - QCTX.term(1, Q)
    assert a * b == qpoly(1, 0, -1)
    assert a - a == QCTX.zero()
    assert (a + a) == 2 * a
    assert -b == qpoly(-1, 1)
    assert a ** 3 == qpoly(1, 3, 3, 1)


def test_multiplication_truncates_to_caps():
    ctx = SeriesContext(("q",), (2,))
    a = Series(ctx, {(0,): 1, (1,): 1, (2,): 1})
    b = Series(ctx, {(0,): 1, (1,): 1})
    assert a * b == Series(ctx, {(0,): 1, (1,): 2, (2,): 2})


# A cap of 2 leaves its field's top bit clear at 3, so only the cap check's
# offset tells an exponent of 3 from an in-cap one.
EDGE = SeriesContext(("q", "t"), (2, 2))
EDGE_A = Series(EDGE, {(1, 0): 2, (2, 2): -1, (0, 1): 3})


def test_single_term_shift_past_a_cap_gives_zero():
    # Every term of a has q and t at least 1, so q^2, t^2 or both take each
    # one past a cap, some to exactly 3.
    a = Series(EDGE, {(1, 1): 2, (2, 2): -1, (1, 2): 3})
    for key in ((2, 0), (0, 2), (2, 2)):
        term = EDGE.term(-5, key)
        assert (a * term)._terms == (term * a)._terms == {}
    assert (EDGE.term(4, (1, 2)) * EDGE.term(1, (2, 1)))._terms == {}


def test_single_term_one_and_minus_one():
    assert EDGE_A * EDGE.one() == EDGE.one() * EDGE_A == EDGE_A
    assert EDGE_A * EDGE.constant(-1) == EDGE.constant(-1) * EDGE_A == -EDGE_A
    assert EDGE_A * EDGE.term(-1, (0, 1)) == Series(EDGE, {(1, 1): -2, (0, 2): -3})
    assert EDGE.one() * EDGE.one() == EDGE.one()


def test_a_series_plus_its_negation_is_empty():
    for a in (EDGE_A, EDGE.one(), EDGE.zero()):
        assert (a + (-a))._terms == {} and (-a + a)._terms == {}
        assert not (a - a)


def test_a_sum_walks_only_the_smaller_operand():
    # A sum copies the larger operand and looks up only the smaller one's
    # keys, so one term added to a long series is one lookup either way.
    ctx = SeriesContext(("q",), (2000,))
    long = Series(ctx, {(e,): 1 for e in range(2001)})
    one = Series(ctx, {(3,): 5})
    for a, b in ((long, one), (one, long)):
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "c_call" and calls.append(arg.__name__))
        try:
            total = a + b
        finally:
            sys.setprofile(None)
        assert calls.count("get") == 1
        assert total.coefficient(ctx.monomial(q=3)) == 6 and len(total) == 2001


def test_coefficient_access():
    a = qpoly(1, 2)
    assert a.coefficient((1,)) == 2
    assert a.coefficient_at(q=5) == 0
    assert a.coefficient(QCTX.monomial()) == 1


def test_geometric_inverse():
    assert geometric_inverse(QCTX, Q) == qpoly(1, 1, 1, 1, 1, 1, 1, 1, 1)
    sq = QCTX.monomial(q=2)
    assert geometric_inverse(QCTX, sq) == qpoly(1, 0, 1, 0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        geometric_inverse(QCTX, QCTX.monomial())


def test_finite_pochhammer():
    ctx = SeriesContext(("q", "z"), (6, 6))
    z, q = ctx.monomial(z=1), ctx.monomial(q=1)
    got = poch_finite(ctx, z, q, 2)
    want = Series(ctx, {(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1})
    assert got == want
    assert poch_finite(ctx, z, q, 0) == ctx.one()
    assert poch_finite(QCTX, Q, Q, 3) == qpoly(1, -1, -1, 0, 1, 1, -1)
    # A constant base contributes the factor 1 - coefficient.
    assert poch_finite(QCTX, QCTX.monomial(), Q, 2) == QCTX.zero()
    assert poch_finite(QCTX, QCTX.monomial(), Q, 2, coefficient=3) == qpoly(-2, 6)


def test_infinite_pochhammer_inverse_counts_partitions():
    ctx = SeriesContext(("q",), (5,))
    inv = poch_infinite_inverse(ctx, ctx.monomial(q=1), ctx.monomial(q=1))
    got = [inv.coefficient((n,)) for n in range(6)]
    assert got == [1, 1, 2, 3, 5, 7]
    assert got == [sum(1 for _ in partitions_of(n)) for n in range(6)]


def test_negated_base_counts_distinct_partitions():
    ctx = SeriesContext(("q",), (4,))
    s = poch_infinite(ctx, ctx.monomial(q=1), ctx.monomial(q=1), coefficient=-1)
    got = [s.coefficient((n,)) for n in range(5)]
    assert got == [1, 1, 1, 2, 2]
    assert got == [sum(1 for _ in partitions_of(n, "D", 2)) for n in range(5)]


def test_infinite_pochhammer_validation():
    with pytest.raises(ValueError):
        poch_infinite(QCTX, QCTX.monomial(), Q)
    with pytest.raises(ValueError):
        poch_infinite_inverse(QCTX, Q, QCTX.monomial())


def test_q_binomial_small_values():
    assert q_binomial(QCTX, 2, 1) == qpoly(1, 1)
    assert q_binomial(QCTX, 4, 2) == qpoly(1, 1, 2, 1, 1)
    assert q_binomial(QCTX, 5, 0) == QCTX.one()
    assert q_binomial(QCTX, 3, 5) == QCTX.zero()


def test_q_binomial_divides_factorials():
    # [n,k] * (q;q)_k * (q;q)_{n-k} = (q;q)_n, checked without division.
    ctx = SeriesContext(("q",), (40,))
    q = ctx.monomial(q=1)
    for n in range(8):
        fact_n = poch_finite(ctx, q, q, n)
        for k in range(n + 1):
            lhs = q_binomial(ctx, n, k) * poch_finite(ctx, q, q, k) * poch_finite(
                ctx, q, q, n - k
            )
            assert lhs == fact_n, (n, k)


def test_q_binomial_pascal_recurrence():
    ctx = SeriesContext(("q",), (30,))
    for n in range(1, 8):
        for k in range(1, n):
            lhs = q_binomial(ctx, n, k)
            rhs = q_binomial(ctx, n - 1, k - 1) + Series(
                ctx, {(k,): 1}
            ) * q_binomial(ctx, n - 1, k)
            assert lhs == rhs


def test_q_binomial_symmetry_and_palindromy():
    ctx = SeriesContext(("q",), (30,))
    for n in range(8):
        for k in range(n + 1):
            b = q_binomial(ctx, n, k)
            assert b == q_binomial(ctx, n, n - k)
            coeffs = [b.coefficient((d,)) for d in range(k * (n - k) + 1)]
            assert coeffs == coeffs[::-1]
            assert all(c >= 0 for c in coeffs)
            assert b.coefficient((k * (n - k),)) == 1


def test_q_multinomial():
    ctx = SeriesContext(("q",), (30,))
    assert q_multinomial(ctx, 4, (4, 0, 0)) == ctx.one()
    assert q_multinomial(ctx, 3, (1, 1, 1)) == q_binomial(ctx, 3, 1) * q_binomial(ctx, 2, 1)
    with pytest.raises(ValueError):
        q_multinomial(ctx, 3, (1, 1))
    with pytest.raises(ValueError):
        q_multinomial(ctx, 3, (4, -1))


def test_canonical_text_and_json():
    ctx = SeriesContext(("q", "t1"), (4, 4))
    a = Series(ctx, {(2, 0): -3, (0, 0): 1, (1, 1): 1})
    assert str(a) == "1 + q*t1 - 3*q^2"
    blob = a.to_json_dict()
    assert blob["variables"] == ["q", "t1"]
    assert [t["coefficient"] for t in blob["terms"]] == ["1", "1", "-3"]
    parsed = json.loads(a.to_json_text())
    assert parsed == blob
    assert str(ctx.zero()) == "0"


# Unequal caps, so that a product can overflow one cap while fitting the others.
CONTEXTS = (
    SeriesContext(("q",), (9,)),
    SeriesContext(("q", "s"), (6, 3)),
    SeriesContext(("q", "t1", "t2"), (5, 2, 1)),
)


def exponents(ctx, slack=0):
    return st.tuples(*(st.integers(0, cap + slack) for cap in ctx.caps))


def series_in(ctx):
    terms = st.lists(st.tuples(exponents(ctx), st.integers(-5, 5)), max_size=10)
    return terms.map(lambda ts: Series(ctx, ts))


def box(ctx):
    return list(itertools.product(*(range(cap + 1) for cap in ctx.caps)))


@given(st.data())
def test_multiplication_matches_dense_convolution(data):
    ctx = data.draw(st.sampled_from(CONTEXTS))
    a = data.draw(series_in(ctx))
    b = data.draw(series_in(ctx))
    cells = box(ctx)
    dense = {k: 0 for k in cells}
    for i in cells:
        for j in cells:
            k = tuple(x + y for x, y in zip(i, j))
            if k in dense:
                dense[k] += a.coefficient(i) * b.coefficient(j)
    got = a * b
    assert {k: got.coefficient(k) for k in cells} == dense


@given(st.data(), st.integers(-3, 3))
def test_multiply_step_matches_full_multiply(data, c):
    # Monomials include constants and ones free of q, like the s base of mork_even.
    ctx = data.draw(st.sampled_from(CONTEXTS))
    a = data.draw(series_in(ctx))
    mono = data.draw(exponents(ctx))
    assert a.mul_one_minus(mono, c) == a * (ctx.one() - ctx.term(c, mono))


@given(st.data())
def test_divide_step_matches_geometric_inverse(data):
    ctx = data.draw(st.sampled_from(CONTEXTS))
    a = data.draw(series_in(ctx))
    mono = data.draw(exponents(ctx, slack=1).filter(any))
    assert a.div_one_minus(mono) == a * geometric_inverse(ctx, mono)


def test_divide_step_rejects_a_constant_monomial():
    with pytest.raises(ValueError):
        qpoly(1, 2).div_one_minus(QCTX.monomial())
    with pytest.raises(ValueError):
        qpoly(1, 2).div_one_minus((1, 0))


@given(st.integers(1, 4), st.integers(0, 4), st.integers(4, 10))
def test_geometric_inverse_is_exact_inverse(eq, et, cap):
    # (1 - x) * (1 + x + ... + x^T) == 1 exactly, because the next power
    # falls outside the caps and is dropped by the quotient.
    ctx = SeriesContext(("q", "t1"), (cap, cap))
    mono = ctx.monomial(q=eq, t1=et)
    inv = geometric_inverse(ctx, mono)
    one_minus = ctx.one() - ctx.term(1, mono)
    assert one_minus * inv == ctx.one()
