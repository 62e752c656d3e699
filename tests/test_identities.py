"""Series identities, counting theorems, reports, and witness extraction."""

import json
import re
import sys
import time
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import pytest

from schmidtq import (
    Series,
    SeriesContext,
    VerificationReport,
    cauchy_check,
    enum_side,
    geometric_inverse,
    in_class,
    ln_series,
    partitions_of,
    partitions_with_schmidt_weight,
    poch_infinite_inverse,
    product_side,
    residue_column_count,
    size_graded_context,
    sum_side,
    t1_slice_check,
    trivariate_context,
    verify_counting,
    verify_identity,
    witnesses,
)
from schmidtq import identities
from schmidtq.identities import (
    COUNTING_TABLE,
    COUNTING_THEOREMS,
    IDENTITY_TABLE,
    RING_CAPS,
    SERIES_IDENTITIES,
    Family,
    SeriesIdentity,
    _compare_sides,
    _series_mismatch,
)

from conftest import every_residue_set, repeated_size_count, traced_peak


# --- contexts ----------------------------------------------------------------


def test_contexts():
    ctx = trivariate_context(5)
    assert ctx.variables == ("q", "t1", "t2")
    assert ctx.caps == (5, 5, 5)
    ctx = size_graded_context(7)
    assert ctx.variables == ("q", "s")
    assert ctx.caps == (7, 7)
    with pytest.raises(ValueError):
        trivariate_context(-1)
    with pytest.raises(ValueError):
        size_graded_context(-2)


# --- reports -----------------------------------------------------------------


def test_report_validation():
    ok = VerificationReport("x", {}, {"q": 3}, "pass")
    assert ok.passed and ok.mismatch is None and ok.evidence_text() == ""
    with pytest.raises(ValueError):
        VerificationReport("x", {}, {}, "maybe")
    with pytest.raises(ValueError):
        VerificationReport("x", {}, {}, "fail")  # no evidence


def _all_strings(node):
    if isinstance(node, dict):
        return all(isinstance(k, str) for k in node) and all(
            _all_strings(v) for v in node.values()
        )
    if isinstance(node, list):
        return all(_all_strings(v) for v in node)
    return isinstance(node, str)


def test_report_json_uses_decimal_strings():
    bad = VerificationReport(
        "x",
        {"m": 3, "s": [1, 2]},
        {"q": 10},
        "fail",
        {"monomial": {"q": 2}, "lhs": 10**30, "rhs": 0, "sides": ["a", "b"]},
    )
    data = bad.to_json_dict()
    assert _all_strings(data)
    assert data["mismatch"]["lhs"] == str(10**30)
    parsed = json.loads(bad.to_json_text())
    assert parsed == data
    assert bad.to_json_text() == json.dumps(data, separators=(",", ":"), sort_keys=True)


def test_report_evidence_lines():
    bad = VerificationReport(
        "x",
        {},
        {},
        "fail",
        {"monomial": {"q": 2, "t1": 1}, "lhs": 3, "rhs": 4, "sides": ["sum", "enum"]},
    )
    assert bad.evidence_text() == "first mismatch at q^2*t1 (sum vs enum): 3 != 4"
    bucket = VerificationReport(
        "x", {}, {}, "fail", {"bucket": "rho=(1,)", "lhs": 1, "rhs": 2}
    )
    assert bucket.evidence_text() == "bucket rho=(1,): 1 != 2"


def test_series_mismatch_finds_first_by_graded_order():
    ctx = SeriesContext(("q",), (6,))
    a = Series(ctx, {(0,): 1, (2,): 5, (4,): 9})
    b = Series(ctx, {(0,): 1, (2,): 5, (4,): 9})
    assert _series_mismatch("a", a, "b", b) is None
    c = Series(ctx, {(0,): 1, (2,): 6, (4,): 0})
    got = _series_mismatch("a", a, "c", c)
    assert got == {"monomial": {"q": 2}, "lhs": 5, "rhs": 6, "sides": ["a", "c"]}
    report = _compare_sides("x", {}, {"q": 6}, [("a", a), ("c", c)])
    assert not report.passed and report.mismatch["monomial"] == {"q": 2}


# --- frozen coefficients -----------------------------------------------------


def test_constant_terms_at_cap_zero():
    for build in (
        lambda: sum_side("ak_trivariate", 0),
        lambda: product_side("ak_trivariate", qcap=0),
        lambda: enum_side("ak_trivariate", qcap=0),
        lambda: sum_side("overpartition", 0),
        lambda: product_side("overpartition", qcap=0),
        lambda: enum_side("overpartition", qcap=0),
    ):
        series = build()
        assert [(tuple(m), c) for m, c in series.sorted_terms()] == [((0, 0, 0), 1)]


def test_two_color_coefficient():
    assert sum_side("ak_trivariate", 4).coefficient_at(q=3, t1=1, t2=1) == 2
    assert product_side("ak_trivariate", qcap=4).coefficient_at(q=3, t1=1, t2=1) == 2
    assert enum_side("ak_trivariate", qcap=4).coefficient_at(q=3, t1=1, t2=1) == 2
    assert witnesses("ak_trivariate", {"q": 3, "t1": 1, "t2": 1}) == [
        "2_2,1_1",
        "2_1,1_2",
    ]


def test_overpartition_coefficient_on_every_side():
    for series in (
        sum_side("overpartition", 6),
        product_side("overpartition", qcap=6),
        enum_side("overpartition", qcap=6),
        enum_side("cor22", qcap=6),
    ):
        assert series.coefficient_at(q=6, t1=1, t2=2) == 6


def test_specializing_both_tracking_variables_recovers_totals():
    # Setting t1 = t2 = 1 sums the coefficients of each power of q: 10
    # colored pairs of total 3 with the two-then-one palette, and 8
    # overpartitions of 3.
    for identity, total in (("ak_trivariate", 10), ("overpartition", 8)):
        terms = enum_side(identity, qcap=3).sorted_terms()
        assert sum(c for mon, c in terms if mon[0] == 3) == total


def test_size_graded_slices():
    mo = enum_side("mork_odd", scap=3)
    assert [(tuple(m), c) for m, c in mo.sorted_terms() if m[1] == 3] == [
        ((2, 3), 1),
        ((3, 3), 1),
    ]
    pa = enum_side("psi_all", scap=2, m=2, i=1)
    assert [(tuple(m), c) for m, c in pa.sorted_terms() if m[1] == 2] == [
        ((1, 2), 1),
        ((2, 2), 1),
    ]


# --- full verifications ------------------------------------------------------


@pytest.mark.parametrize("identity", ["ak_trivariate", "overpartition", "cor22"])
def test_trivariate_identities_pass(identity):
    report = verify_identity(identity, qcap=8)
    assert report.passed
    assert report.caps == {"q": 8, "t1": 8, "t2": 8}
    assert report.theorem == identity


def test_ak_trivariate_passes_at_a_large_cap():
    # The Schmidt side against the sum and product sides where the colored
    # model of the product used to take seconds.
    assert verify_identity("ak_trivariate", qcap=40).passed


@pytest.mark.parametrize("identity", ["mork_odd", "mork_even"])
def test_interleave_identities_pass(identity):
    report = verify_identity(identity, scap=10)
    assert report.passed
    assert report.caps == {"q": 10, "s": 10}


@pytest.mark.parametrize("m,i", [(2, 1), (2, 2), (3, 2)])
def test_residue_product_identities_pass(m, i):
    for identity in ("psi_all", "psi_dm"):
        report = verify_identity(identity, scap=8, m=m, i=i)
        assert report.passed
        assert report.params == {"m": m, "i": i}


@pytest.mark.parametrize(
    "identity, caps",
    [
        ("mork_odd", {"scap": 60}),
        ("mork_even", {"scap": 60}),
        ("psi_all", {"scap": 60, "m": 3, "i": 2}),
        ("psi_dm", {"scap": 60, "m": 4, "i": 2}),
        ("cor22", {"qcap": 30}),
    ],
)
def test_identities_pass_at_large_caps(identity, caps):
    # The enum sides count in one pass over part sizes, so these caps are
    # in reach: psi_all at s-cap 60 counts the 6.6 million partitions of
    # sizes 0-60 without walking them.
    assert verify_identity(identity, **caps).passed


def test_verify_is_deterministic():
    a = verify_identity("overpartition", qcap=6).to_json_text()
    b = verify_identity("overpartition", qcap=6).to_json_text()
    assert a == b


def test_bounded_class_product_is_a_factor_of_the_full_one():
    # Dropping the top residue block's factor turns the all-partitions
    # product into the bounded-multiplicity one.
    for m, i in ((2, 1), (3, 2), (4, 4)):
        ctx = size_graded_context(8)
        full = product_side("psi_all", scap=8, m=m, i=i)
        part = product_side("psi_dm", scap=8, m=m, i=i)
        missing = poch_infinite_inverse(
            ctx, ctx.monomial(q=min(m, i), s=m), ctx.monomial(q=i, s=m)
        )
        assert part * missing == full


# --- side independence -------------------------------------------------------

PACKAGE = Path(identities.__file__).parent

# The loops that build a side's terms or counts, as (module, function).
PRODUCT_KERNELS = {
    ("series", "_div_one_minus"),
    ("series", "_mul_one_minus"),
    ("series", "_poch_product"),
    ("identities", "_euler_product"),
}
KERNELS = PRODUCT_KERNELS | {
    ("partitions", "_table"),
    ("partitions", "_bucket_walk"),
    ("partitions", "_walk"),
    ("colored", "_coin_table"),
    ("identities", "_hook_sum"),
    ("identities", "_cauchy_sum"),
    ("series", "_dense_mul"),
}


def reached(call, under=None):
    """Run ``call()`` under ``sys.setprofile``; the package functions it
    reaches, as (module, function) pairs, keyed by the line that the code
    ``under`` was running when each was called (None without ``under``)."""
    groups = defaultdict(set)

    def hook(frame, event, arg):
        code = frame.f_code
        if event != "call" or Path(code.co_filename).parent != PACKAGE:
            return
        outer = frame.f_back
        while under is not None and outer is not None and outer.f_code is not under:
            outer = outer.f_back
        if under is None or outer is not None:
            groups[outer.f_lineno if under else None].add((Path(code.co_filename).stem, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return groups


@pytest.mark.parametrize("identity", SERIES_IDENTITIES)
def test_every_pair_of_sides_reaches_disjoint_kernels(identity):
    # A fault in a kernel that two sides share could corrupt both alike
    # and still pass, so no two sides of a row share one, and no enum side
    # reaches a product's.  Every row of the table is audited.
    entry = IDENTITY_TABLE[identity]
    kwargs = {RING_CAPS[entry.ring]: 8}
    if entry.family and not entry.family.fixed:
        kwargs.update(m=3, i=2)
    kernels = {}
    for label, kind, _ in entry.sides:
        build = identities._side_builder(identity, label)
        kernels[label] = reached(lambda: build(**kwargs))[None] & KERNELS
        assert kernels[label], label
        if kind == "enum":
            assert kernels[label] & PRODUCT_KERNELS == set(), label
    for a, b in combinations(kernels, 2):
        assert kernels[a] & kernels[b] == set(), (a, b)


@pytest.mark.parametrize("theorem", COUNTING_THEOREMS)
def test_the_sides_of_a_counting_theorem_share_only_the_input_checks(theorem):
    m, s = (None, None) if COUNTING_TABLE[theorem].fixed else (3, (1, 2))
    groups = reached(
        lambda: identities._counting_buckets(theorem, 8, m, s),
        under=identities._counting_buckets.__code__,
    )
    lhs, rhs = [funcs for funcs in groups.values() if funcs & KERNELS]
    assert lhs & rhs <= {("partitions", "_check_modulus"), ("partitions", "normalize_residue_set")}


def test_the_two_sides_of_cauchy_check_reach_disjoint_kernels():
    # The product (z; q)_N takes multiply steps, and the sum writes the
    # Gaussian coefficients of each k, so the two share no kernel.
    # t1_slice_check is not audited: its double-sum slice and its closed
    # form both divide by (q; q) factors with _div_one_minus, so that pair
    # shares a kernel by construction.
    groups = reached(lambda: cauchy_check(8), under=cauchy_check.__code__)
    product, total = [funcs & KERNELS for funcs in groups.values() if funcs & KERNELS]
    assert {("series", "_poch_product"), ("series", "_mul_one_minus")} <= product
    assert ("identities", "_cauchy_sum") in total
    assert product & total == set()


# --- every residue set -------------------------------------------------------


def residue_set_row(monkeypatch, cls, m, s):
    """The name of an s-graded row fixing (m, s), put in the table for one test."""
    name = f"set_{cls}_{m}_{'_'.join(map(str, s))}"
    row = SeriesIdentity(("q", "s"), (), Family(cls, (m, s)))
    monkeypatch.setitem(IDENTITY_TABLE, name, row)
    return name


def test_s_graded_product_matches_the_table_on_every_residue_set(monkeypatch):
    # Bases q^c(r) s^r, c(r) = |S ∩ {1..r}|, and ratio q^|S| s^m against the
    # sized table, for sets without 1 too: the size bounds the table.
    for m in (2, 3, 4, 5):
        scap = 16 if m <= 3 else 12
        for s in every_residue_set(m):
            for cls in ("P", "D"):
                row = residue_set_row(monkeypatch, cls, m, s)
                assert product_side(row, scap=scap) == enum_side(row, scap=scap), (m, s, cls)


def test_witnesses_match_the_filtered_class_on_every_residue_set(monkeypatch):
    for m in (2, 3, 4):
        for cls in ("P", "D"):
            members = [list(partitions_of(size, cls, m)) for size in range(13)]
            for s in every_residue_set(m):
                row = residue_set_row(monkeypatch, cls, m, s)
                for size, lams in enumerate(members):
                    weights = [
                        sum(p for k, p in enumerate(lam.parts) if k % m + 1 in s) for lam in lams
                    ]
                    for q in range(size + 2):
                        want = [lam.to_text() for lam, w in zip(lams, weights) if w == q]
                        got = witnesses(row, {"q": q, "s": size})
                        assert got == want, (m, s, cls, size, q)


def test_mork_even_is_the_weight_on_the_even_residue():
    # The even-index sum is the class-D weight on S = {2} at m = 2.
    assert IDENTITY_TABLE["mork_even"].family == Family("D", (2, (2,)))
    ctx = size_graded_context(12)
    want = poch_infinite_inverse(ctx, ctx.monomial(s=1), ctx.monomial(q=1, s=2))
    assert product_side("mork_even", scap=12) == enum_side("mork_even", scap=12) == want
    assert witnesses("mork_even", {"q": 2, "s": 5}) == ["3,2"]


@pytest.mark.parametrize("identity", ["psi_all", "psi_dm"])
def test_s_graded_sides_at_a_huge_modulus_stay_small(identity):
    # With at most 5 parts no index passes 5 and no s^r past r = 5 is in
    # the cap, so the sides at m = 10^6 are those at m = 6, and neither
    # their time nor their memory grows with m.
    builds = {
        "product": lambda m: product_side(identity, scap=5, m=m, i=1),
        "enum": lambda m: enum_side(identity, scap=5, m=m, i=1),
        "witness": lambda m: witnesses(identity, {"q": 3, "s": 5}, m=m, i=2),
    }
    got = {}
    for side, build in builds.items():
        start = time.perf_counter()
        got[side] = build(10**6)
        elapsed = time.perf_counter() - start
        assert got[side] == build(6), side
        assert elapsed < 0.5, (side, elapsed)
        assert traced_peak(build, 10**6) < 1_000_000, side
    assert got["product"] == got["enum"]


def test_weight_walks_keep_no_state_that_grows_with_the_modulus():
    # The walk flags the first n indices only, whatever m is.
    assert traced_peak(lambda: list(partitions_of(12, "D", 10**8))) < 100_000
    assert traced_peak(lambda: witnesses("psi_all", {"q": 3, "s": 5}, m=10**8, i=2)) < 100_000


def test_identity_argument_errors():
    with pytest.raises(ValueError):
        sum_side("mork_odd", 5)
    with pytest.raises(ValueError):
        verify_identity("nope", qcap=3)
    with pytest.raises(ValueError):
        verify_identity("overpartition")  # qcap missing
    with pytest.raises(ValueError):
        verify_identity("psi_all", scap=5, m=1, i=1)
    with pytest.raises(ValueError):
        verify_identity("psi_all", scap=5, m=3, i=4)
    with pytest.raises(ValueError):
        product_side("ak_trivariate", qcap=-1)
    with pytest.raises(ValueError):
        enum_side("nope", qcap=3)


def test_rows_refuse_a_modulus_or_block_they_do_not_take():
    # A mork row fixes m = 2 and S, and may be given m and a block 1..i that
    # is its S: i = 1 for mork_odd's {1}, none for mork_even's {2}.  A
    # q-graded row takes neither.  Every builder refuses alike.
    refused = [(3, 2), (5, None), (None, 2), (2, 2), (3, 1)]
    for identity, own, blocks in (("mork_odd", 1, (None, 1)), ("mork_even", 2, (None,))):
        fixed = re.escape(f"this identity is specific to modulus 2, residues {{{own}}}")
        for m, i in [(m, i) for m in (None, 2) for i in blocks]:
            assert verify_identity(identity, scap=6, m=m, i=i).passed
        for m, i in refused + [(m, 1) for m in (None, 2) if 1 not in blocks]:
            for build in (verify_identity, product_side, enum_side):
                with pytest.raises(ValueError, match=fixed):
                    build(identity, scap=6, m=m, i=i)
            with pytest.raises(ValueError, match=fixed):
                witnesses(identity, {"q": 3, "s": 5}, m=m, i=i)
    for identity in ("ak_trivariate", "overpartition", "cor22"):
        for m, i in ((3, 2), (2, 1), (2, None), (None, 1)):
            for build in (verify_identity, product_side, enum_side):
                with pytest.raises(ValueError, match="takes no modulus or residues"):
                    build(identity, qcap=4, m=m, i=i)
            with pytest.raises(ValueError, match="takes no modulus or residues"):
                witnesses(identity, {"q": 3}, m=m, i=i)
    with pytest.raises(ValueError, match="takes no modulus or residues"):
        sum_side("ak_trivariate", 4, m=3, i=2)
    assert sum_side("ak_trivariate", 4, m=None, i=None) == sum_side("ak_trivariate", 4)


def test_fixed_rows_refuse_a_float_modulus():
    # 2.0 == 2, but a modulus is an int, as psi_dm already demands.
    message = "modulus must be an integer >= 2, got 2.0"
    with pytest.raises(ValueError, match=message):
        witnesses("mork_odd", {"q": 2, "s": 3}, m=2.0)
    with pytest.raises(ValueError, match=message):
        verify_counting("schmidt", n=4, m=2.0)
    assert witnesses("mork_odd", {"q": 2, "s": 3}, m=2) == ["2,1"]


def test_fixed_rows_refuse_a_float_block():
    with pytest.raises(ValueError, match="residue block length must be an integer, got 1.0"):
        witnesses("mork_even", {"q": 1, "s": 3}, i=1.0)
    assert witnesses("mork_odd", {"q": 1, "s": 3}, i=1) == witnesses("mork_odd", {"q": 1, "s": 3})


def test_fixed_counting_rows_take_their_own_modulus_and_residues_as_a_set():
    # schmidt and uncu fix m = 2, S = {1}: the residues are read as a set of
    # ints, and anything else is refused naming {1}.
    fixed = re.escape("this count is specific to modulus 2, residues {1}")
    for theorem in ("schmidt", "uncu"):
        plain = verify_counting(theorem, n=6)
        for m, s in ((2, None), (None, (1,)), (None, [1, 1]), (2, {1})):
            assert verify_counting(theorem, n=6, m=m, s=s) == plain, (m, s)
        for m, s in ((3, None), (None, (2,)), (None, (1, 2)), (None, ()), (3, (1,))):
            with pytest.raises(ValueError, match=fixed):
                verify_counting(theorem, n=6, m=m, s=s)
        with pytest.raises(TypeError):
            verify_counting(theorem, n=6, s=(1.0,))
    # mork_even's S = {2} is no block 1..i, while mork_odd's {1} is i = 1.
    with pytest.raises(ValueError, match=re.escape("modulus 2, residues {2}")):
        witnesses("mork_even", {"q": 1, "s": 3}, i=1)


def test_rows_refuse_the_other_rings_cap():
    with pytest.raises(ValueError, match="ak_trivariate takes no scap"):
        verify_identity("ak_trivariate", qcap=8, scap=3)
    for build in (verify_identity, product_side, enum_side):
        with pytest.raises(ValueError, match="mork_odd takes no qcap"):
            build("mork_odd", scap=5, qcap=99)
    assert product_side("mork_odd", scap=5, qcap=None) == product_side("mork_odd", scap=5)


def test_readme_identity_table_matches_the_identity_table():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Identity and theorem ids", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            ident, grading, sides = (cell.strip() for cell in line.split("|")[1:4])
            rows.append((ident.strip("`"), tuple(grading.split(", ")), tuple(sides.split(", "))))
    assert rows == [
        (ident, entry.ring, tuple(label for label, _, _ in entry.sides))
        for ident, entry in IDENTITY_TABLE.items()
    ]


def _failing(theorem, params, caps, lhs, rhs, sides):
    mismatch = {"monomial": {}, "lhs": lhs, "rhs": rhs, "sides": sides}
    return VerificationReport(theorem, params, caps, "fail", mismatch)


_Q4 = {"q": 4, "t1": 4, "t2": 4}
_S4 = {"q": 4, "s": 4}


@pytest.mark.parametrize(
    "identity, kwargs, expected",
    [
        ("ak_trivariate", {"qcap": 4}, _failing("ak_trivariate", {}, _Q4, 1, 2, ["sum", "enum"])),
        ("overpartition", {"qcap": 4}, _failing("overpartition", {}, _Q4, 1, 2, ["sum", "enum"])),
        ("cor22", {"qcap": 4}, _failing("cor22", {}, _Q4, 2, 1, ["enum", "sum"])),
        ("mork_odd", {"scap": 4}, _failing("mork_odd", {}, _S4, 1, 2, ["product", "enum"])),
        ("mork_even", {"scap": 4}, _failing("mork_even", {}, _S4, 1, 2, ["product", "enum"])),
        (
            "psi_all",
            {"scap": 4, "m": 3, "i": 2},
            _failing("psi_all", {"m": 3, "i": 2}, _S4, 1, 2, ["product", "enum"]),
        ),
        (
            "psi_dm",
            {"scap": 4, "m": 3, "i": 2},
            _failing("psi_dm", {"m": 3, "i": 2}, _S4, 1, 2, ["product", "enum"]),
        ),
    ],
)
def test_failing_reports_pin_sides_params_and_caps(monkeypatch, identity, kwargs, expected):
    # Every enum side gains 1 on its constant term, through the module
    # attribute the verifier must look up when it runs.  cor22 compares its
    # own enum side and the overpartition one first, so both agree and the
    # first mismatch is against the sum side.
    original = identities.enum_side

    def bumped(*args, **kw):
        series = original(*args, **kw)
        return series + series.context.one()

    monkeypatch.setattr(identities, "enum_side", bumped)
    assert verify_identity(identity, **kwargs) == expected


# --- length recurrence -------------------------------------------------------


def test_length_recurrence_base_values():
    assert [(tuple(m), c) for m, c in ln_series(0, 3).sorted_terms()] == [((0, 0, 0), 1)]
    assert ln_series(1, 3).coefficient_at(q=1, t2=1) == 1
    assert ln_series(3, 6).coefficient_at(q=2, t1=1, t2=1) == 1
    assert not list(ln_series(5, 2).sorted_terms())  # step factor leaves the caps
    with pytest.raises(ValueError):
        ln_series(-1, 3)


def _exact_length_enumeration(n, qcap):
    ctx = trivariate_context(qcap)
    acc = {}
    for w in range(qcap + 1):
        for lam in partitions_with_schmidt_weight(w, 2, (1,), "P"):
            if len(lam) != n or not in_class(lam, "D", 4):
                continue
            key = (w, repeated_size_count(lam), residue_column_count(lam, 2, 1))
            acc[key] = acc.get(key, 0) + 1
    return Series(ctx, acc)


def test_length_recurrence_matches_enumeration():
    for n in range(6):
        assert ln_series(n, 8) == _exact_length_enumeration(n, 8)


def test_length_recurrence_sums_to_the_identity():
    qcap = 8
    ctx = trivariate_context(qcap)
    total = ctx.zero()
    for n in range(2 * qcap + 2):
        total = total + ln_series(n, qcap)
    assert total == enum_side("cor22", qcap=qcap)


# --- standalone checks -------------------------------------------------------


def test_cauchy_explicit_two_factor_case():
    report = cauchy_check(2)
    assert report.passed
    assert report.caps == {"q": 1, "z": 2}
    ctx = SeriesContext(("q", "z"), (2, 2))
    product = (ctx.one() - Series(ctx, {ctx.monomial(z=1): 1})) * (
        ctx.one() - Series(ctx, {ctx.monomial(q=1, z=1): 1})
    )
    expected = Series(
        ctx,
        {
            ctx.monomial(): 1,
            ctx.monomial(z=1): -1,
            ctx.monomial(q=1, z=1): -1,
            ctx.monomial(q=1, z=2): 1,
        },
    )
    assert product == expected


def test_cauchy_ranges():
    assert cauchy_check(0).passed
    assert cauchy_check(12, 30).passed
    with pytest.raises(ValueError):
        cauchy_check(-1)


def test_fixed_power_slice():
    assert t1_slice_check(0, 8).passed
    assert t1_slice_check(1, 10).passed
    assert t1_slice_check(2, 12).passed
    with pytest.raises(ValueError):
        t1_slice_check(-1, 5)


# --- counting theorems -------------------------------------------------------


def test_counting_small_cases():
    assert verify_counting("schmidt", n=3).passed
    assert verify_counting("uncu", n=3).passed
    assert verify_counting("ak_main", n=5, m=3, s={1, 2}).passed
    assert verify_counting("franklin_ext", n=5, m=2, s={1}).passed


def test_franklin_profile_collision_regression():
    # At modulus 2 the repetition profiles ((1, 2),) and ((1, 3),) bank the
    # same single block, so their counts must be pooled before comparing
    # against the colored side; weight 5 is the first place this matters.
    report = verify_counting("franklin_ext", n=5, m=2, s={1})
    assert report.passed


def test_counting_argument_errors():
    with pytest.raises(ValueError):
        verify_counting("schmidt", n=3, m=3)
    with pytest.raises(ValueError):
        verify_counting("uncu", n=3, s=(1, 2))
    with pytest.raises(ValueError):
        verify_counting("ak_main", n=3, m=3)  # residues required
    with pytest.raises(ValueError):
        verify_counting("ak_main", n=3, m=3, s={1, 3})  # 3 = m not allowed here
    with pytest.raises(ValueError):
        verify_counting("franklin_ext", n=3, m=2, s={2})  # 1 must be present
    with pytest.raises(ValueError):
        verify_counting("schmidt", n=-1)
    with pytest.raises(ValueError):
        verify_counting("nope", n=3)


@pytest.mark.parametrize(
    "check, params, caps",
    [
        (
            lambda: verify_identity("psi_all", scap=4, m=3, i=True),
            {"i": "1", "m": "3"},
            {"q": "4", "s": "4"},
        ),
        (lambda: verify_counting("schmidt", n=True), {"m": "2", "s": ["1"]}, {"n": "1"}),
        (lambda: cauchy_check(True), {"n": "1"}, {"q": "0", "z": "1"}),
        (lambda: t1_slice_check(True, 3), {"j": "1"}, {"q": "3", "t1": "3", "t2": "3"}),
    ],
    ids=["verify_identity", "verify_counting", "cauchy_check", "t1_slice_check"],
)
def test_bool_parameters_serialize_as_ints(check, params, caps):
    # Bools read as ints here, as Partition([True]) is 1.
    data = check().to_json_dict()
    assert (data["params"], data["caps"]) == (params, caps)


# --- witness extraction ------------------------------------------------------


def test_witness_lists():
    assert witnesses("cor22", {"q": 6, "t1": 1, "t2": 2}) == [
        "5,3,1,1",
        "4,4,2",
        "4,3,1,1,1",
        "4,2,2,2",
        "3,3,3,1",
        "3,2,2,2,1",
    ]
    assert witnesses("overpartition", {"q": 6, "t1": 1, "t2": 2}) == [
        "4,1',1",
        "4',1,1",
        "3,2,1'",
        "3,2',1",
        "3',2,1",
        "2',2,2",
    ]
    assert witnesses("psi_all", {"q": 2, "s": 2}, m=2, i=1) == ["2"]
    assert witnesses("mork_odd", {"q": 2, "s": 3}) == ["2,1"]


def test_witness_counts_match_coefficients():
    series = enum_side("overpartition", qcap=5)
    for mon, coeff in series.sorted_terms():
        found = witnesses(
            "overpartition", {"q": mon[0], "t1": mon[1], "t2": mon[2]}
        )
        assert len(found) == coeff


def test_witness_argument_errors():
    with pytest.raises(ValueError):
        witnesses("overpartition", {"z": 1})
    with pytest.raises(ValueError):
        witnesses("overpartition", {"q": -1})
    with pytest.raises(ValueError):
        witnesses("nope", {"q": 1})
    with pytest.raises(ValueError):
        witnesses("psi_all", {"q": 1, "s": 1})  # m, i required


def test_witnesses_reject_variables_outside_the_grading():
    # No object lands on a monomial that is on none of the identity's sides.
    with pytest.raises(ValueError, match="no variable s"):
        witnesses("cor22", {"s": 3})
    with pytest.raises(ValueError, match="no variables t1, t2"):
        witnesses("mork_odd", {"t1": 2, "q": 1, "s": 1})
    with pytest.raises(ValueError, match="no variables t1, t2"):
        witnesses("psi_dm", {"q": 2, "s": 2, "t2": 1}, m=2, i=1)
    # A zero exponent leaves the monomial on the series, as coeff accepts it.
    assert witnesses("cor22", {"q": 6, "t1": 1, "t2": 2, "s": 0}) == witnesses(
        "cor22", {"q": 6, "t1": 1, "t2": 2}
    )
    assert witnesses("mork_odd", {"q": 2, "s": 3, "t1": 0}) == ["2,1"]
