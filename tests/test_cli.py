"""Command-line behavior: outputs, exit codes, JSON shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schmidtq.cli as cli
from schmidtq import VerificationReport, identities
from schmidtq.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- map ---------------------------------------------------------------------


def test_map_mork_forward(capsys):
    code, out, err = _run(
        capsys, "map", "--bijection", "mork", "--partition", "7,5,4,4,2,1"
    )
    assert (code, out, err) == (0, "12,10,7,5,3,2,1\n", "")


def test_map_mork_inverse(capsys):
    code, out, _ = _run(
        capsys, "map", "--bijection", "mork", "--inverse", "--partition", "12,10,7,5,3,2,1"
    )
    assert (code, out) == (0, "7,5,4,4,2,1\n")


def test_map_psi_both_directions(capsys):
    code, out, _ = _run(
        capsys,
        "map", "--bijection", "psi", "--m", "5", "--s", "1,2,3",
        "--partition", "5,5,4,4,4,4,4,4,3,2,1",
    )
    assert (code, out) == (0, "7_1,6_5,6_4,6_3,2_2\n")
    code, out, _ = _run(
        capsys,
        "map", "--bijection", "psi", "--m", "5", "--s", "1,2,3", "--inverse",
        "--partition", "7_1,6_5,6_4,6_3,2_2",
    )
    assert (code, out) == (0, "5,5,4,4,4,4,4,4,3,2,1\n")


def test_map_glaisher_pair_syntax(capsys):
    code, out, _ = _run(
        capsys, "map", "--bijection", "glaisher", "--m", "2", "--partition", "4,4,3,1"
    )
    assert (code, out) == (0, "2,2,1,1;6\n")
    code, out, _ = _run(
        capsys,
        "map", "--bijection", "glaisher", "--m", "2", "--inverse",
        "--partition", "2,2,1,1;6",
    )
    assert (code, out) == (0, "4,4,3,1\n")


def test_map_decompose_pair_syntax(capsys):
    code, out, _ = _run(
        capsys, "map", "--bijection", "decompose", "--m", "2", "--partition", "2,1,1"
    )
    assert (code, out) == (0, "2;1,1\n")
    code, out, _ = _run(
        capsys,
        "map", "--bijection", "decompose", "--m", "2", "--inverse", "--partition", "2;1,1",
    )
    assert (code, out) == (0, "2,1,1\n")


def test_map_decompose_inverse_refuses_a_pair_outside_the_image(capsys):
    # 3,3;1 keeps a part m times in low, and 3;3,3,3 a multiplicity of
    # bulk not divisible by m: decompose sends 3,3,1 to 1;3,3.
    for pair in ("3,3;1", "3;3,3,3"):
        code, out, err = _run(
            capsys, "map", "--bijection", "decompose", "--m", "2", "--inverse", "--partition", pair
        )
        assert (code, out) == (2, "") and "is not a decomposition at m = 2" in err, pair
    code, out, _ = _run(
        capsys, "map", "--bijection", "decompose", "--m", "2", "--inverse", "--partition", "1;3,3"
    )
    assert (code, out) == (0, "3,3,1\n")


def test_map_rejects_bad_input(capsys):
    code, _, err = _run(
        capsys, "map", "--bijection", "mork", "--inverse", "--partition", "3,3"
    )
    assert code == 2 and "error:" in err
    code, _, err = _run(
        capsys, "map", "--bijection", "psi", "--partition", "2,1"
    )
    assert code == 2 and "--m is required" in err
    code, _, err = _run(
        capsys, "map", "--bijection", "glaisher", "--m", "2", "--inverse",
        "--partition", "2,2,1,1",
    )
    assert code == 2 and "two ;-separated" in err


# --- coeff -------------------------------------------------------------------


def test_coeff_product_side(capsys):
    code, out, err = _run(
        capsys,
        "coeff", "--identity", "overpartition", "--side", "product",
        "--mono", "q=6,t1=1,t2=2",
    )
    assert (code, out, err) == (0, "6\n", "")


def test_coeff_agrees_across_sides(capsys):
    results = []
    for side in ("sum", "product", "enum"):
        code, out, _ = _run(
            capsys,
            "coeff", "--identity", "ak_trivariate", "--side", side,
            "--mono", "q=3,t1=1,t2=1",
        )
        assert code == 0
        results.append(out)
    assert results == ["2\n"] * 3


def test_coeff_cor22_delegates_sum_and_product(capsys):
    # The enumeration side is its own, the closed sides are shared.
    for side in ("sum", "product", "enum"):
        code, out, _ = _run(
            capsys,
            "coeff", "--identity", "cor22", "--side", side, "--mono", "q=6,t1=1,t2=2",
        )
        assert (code, out) == (0, "6\n")


def test_coeff_takes_every_report_label(capsys):
    # A failing verify cor22 names its sides by these labels.
    code, out, _ = _run(
        capsys,
        "coeff", "--identity", "cor22", "--side", "enum_overpartition",
        "--mono", "q=6,t1=1,t2=2",
    )
    assert (code, out) == (0, "6\n")
    code, _, err = _run(
        capsys,
        "coeff", "--identity", "overpartition", "--side", "enum_overpartition",
        "--mono", "q=6,t1=1,t2=2",
    )
    assert code == 2 and "overpartition has no enum_overpartition side" in err


def test_coeff_size_graded(capsys):
    code, out, _ = _run(
        capsys, "coeff", "--identity", "mork_odd", "--side", "enum", "--mono", "q=2,s=3"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = _run(
        capsys,
        "coeff", "--identity", "psi_all", "--side", "product",
        "--m", "2", "--s", "1", "--mono", "q=2,s=2",
    )
    assert (code, out) == (0, "1\n")


def test_coeff_usage_errors(capsys):
    code, _, err = _run(
        capsys, "coeff", "--identity", "mork_odd", "--side", "sum", "--mono", "q=2,s=3"
    )
    assert code == 2 and "no sum side" in err
    code, _, err = _run(
        capsys, "coeff", "--identity", "overpartition", "--side", "sum", "--mono", "q=x"
    )
    assert code == 2
    code, _, err = _run(
        capsys,
        "coeff", "--identity", "overpartition", "--side", "sum",
        "--mono", "q=6", "--q-cap", "3",
    )
    assert code == 2 and "below the requested" in err
    code, _, err = _run(
        capsys, "coeff", "--identity", "overpartition", "--side", "sum", "--mono", "s=2"
    )
    assert code == 2 and "no variable s" in err
    code, _, err = _run(
        capsys, "coeff", "--identity", "mork_odd", "--side", "enum", "--mono", "t1=1"
    )
    assert code == 2 and "no variables t1, t2" in err


# --- witness -----------------------------------------------------------------


def test_witness_listing(capsys):
    code, out, _ = _run(
        capsys, "witness", "--identity", "overpartition", "--mono", "q=6,t1=1,t2=2"
    )
    assert code == 0
    assert out.splitlines() == ["4,1',1", "4',1,1", "3,2,1'", "3,2',1", "3',2,1", "2',2,2"]
    code, out, _ = _run(
        capsys, "witness", "--identity", "cor22", "--mono", "q=6,t1=1,t2=2"
    )
    assert out.splitlines() == [
        "5,3,1,1", "4,4,2", "4,3,1,1,1", "4,2,2,2", "3,3,3,1", "3,2,2,2,1",
    ]


def test_witness_rejects_variables_outside_the_grading(capsys):
    # The same monomials coeff rejects, with the same exit code and message.
    code, out, err = _run(capsys, "witness", "--identity", "cor22", "--mono", "s=3")
    assert (code, out) == (2, "") and "no variable s" in err
    code, out, err = _run(
        capsys, "witness", "--identity", "mork_odd", "--mono", "t1=2,q=1,s=1"
    )
    assert (code, out) == (2, "") and "no variables t1, t2" in err


def test_monomials_name_only_ring_variables(capsys):
    # z is a series variable of the Cauchy check, but no identity's ring has it.
    for command in (["coeff", "--side", "enum"], ["witness"]):
        code, out, err = _run(
            capsys, *command, "--identity", "overpartition", "--mono", "q=2,z=1"
        )
        assert (code, out) == (2, "") and "--mono: bad monomial component 'z=1'" in err


def test_witness_requires_psi_parameters(capsys):
    code, _, err = _run(
        capsys, "witness", "--identity", "psi_all", "--mono", "q=2,s=2"
    )
    assert code == 2 and "--m is required" in err


# --- verify ------------------------------------------------------------------


def test_verify_series_identities(capsys):
    code, out, _ = _run(capsys, "verify", "overpartition", "--q-cap", "12")
    assert (code, out) == (0, "overpartition: pass\n")
    code, out, _ = _run(capsys, "verify", "cor22", "--q-cap", "8")
    assert (code, out) == (0, "cor22: pass\n")
    code, out, _ = _run(capsys, "verify", "mork_even", "--s-cap", "10")
    assert (code, out) == (0, "mork_even: pass\n")
    code, out, _ = _run(
        capsys, "verify", "psi_dm", "--m", "3", "--s", "1,2", "--s-cap", "8"
    )
    assert (code, out) == (0, "psi_dm: pass\n")


def test_verify_counting_theorems(capsys):
    code, out, _ = _run(capsys, "verify", "schmidt", "--n", "4")
    assert (code, out) == (0, "schmidt: pass\n")
    code, out, _ = _run(capsys, "verify", "uncu", "--n", "4")
    assert (code, out) == (0, "uncu: pass\n")
    code, out, _ = _run(
        capsys, "verify", "ak_main", "--m", "3", "--s", "1,2", "--n", "5"
    )
    assert (code, out) == (0, "ak_main: pass\n")
    code, out, _ = _run(
        capsys, "verify", "franklin_ext", "--m", "2", "--s", "1", "--n", "5"
    )
    assert (code, out) == (0, "franklin_ext: pass\n")


def test_verify_standalone_checks(capsys):
    code, out, _ = _run(capsys, "verify", "cauchy", "--n", "6")
    assert (code, out) == (0, "cauchy: pass\n")
    code, out, _ = _run(capsys, "verify", "t1_slice", "--n", "1", "--q-cap", "8")
    assert (code, out) == (0, "t1_slice: pass\n")


def test_verify_cauchy_at_many_factors(capsys):
    # 1500 factors need Gaussian binomials far deeper than the recursion limit.
    code, out, _ = _run(capsys, "verify", "cauchy", "--n", "1500", "--q-cap", "5")
    assert (code, out) == (0, "cauchy: pass\n")


def test_verify_json_output(capsys):
    code, out, _ = _run(
        capsys, "verify", "franklin_ext", "--m", "2", "--s", "1", "--n", "5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["theorem"] == "franklin_ext"
    assert data["caps"] == {"n": "5"}
    assert data["params"] == {"m": "2", "s": ["1"]}

    def all_strings(node):
        if isinstance(node, dict):
            return all(isinstance(k, str) for k in node) and all(
                all_strings(v) for v in node.values()
            )
        if isinstance(node, list):
            return all(all_strings(v) for v in node)
        return isinstance(node, str)

    assert all_strings(data)


def test_verify_failure_exit_and_evidence(capsys, monkeypatch):
    bad = VerificationReport(
        "overpartition",
        {},
        {"q": 2, "t1": 2, "t2": 2},
        "fail",
        {"monomial": {"q": 1}, "lhs": 1, "rhs": 2, "sides": ["sum", "enum"]},
    )
    monkeypatch.setattr(cli, "verify_identity", lambda *a, **k: bad)
    code, out, _ = _run(capsys, "verify", "overpartition", "--q-cap", "2")
    assert code == 1
    assert out.splitlines() == [
        "overpartition: fail",
        "  first mismatch at q (sum vs enum): 1 != 2",
    ]
    code, out, _ = _run(capsys, "verify", "overpartition", "--q-cap", "2", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # run builds its parser once per process.  A usage error, --help, a
    # witness and a mismatch, run in turn on that one parser, each print and
    # exit as they do on a parser of their own.
    original = identities.enum_side

    def bumped(*args, **kw):
        series = original(*args, **kw)
        return series + series.context.one()

    monkeypatch.setattr(identities, "enum_side", bumped)
    calls = [
        ["verify", "nope", "--q-cap", "3"],
        ["--help"],
        ["witness", "--identity", "cor22", "--mono", "q=6,t1=1,t2=2"],
        ["verify", "overpartition", "--q-cap", "4"],
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(_run(capsys, *argv))
    assert [code for code, _, _ in alone] == [2, 0, 0, 1]
    assert [_run(capsys, *argv) for argv in calls] == alone
    assert cli._build_parser() is cli._build_parser()


def test_verify_usage_errors(capsys):
    code, _, err = _run(capsys, "verify", "nope", "--q-cap", "3")
    assert code == 2 and "invalid choice" in err
    code, _, err = _run(capsys, "verify", "overpartition")
    assert code == 2 and "--q-cap is required" in err
    code, _, err = _run(capsys, "verify", "psi_all", "--m", "3", "--s", "1,3", "--s-cap", "6")
    assert code == 2 and "residues must be 1..i" in err
    code, _, err = _run(capsys, "verify", "ak_main", "--n", "4")
    assert code == 2 and "--m is required" in err
    code, _, err = _run(capsys, "verify", "schmidt", "--n", "4", "--m", "3")
    assert code == 2
    code, _, err = _run(capsys, "verify", "ak_main", "--m", "3", "--s", "a", "--n", "3")
    assert code == 2 and "residue list must be comma-separated integers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "mork_odd", "--m", "5", "--s", "1,2", "--s-cap", "10"),
        ("witness", "--identity", "mork_odd", "--mono", "q=3,s=5", "--m", "7"),
        ("coeff", "--identity", "mork_even", "--side", "enum", "--mono", "q=3,s=8",
         "--m", "9", "--s", "1,2,3"),
        ("verify", "ak_trivariate", "--q-cap", "4", "--m", "2"),
        ("coeff", "--identity", "cor22", "--side", "sum", "--mono", "q=3", "--s", "1"),
        ("witness", "--identity", "overpartition", "--mono", "q=3,t1=1", "--m", "2", "--s", "1"),
    ],
)
def test_rows_refuse_a_modulus_or_block_they_do_not_take(capsys, argv):
    # A fixed row names its own residues: mork_even's S is {2}.
    own = {"mork_odd": "specific to modulus 2, residues {1}",
           "mork_even": "specific to modulus 2, residues {2}"}
    ident = argv[argv.index("--identity") + 1] if "--identity" in argv else argv[1]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert own.get(ident, "takes no modulus or residues") in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "ak_trivariate", "--q-cap", "4", "--n", "5", "--s-cap", "9"), "--n"),
        (("verify", "mork_odd", "--s-cap", "4", "--q-cap", "9"), "--q-cap"),
        (("verify", "cauchy", "--n", "4", "--m", "3", "--s", "1,2"), "--m"),
        (("verify", "t1_slice", "--n", "1", "--q-cap", "4", "--s-cap", "2", "--m", "7"), "--s-cap"),
        (("verify", "schmidt", "--n", "4", "--q-cap", "3"), "--q-cap"),
        (("verify", "ak_main", "--n", "4", "--m", "3", "--s", "1,2", "--s-cap", "3"), "--s-cap"),
        (("coeff", "--identity", "ak_trivariate", "--side", "sum", "--mono", "q=3",
          "--s-cap", "5"), "--s-cap"),
        (("coeff", "--identity", "psi_all", "--side", "enum", "--mono", "q=3,s=4",
          "--m", "3", "--s", "1,2", "--q-cap", "2"), "--q-cap"),
    ],
)
def test_verify_and_coeff_refuse_flags_their_target_does_not_read(capsys, argv, flag):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{flag} does not apply to" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("enumerate", "--class", "P", "--n", "3", "--m", "5"), "--m"),
        (("enumerate", "--class", "over", "--n", "2", "--top", "9", "--s", "1"), "--s"),
        (("enumerate", "--class", "D", "--n", "4", "--m", "2", "--s", "1", "--top", "3"), "--s"),
        (("enumerate", "--class", "P", "--schmidt-weight", "2", "--top", "4"), "--top"),
        (("map", "--bijection", "mork", "--m", "5", "--s", "1,2", "--partition", "3,1"), "--m"),
        (("map", "--bijection", "glaisher", "--m", "2", "--s", "1", "--partition", "4,4,3,1"),
         "--s"),
    ],
)
def test_enumerate_and_map_refuse_flags_their_target_does_not_read(capsys, argv, flag):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{flag} does not apply to" in err


def test_enumerate_and_map_take_the_flags_their_target_reads(capsys):
    for argv in [
        ("enumerate", "--class", "cs", "--n", "3", "--m", "2", "--s", "1", "--top", "3"),
        ("enumerate", "--class", "D", "--schmidt-weight", "3", "--m", "3", "--s", "1,2"),
        ("enumerate", "--class", "R", "--n", "4", "--m", "2"),
        ("map", "--bijection", "psi", "--m", "2", "--s", "1", "--partition", "3,1"),
        ("map", "--bijection", "mork", "--partition", "3,1"),
        ("map", "--bijection", "decompose", "--m", "2", "--partition", "3,3,1"),
    ]:
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out, argv


def test_mork_rows_take_their_own_modulus_and_block(capsys):
    plain = _run(capsys, "witness", "--identity", "mork_odd", "--mono", "q=3,s=5")
    assert plain[0] == 0 and plain[1]
    for extra in (("--m", "2"), ("--s", "1"), ("--m", "2", "--s", "1,1")):
        argv = ("witness", "--identity", "mork_odd", "--mono", "q=3,s=5", *extra)
        assert _run(capsys, *argv) == plain


FIXED_ROWS = [
    (("verify", "mork_odd", "--s-cap", "8"), "1", "2"),
    (("verify", "mork_even", "--s-cap", "8"), "2", "1"),
    (("witness", "--identity", "mork_even", "--mono", "q=3,s=8"), "2", "1"),
    (("coeff", "--identity", "mork_even", "--side", "product", "--mono", "q=3,s=8"), "2", "1"),
    (("verify", "schmidt", "--n", "6"), "1", "2"),
    (("verify", "uncu", "--n", "6"), "1", "2"),
]


@pytest.mark.parametrize(
    "argv, own, other",
    FIXED_ROWS,
    ids=["-".join(a for a in argv[:3] if a[0] != "-") for argv, _, _ in FIXED_ROWS],
)
def test_fixed_rows_take_their_own_modulus_and_residues_as_a_set(capsys, argv, own, other):
    # A row that fixes (2, {r}) may be given m = 2 and S = {r}, however
    # spelled, and prints what it prints with neither; anything else exits 2
    # naming the row's own residues.
    plain = _run(capsys, *argv)
    assert plain[0] == 0 and plain[1]
    for extra in (("--m", "2"), ("--s", own), ("--s", f"{own},{own}"), ("--m", "2", "--s", own)):
        assert _run(capsys, *argv, *extra) == plain, extra
    for extra in (("--m", "3"), ("--s", other), ("--s", "1,2"), ("--m", "3", "--s", own),
                  ("--m", "2", "--s", f"{own},{other}")):
        code, out, err = _run(capsys, *argv, *extra)
        assert (code, out) == (2, ""), extra
        assert f"is specific to modulus 2, residues {{{own}}}\n" in err, extra


def test_verify_odd_index_counts_accept_repeated_residues(capsys):
    # A residue list is a set: 1,1 is {1}, as 1,1,2 is {1, 2} for ak_main.
    for ident in ("schmidt", "uncu"):
        code, out, _ = _run(capsys, "verify", ident, "--n", "5", "--s", "1,1")
        assert (code, out) == (0, f"{ident}: pass\n")
        code, out, _ = _run(capsys, "verify", ident, "--n", "5", "--m", "2", "--s", "1,1,1")
        assert (code, out) == (0, f"{ident}: pass\n")
        code, _, err = _run(capsys, "verify", ident, "--n", "5", "--s", "1,2")
        assert code == 2 and "specific to modulus 2" in err
    code, out, _ = _run(capsys, "verify", "ak_main", "--m", "3", "--s", "1,1,2", "--n", "5")
    assert (code, out) == (0, "ak_main: pass\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "psi_all", "--m", "3", "--s-cap", "6"),
        ("coeff", "--identity", "psi_dm", "--side", "enum", "--mono", "q=5,s=7", "--m", "3"),
        ("witness", "--identity", "psi_all", "--mono", "q=5,s=7", "--m", "3"),
    ],
)
def test_psi_residues_are_a_set(capsys, argv):
    # 1,1,2 spells the block {1, 2} as 1,2 does; 1,3 is no block 1..i.
    assert _run(capsys, *argv, "--s", "1,1,2")[:2] == _run(capsys, *argv, "--s", "1,2")[:2]
    assert _run(capsys, *argv, "--s", "2,1")[:2] == _run(capsys, *argv, "--s", "1,2")[:2]
    code, _, err = _run(capsys, *argv, "--s", "1,3")
    assert code == 2 and "residues must be 1..i" in err


# --- enumerate ---------------------------------------------------------------


def test_enumerate_plain_and_restricted(capsys):
    code, out, _ = _run(capsys, "enumerate", "--class", "P", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
    code, out, _ = _run(capsys, "enumerate", "--class", "R", "--n", "4", "--m", "2")
    assert out.splitlines() == ["4", "2,2"]
    code, out, _ = _run(capsys, "enumerate", "--class", "F", "--n", "4", "--m", "2")
    assert out.splitlines() == ["2,1,1", "1,1,1,1"]


def test_enumerate_colored_and_overlined(capsys):
    code, out, _ = _run(
        capsys, "enumerate", "--class", "cs", "--n", "2", "--m", "2", "--s", "1",
        "--top", "3",
    )
    assert code == 0
    assert len(out.splitlines()) == 5
    code, out, _ = _run(
        capsys, "enumerate", "--class", "cs", "--n", "2", "--m", "2", "--s", "1"
    )
    assert len(out.splitlines()) == 5  # default ceiling is m + 1
    code, out, _ = _run(capsys, "enumerate", "--class", "over", "--n", "3")
    assert len(out.splitlines()) == 8


def test_enumerate_by_weight(capsys):
    code, out, _ = _run(capsys, "enumerate", "--class", "D", "--schmidt-weight", "3")
    assert code == 0
    assert set(out.splitlines()) == {"3", "3,1", "3,2"}
    code, out, _ = _run(
        capsys,
        "enumerate", "--class", "P", "--schmidt-weight", "2", "--m", "2", "--s", "1",
    )
    assert "1,1,1" in out.splitlines()


def test_enumerate_by_weight_with_a_large_modulus(capsys):
    # The weight walk is iterative, so a length of m * n parts does not
    # run into the recursion limit.
    code, out, _ = _run(
        capsys, "enumerate", "--class", "P", "--schmidt-weight", "1", "--m", "1500"
    )
    assert code == 0
    assert out.splitlines() == [",".join(["1"] * k) for k in range(1, 1501)]


def test_enumerate_usage_errors(capsys):
    code, _, err = _run(
        capsys, "enumerate", "--class", "P", "--n", "3", "--schmidt-weight", "2"
    )
    assert code == 2 and "not both" in err
    code, _, err = _run(capsys, "enumerate", "--class", "F", "--schmidt-weight", "2")
    assert code == 2 and "P and D" in err
    code, _, err = _run(capsys, "enumerate", "--class", "D", "--n", "3")
    assert code == 2 and "--m is required" in err
    code, _, err = _run(capsys, "enumerate", "--class", "cs", "--n", "3", "--m", "2")
    assert code == 2 and "--s is required" in err


# --- drive rails -------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["verify", "--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_exits_two(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    argv = ["verify", "ak_trivariate", "--q-cap", "6", "--json"]
    code_a, out_a, _ = _run(capsys, *argv)
    code_b, out_b, _ = _run(capsys, *argv)
    assert (code_a, out_a) == (code_b, out_b)


def _subprocess_env():
    # The package's source directory first on the path of a child interpreter.
    src = Path(cli.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")


def test_closed_stdout_exits_quietly():
    # A reader that stops after one line, like `schmidtq enumerate ... | head -1`.
    proc = subprocess.Popen(
        [sys.executable, "-m", "schmidtq.cli", "enumerate", "--class", "P", "--n", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    assert proc.stdout.readline() == b"40\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert "Traceback" not in err, err


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "schmidtq", *argv],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_module("verify", "overpartition", "--q-cap", "6")
    assert (proc.returncode, proc.stdout) == (0, "overpartition: pass\n")


@pytest.mark.parametrize(
    "argv", [("verify", "nope"), ("verify", "schmidt", "--n", "4", "--m", "3")]
)
def test_python_dash_m_usage_error_exits_two(argv):
    proc = _run_module(*argv)
    assert proc.returncode == 2
    assert proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


# --- fuzz --------------------------------------------------------------------

SMALL_INTS = st.integers(-2, 8).map(str)
VALUES = {
    "--m": SMALL_INTS,
    "--n": SMALL_INTS,
    "--q-cap": SMALL_INTS,
    "--s-cap": SMALL_INTS,
    "--top": SMALL_INTS,
    "--schmidt-weight": SMALL_INTS,
    "--s": st.one_of(
        st.lists(st.integers(-1, 5), min_size=1, max_size=4).map(
            lambda rs: ",".join(map(str, rs))
        ),
        st.sampled_from(["a", "", "0,1", "1,,2"]),
    ),
    "--mono": st.lists(
        st.tuples(
            st.sampled_from(["q", "t1", "t2", "s", "z"]),
            st.sampled_from(["=", ""]),
            st.sampled_from(["0", "1", "3", "8", "-1", "x", ""]),
        ),
        max_size=3,
    ).map(lambda pieces: ",".join("".join(piece) for piece in pieces)),
    "--identity": st.sampled_from(cli.SERIES_IDENTITIES),
    "--side": st.sampled_from(["sum", "product", "enum", "enum_overpartition"]),
    "--bijection": st.sampled_from(["psi", "mork", "glaisher", "decompose"]),
    "--partition": st.sampled_from(["", "3,2,1", "2,3", "4_1,2_2", "2,1;3", "x", "0"]),
    "--class": st.sampled_from(["P", "D", "F", "R", "cs", "over"]),
    "--json": st.just(None),
    "--inverse": st.just(None),
}
COMMANDS = {
    "verify": ["--m", "--s", "--n", "--q-cap", "--s-cap", "--json"],
    "coeff": ["--identity", "--side", "--mono", "--m", "--s", "--q-cap", "--s-cap"],
    "witness": ["--identity", "--mono", "--m", "--s"],
    "map": ["--bijection", "--m", "--s", "--partition", "--inverse"],
    "enumerate": ["--class", "--n", "--m", "--s", "--top", "--schmidt-weight"],
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(cli._VERIFY_IDS)))
    for flag in draw(st.lists(st.sampled_from(COMMANDS[command]), unique=True)):
        value = draw(VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
def test_fuzzed_arguments_exit_with_a_known_code(argv):
    # Every drawn int is at most 8, which keeps each run small.
    assert run(argv) in (0, 1, 2), argv
