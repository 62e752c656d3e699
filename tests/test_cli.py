"""Command-line behavior: outputs, exit codes, JSON shape."""

import json

import pytest

import schmidtq.cli as cli
from schmidtq import VerificationReport
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
