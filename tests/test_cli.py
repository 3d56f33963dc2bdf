import os

import numpy as np
import pytest

import latmat
from latmat.cli import run


def test_build_gcd_matrix_csv(capsys):
    assert run(["build", "--poset", "divisors:1,2,3", "--func", "N", "--exp", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1,1,1", "1,2,1", "1,1,3"]


def test_build_roundtrip_bit_exact(capsys):
    args = ["build", "--poset", "chain:4", "--func", "N", "--exp", "1/2,-1/2,0,0"]
    assert run(args) == 0
    out = capsys.readouterr().out
    parsed = latmat.parse_matrix_csv(out)
    spec = latmat.CombinedSpec(
        0.5, -0.5, 0.0, 0.0,
        latmat.chain_poset(4).subset([1, 2, 3, 4]),
        latmat.PosetFunction.identity(latmat.chain_poset(4)),
    )
    # same poset object is required for the spec; rebuild cleanly
    p = latmat.chain_poset(4)
    spec = latmat.CombinedSpec(0.5, -0.5, 0.0, 0.0, p.subset(p.elements), latmat.PosetFunction.identity(p))
    assert np.array_equal(parsed, latmat.combined_matrix(spec))


def test_build_pretty(capsys):
    assert run(["build", "--poset", "chain:2", "--func", "N", "--exp", "1,0,0,0", "--format", "pretty"]) == 0
    out = capsys.readouterr().out
    assert "," not in out


def test_build_from_poset_file(tmp_path, capsys):
    path = tmp_path / "poset.txt"
    path.write_text("# diamond\nelements: a b c d\ncovers:\na b\na c\nb d\nc d\n")
    func = tmp_path / "f.txt"
    func.write_text("a 1\nb 2\nc 3\nd 6\n")
    assert run(["build", "--poset", str(path), "--func", str(func), "--exp", "1,1,1,1"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4


def test_malformed_poset_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("elements: a b\nnot a section\n")
    assert run(["build", "--poset", str(path), "--func", "const:1", "--exp", "1,0,0,0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_divisor_label_past_int64_exits_2(capsys):
    assert run(["build", "--poset", f"divisors:1,{2**64}", "--func", "N", "--exp", "1,0,0,0"]) == 2
    assert "2**63" in capsys.readouterr().err


def test_bad_exponents(capsys):
    assert run(["build", "--poset", "chain:2", "--func", "N", "--exp", "1,0"]) == 2
    assert "exponent" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(capsys):
    assert run(["build", "--poset", "chain:2", "--func", "N", "--exp", "1,0,0,0", "--frobnicate"]) == 2


def test_set_flag(capsys):
    assert run(["build", "--poset", "divisors:1,2,3,4,6,12", "--set", "4,6", "--func", "N", "--exp", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["4,2", "2,6"]


@pytest.mark.parametrize(
    "via,exp",
    [
        ("ideal", "1,0,0,0"),
        ("filter", "0,-1,0,0"),
        ("meet-closed", "1,0,0,0"),
        ("join-closed", "0,1,0,0"),
        ("structure-meet", "-1,1,0,0"),
        ("structure-join", "-1,1,0,0"),
    ],
)
def test_factor_routes(capsys, via, exp):
    # the --exp=value form is needed when the first exponent is negative
    code = run(["factor", "--poset", "divisors:1,2,3,4,6,12", "--func", "N", f"--exp={exp}", "--via", via])
    out = capsys.readouterr().out
    assert code == 0
    assert "reconstructs: true" in out
    assert "residual:" in out


def test_factor_hypothesis_error(capsys):
    code = run(["factor", "--poset", "divisors:1,2,3,4,6,12", "--set", "2,3",
                "--func", "N", "--exp", "1,0,0,0", "--via", "meet-closed"])
    assert code == 2
    assert "meet closed" in capsys.readouterr().err


def test_bounds_chain(capsys):
    assert run(["bounds", "--poset", "chain:5", "--func", "N", "--exp", "1,0,0,0", "--c", "exact"]) == 0
    out = capsys.readouterr().out
    assert out.count("holds: true") == 2  # both sides apply on a chain


def test_bounds_inapplicable_exits_2(capsys):
    code = run(["bounds", "--poset", "chain:3", "--func", "N", "--exp", "1,0,1,0", "--c", "exact"])
    out = capsys.readouterr().out
    assert code == 2
    assert "not applicable" in out


def test_bounds_nonconvergence_exits_1(monkeypatch, capsys):
    # an eigensolve that does not converge is an internal error, not an
    # inapplicable bound
    monkeypatch.setattr(latmat._kernels, "JACOBI_MAX_SWEEPS", 1)
    code = run(["bounds", "--poset", "chain:5", "--func", "N", "--exp", "1,0,0,0", "--c", "thm52"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not applicable" not in captured.out
    assert "did not converge" in captured.err


def test_bounds_input_error_is_not_inapplicable(tmp_path, capsys):
    # a matrix that does not exist (f vanishes at a meet, alpha < 0) is an
    # input error; only a violated hypothesis is reported as not applicable
    func = tmp_path / "f.txt"
    func.write_text("1 0\n2 2\n3 3\n6 6\n")
    code = run(["bounds", "--poset", "divisors:1,2,3,6", "--set", "2,3", "--func", str(func),
                "--exp=-1,0,0,0", "--c", "y0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "not applicable" not in captured.out
    assert "error: f vanishes at the meet of 3 and 2" in captured.err


def test_bounds_with_closed_form_constant(capsys):
    assert run(["bounds", "--poset", "chain:4", "--func", "N", "--exp", "1,0,0,0", "--c", "thm53"]) == 0
    out = capsys.readouterr().out
    assert "c_provenance: thm53" in out


def test_region_auto(capsys):
    assert run(["region", "--poset", "divisors:1,2,3,4,6,12", "--func", "N", "--exp=-1,1,0,0", "--C", "exact"]) == 0
    out = capsys.readouterr().out
    assert "contained: true" in out
    assert "side: meet" in out and "side: join" in out


def test_region_exact_past_the_scan_cap(capsys):
    # C_n has a closed form, so --C exact needs no scan of K(12)
    divisors = "divisors:1,2,3,4,5,6,10,12,15,20,30,60"
    assert run(["region", "--poset", divisors, "--func", "N", "--exp", "1,0,0,0", "--C", "exact"]) == 0
    out = capsys.readouterr().out
    assert "C_provenance: exact" in out and "contained: true" in out


def test_region_side_violation_exits_2(capsys):
    code = run(["region", "--poset", "divisors:1,2,3,4,6,12", "--set", "2,3",
                "--func", "N", "--exp", "1,0,0,0", "--C", "exact", "--side", "meet"])
    assert code == 2
    assert "meet closed" in capsys.readouterr().err


def test_constants_command(capsys):
    assert run(["constants", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "t_n: 5.09901" in out
    assert "cn_lower_bound_thm53: 0.0769230" in out


def test_constants_command_kappa_y0_positive_at_60(capsys):
    assert run(["constants", "--n", "60"]) == 0
    fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(fields["kappa_y0"]) < 1e-24


def test_search_command_with_ledger(tmp_path, capsys):
    ck = str(tmp_path / "ck")
    code = run(["search", "--n", "4", "--extremum", "both", "--checkpoint-dir", ck])
    out = capsys.readouterr().out
    assert code == 0
    assert "extremum: min" in out and "extremum: max" in out
    ledger = os.path.join(ck, "results.csv")
    lines = open(ledger).read().splitlines()
    assert lines[0] == "n,extremum,value,witness_bits,scanned"
    assert len(lines) == 3
    # resume from checkpoints: same results, ledger grows
    assert run(["search", "--n", "4", "--extremum", "min", "--checkpoint-dir", ck]) == 0
    assert len(open(ledger).read().splitlines()) == 4


def test_search_cap(capsys):
    # the certified search runs to n = 60; past it the cap holds
    assert run(["search", "--n", "61"]) == 2
    assert "cap" in capsys.readouterr().err


def test_verify_conjecture_command(capsys):
    assert run(["verify-conjecture", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "holds: true" in out


def test_verify_conjecture_reports_the_certificate(capsys):
    assert run(["verify-conjecture", "--n", "60"]) == 0
    captured = capsys.readouterr()
    fields = dict(line.split(": ") for line in captured.out.splitlines())
    assert fields["holds"] == "true" and fields["nodes"] == str(60 * 60 - 1)
    assert fields["c_n"] == fields["kappa_y0"]
    assert float(fields["margin"]) * float(fields["kappa_y0"]) <= 1.0 + 1e-12
    assert captured.err == ""


def test_search_runs_past_the_scan_cap(capsys):
    assert run(["search", "--n", "9", "--extremum", "min"]) == 0
    captured = capsys.readouterr()
    assert f"scanned: {1 << 36}" in captured.out and captured.err == ""
    assert run(["search", "--n", "9", "--jobs", "2"]) == 2  # a scan keeps its cap
    assert "scan cap 8" in capsys.readouterr().err


def test_table1_command(capsys):
    assert run(["table1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.381966" in out and "0.198062" in out


def test_selftest_command(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
