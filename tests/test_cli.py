import os
import shlex
import subprocess
import sys
import warnings

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


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["build", "--exp=inf,0,0,0"], "'inf'"),
        (["factor", "--via", "ideal", "--exp=nan,0,0,0"], "'nan'"),
        (["bounds", "--exp", "1,0,0,0", "--c", "nan"], "'nan'"),
        (["region", "--exp", "1,0,0,0", "--C", "inf"], "'inf'"),
        (["build", f"--exp=1{'0' * 400}/3,0,0,0"], f"'1{'0' * 400}/3'"),
    ],
    ids=["exp-inf", "exp-nan", "c-nan", "C-inf", "exp-fraction-past-float64"],
)
def test_non_finite_number_exits_2_naming_it(argv, bad, capsys):
    # a NaN or an infinity is an input error: no verdict, and the message
    # says which value is wrong
    common = ["--poset", "divisors:1,2,3,4,6,12", "--func", "N"]
    assert run(argv[:1] + common + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert bad in captured.err and "not a finite number" in captured.err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["bounds", "--exp", "1,0,0,0", "--c", "0"], "c constant '0'"),
        (["bounds", "--exp", "1,0,0,0", "--c", "-1"], "c constant '-1'"),
        (["region", "--exp", "1,0,0,0", "--C", "-1"], "C constant '-1'"),
    ],
    ids=["c-zero", "c-negative", "C-negative"],
)
def test_constant_that_is_not_positive_exits_2(argv, bad, capsys):
    # c_n and C_n are positive: no bound, no discs with negative radii
    common = ["--poset", "divisors:1,2,3,4,6,12", "--func", "N"]
    assert run(argv[:1] + common + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert bad in captured.err and "not positive" in captured.err


def test_exact_power_past_the_budget_exits_2(capsys):
    assert run(["build", "--poset", "divisors:1,2,3,4,6,12", "--func", "N", "--exp=100000,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "use a smaller exponent" in captured.err


@pytest.mark.parametrize(
    "command, exp, message",
    [
        ("build", "400,0,0,0", "an entry of the combined matrix is past float64's range"),
        ("build", "400.5,0,0,0", "6.0**400.5 is past float64's range"),
        ("bounds", "400,0,0,0", "the down-convolution of f**400.0 is past float64's range"),
    ],
    ids=["exact-entry", "float-power", "convolution"],
)
def test_power_past_float64_exits_2(command, exp, message, capsys):
    # each of the three places a value can pass float64's range names it and exits 2
    assert run([command, "--poset", "divisors:1,2,3,4,6,12", f"--exp={exp}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}; use a smaller exponent\n"


def test_float_entry_divides_before_it_overflows(capsys):
    # at (6, 6), 6^200.5 * 6^199.5 is past float64, but the entry, divided by
    # 6^100 * 6^100, is 6^200
    assert run(["build", "--poset", "chain:6", "--exp=200.5,199.5,100,100"]) == 0
    m = latmat.parse_matrix_csv(capsys.readouterr().out)
    assert np.isfinite(m).all()
    assert abs(m[5, 5] - 6.0**200) <= 1e-12 * 6.0**200


def test_float_entry_divides_before_it_underflows(capsys):
    # at (6, 6), 6^-250.5 * 6^-249.5 is below float64's range, but the entry,
    # divided by 6^-150 * 6^-150, is 6^-200
    assert run(["build", "--poset", "chain:6", "--exp=-250.5,-249.5,-150,-150"]) == 0
    m = latmat.parse_matrix_csv(capsys.readouterr().out)
    assert (m != 0.0).all()
    assert abs(m[5, 5] - 6.0**-200) <= 1e-15 * 6.0**-200


def test_float_entry_past_float64_exits_2(capsys):
    assert run(["build", "--poset", "chain:6", "--exp=200.5,199.5,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an entry of the combined matrix is past float64's range; use a smaller exponent\n"


def test_bounds_on_a_float_entry_divided_before_it_overflows(capsys):
    # a RuntimeWarning raised as an error would end in an internal error, exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["bounds", "--poset", "chain:6", "--exp=200.5,199.5,100,100"]) == 0
    assert "internal error" not in capsys.readouterr().err


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


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_bounds_semimultiplicativity_is_relative(scale, tmp_path, capsys):
    # f(2) f(3) is ten times f(1) f(6) at any scale of f: neither side applies
    func = tmp_path / "f.txt"
    func.write_text("".join(f"{x} {v * scale!r}\n" for x, v in ((1, 1), (2, 2), (3, 3), (6, 60))))
    code = run(["bounds", "--poset", "divisors:1,2,3,6", "--func", str(func), "--exp=1,0,0,0", "--c", "exact"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("not applicable: the lower bound requires a semimultiplicative f") == 2


def test_bounds_min_fpow_past_float64_squares(tmp_path, capsys):
    # f(2)^2 and f(3)^2 are past float64, but the least power is f(1)^2 = 1
    func = tmp_path / "f.txt"
    func.write_text("1 1\n2 1e160\n3 1e170\n")
    assert run(["bounds", "--poset", "chain:3", "--func", str(func), "--exp=1,0.5,0,0", "--c", "exact"]) == 0
    assert capsys.readouterr().out.count("min_fpow: 1\n") == 2


def test_bounds_with_closed_form_constant(capsys):
    assert run(["bounds", "--poset", "chain:4", "--func", "N", "--exp", "1,0,0,0", "--c", "thm53"]) == 0
    out = capsys.readouterr().out
    assert "c_provenance: thm53" in out


def test_region_auto(capsys):
    assert run(["region", "--poset", "divisors:1,2,3,4,6,12", "--func", "N", "--exp=-1,1,0,0", "--C", "exact"]) == 0
    out = capsys.readouterr().out
    assert "contained: true" in out
    assert "side: meet" in out and "side: join" in out


@pytest.mark.parametrize(
    "values, twin",
    [((1e20, 1e155, 1e155, 1e300), (1, 10, 10, 1e11)), ((1e-20, 1e-155, 1e-155, 1e-300), (1, 0.1, 0.1, 1e-11))],
    ids=["big", "small"],
)
def test_region_ratio_condition_past_float64(values, twin, tmp_path, capsys):
    # f(1) f(6) and f(2) f(3) leave float64's range (overflow, underflow) where
    # the twin's do not; the ratio at (2, 3) is 1e10 (1e9) or 1e-10 (1e-9)
    verdicts = []
    for name, vals in (("f", values), ("twin", twin)):
        func = tmp_path / f"{name}.txt"
        func.write_text("".join(f"{x} {v!r}\n" for x, v in zip((1, 2, 3, 6), vals)))
        code = run(["region", "--poset", "divisors:1,2,3,6", "--func", str(func), "--exp=0.5,0.5,0,0", "--C", "exact"])
        out = capsys.readouterr().out
        assert "f vanishes" not in out
        verdicts.append((code, [line for line in out.splitlines() if "not applicable" in line or "contained" in line]))
    assert verdicts[0] == verdicts[1]
    assert len(verdicts[0][1]) == 2


def test_region_exact_past_the_scan_cap(capsys):
    # C_n has a closed form, so --C exact needs no scan of K(12)
    divisors = "divisors:1,2,3,4,5,6,10,12,15,20,30,60"
    assert run(["region", "--poset", divisors, "--func", "N", "--exp", "1,0,0,0", "--C", "exact"]) == 0
    out = capsys.readouterr().out
    assert "C_provenance: exact" in out and "contained: true" in out


def test_region_side_violation_exits_2(capsys):
    # {2, 3} is neither meet nor join closed: both sides are not applicable
    code = run(["region", "--poset", "divisors:1,2,3,4,6,12", "--set", "2,3",
                "--func", "N", "--exp", "1,0,0,0", "--C", "exact"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == [
        "meet-side: not applicable: the meet-side region requires a meet closed set",
        "join-side: not applicable: the join-side region requires a join closed set",
    ]
    assert captured.err == ""


def test_region_reports_the_side_that_applies(capsys):
    # 2 and 3 have no meet: the meet side is not applicable, the join side answers
    code = run(["region", "--poset", "divisors:2,3,6", "--exp=0,1,0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("meet-side: not applicable: no common lower bound of 2 and 3\nside: join\n")
    assert "contained: true" in out


@pytest.mark.parametrize("exp", ["-1,1,0,0", "1,1,0,0"])
def test_bounds_without_a_meet_is_not_applicable(exp, capsys):
    # a missing meet fails a hypothesis of both sides, whatever the exponents' signs
    code = run(["bounds", "--poset", "divisors:2,3,6", f"--exp={exp}"])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["meet-side", "join-side"]
    assert all(": not applicable: " in line for line in lines)
    assert captured.err == ""


def test_constants_command(capsys):
    assert run(["constants", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "t_n: 5.09901" in out
    assert "cn_lower_bound_thm53: 0.0769230" in out


def test_constants_command_kappa_y0_positive_at_60(capsys):
    assert run(["constants", "--n", "60"]) == 0
    fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(fields["kappa_y0"]) < 1e-24


def test_constants_command_past_float64_exits_2(capsys):
    # 1 / kappa(y0) passes float64 from n = 740; nothing is printed
    assert run(["constants", "--n", "800"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: 1 / kappa(y0) overflows float64 at n=800" in captured.err


def test_search_command_with_ledger(tmp_path, capsys):
    ledger = str(tmp_path / "results.csv")
    code = run(["search", "--n", "4", "--extremum", "both", "--ledger", ledger])
    out = capsys.readouterr().out
    assert code == 0
    assert "extremum: min" in out and "extremum: max" in out
    lines = open(ledger).read().splitlines()
    assert lines[0] == "n,extremum,value,witness_bits,scanned"
    assert len(lines) == 3
    # a second run appends to the same ledger, without a second header
    assert run(["search", "--n", "4", "--extremum", "min", "--ledger", ledger]) == 0
    assert len(open(ledger).read().splitlines()) == 4


def test_search_cap(capsys):
    # the certified search runs to n = 60; past it the cap holds
    assert run(["search", "--n", "61"]) == 2
    assert "cap" in capsys.readouterr().err
    # C_n has a closed form and no cap, so only a side that needs c_n stops
    assert run(["search", "--n", "100", "--extremum", "max"]) == 0
    fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert fields["value"] == f"{latmat.search_Cn(100).value:.17g}"
    for extremum in ("min", "both"):
        assert run(["search", "--n", "100", "--extremum", extremum]) == 2
        captured = capsys.readouterr()
        assert "search cap 60" in captured.err and captured.out == ""
    # --i-know waives that cap
    assert run(["search", "--n", "61", "--extremum", "min", "--i-know"]) == 0
    fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert fields["witness_bits"] == str(latmat.constants.y0_mask(61).bits)


def test_cap_error_names_the_search_override(capsys):
    # verify-conjecture has no override of its own; the message names the one
    # that exists
    assert run(["verify-conjecture", "--n", "61"]) == 2
    captured = capsys.readouterr()
    assert "search cap 60" in captured.err and "--i-know" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["build", "--tol", "1e-9"], 2),
        (["factor", "--via", "ideal", "--tol", "1e-9"], 2),
        (["bounds", "--tol", "1e-9"], 2),
        (["region", "--tol", "1e-9"], 2),
        (["bounds", "--format", "pretty"], 2),
        (["region", "--format", "pretty"], 2),
        (["region", "--side", "meet"], 2),
        (["build", "--format", "pretty"], 0),
        (["factor", "--via", "ideal", "--format", "pretty"], 0),
    ],
    ids=["build-tol", "factor-tol", "bounds-tol", "region-tol", "bounds-format", "region-format",
         "region-side", "build-format", "factor-format"],
)
def test_matrix_command_flags(argv, code, capsys):
    # --format is taken by the two commands that print matrices; no matrix
    # command takes --tol, and region reports both sides, with no --side
    common = ["--poset", "divisors:1,2,3,4,6,12", "--func", "N", "--exp", "1,0,0,0"]
    assert run(argv[:1] + common + argv[1:]) == code


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


def test_table1_command(capsys):
    assert run(["table1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.381966" in out and "0.198062" in out


def test_selftest_command(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_importing_the_cli_leaves_the_selftest_unloaded():
    # every CLI process would otherwise compile and run the selftest module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = "import sys, latmat.cli; print('latmat.selftest' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_whole_lattice_bounds_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on some numpy versions; the chain union needs no unique
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import contextlib, io, sys\n"
        "from latmat.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(['bounds', '--poset', 'divisors:1,2,3,4,6,12', '--exp=1,0,0,0'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "0 False"


def test_readme_library_quick_start_runs():
    # the README's "Library quick start" block runs, so a public name the
    # package no longer has cannot stay in the docs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert "import latmat" in block
    exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every line of the README's "Command line" block runs and exits 0, so a
    # flag the CLI no longer has cannot stay in the docs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines and all(line.startswith("latmat ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()
