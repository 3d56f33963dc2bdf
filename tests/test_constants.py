import math

import numpy as np
import pytest

import latmat
from latmat import constants


def brute_force_extrema(n):
    """Independent oracle: every K(n) matrix, unpruned, eigenvalues from one
    stacked LAPACK call, first-attained tie-break on the same ascending bit
    order (argmin and argmax keep the first of equal values)."""
    positions = [(i, j) for i in range(1, n) for j in range(i)]
    masks = np.arange(1 << len(positions))
    x = np.tile(np.eye(n), (masks.size, 1, 1))
    for k, (i, j) in enumerate(positions):
        x[:, i, j] = (masks >> k) & 1
    w = np.linalg.eigvalsh(x @ x.transpose(0, 2, 1))
    lo, hi = int(np.argmin(w[:, 0])), int(np.argmax(w[:, -1]))
    return w[lo, 0], lo, w[hi, -1], hi


def test_enumerate_counts():
    assert sum(1 for _ in latmat.enumerate_kn(1)) == 1
    assert sum(1 for _ in latmat.enumerate_kn(2)) == 2
    assert sum(1 for _ in latmat.enumerate_kn(4)) == 64


def test_enumerate_cap():
    with pytest.raises(ValueError, match="cap"):
        latmat.enumerate_kn(9)
    with pytest.raises(ValueError):
        latmat.enumerate_kn(0)


def test_mask_layout():
    m = constants.TriangularMask(3, 0b001)
    assert np.array_equal(m.to_matrix(), [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    m = constants.TriangularMask(3, 0b110)
    assert np.array_equal(m.to_matrix(), [[1, 0, 0], [0, 1, 0], [1, 1, 1]])


def test_k2_masks():
    mats = [m.to_matrix() for m in latmat.enumerate_kn(2)]
    assert np.array_equal(mats[0], np.eye(2))
    assert np.array_equal(mats[1], [[1, 0], [1, 1]])


def test_search_small_matches_bruteforce():
    for n in (2, 3, 4, 5, 6):
        want_min, want_min_bits, want_max, want_max_bits = brute_force_extrema(n)
        rmin, rmax = latmat.full_scan(n)
        assert rmin.value == pytest.approx(want_min, abs=1e-10)
        assert rmax.value == pytest.approx(want_max, abs=1e-10)
        assert rmin.witness.bits == want_min_bits
        assert rmax.witness.bits == want_max_bits
        assert rmin.matrices_scanned == 1 << (n * (n - 1) // 2)


def test_search_c2_closed_form():
    r = latmat.search_cn(2)
    assert r.value == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    assert r.witness.bits == 1
    assert latmat.search_cn(1).value == 1.0
    assert latmat.search_Cn(1).value == 1.0


def test_ledger_append(tmp_path):
    path = str(tmp_path / "ledger.csv")
    r = latmat.search_cn(3)
    constants.append_ledger(path, r)
    constants.append_ledger(path, latmat.search_Cn(3))
    lines = open(path).read().splitlines()
    assert lines[0] == "n,extremum,value,witness_bits,scanned"
    assert lines[1].startswith("3,min,") and lines[2].startswith("3,max,")
    assert lines[1].endswith(",8")  # 2**3 masks scanned


def test_t_n_values():
    assert latmat.t_n(1) == 1.0
    assert latmat.t_n(2) == pytest.approx(math.sqrt(7.0), rel=1e-15)


def test_t_n_sum_form_exact():
    for n in range(1, 51):
        summed = sum((2 * n - (2 * k - 1)) * k * k for k in range(1, n + 1))
        assert n * (n + 1) * (n * n + n + 1) == 6 * summed
        assert latmat.t_n(n) == pytest.approx(math.sqrt(summed), rel=1e-15)


def _matches_6_digits(value, listed):
    # equal once rounded to six significant digits, allowing one unit in the
    # last listed place (printed tables may truncate)
    ulp = 10.0 ** (math.floor(math.log10(abs(listed))) - 5)
    return abs(value - listed) <= ulp


def test_lower_bound_closed_forms():
    thm52 = {2: 0.377964, 4: 0.00170747, 7: 6.64148e-9, 1: 1.0, 3: 0.0384615}
    for n, listed in thm52.items():
        assert _matches_6_digits(latmat.cn_lower_bound_from_tn(n), listed)
    thm53 = {3: 0.0769231, 6: 2.05280e-5, 2: 0.377964, 1: 1.0, 4: 0.00674936}
    for n, listed in thm53.items():
        assert _matches_6_digits(latmat.cn_lower_bound_from_n0(n), listed)
    assert latmat.cn_lower_bound_from_n0(3) == pytest.approx(1.0 / 13.0, rel=1e-15)


def test_y0_matrix_small():
    assert np.array_equal(latmat.y0_matrix(2), [[1, 0], [1, 1]])
    want4 = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]]
    assert np.array_equal(latmat.y0_matrix(4), want4)


def test_y0_in_kn():
    for n in range(1, 13):
        y = latmat.y0_matrix(n)
        assert np.array_equal(np.diag(y), np.ones(n, dtype=np.int64))
        assert not np.triu(y, 1).any()
        assert set(np.unique(y)) <= {0, 1}
        # round-trips through the mask encoding
        assert np.array_equal(constants.y0_mask(n).to_matrix(), y)


def n0_last_row_pattern(n):
    """The displayed closing row of the conjectured Gram matrix: alternating
    ones with a slow counter, ending at floor(n/2) + 1."""
    row = []
    for pos in range(1, n + 1):
        if pos == n:
            row.append(n // 2 + 1)
        elif n % 2 == 0:
            row.append(1 if pos % 2 == 1 else pos // 2)
        else:
            row.append(pos // 2 if pos % 2 == 1 else 1)
    return row


def test_n0_last_row_pattern():
    for n in range(2, 13):
        gram = constants.y0_mask(n).gram()
        assert list(gram[-1, :]) == n0_last_row_pattern(n)
        assert list(gram[:, -1]) == n0_last_row_pattern(n)


def test_n0_frobenius_values():
    assert latmat.n0_frobenius(2) == pytest.approx(math.sqrt(7.0), rel=1e-15)
    assert latmat.n0_frobenius_closed_form(2) == pytest.approx(math.sqrt(7.0), rel=1e-15)
    assert latmat.n0_frobenius_closed_form(3) == pytest.approx(math.sqrt(13.0), rel=1e-15)
    gram2 = constants.y0_mask(2).gram()
    assert np.array_equal(gram2, [[1, 1], [1, 2]])


def test_n0_frobenius_direct_vs_closed():
    for n in range(2, 41):
        direct = latmat.n0_frobenius(n)
        closed = latmat.n0_frobenius_closed_form(n)
        assert abs(direct - closed) <= 1e-12 * max(1.0, closed)


def test_y0_inverse_norm_is_phi_n():
    # ||y0^-1||_F^2 = Phi_n = n + F_n^2 - [n odd], in Python ints
    fib = [0, 1]
    while len(fib) <= 100:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 101):
        inv = constants.y0_inverse(n)
        if n <= 30:
            assert np.array_equal(latmat.y0_matrix(n).astype(object) @ inv, np.eye(n, dtype=int))
        assert sum(v * v for v in inv.flat) == n + fib[n] ** 2 - n % 2, n


# lambda_min(y0 y0^T) to 30 digits, from mpmath's eigsy on the integer Gram
# matrix Y0^T Y0 at 60 and at 90 decimal digits (the two agree)
KAPPA_Y0_DIGITS = {
    6: "0.0148275852464722640113909387536",
    11: "0.000126171532517345173040128908597",
    20: "2.18506472344748606546009312795e-8",
    40: "9.54901959071539919424218096834e-17",
    60: "4.17304602228198183540216832502e-25",
}


def test_kappa_y0_reference_digits():
    # the bracket's float is the correctly rounded value; Jacobi on G0 gave
    # 0.014827585246472258 at n = 6 and was 4e-15 off at n = 11
    for n, want in KAPPA_Y0_DIGITS.items():
        assert latmat.kappa_y0(n) == float(want), n


def test_kappa_y0_bracket_ends_round_to_the_value():
    for n in range(1, 201):
        (p, q), (r, s) = constants._kappa_bracket(n)
        assert 0 < p * s <= r * q, n  # p / q <= r / s
        assert p / q == r / s == latmat.kappa_y0(n), n


def test_kappa_y0_bracket_step_cap_raises(monkeypatch):
    # n = 2 needs 20 power steps; one step leaves the ends apart
    monkeypatch.setattr(constants, "BRACKET_MAX_STEPS", 1)
    with pytest.raises(latmat.SpectraError, match="did not close in 1 steps at n=2"):
        latmat.kappa_y0(2)
    assert latmat.kappa_y0(1) == 1.0  # G0 = [1]: the ends meet at once


def test_kappa_y0_overflow_raises():
    # 1 / kappa(y0) passes float64 first at n = 740: a plain ValueError, the
    # CLI's exit 2, not a SpectraError; at n = 739 kappa(y0) is subnormal
    with pytest.raises(ValueError, match="overflows float64 at n=740") as exc:
        latmat.kappa_y0(740)
    assert not isinstance(exc.value, latmat.SpectraError)
    assert 0.0 < latmat.kappa_y0(739) < np.finfo(np.float64).tiny
    with pytest.raises(ValueError, match="at least 1"):
        latmat.kappa_y0(0)


def test_verify_conjecture_trivial_and_small():
    chk = latmat.verify_conjecture(1)
    assert chk.holds and chk.c_n == 1.0
    chk = latmat.verify_conjecture(3)
    assert chk.holds
    assert chk.c_n == pytest.approx(0.198062, abs=1e-6)


def test_gram_determinants_full_enumeration():
    for n in (2, 3, 4):
        for mask in latmat.enumerate_kn(n):
            eigs = latmat.eigen_symmetric(mask.gram().astype(float)).eigenvalues
            assert abs(float(np.prod(eigs)) - 1.0) <= 1e-8
            assert eigs[0] > 0.0  # unit-determinant Gram matrices are definite


def test_table1_structure():
    rows = latmat.table1(3)
    assert [r.n for r in rows] == [1, 2, 3]
    assert rows[1].c_n == pytest.approx(0.381966, abs=1e-6)
    assert rows[2].lower_bound_n0 == pytest.approx(0.0769231, abs=1e-7)
    text = constants.format_table1(rows)
    assert "0.381966" in text and "0.0769231" in text
    with pytest.raises(ValueError):
        latmat.table1(8)


def test_bound_ordering_small():
    for n in (1, 2, 3, 4):
        c = latmat.search_cn(n).value
        C = latmat.search_Cn(n).value
        assert latmat.cn_lower_bound_from_tn(n) <= latmat.cn_lower_bound_from_n0(n) + 1e-15
        assert latmat.cn_lower_bound_from_n0(n) <= c + 1e-12
        assert c <= 1.0 + 1e-12
        assert 1.0 <= C + 1e-12
        assert C <= latmat.t_n(n) + 1e-12


def test_Cn_closed_form_and_all_ones_witness(scan_table):
    # X X^T <= L L^T entrywise, with L the all-ones lower triangle, so by
    # Perron-Frobenius the all-ones mask maximizes; L L^T is the MIN matrix,
    # whose largest eigenvalue is 1 / (4 sin^2(pi / (4n + 2)))
    for n in scan_table["results"]:
        result = latmat.search_Cn(n)
        gram = result.witness.gram().astype(np.float64)
        # the benchmark oracle's eigenvalue tolerance: the stopping rule by
        # Weyl's inequality, plus rounding over at most 50 sweeps
        tol = (1e-12 + 50 * n * np.finfo(np.float64).eps) * np.linalg.norm(gram)
        assert abs(result.value - 1.0 / (4.0 * math.sin(math.pi / (4 * n + 2)) ** 2)) <= tol
        assert result.witness.bits == (1 << (n * (n - 1) // 2)) - 1


def test_Cn_runs_no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("C_n has a closed form")

    monkeypatch.setattr(latmat.spectra, "jacobi_eigenvalues", refuse)
    monkeypatch.setattr(latmat._kernels, "jacobi_eigenvalues", refuse)
    for n in range(1, 61):
        result = latmat.search_Cn(n)
        assert result.extremum == "max"
        assert result.witness.bits == (1 << (n * (n - 1) // 2)) - 1
        assert result.matrices_scanned == 1 << (n * (n - 1) // 2)
    with pytest.raises(ValueError, match="at least 1"):
        latmat.search_Cn(0)


def _count_solves_and_inverses(monkeypatch):
    """Count the Jacobi solves and the matrix inverses of `constants`."""
    solved, inverted = [], []
    solve, inverse = latmat.spectra.jacobi_eigenvalues, constants._inverse
    monkeypatch.setattr(latmat.spectra, "jacobi_eigenvalues", lambda a, *args: solved.append(1) or solve(a, *args))
    monkeypatch.setattr(constants, "_inverse", lambda x: inverted.append(1) or inverse(x))
    return solved, inverted


def test_full_scan_solves_only_y0(monkeypatch):
    # y0, the one survivor, is valued by its bracket: no solve, no inverse
    solved, inverted = _count_solves_and_inverses(monkeypatch)
    rmin, rmax = latmat.full_scan(6)
    assert len(solved) == len(inverted) == 0
    assert rmin.value == latmat.kappa_y0(6)
    assert rmin.witness.bits == 22189 and rmax.witness.bits == (1 << 15) - 1


def test_y0_is_valued_with_no_solve_and_no_inverse(monkeypatch):
    # only mask 51 at n = 4, the one other survivor, takes a solve
    solved, inverted = _count_solves_and_inverses(monkeypatch)
    for n in (*range(1, 13), 20, 40, 60):
        for run in (latmat.search_cn, latmat.verify_conjecture):
            solved.clear()
            inverted.clear()
            run(n)
            assert len(solved) == len(inverted) == (1 if n == 4 else 0), (n, run)


def test_C6_is_correctly_rounded():
    # 1 / (4 sin^2(pi / 26)) is 17.206857267400938998... (mpmath, 40
    # digits), which rounds to this double
    assert latmat.search_Cn(6).value == 17.206857267400938


def test_Cn_matches_lapack_on_the_min_matrix():
    for n in range(1, 201):
        i = np.arange(1, n + 1, dtype=np.float64)
        gram = np.minimum.outer(i, i)
        # the benchmark oracle's eigenvalue tolerance
        tol = (1e-12 + 50 * n * np.finfo(np.float64).eps) * np.linalg.norm(gram)
        assert abs(latmat.search_Cn(n).value - np.linalg.eigvalsh(gram)[-1]) <= tol, n


# -- the certified search --------------------------------------------------------


def _inverse_norms(n):
    """||X^-1||_F^2 of every K(n) mask, indexed by mask, from LAPACK's inverse
    rounded to integers (exact for n <= 6, where the entries stay below 8)."""
    rows, cols = latmat._kernels.tri_positions(n)
    masks = np.arange(1 << rows.shape[0])
    x = np.zeros((masks.shape[0], n, n))
    x[:, np.arange(n), np.arange(n)] = 1.0
    x[:, rows, cols] = (masks[:, None] >> np.arange(rows.shape[0])) & 1
    y = np.rint(np.linalg.inv(x)).astype(np.int64)
    return (y * y).sum(axis=(1, 2))


def test_certify_bound_is_sound_by_brute_force():
    # every prefix on each mask's own path, at every row and every number of
    # decided bits of it, bounds that mask's ||X^-1||_F^2; whole masks are
    # exact, and the unpruned tree reaches every mask once
    for n in range(1, 7):
        norms = _inverse_norms(n)
        reached = []
        stack = [(constants._root(n), math.inf)]
        while stack:
            node, path_min = stack.pop()
            bound = constants._bound(n, node)
            path_min = min(path_min, bound)
            children = constants._children(n, node)
            if not children:
                assert bound == norms[node.bits], (n, node.bits)
                assert path_min >= norms[node.bits], (n, node.bits)
                reached.append(node.bits)
            stack.extend((child, path_min) for child in children)
        assert sorted(reached) == list(range(len(norms))), n


def test_certify_bound_at_the_root_is_phi_n():
    fib = [0, 1]
    while len(fib) <= 60:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 61):
        assert constants._bound(n, constants._root(n)) == n + fib[n] ** 2 - n % 2, n


def test_certified_witness_bits_and_values():
    for n, bits in ((5, 685), (6, 22189), (7, 1398445)):
        r = latmat.search_cn(n)
        assert r.witness.bits == bits == constants.y0_mask(n).bits
        assert r.matrices_scanned == 1 << (n * (n - 1) // 2)
        # the value route of kappa_y0, within 1e-13 of Jacobi on X X^T
        assert r.value == latmat.kappa_y0(n)
        jacobi = float(latmat._kernels.gram_eigenvalues(n, bits)[0])
        assert abs(r.value - jacobi) <= 1e-13 * jacobi, n
    assert latmat.search_cn(6).value == 0.014827585246472264  # correctly rounded c_6


def test_search_values_y0_from_the_certificates_g0(monkeypatch):
    # y0 is valued by its bracket, so a search inverts nothing but another
    # survivor (mask 51 at n = 4)
    inverse, calls = constants._inverse, []
    monkeypatch.setattr(constants, "_inverse", lambda x: calls.append(1) or inverse(x))
    for n in (*range(1, 13), 20, 40, 60):
        calls.clear()
        r = latmat.search_cn(n)
        assert len(calls) == (1 if n == 4 else 0), n
        assert r.value.hex() == latmat.kappa_y0(n).hex(), n
        assert r.witness == constants.y0_mask(n), n
        assert np.array_equal(r.witness.to_matrix(), latmat.y0_matrix(n)), n


def test_certified_survivors_and_nodes():
    cert = latmat.certify_cn(4)
    assert cert.survivors == (45, 51) and cert.nodes == 24
    for n in range(5, 41):
        cert = latmat.certify_cn(n)
        assert cert.survivors == (constants.y0_mask(n).bits,), n
        assert cert.nodes == n * n - 1, n
        # the Rayleigh quotient of v lies below lambda_max(G0) = 1 / kappa(y0)
        assert 0 < cert.num and 0 < cert.den
        assert cert.margin <= (1 + 1e-12) / latmat.kappa_y0(n)


@pytest.mark.parametrize(
    "vector",
    [
        lambda n: [0] * n,  # prunes nothing
        lambda n: [1] + [0] * (n - 1),  # far from the top
    ],
    ids=["zero", "first-unit"],
)
def test_a_poor_vector_gives_the_same_result(monkeypatch, vector):
    want = {n: latmat.full_scan(n)[0] for n in range(1, 6)}
    monkeypatch.setattr(constants, "_top_vector", vector)
    for n in range(1, 6):
        got = latmat.full_scan(n)[0]
        assert (got.value, got.witness.bits) == (want[n].value, want[n].witness.bits), n
    cert = latmat.certify_cn(5)
    assert constants.y0_mask(5).bits in cert.survivors
    if cert.num:
        assert 1 < len(cert.survivors) < 1 << 10  # it prunes some masks
    else:
        assert cert.survivors == tuple(range(1 << 10))


def test_search_cap_is_60_and_the_scan_cap_only_binds_a_scan():
    with pytest.raises(ValueError, match="search cap 60"):
        latmat.certify_cn(61)
    assert latmat.certify_cn(61, cap=61).nodes == 61 * 61 - 1
    # enumerate_kn keeps its cap of 8; the search runs past it
    with pytest.raises(ValueError, match="enumeration cap 8"):
        latmat.enumerate_kn(9)
    assert latmat.full_scan(9)[0].witness.bits == constants.y0_mask(9).bits


def test_cap_errors_name_only_a_real_override():
    with pytest.raises(ValueError, match="search cap 60") as exc:
        latmat.search_cn(61)
    assert "cap=" in str(exc.value) and "latmat search --i-know" in str(exc.value)
    # enumerate_kn has no override, so its message names none
    with pytest.raises(ValueError, match="enumeration cap 8") as exc:
        latmat.enumerate_kn(9)
    assert "override" not in str(exc.value)


def test_search_writes_nothing(capsys):
    latmat.full_scan(8)
    latmat.verify_conjecture(8)
    assert capsys.readouterr() == ("", "")


def test_verify_conjecture_decides_past_the_absolute_tolerance():
    # from n = 24 on, c_n is below the old absolute tolerance of 1e-9; the
    # certificate decides there
    chk = latmat.verify_conjecture(24)
    assert chk.holds and chk.c_n < 1e-9
    assert chk.c_n == chk.kappa_y0 == latmat.kappa_y0(24)
    assert chk.nodes == 24 * 24 - 1
    assert chk.margin <= (1 + 1e-12) / chk.kappa_y0
