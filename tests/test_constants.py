import itertools
import math
import os

import numpy as np
import pytest

import latmat
from latmat import constants


def brute_force_extrema(n):
    """Independent oracle: enumerate K(n) with itertools, eigenvalues from
    LAPACK, first-attained tie-break on the same ascending bit order."""
    best_min, best_min_bits = math.inf, 0
    best_max, best_max_bits = -math.inf, 0
    nbits = n * (n - 1) // 2
    positions = [(i, j) for i in range(1, n) for j in range(i)]
    for bits in range(1 << nbits):
        x = np.eye(n)
        for k, (i, j) in enumerate(positions):
            if (bits >> k) & 1:
                x[i, j] = 1.0
        w = np.linalg.eigvalsh(x @ x.T)
        if w[0] < best_min:
            best_min, best_min_bits = w[0], bits
        if w[-1] > best_max:
            best_max, best_max_bits = w[-1], bits
    return best_min, best_min_bits, best_max, best_max_bits


def test_enumerate_counts():
    assert sum(1 for _ in latmat.enumerate_kn(1)) == 1
    assert sum(1 for _ in latmat.enumerate_kn(2)) == 2
    assert sum(1 for _ in latmat.enumerate_kn(4)) == 64


def test_enumerate_cap():
    with pytest.raises(ValueError, match="cap"):
        latmat.enumerate_kn(9)
    with pytest.raises(ValueError):
        latmat.enumerate_kn(0)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("LATMAT_MAX_N", "9")
    latmat.enumerate_kn(9)  # validation passes; don't iterate 2**36 masks
    monkeypatch.setenv("LATMAT_MAX_N", "four")
    with pytest.raises(ValueError, match="LATMAT_MAX_N"):
        latmat.enumerate_kn(4)


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
    for n in (2, 3, 4, 5):
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


def test_chunked_scan_matches_plain():
    plain = latmat.full_scan(4)
    chunked = latmat.full_scan(4, chunks=7)
    assert chunked[0].value == plain[0].value
    assert chunked[0].witness.bits == plain[0].witness.bits
    assert chunked[1].value == plain[1].value
    assert chunked[1].witness.bits == plain[1].witness.bits


def test_parallel_scan_matches_plain():
    plain = latmat.full_scan(4)
    par = latmat.full_scan(4, jobs=2)
    assert par[0].value == plain[0].value and par[0].witness.bits == plain[0].witness.bits
    assert par[1].value == plain[1].value and par[1].witness.bits == plain[1].witness.bits


def test_checkpoint_resume(tmp_path):
    d = str(tmp_path / "ck")
    first = latmat.full_scan(4, checkpoint_dir=d, chunks=8)
    files = sorted(os.listdir(d))
    assert len(files) == 8
    # corrupt one chunk; the resume must recompute just that chunk and agree
    victim = os.path.join(d, files[3])
    with open(victim, "w") as fh:
        fh.write("garbage\n")
    again = latmat.full_scan(4, checkpoint_dir=d, chunks=8)
    assert again[0].value == first[0].value
    assert again[0].witness.bits == first[0].witness.bits
    with open(victim) as fh:
        assert "min_value=" in fh.read()  # rewritten after recompute


def test_checkpoint_file_format(tmp_path):
    d = str(tmp_path / "ck")
    latmat.full_scan(3, checkpoint_dir=d, chunks=2)
    name = sorted(os.listdir(d))[0]
    content = open(os.path.join(d, name)).read()
    for key in ("n=", "lo=", "hi=", "scanned=", "min_value=", "min_pattern="):
        assert key in content


def test_checkpoint_with_old_keys_resumes(tmp_path):
    # a file that also holds the max fields of an earlier format is read, not
    # rescanned: its chunk's result is the one the merge sees
    d = str(tmp_path / "ck")
    os.makedirs(d)
    path = os.path.join(d, "scan_n3_chunk00000.txt")
    with open(path, "w") as fh:
        fh.write("n=3\nlo=0\nhi=4\nscanned=4\nmin_value=0.125\nmin_pattern=2\n")
        fh.write("max_value=5.5\nmax_pattern=3\n")
    rmin, rmax = latmat.full_scan(3, checkpoint_dir=d, chunks=2)
    assert (rmin.value, rmin.witness.bits) == (0.125, 2)
    assert rmax.value == latmat.search_Cn(3).value and rmax.witness.bits == 7
    assert "max_value=5.5" in open(path).read()  # left as it was


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


# lambda_min(y0 y0^T) to 25 digits, from mpmath's eigsy on the integer Gram
# matrix at 80 and at 120 decimal digits (the two agree)
KAPPA_Y0_DIGITS = {
    20: 2.185064723447486065460093e-8,
    40: 9.549019590715399194242181e-17,
    60: 4.173046022281981835402168e-25,
}


def test_kappa_y0_reference_digits():
    for n, want in KAPPA_Y0_DIGITS.items():
        # kappa_y0 is 1 / lambda_max of a matrix whose Frobenius norm is at
        # most sqrt(n) lambda_max: the stopping rule by Weyl's inequality,
        # plus rounding over at most 50 sweeps, bounds its relative error
        rtol = (1e-12 + 50 * n * np.finfo(np.float64).eps) * math.sqrt(n)
        assert abs(latmat.kappa_y0(n) - want) <= rtol * want, n


def test_kappa_y0_overflow_raises(monkeypatch):
    # entries past float64 (2**1200), or a largest eigenvalue past it
    # (9 * 2**1022, from the entries 3 * 2**1022 of a rank-one 3 x 3
    # matrix), raise rather than return 0
    for big in ([[2**600, 0], [0, 1]], [[2**511] * 3] * 3):
        monkeypatch.setattr(constants, "y0_inverse", lambda n, big=big: np.array(big, dtype=object))
        with pytest.raises(ValueError, match="overflows float64"):
            latmat.kappa_y0(2)


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


def test_full_scan_solves_only_y0(monkeypatch):
    solved = []
    solve = latmat.spectra.jacobi_eigenvalues

    def record(a, *args):
        solved.append(np.array(a))
        return solve(a, *args)

    monkeypatch.setattr(latmat.spectra, "jacobi_eigenvalues", record)
    rmin, rmax = latmat.full_scan(6)
    inv = constants.y0_inverse(6)
    assert len(solved) == 1
    assert np.array_equal(solved[0], (inv.T @ inv).astype(np.float64))  # y0's value route
    assert rmin.witness.bits == 22189 and rmax.witness.bits == (1 << 15) - 1


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
    assert latmat.search_cn(6).value == 0.014827585246472258  # perfbench's pinned c_6


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
        lambda g0: np.zeros(g0.shape[0], dtype=object),  # prunes nothing
        lambda g0: np.eye(g0.shape[0], dtype=object)[0],  # far from the top
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


def test_search_cap_is_60_and_the_scan_cap_only_binds_a_scan(monkeypatch):
    with pytest.raises(ValueError, match="search cap 60"):
        latmat.certify_cn(61)
    assert latmat.certify_cn(61, cap=61).nodes == 61 * 61 - 1
    monkeypatch.setenv("LATMAT_MAX_N", "3")
    assert latmat.full_scan(4)[0].witness.bits == 45
    with pytest.raises(ValueError, match="scan cap 3"):
        latmat.full_scan(4, chunks=2)


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
