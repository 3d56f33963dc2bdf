import math
import warnings

import numpy as np
import pytest

import latmat
from latmat import _kernels


def test_tri_positions_layout():
    rows, cols = _kernels.tri_positions(4)
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (1, 0),
        (2, 0),
        (2, 1),
        (3, 0),
        (3, 1),
        (3, 2),
    ]


def test_mask_to_matrix_lsb_first():
    x = _kernels.mask_to_matrix(3, 0b1)
    assert x[1, 0] == 1 and x[2, 0] == 0 and x[2, 1] == 0


def test_round_robin_rotates_every_pair_once_per_sweep():
    for n in range(9):
        first, moves = _kernels._round_robin(n)
        assert len(moves) == (n if n % 2 else max(n - 1, 0))
        order = first
        met = []
        for move in moves:
            assert sorted(order.tolist()) == list(range(n))
            # the step rotates positions (2k, 2k + 1): n // 2 disjoint pairs
            met += [tuple(sorted(order[k : k + 2].tolist())) for k in range(0, n - 1, 2)]
            order = order[move]
        assert np.array_equal(order, first)  # the sweep ends where it began
        assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def _stack_cases():
    rng = np.random.default_rng(17)
    mats = rng.normal(size=(40, 6, 6))
    yield mats + mats.transpose(0, 2, 1)  # random stack
    yield np.array([[[2.5]], [[-1.0]]])  # n = 1
    yield np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, -3.0], [-3.0, 1.0]]])  # n = 2
    odd = rng.normal(size=(5, 7, 7))
    yield odd + odd.transpose(0, 2, 1)  # odd n: one index sits out each step
    big = rng.normal(size=(20, 12, 12))
    yield big + big.transpose(0, 2, 1)  # 8 rows or more: norms summed row by row
    yield np.diag([3.0, -1.0, 2.0, 0.5])[None]  # already diagonal: every a_pq = 0
    yield np.array([[[1e300, 1.0], [1.0, -1e300]]])  # huge tau, infinite norm
    big = np.zeros((4, 4))
    big[:2, :2] = [[1e150, 1e-5], [1e-5, -1e150]]  # tau = -1e155 overflows tau**2
    big[2:, 2:] = 1e150
    yield big[None]
    # a norm summed unscaled overflows (1e200) or underflows (1e-200) here
    yield np.full((1, 2, 2), 1e200)
    yield np.full((1, 2, 2), 1e-200)


def test_batch_jacobi_matches_scalar():
    # the one kernel agrees with LAPACK on every matrix of the cases, and
    # leaves its input untouched
    for mats in _stack_cases():
        before = mats.copy()
        for k in range(mats.shape[0]):
            w, sweeps, off = _kernels.jacobi_eigenvalues(mats[k])
            assert w.shape == mats.shape[1:2]
            assert 0 <= sweeps <= _kernels.JACOBI_MAX_SWEEPS and off >= 0.0
            lapack = np.linalg.eigvalsh(mats[k])
            scale = np.abs(lapack).max()
            assert np.allclose(w, lapack, rtol=0, atol=1e-12 * scale)
            assert np.array_equal(mats[k], before[k])
        assert np.array_equal(mats, before)  # input untouched


def test_an_eigenvalue_past_float64_raises():
    # the entries 3 * 2**1022 are finite, the largest eigenvalue 9 * 2**1022
    # is not; no RuntimeWarning escapes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(latmat.SpectraError, match="overflows float64"):
            _kernels.jacobi_eigenvalues(np.full((3, 3), 3.0 * 2.0**1022))
        with pytest.raises(latmat.SpectraError, match="overflows float64"):
            latmat.eigen_symmetric(np.array([[2**1200, 0], [0, 1]], dtype=object))
    with pytest.raises(latmat.SpectraError, match="not finite"):
        _kernels.jacobi_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_raises_before_the_scaling(bad):
    # next to 1e308, scaling by the NaN's or inf's power of two would
    # overflow; pytest turns an escaping RuntimeWarning into a failure
    for a in ([[bad, 0.0], [0.0, 1e308]], [[1e308, bad], [bad, -1e308]]):
        with pytest.raises(latmat.SpectraError, match="an entry that is not finite"):
            _kernels.jacobi_eigenvalues(np.array(a))


def _y0_value(n):
    """The scan's threshold: y0's Gram matrix, solved as every mask is."""
    return float(_kernels.gram_eigenvalues(n, latmat.constants.y0_mask(n).bits)[0])


def test_scan_fails_loudly_on_nonconvergence(monkeypatch):
    monkeypatch.setattr(_kernels, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(latmat.SpectraError, match=r"K\(4\) mask \d+"):
        _kernels.scan_mask_range(4, 0, 64, 1.0)


def test_scan_partial_range():
    # a range split must merge to the same result as one pass; y0 (mask 45)
    # is in the right half, and no mask of the left half reaches its value
    threshold = _y0_value(4)
    whole = _kernels.scan_mask_range(4, 0, 64, threshold)
    left = _kernels.scan_mask_range(4, 0, 33, threshold)
    right = _kernels.scan_mask_range(4, 33, 64, threshold)
    assert whole == min(left, right) == right == (threshold, 45)
    assert left == (np.inf, -1)


# -- the integer bounds behind the scan's filter -------------------------------


def _inverse_ints(n, bits):
    """X^-1 of a K(n) mask in Python ints, by forward substitution."""
    x = [[int(i == j) for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(1, n) for j in range(i)):
        x[i][j] = (bits >> k) & 1
    y = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            y[i][j] = -sum(x[i][k] * y[k][j] for k in range(j, i))
    return y


def test_gram_bounds_hold_over_kn():
    # lambda_min(G) >= 1 / ||X^-1||_F^2 and lambda_max(G) <= ||G||_F, with
    # G = X X^T, on every member of K(n)
    for n in range(1, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            x = _kernels.mask_to_matrix(n, bits)
            y = np.array(_inverse_ints(n, bits))
            assert np.array_equal(x @ y, np.eye(n, dtype=np.int64))
            gram = x @ x.T
            inv_norm = int((y * y).sum())
            fro = math.sqrt(int((gram * gram).sum()))
            w = np.linalg.eigvalsh(gram.astype(np.float64))
            slack = 1e-12 * fro  # eigvalsh's error
            assert w[0] >= 1.0 / inv_norm - slack
            assert w[-1] <= fro + slack


def _inverse_norms(n):
    """||X^-1||_F^2 of every K(n) mask, in ascending mask order, by int64
    forward substitution over all masks at once."""
    rows, cols = _kernels.tri_positions(n)
    masks = np.arange(1 << rows.shape[0], dtype=np.int64)
    x = np.zeros((masks.shape[0], n, n), dtype=np.int64)
    x[:, np.arange(n), np.arange(n)] = 1
    x[:, rows, cols] = (masks[:, None] >> np.arange(rows.shape[0])) & 1
    y = np.zeros_like(x)
    y[:, np.arange(n), np.arange(n)] = 1
    for i in range(1, n):
        y[:, i, :i] = -np.einsum("bk,bkj->bj", x[:, i, :i], y[:, :i, :i])
    assert np.array_equal(x @ y, np.broadcast_to(np.eye(n, dtype=np.int64), x.shape))
    return (y * y).sum(axis=(1, 2))


def test_inverse_norm_maximum_is_phi_n(scan_table):
    # max over K(n) of ||X^-1||_F^2 is Phi_n = n + F_n^2 - [n odd], attained
    # at the c_n witness
    fib = [0, 1]
    while len(fib) <= 6:
        fib.append(fib[-1] + fib[-2])
    phis = []
    for n in range(1, 7):
        norms = _inverse_norms(n).tolist()
        phi = n + fib[n] ** 2 - n % 2
        assert max(norms) == phi
        assert norms[scan_table["results"][n][0].witness.bits] == phi
        phis.append(phi)
    assert phis == [1, 3, 6, 13, 29, 70]


# -- the filtered scan against solving every mask ------------------------------


def _scan_unfiltered(n, lo, hi, threshold):
    """Reference for scan_mask_range: LAPACK on every mask's Gram matrix,
    restricted to values <= threshold, the smallest mask winning a tie.

    The scan returns Jacobi's bits, so every mask that LAPACK puts within
    the two solvers' error bound of the threshold or below it is also solved
    by Jacobi; LAPACK rules out the rest.
    """
    rows, cols = _kernels.tri_positions(n)
    masks = np.arange(lo, hi, dtype=np.int64)
    x = np.zeros((hi - lo, n, n))
    x[:, np.arange(n), np.arange(n)] = 1.0
    x[:, rows, cols] = (masks[:, None] >> np.arange(rows.shape[0])) & 1
    lapack = np.linalg.eigvalsh(x @ x.transpose(0, 2, 1))[:, 0] if hi > lo else np.empty(0)
    tol = 1e-11 * n * (n + 1) / 2  # both solvers' error, by Weyl's inequality
    best = (np.inf, -1)
    for mask, w in zip(masks.tolist(), lapack.tolist()):
        if w <= threshold + tol:
            value = float(_kernels.gram_eigenvalues(n, mask)[0])
            assert abs(value - w) <= tol
            if value <= threshold:
                best = min(best, (value, mask))
    return best


def _filter_ranges():
    rng = np.random.default_rng(23)
    for n in (5, 6):
        total = 1 << (n * (n - 1) // 2)
        yield n, 0, total
        for _ in range(6):
            lo = int(rng.integers(0, total))
            yield n, lo, int(rng.integers(lo, min(total, lo + 4096) + 1))
        # short, and empty
        for width in (0, 1, 2, 3, 5):
            lo = int(rng.integers(0, total - width))
            yield n, lo, lo + width
    # neither global witness inside: K(5)'s are 685 and 1023, K(6)'s 22189
    # and 32767
    yield 5, 0, 685
    yield 5, 686, 1023
    yield 6, 0, 22189
    yield 6, 22190, 32767


# Thresholds as multiples of y0's value: below every mask, y0's own (the
# scan's), and high enough that 6 masks of K(5) and 19 of K(6) reach it.
_FACTORS = (0.5, 1.0, 1.5)


def test_filtered_scan_equals_solving_every_mask():
    for n, lo, hi in _filter_ranges():
        for factor in _FACTORS:
            threshold = factor * _y0_value(n)
            got = _kernels.scan_mask_range(n, lo, hi, threshold)
            assert got == _scan_unfiltered(n, lo, hi, threshold), (n, lo, hi, factor)


def test_filtered_scan_tie_goes_to_smallest_mask():
    # masks 57 and 58 of K(4) get bit-equal values, and nothing between them
    value = float(_kernels.gram_eigenvalues(4, 58)[0])
    assert float(_kernels.gram_eigenvalues(4, 57)[0]) == value
    assert _kernels.scan_mask_range(4, 57, 59, value) == (value, 57)
    assert _kernels.scan_mask_range(4, 50, 64, value) == _scan_unfiltered(4, 50, 64, value)


def test_filtered_scan_across_batch_boundaries(monkeypatch):
    monkeypatch.setattr(_kernels, "_SCAN_BATCH", 64)
    for n, lo, hi in ((5, 0, 1024), (5, 600, 700), (6, 22100, 22500), (6, 32700, 32768)):
        for factor in _FACTORS:
            threshold = factor * _y0_value(n)
            got = _kernels.scan_mask_range(n, lo, hi, threshold)
            assert got == _scan_unfiltered(n, lo, hi, threshold), (n, lo, hi, factor)
