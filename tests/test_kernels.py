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
    # the one kernel: each matrix of a stack gets the eigenvalues of its solve
    # as a stack of one, bit for bit, and agrees with LAPACK
    for mats in _stack_cases():
        before = mats.copy()
        batch_eigs, sweeps, off, stuck = _kernels._jacobi_stack(mats, _kernels.JACOBI_TOL)
        assert np.array_equal(mats, before)  # input untouched
        assert not stuck.any()
        assert batch_eigs.shape == mats.shape[:2]
        for k in range(mats.shape[0]):
            w, k_sweeps, k_off = _kernels.jacobi_eigenvalues(mats[k])
            assert np.array_equal(batch_eigs[k], w)
            assert k_sweeps == sweeps[k] and k_off == pytest.approx(off[k], rel=1e-12, abs=0)
            lapack = np.linalg.eigvalsh(mats[k])
            scale = np.abs(lapack).max()
            assert np.allclose(w, lapack, rtol=0, atol=1e-12 * scale)
            assert np.array_equal(mats[k], before[k])


def test_scan_fails_loudly_on_nonconvergence(monkeypatch):
    monkeypatch.setattr(_kernels, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(latmat.SpectraError, match=r"K\(4\) mask \d+"):
        _kernels.scan_mask_range(4, 0, 64)


def test_scan_partial_range():
    # a range split must merge to the same result as one pass
    whole = _kernels.scan_mask_range(4, 0, 64)
    left = _kernels.scan_mask_range(4, 0, 33)
    right = _kernels.scan_mask_range(4, 33, 64)
    best_min = min(left[0], right[0])
    assert whole[0] == best_min
    assert whole[4] == left[4] + right[4] == 64
