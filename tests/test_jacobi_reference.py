"""The Jacobi kernel against a reference: the same round-robin sweep with its
rotation parameters computed on numpy arrays, pair by pair, and the rows and
columns rotated in place through strided views.  The kernel takes its
parameters in Python floats and rotates through fused updates, and must
return the same eigenvalues, sweeps and residual bit for bit, and raise the
same errors.
"""

import numpy as np
import pytest

import latmat
from latmat import _kernels
from latmat._kernels import JACOBI_MAX_SWEEPS, JACOBI_TOL, SpectraError, _round_robin, as_float64
from test_kernels import _stack_cases

# -- the reference kernel: kept as written, array parameters and in-place views --


def reference_jacobi_eigenvalues(a: np.ndarray, tol: float = JACOBI_TOL):
    """Cyclic Jacobi on one symmetric matrix; returns (eigenvalues ascending,
    sweeps, off-diagonal residual).

    Iterates until the off-diagonal Frobenius norm is at most tol * the
    Frobenius norm; raises SpectraError if that takes more than
    JACOBI_MAX_SWEEPS sweeps, or if an eigenvalue is not finite.  `a` is not
    modified.
    """
    cap = JACOBI_MAX_SWEEPS
    a = as_float64(a)
    n = a.shape[-1]
    first, moves = _round_robin(n)
    half = n // 2
    p, q = np.arange(0, 2 * half, 2), np.arange(1, 2 * half, 2)
    ps, qs = slice(0, 2 * half, 2), slice(1, 2 * half, 2)  # p and q, indexing views
    diag = np.arange(n)
    # rows and columns in step 0's order
    work = a[first[:, None], first]
    # The matrix is scaled by the power of two that puts its largest entry in
    # [1, 2), so the squares summed into its norms neither overflow nor all
    # underflow.  The scaling is exact, and so is undoing it on the
    # eigenvalues and the residual; a rotation does not depend on it.
    largest = np.maximum(work.max(initial=0.0), -work.min(initial=0.0))
    shift = np.frexp(largest)[1] - 1
    np.ldexp(work, -shift, out=work)

    # Frobenius norms of the matrix and of its off-diagonal part, summed row
    # by row (numpy's plain sum is pairwise from 8 rows on).  The off-diagonal
    # mass is summed directly: total minus diagonal would cancel
    # catastrophically near convergence.
    def rowsum(x):
        return np.add.accumulate(x, axis=0)[-1] if n else x.sum(axis=0)

    def norms(x):
        sq = x * x
        total = np.sqrt(rowsum(rowsum(sq)))
        sq[diag, diag] = 0.0
        return total, np.sqrt(rowsum(rowsum(sq)))

    with np.errstate(over="ignore"):  # an infinite norm stops at once
        fro, off = norms(work)
    thresh = tol * fro
    sweeps = 0
    while off > thresh and sweeps < cap:
        for move in moves:
            apq = work[p, q]
            skip = apq == 0.0
            with np.errstate(over="ignore"):
                tau = (work[q, q] - work[p, p]) / (2.0 * np.where(skip, 1.0, apq))
                # t = sign(tau) / (|tau| + root); a huge tau overflows root to
                # inf, which correctly degrades the rotation to the identity
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[skip] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # rows p and q, then columns p and q, rotated in place through views
            for xp, xq, cr, sr in (
                (work[ps], work[qs], c[:, None], s[:, None]),
                (work[:, ps], work[:, qs], c, s),
            ):
                sxq = sr * xq
                xq *= cr
                xq += sr * xp
                xp *= cr
                xp -= sxq
            work[p, q] = 0.0
            work[q, p] = 0.0
            work = work[move[:, None], move]
        off = norms(work)[1]
        sweeps += 1
    with np.errstate(over="ignore"):  # an eigenvalue past float64 raises below
        residual = float(np.ldexp(off, shift))
        eigenvalues = np.ldexp(np.sort(work[diag, diag]), shift)
    if off > thresh:
        raise SpectraError(
            f"Jacobi iteration did not converge in {cap} sweeps (residual {residual:.3e})"
        )
    if not np.isfinite(eigenvalues).all():
        if np.isfinite(a).all():
            raise SpectraError("an eigenvalue overflows float64")
        raise SpectraError("the matrix has an entry that is not finite")
    return eigenvalues, sweeps, residual


# -- bit identity ----------------------------------------------------------------


def _outcome(solve, a):
    try:
        return solve(a)
    except SpectraError as exc:
        return str(exc)


def _assert_same_bits(a):
    before = np.array(a, copy=True)
    want = _outcome(reference_jacobi_eigenvalues, a)
    got = _outcome(_kernels.jacobi_eigenvalues, a)
    assert np.array_equal(np.asarray(a), before, equal_nan=True)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()  # signed zeros included
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]


def _symmetric(x):
    return x + x.T


def test_same_bits_on_stack_cases():
    for mats in _stack_cases():
        for a in mats:
            _assert_same_bits(a)


@pytest.mark.parametrize("n", range(1, 26))
def test_same_bits_on_random_matrices(n):
    # odd and even n alike: the zero index of odd n changes no bit
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        _assert_same_bits(_symmetric(rng.normal(size=(n, n))))
        _assert_same_bits(_symmetric(rng.integers(-3, 4, size=(n, n)).astype(np.float64)))
    # small integers repeat diagonal entries, so some tau are exactly 0
    _assert_same_bits(_symmetric(rng.integers(0, 2, size=(n, n)).astype(np.float64)))


@pytest.mark.parametrize("n", range(1, 13))
def test_same_bits_on_y0_inverse_gram_and_min_matrix(n):
    inv = latmat.constants.y0_inverse(n)
    _assert_same_bits(as_float64(inv.T @ inv))
    i = np.arange(1, n + 1, dtype=np.float64)
    _assert_same_bits(np.minimum.outer(i, i))


def test_same_bits_on_empty_and_single_entry():
    _assert_same_bits(np.zeros((0, 0)))
    _assert_same_bits(np.array([[2.5]]))
    _assert_same_bits(np.array([[-0.0]]))


def _assert_same_error(a):
    want = _outcome(reference_jacobi_eigenvalues, a)
    assert isinstance(want, str)
    with pytest.raises(SpectraError) as err:
        _kernels.jacobi_eigenvalues(a)
    assert str(err.value) == want
    return want


def test_same_errors_on_overflow_and_nan():
    assert "overflows float64" in _assert_same_error(np.full((3, 3), 3.0 * 2.0**1022))
    assert "not finite" in _assert_same_error(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_same_error_on_nonconvergence(monkeypatch):
    # both kernels read the sweep cap at call time
    monkeypatch.setattr(_kernels, "JACOBI_MAX_SWEEPS", 1)
    monkeypatch.setitem(globals(), "JACOBI_MAX_SWEEPS", 1)
    rng = np.random.default_rng(5)
    for n in (5, 6):
        want = _assert_same_error(_symmetric(rng.normal(size=(n, n))))
        assert "did not converge in 1 sweeps" in want
