"""Numerical kernels: one Jacobi eigensolver for a symmetric matrix, and the
K(n) mask scan that the c_n search runs only for `jobs`, `chunks` or
`checkpoint_dir` (otherwise `constants.certify_cn` gives c_n).

The sweep follows the round-robin ordering of Brent & Luk (1985); odd n
gains a zero index that pairs with the one sitting a step out.  A step takes
its rotations in Python floats, then updates the rows and then the columns,
each by one fused product on one gather of the step's pairs followed by the
same pairs swapped.  Each entry rounds as in the array kernel kept in
tests/test_jacobi_reference.py, and the zero index changes no bit, so the
results match that kernel's bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 50
_SCAN_BATCH = 1 << 12  # masks per bound batch: its arrays stay in cache


class SpectraError(ValueError):
    """Bad eigensolver input or failed convergence."""


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# -- round-robin Jacobi ------------------------------------------------------


@lru_cache(maxsize=32)
def _round_robin(n: int):
    """One round-robin sweep over n indices, as a start order and moves.

    Each step orders the indices so that the pairs it rotates sit at
    positions (2k, 2k + 1), and for odd n the index that sits the step out
    comes last.  Returns (first, moves): `first` is step 0's order, and
    moves[r] reorders step r's order into the next step's (the last move
    leads back to step 0).  Circle method: index 0 stays put while the
    others move one place per step, and the k-th from the front meets the
    k-th from the back; for odd n a dummy joins the circle.
    """
    circle = list(range(n)) + ([None] if n % 2 else [])
    orders = []
    for _ in range(len(circle) - 1):
        half = len(circle) // 2
        pairs = sorted(zip(circle[:half], circle[::-1]), key=lambda pq: None in pq)
        orders.append([i for pq in pairs for i in pq if i is not None])
        circle = circle[:1] + circle[-1:] + circle[1:-1]
    orders = np.array(orders, dtype=np.intp).reshape(len(orders), n)
    moves = np.take_along_axis(np.argsort(orders, axis=1), np.roll(orders, -1, axis=0), axis=1)
    first = orders[0] if len(orders) else np.arange(n)
    for arr in (first, moves):
        arr.flags.writeable = False  # shared by every caller through the cache
    return first, moves


@lru_cache(maxsize=32)
def _sweep_plan(n: int):
    """`_round_robin(n)` as gathers for an m x m matrix, m = n + n % 2 (odd n
    gains a zero index n, last in every step): (m, first, steps, zeros, back).
    Step r reads its pairs' (a_pp, a_qq, a_pq) at the flat positions `params`,
    then takes rows and columns from step r - 1's order (step 0's from its
    own) by `gather`: its order, then that order with each pair swapped.
    `zeros` holds every a_pq and a_qp, and `back` leads to step 0's order."""
    first, moves = _round_robin(n)
    m = n + n % 2
    moves = np.hstack((moves, np.full((len(moves), m - n), n)))
    orders = np.vstack((np.arange(m), moves))
    prev, back = orders[:-1], orders[-1]
    gathers = np.hstack((prev, prev[:, np.arange(m) ^ 1]))
    p, q = prev[:, 0::2], prev[:, 1::2]
    params = np.stack((p * (m + 1), q * (m + 1), p * m + q), 2).reshape(len(prev), 3 * (m // 2))
    zeros = (np.arange(0, m, 2) * (m + 1) + np.array([[1], [m]])).ravel()
    for arr in (gathers, params, zeros, back):
        arr.flags.writeable = False  # shared by every caller through the cache
    return m, first, list(zip(params, gathers)), zeros, back


def as_float64(a) -> np.ndarray:
    """`a` as a float64 array; an entry past float64 raises SpectraError."""
    try:
        return np.asarray(a, dtype=np.float64)
    except OverflowError:
        raise SpectraError("an entry overflows float64") from None


def jacobi_eigenvalues(a: np.ndarray, tol: float = JACOBI_TOL):
    """Cyclic Jacobi on one symmetric matrix; returns (eigenvalues ascending,
    sweeps, off-diagonal residual).

    Iterates until the off-diagonal Frobenius norm is at most tol * the
    Frobenius norm; raises SpectraError if an entry is not finite, if that
    takes more than JACOBI_MAX_SWEEPS sweeps, or if an eigenvalue overflows
    float64.  `a` is not modified.
    """
    cap = JACOBI_MAX_SWEEPS
    a = as_float64(a)
    if not np.isfinite(a).all():  # before the scaling, which could overflow
        raise SpectraError("the matrix has an entry that is not finite")
    n = a.shape[-1]
    m, first, steps, zeros, back = _sweep_plan(n)
    diag = np.arange(n)
    # rows and columns in step 0's order, odd n's zero index last
    work = np.zeros((m, m))
    work[:n, :n] = a[first[:, None], first]
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

    fro, off = norms(work)
    thresh = tol * fro
    sweeps = 0
    while off > thresh and sweeps < cap:
        for params, gather in steps:
            # Python floats round as arrays do; a huge tau gives the identity
            cs, sn = [], []
            vals = iter(work.take(params).tolist())
            for app, aqq, apq in zip(vals, vals, vals):
                t = 0.0
                if apq != 0.0:
                    tau = (aqq - app) / (2.0 * apq)
                    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                cs += (c, c)
                sn += (-t * c, t * c)
            # rows, then columns: (c p - s q, c q + s p) from one gather each
            coef = np.array(cs + sn)
            x = work.take(gather, 0)
            x *= coef[:, None]
            work = x[:m] + x[m:]
            x = work.take(gather, 1)
            x *= coef
            work = x[:, :m] + x[:, m:]
            work.put(zeros, 0.0)
        work = work.take(back, 0).take(back, 1)
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
        raise SpectraError("an eigenvalue overflows float64")
    return eigenvalues, sweeps, residual


# -- exhaustive scan over unit-lower-triangular 0/1 masks --------------------


def tri_positions(n: int):
    """Row-major strictly-lower-triangular positions; bit k of a mask toggles
    entry (rows[k], cols[k]), least significant bit first."""
    rows = []
    cols = []
    for i in range(1, n):
        for j in range(i):
            rows.append(i)
            cols.append(j)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def mask_to_matrix(n: int, mask: int) -> np.ndarray:
    rows, cols = tri_positions(n)
    x = np.eye(n, dtype=np.int64)
    for k in range(rows.shape[0]):
        if (mask >> k) & 1:
            x[rows[k], cols[k]] = 1
    return x


def gram_eigenvalues(n: int, mask: int) -> np.ndarray:
    """Eigenvalues of X X^T, X the matrix of a K(n) mask, ascending.

    Raises SpectraError naming the mask if Jacobi has not converged.
    """
    x = mask_to_matrix(n, mask)
    try:
        return jacobi_eigenvalues((x @ x.T).astype(np.float64))[0]
    except SpectraError as exc:
        raise SpectraError(f"{exc} on the Gram matrix of K({n}) mask {mask}") from None


def scan_mask_range(n: int, lo: int, hi: int, threshold: float):
    """Smallest Gram eigenvalue at most `threshold` over the masks in [lo, hi).

    Returns (value, mask) for the smallest lambda_min(X X^T) <= threshold,
    the smallest mask winning a tie, or (inf, -1) if no mask in the range
    has one.

    Every mask is bounded in exact integer arithmetic, and Jacobi runs only
    on the masks the bound cannot rule out.  With X the mask's matrix and
    Y = X^-1 (an integer matrix, by forward substitution),
    lambda_min(X X^T) >= 1 / trace((X X^T)^-1) = 1 / ||Y||_F^2.  A mask is
    solved, on its own, unless that bound exceeds threshold + slack, with
    slack = 1e-9 n(n+1)/2 >= 1e-9 ||X X^T||_F, since
    ||X X^T||_F <= ||X||_F^2 <= n(n+1)/2.  Jacobi stops once the
    off-diagonal norm is at most 1e-12 ||X X^T||_F, which bounds its error
    far inside the slack, so a skipped mask's eigenvalue would exceed the
    threshold: the result is that of solving every mask, bit for bit.
    Raises SpectraError, naming the mask, if a solved Gram matrix has not
    converged after JACOBI_MAX_SWEEPS sweeps.
    """
    rows, cols = tri_positions(n)
    shifts = np.arange(rows.shape[0], dtype=np.int64)
    diag = np.arange(n)
    cut = threshold + 1e-9 * n * (n + 1) / 2
    best = (np.inf, -1)
    for start in range(lo, hi, _SCAN_BATCH):
        masks = np.arange(start, min(start + _SCAN_BATCH, hi), dtype=np.int64)
        # batch last: each step below is one numpy operation on runs of B
        # contiguous numbers.  Y's entries are at most F_(n-1) in size, so
        # int32 is exact to n = 47.
        x = np.zeros((n, n, masks.shape[0]), dtype=np.int8)
        x[diag, diag] = 1
        x[rows, cols] = (masks >> shifts[:, None]) & 1
        y = np.zeros(x.shape, dtype=np.int32)
        y[diag, diag] = 1
        for i in range(1, n):
            y[i, :i] = -(x[i, :i, None] * y[:i, :i]).sum(axis=0)
        inv_norm = np.einsum("ijb,ijb->b", y, y, dtype=np.int64)
        for mask in masks[1.0 / inv_norm <= cut].tolist():
            value = float(gram_eigenvalues(n, mask)[0])
            if value <= threshold and value < best[0]:
                best = (value, mask)
    return best
