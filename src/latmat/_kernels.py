"""Numerical kernels: one Jacobi eigensolver over stacks of symmetric
matrices, and the triangular-mask scan built on it.

A single matrix is a stack of one; the K(n) scan bounds every Gram matrix
in integers and solves only the few that the bounds cannot rule out, as one
stack per batch of 16384 masks.  The sweep follows the round-robin parallel
ordering of Brent & Luk (1985): each step rotates n // 2 disjoint index
pairs, so a step is a handful of numpy operations on the whole stack, and
n - 1 steps (n for odd n) rotate every pair once.  Between steps the stack
is reordered so that the next step's pairs are adjacent rows and columns,
which the rotation updates in place.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 50
_SCAN_BATCH = 1 << 14
_SCAN_SEEDS = 2  # per side, in a range's first batch


class SpectraError(ValueError):
    """Bad eigensolver input or failed convergence."""


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# -- round-robin Jacobi over a stack -------------------------------------------


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


def _jacobi_stack(a: np.ndarray, tol: float):
    """Cyclic Jacobi on each matrix of a symmetric stack, shape (B, n, n).

    A matrix stops when its off-diagonal Frobenius norm is at most
    tol * its Frobenius norm, or after JACOBI_MAX_SWEEPS sweeps, and then
    leaves the stack: later sweeps neither touch it nor spend time on it.
    Returns (eigenvalues ascending, sweeps, off-diagonal residuals,
    unconverged flags), one row or entry per matrix; `a` is not modified.
    """
    cap = JACOBI_MAX_SWEEPS
    count, n = a.shape[0], a.shape[-1]
    first, moves = _round_robin(n)
    half = n // 2
    p, q = np.arange(0, 2 * half, 2), np.arange(1, 2 * half, 2)
    ps, qs = slice(0, 2 * half, 2), slice(1, 2 * half, 2)  # p and q, indexing views
    diag = np.arange(n)
    # batch last, so every gather moves runs of B contiguous numbers; rows and
    # columns in step 0's order
    work = np.asarray(a, dtype=np.float64).transpose(1, 2, 0)[first[:, None], first]
    # Each matrix is scaled by the power of two that puts its largest entry in
    # [1, 2), so the squares summed into its norms neither overflow nor all
    # underflow.  The scaling is exact, and so is undoing it on the
    # eigenvalues and residuals; a rotation does not depend on it.
    largest = np.maximum(work.max(axis=(0, 1), initial=0.0), -work.min(axis=(0, 1), initial=0.0))
    shift = np.frexp(largest)[1] - 1
    np.ldexp(work, -shift, out=work)

    # Frobenius norms of each matrix and of its off-diagonal part, summed row
    # by row in the same order for every B, so a matrix's stopping decisions
    # do not depend on the stack it is in.  A plain sum would do so for
    # B > 1, but over a stack of one it sums pairwise from 8 rows on.  The
    # off-diagonal mass is summed directly: total minus diagonal would cancel
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
    eigs = np.empty((count, n))
    sweeps = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    for sweep in range(cap + 1):
        busy = (off[live] > thresh[live]) & (sweep < cap)
        eigs[live[~busy]] = work[diag, diag][:, ~busy].T
        sweeps[live[~busy]] = sweep
        live, work = live[busy], work[:, :, busy]
        if not live.size:
            break
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
            del xp, xq, sxq  # else the views keep this stack alive beside the next
            work[p, q] = 0.0
            work[q, p] = 0.0
            work = work[move[:, None], move]
        off[live] = norms(work)[1]
    return np.ldexp(np.sort(eigs, axis=1), shift[:, None]), sweeps, np.ldexp(off, shift), off > thresh


def jacobi_eigenvalues(a: np.ndarray, tol: float = JACOBI_TOL):
    """Jacobi on one symmetric matrix; returns (eigenvalues, sweeps, residual).

    Raises SpectraError if it has not converged after JACOBI_MAX_SWEEPS sweeps.
    """
    w, sweeps, off, stuck = _jacobi_stack(np.asarray(a, dtype=np.float64)[None], tol)
    if stuck[0]:
        raise SpectraError(
            f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(residual {off[0]:.3e})"
        )
    return w[0], int(sweeps[0]), float(off[0])


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


def _solve_grams(n: int, gram: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (n, n, B) stack of K(n) Gram matrices, one row each.

    Raises SpectraError naming the first mask whose matrix has not converged.
    """
    eigs, _, off, stuck = _jacobi_stack(gram.transpose(2, 0, 1), JACOBI_TOL)
    if stuck.any():
        k = int(np.argmax(stuck))
        raise SpectraError(
            f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"on the Gram matrix of K({n}) mask {int(masks[k])} (residual {off[k]:.3e})"
        )
    return eigs


def scan_mask_range(n: int, lo: int, hi: int):
    """Scan Gram spectra of all masks in [lo, hi); track both extrema.

    Returns (min_value, min_mask, max_value, max_mask, scanned).  Ties keep
    the smallest mask because enumeration ascends and updates are strict.

    Every mask is bounded in exact integer arithmetic, and Jacobi runs only
    on the masks the bounds cannot rule out.  With X the mask's matrix,
    G = X X^T and Y = X^-1 (an integer matrix, by forward substitution),
    lambda_min(G) >= 1 / trace(G^-1) = 1 / ||Y||_F^2 and
    lambda_max(G) <= ||G||_F.  A mask is solved unless its bound is worse, by
    more than slack = 1e-9 ||G||_F, than the best value solved so far in
    [lo, hi); a range's first batch takes that value from its _SCAN_SEEDS
    masks with the best bounds on each side.  Jacobi stops once the
    off-diagonal norm is at most 1e-12 ||G||_F, which bounds its error far
    inside the slack, so a skipped mask's eigenvalue would be strictly worse
    than one already solved: the result is that of solving every mask, bit
    for bit, since a matrix's eigenvalues do not depend on the stack it is
    solved in.  Raises SpectraError, naming the mask, if a solved Gram matrix
    has not converged after JACOBI_MAX_SWEEPS sweeps.
    """
    rows, cols = tri_positions(n)
    shifts = np.arange(rows.shape[0], dtype=np.int64)
    diag = np.arange(n)
    best_min, best_min_mask = np.inf, 0
    best_max, best_max_mask = -np.inf, 0
    for start in range(lo, hi, _SCAN_BATCH):
        masks = np.arange(start, min(start + _SCAN_BATCH, hi), dtype=np.int64)
        # batch last, as the solver works: each step below is one numpy
        # operation on runs of B contiguous numbers
        x = np.zeros((n, n, masks.shape[0]))
        x[diag, diag] = 1.0
        x[rows, cols] = (masks >> shifts[:, None]) & 1
        gram = np.empty_like(x)
        y = np.zeros_like(x)
        y[diag, diag] = 1.0
        for i in range(n):
            for j in range(i + 1):  # row j of X is zero past column j
                gram[i, j] = gram[j, i] = (x[i, : j + 1] * x[j, : j + 1]).sum(axis=0)
            y[i, :i] = -(x[i, :i, None] * y[:i, :i]).sum(axis=0)
        del x  # peak memory: the bounds need only G and Y
        # integers below 2**53, so exact: Y's entries are at most F_n in size
        inv_norm = np.einsum("ijb,ijb->b", y, y)
        del y
        fro = np.sqrt(np.einsum("ijb,ijb->b", gram, gram))
        slack = 1e-9 * fro
        t_min, t_max = best_min, best_max
        if start == lo:
            seeds = np.union1d(np.argsort(inv_norm)[-_SCAN_SEEDS:], np.argsort(fro)[-_SCAN_SEEDS:])
            eigs = _solve_grams(n, gram[:, :, seeds], masks[seeds])
            t_min, t_max = eigs[:, 0].min(), eigs[:, -1].max()
        keep = (1.0 / inv_norm <= t_min + slack) | (fro >= t_max - slack)
        masks = masks[keep]
        if not masks.size:
            continue
        eigs = _solve_grams(n, gram[:, :, keep], masks)
        i = int(np.argmin(eigs[:, 0]))
        if eigs[i, 0] < best_min:
            best_min, best_min_mask = float(eigs[i, 0]), int(masks[i])
        j = int(np.argmax(eigs[:, -1]))
        if eigs[j, -1] > best_max:
            best_max, best_max_mask = float(eigs[j, -1]), int(masks[j])
    return best_min, best_min_mask, best_max, best_max_mask, hi - lo
