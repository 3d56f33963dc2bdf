"""Extremal eigenvalue constants over unit-lower-triangular 0/1 matrices.

K(n) is the set of n x n lower triangular 0/1 matrices with unit diagonal.
``search_cn`` minimizes the smallest Gram eigenvalue over K(n) by an
exhaustive scan, seeded with the value of the conjectured witness y0; the
scan is embarrassingly parallel over mask ranges, merges deterministically,
and can checkpoint per chunk for crash-safe resume.  ``search_Cn`` maximizes
the largest one, which the all-ones mask attains, so it is one eigensolve
and needs no scan.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import gram_eigenvalues, mask_to_matrix, scan_mask_range
from .spectra import eigen_symmetric

DEFAULT_MAX_N = 8


def search_cap() -> int:
    """Hard size cap for the exhaustive scan; LATMAT_MAX_N overrides it."""
    raw = os.environ.get("LATMAT_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LATMAT_MAX_N must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class TriangularMask:
    """Bit-packed strictly-lower-triangular 0/1 entries of a K(n) member.

    Bit k (least significant first) toggles the strictly-lower entries in
    row-major order: (1,0), (2,0), (2,1), (3,0), ...
    """

    n: int
    bits: int

    def to_matrix(self) -> np.ndarray:
        return mask_to_matrix(self.n, self.bits)

    def gram(self) -> np.ndarray:
        x = self.to_matrix()
        return x @ x.T


@dataclass(frozen=True)
class SearchResult:
    n: int
    extremum: str  # "min" | "max"
    value: float
    witness: TriangularMask
    matrices_scanned: int


def _check_n(n: int, cap: int | None = None) -> None:
    cap = search_cap() if cap is None else cap
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the scan cap {cap} "
            f"(2**(n(n-1)/2) grows fast; raise LATMAT_MAX_N or pass the override to proceed)"
        )


def enumerate_kn(n: int, cap: int | None = None):
    """Every K(n) mask exactly once, in ascending bit-pattern order."""
    _check_n(n, cap)

    def _iterate():
        for bits in range(1 << (n * (n - 1) // 2)):
            yield TriangularMask(n, bits)

    return _iterate()


# -- exhaustive scan ----------------------------------------------------------


def _chunk_worker(args):
    return scan_mask_range(*args)


def _checkpoint_path(directory, n, chunk):
    return os.path.join(directory, f"scan_n{n}_chunk{chunk:05d}.txt")


def _write_checkpoint(path, n, lo, hi, part):
    value, mask = part
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"n={n}\n")
        fh.write(f"lo={lo}\n")
        fh.write(f"hi={hi}\n")
        fh.write(f"scanned={hi - lo}\n")
        fh.write(f"min_value={value:.17g}\n")
        fh.write(f"min_pattern={mask}\n")
    os.replace(tmp, path)  # write-then-rename keeps resume crash-safe


def _read_checkpoint(path, n, lo, hi):
    if not os.path.exists(path):
        return None
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, val = line.split("=", 1)
            fields[key] = val
    try:
        if int(fields["n"]) != n or int(fields["lo"]) != lo or int(fields["hi"]) != hi:
            return None
        return float(fields["min_value"]), int(fields["min_pattern"])
    except (KeyError, ValueError):
        return None


def full_scan(
    n: int,
    jobs: int = 1,
    checkpoint_dir: str | None = None,
    chunks: int | None = None,
    cap: int | None = None,
):
    """Scan all of K(n) once; returns (min SearchResult, max SearchResult).

    The scan looks for c_n only.  Its threshold is y0's value, solved by the
    same Jacobi as every mask, so each range keeps only masks that reach it
    (y0's range at least y0 itself); the max result is ``search_Cn(n)``.
    """
    _check_n(n, cap)
    threshold = float(gram_eigenvalues(n, y0_mask(n).bits)[0])
    total = 1 << (n * (n - 1) // 2)
    if chunks is None:
        if n >= 8:
            chunks = 256
        elif jobs > 1 or checkpoint_dir is not None:
            chunks = min(total, 32)
        else:
            chunks = 1
    chunks = max(1, min(chunks, total))
    step = -(-total // chunks)
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]

    parts: list = [None] * len(ranges)
    pending = []
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    for k, (lo, hi) in enumerate(ranges):
        if checkpoint_dir is not None:
            cached = _read_checkpoint(_checkpoint_path(checkpoint_dir, n, k), n, lo, hi)
            if cached is not None:
                parts[k] = cached
                continue
        pending.append((k, lo, hi))

    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for (k, lo, hi), part in zip(
                pending, pool.map(_chunk_worker, [(n, lo, hi, threshold) for _, lo, hi in pending])
            ):
                parts[k] = part
                if checkpoint_dir is not None:
                    _write_checkpoint(_checkpoint_path(checkpoint_dir, n, k), n, lo, hi, part)
    else:
        for k, lo, hi in pending:
            part = scan_mask_range(n, lo, hi, threshold)
            parts[k] = part
            if checkpoint_dir is not None:
                _write_checkpoint(_checkpoint_path(checkpoint_dir, n, k), n, lo, hi, part)

    value, mask = min(parts)  # the smallest value, the smallest mask winning a tie
    return SearchResult(n, "min", value, TriangularMask(n, mask), total), search_Cn(n)


_scan_cache: dict = {}


def _cached_scan(n: int):
    if n not in _scan_cache:
        _scan_cache[n] = full_scan(n)
    return _scan_cache[n]


def search_cn(n: int, **kwargs) -> SearchResult:
    """Global minimum of the smallest Gram eigenvalue over K(n), with witness."""
    if kwargs:
        return full_scan(n, **kwargs)[0]
    return _cached_scan(n)[0]


def search_Cn(n: int) -> SearchResult:
    """Global maximum of the largest Gram eigenvalue over K(n), with witness.

    The all-ones mask attains it, so this is one eigensolve, for any n >= 1.
    With L the all-ones lower triangle, every X in K(n) has 0 <= X <= L
    entrywise, hence 0 <= X X^T <= L L^T entrywise.  By Perron-Frobenius the
    spectral radius of a nonnegative matrix is monotone in its entries, and
    a Gram matrix's spectral radius is its largest eigenvalue, so
    lambda_max(X X^T) <= lambda_max(L L^T).  L L^T is the MIN matrix
    [min(i, j)].  The proof covers every mask, so all 2^(n(n-1)/2) count as
    scanned.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = n * (n - 1) // 2
    idx = np.arange(1, n + 1)
    value = eigen_symmetric(np.minimum.outer(idx, idx).astype(np.float64)).max
    return SearchResult(n, "max", value, TriangularMask(n, (1 << k) - 1), 1 << k)


def append_ledger(path, result: SearchResult) -> None:
    """Append a search result to the CSV ledger (header written on creation)."""
    new = not os.path.exists(path)
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write("n,extremum,value,witness_bits,scanned\n")
        fh.write(
            f"{result.n},{result.extremum},{result.value:.17g},"
            f"{result.witness.bits},{result.matrices_scanned}\n"
        )


# -- closed forms -------------------------------------------------------------


def t_n(n: int) -> float:
    """Upper bound for the largest Gram eigenvalue constant: the square root
    of n(n+1)(n^2+n+1)/6, cross-checked against its summation form exactly."""
    if n < 1:
        raise ValueError("n must be at least 1")
    summed = sum((2 * (n - k) + 1) * k * k for k in range(1, n + 1))
    product = n * (n + 1) * (n * n + n + 1)
    if product != 6 * summed:
        raise RuntimeError("summation and product forms disagree")
    return math.sqrt(product / 6)


def cn_lower_bound_from_tn(n: int) -> float:
    """Unconditional lower bound (6 / (n^4+2n^3+2n^2+n)) ** ((n-1)/2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    denom = n**4 + 2 * n**3 + 2 * n**2 + n
    return (6.0 / denom) ** ((n - 1) / 2.0)


def cn_lower_bound_from_n0(n: int) -> float:
    """Sharper lower bound from the conjectured extremal Gram matrix.

    Valid if the alternating-pattern conjecture holds; parity-dependent:
    (48/(n^4+56n^2+48n))**((n-1)/2) for even n,
    (48/(n^4+50n^2+48n-51))**((n-1)/2) for odd n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n % 2 == 0:
        denom = n**4 + 56 * n**2 + 48 * n
    else:
        denom = n**4 + 50 * n**2 + 48 * n - 51
    return (48.0 / denom) ** ((n - 1) / 2.0)


def y0_matrix(n: int) -> np.ndarray:
    """Conjectured extremal member of K(n): ones on the diagonal and, below
    it, exactly where the row and column indices have opposite parity."""
    if n < 1:
        raise ValueError("n must be at least 1")
    y = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        y[i, i] = 1
        for j in range(i):
            if (i + j) % 2 == 1:  # 1-based i+j odd <=> 0-based i+j odd
                y[i, j] = 1
    return y


def y0_mask(n: int) -> TriangularMask:
    y = y0_matrix(n)
    bits = 0
    k = 0
    for i in range(1, n):
        for j in range(i):
            if y[i, j]:
                bits |= 1 << k
            k += 1
    return TriangularMask(n, bits)


def n0_frobenius(n: int) -> float:
    """Frobenius norm of the conjectured extremal Gram matrix, computed
    directly in integer arithmetic."""
    g = y0_mask(n).gram()
    return math.sqrt(int((g * g).sum()))


def n0_frobenius_closed_form(n: int) -> float:
    """Closed form of the same norm: sqrt((n^4+56n^2+48n)/48) for even n,
    sqrt((n^4+50n^2+48n-51)/48) for odd n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n % 2 == 0:
        num = n**4 + 56 * n**2 + 48 * n
    else:
        num = n**4 + 50 * n**2 + 48 * n - 51
    return math.sqrt(num / 48.0)


CONJECTURE_TOL = 1e-9


@dataclass(frozen=True)
class ConjectureCheck:
    n: int
    holds: bool
    c_n: float
    kappa_y0: float


def y0_inverse(n: int) -> np.ndarray:
    """y0^-1 in Python ints (an object array), by forward substitution."""
    y = y0_matrix(n).astype(object)
    inv = np.eye(n, dtype=object)
    for i in range(1, n):
        inv[i, :i] = -y[i, :i].dot(inv[:i, :i])
    return inv


def kappa_y0(n: int) -> float:
    """Smallest eigenvalue of the conjectured extremal Gram matrix y0 y0^T.

    It is computed as 1 / lambda_max(Y0^T Y0), with Y0 = y0^-1, since
    (y0 y0^T)^-1 = Y0^T Y0.  Y0^T Y0 is formed in Python ints and rounded
    once per entry, and its largest eigenvalue has a small relative error;
    the smallest eigenvalue of y0 y0^T itself drowns in rounding as n grows
    (a direct solve gives -4.8e-16 at n = 60, against 4.17e-25).  Raises
    ValueError where the entries or the eigenvalue overflow float64.
    """
    inv = y0_inverse(n)
    try:
        with np.errstate(over="ignore"):  # an infinite eigenvalue raises below
            top = eigen_symmetric((inv.T @ inv).astype(np.float64)).max
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(f"kappa_y0({n}): (y0 y0^T)^-1 overflows float64")
    return 1.0 / top


def verify_conjecture(n: int, **search_kwargs) -> ConjectureCheck:
    """Compare the searched minimum against the conjectured witness value."""
    c = search_cn(n, **search_kwargs)
    ky = kappa_y0(n)
    return ConjectureCheck(n, abs(c.value - ky) <= CONJECTURE_TOL, c.value, ky)


@dataclass(frozen=True)
class TableRow:
    n: int
    lower_bound_tn: float
    lower_bound_n0: float
    c_n: float


def table1(n_max: int, **search_kwargs) -> list:
    """Rows (n, unconditional bound, conjecture-based bound, searched c_n)."""
    if not 1 <= n_max <= 7:
        raise ValueError("the constants table is produced for n_max between 1 and 7")
    rows = []
    for n in range(1, n_max + 1):
        c = search_cn(n, **search_kwargs)
        rows.append(
            TableRow(n, cn_lower_bound_from_tn(n), cn_lower_bound_from_n0(n), c.value)
        )
    return rows


def format_table1(rows) -> str:
    header = f"{'n':>2}  {'lower (closed form)':>20}  {'lower (conjectural)':>20}  {'c_n':>12}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.n:>2}  {r.lower_bound_tn:>20.6g}  {r.lower_bound_n0:>20.6g}  {r.c_n:>12.6g}"
        )
    return "\n".join(lines) + "\n"
