"""Extremal eigenvalue constants over unit-lower-triangular 0/1 matrices.

K(n) is the set of n x n lower triangular 0/1 matrices with unit diagonal,
and c_n is the minimum of lambda_min(X X^T) over K(n).  ``certify_cn``
proves which masks can attain it by a search over the rows of X^-1, all in
Python ints, so no float decides which masks are left:

* For X in K(n), Y = X^-1 is an integer unit lower-triangular matrix, and
  lambda_min(X X^T) = 1 / sigma_max(Y)^2 >= 1 / ||Y||_F^2.
* Down column j, y_rj = -sum_{j <= k < r} x_rk y_kj, so y_rj lies in
  [-P, N]: P is the sum of the column's positive entries so far and N the
  sum of the absolute values of its negative ones.  With a = max(P, N) and
  b = P + N, one more row moves (a, b) to at most (b, a + b), so m more rows
  add at most Q_m(a, b) = sum_{t<m} A_t^2 to the column's squares, with
  A_t = F_{t-1} a + F_t b, F_{-1} = 1 and F_0 = 0.  A column not yet
  started, with m rows below its diagonal, holds at most 1 + F_m F_{m+1};
  summed over the columns, ||Y||_F^2 <= n + F_n^2 - [n odd], with equality
  at y0.
* The search decides the bits of each new row of X one at a time, taking
  first the rows of Y so far with the largest absolute sums.  With some bits
  decided, each new entry z_j of Y lies in an interval: the decided part,
  minus the positive y_kj or plus the absolute values of the negative ones
  over the undecided k.  z^2 + Q(a(z), b(z)) grows with |z| on each side of
  0, so its largest value on the interval is at the end on a side of 0 the
  interval reaches, or the larger of the two ends where it reaches both.
  The rows decided so far, these largest values and the constants of the
  columns not yet started bound ||Y||_F^2 for every completion of the
  prefix.  On a whole row this is the row-level bound, and on a whole mask
  it is exact.  The bit of x_rk moves only the intervals of the columns
  j <= k, so a prefix carries each column's term of the bound and a child
  evaluates only those columns again.
* G0 = Y0^T Y0, with Y0 = y0^-1, and v = G0^2 1 (two power steps from the
  all-ones vector, each shifted to about 64 bits) give the Rayleigh quotient
  v^T G0 v / v^T v <= lambda_max(G0) = 1 / kappa(y0).  A prefix is pruned iff
  bound * v^T v < v^T G0 v; then every mask below it has
  lambda_min(X X^T) >= 1 / bound > v^T v / v^T G0 v >= kappa(y0).  A poor v
  prunes less, but cannot make the proof wrong.  y0 is never pruned: along
  its path every bound is at least ||Y0||_F^2 = trace(G0) >= lambda_max(G0).

c_n is then the smallest value among the survivors, the smallest mask
winning a tie.  Every value comes from one route, that of ``kappa_y0``:
1 / lambda_max(Y^T Y), with Y^T Y formed in ints; y0's Y^T Y is the G0 of
the proof, so y0 is not inverted again.  The search visits n^2 - 1
prefixes (24 at n = 4) and keeps y0 alone, or y0 and mask 51 at n = 4.
``search_Cn`` maximizes the largest eigenvalue, which the all-ones mask
attains, so it is the closed form of the MIN matrix's largest eigenvalue
and needs no scan or solve.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import mask_to_matrix, tri_positions
from .spectra import eigen_symmetric

DEFAULT_MAX_N = 8  # enumerate_kn's cap: 2^28 masks
CERTIFY_MAX_N = 60  # the certified search takes about 0.1 s there


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


def _check_n(n: int, cap: int, what: str, why: str) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the {what} cap {cap} ({why})")


def enumerate_kn(n: int):
    """Every K(n) mask exactly once, in ascending bit-pattern order."""
    _check_n(n, DEFAULT_MAX_N, "enumeration", "2**(n(n-1)/2) grows fast")

    def _iterate():
        for bits in range(1 << (n * (n - 1) // 2)):
            yield TriangularMask(n, bits)

    return _iterate()


# -- one value route ------------------------------------------------------------


def _inverse(x) -> np.ndarray:
    """X^-1 of a unit lower-triangular 0/1 matrix in Python ints (an object
    array), by forward substitution."""
    x = np.asarray(x).astype(object)
    inv = np.eye(x.shape[0], dtype=object)
    for i in range(1, x.shape[0]):
        inv[i, :i] = -x[i, :i].dot(inv[:i, :i])
    return inv


def _gram_value(g) -> float:
    """lambda_min(X X^T) as 1 / lambda_max(Y^T Y), from g = Y^T Y in Python
    ints, with Y = X^-1.

    (X X^T)^-1 = Y^T Y is formed exactly and rounded once per entry, and its
    largest eigenvalue has a small relative error; the smallest eigenvalue of
    X X^T itself drowns in rounding as n grows.  Raises SpectraError (a
    ValueError) where an entry or the eigenvalue overflows float64.
    """
    return 1.0 / eigen_symmetric(g).max


def mask_value(n: int, bits: int) -> float:
    """lambda_min(X X^T) of a K(n) mask, by the route every c_n value takes."""
    inv = _inverse(mask_to_matrix(n, bits))
    return _gram_value(inv.T @ inv)


# -- certified search -----------------------------------------------------------


@lru_cache(maxsize=64)
def _fibonacci_tables(n: int):
    """(coef, tail) for the bound on K(n).

    coef[m] = (alpha, beta, gamma) with Q_m(a, b) = alpha a^2 + beta a b +
    gamma b^2, for m = 0..n.  tail[r] bounds the squares of columns r..n-1
    before any of their entries below the diagonal is decided:
    sum over j >= r of 1 + F_m F_{m+1}, m = n - 1 - j.
    """
    fib = [1, 0]  # F_{t} is fib[t + 1], from F_{-1} = 1
    while len(fib) < n + 3:
        fib.append(fib[-1] + fib[-2])
    coef, al, be, ga = [], 0, 0, 0
    for t in range(n + 1):
        coef.append((al, be, ga))
        al += fib[t] ** 2
        be += 2 * fib[t] * fib[t + 1]
        ga += fib[t + 1] ** 2
    tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        m = n - 1 - j
        tail[j] = tail[j + 1] + 1 + fib[m + 1] * fib[m + 2]
    return tuple(coef), tuple(tail)


class _Prefix(NamedTuple):
    """A node of the search: rows 0..r-1 of X decided, and `pos` bits of row r.

    rows[i] holds row i of Y = X^-1 up to its diagonal.  s, p and q hold, for
    each column j < r, the sum of its squares, of its positive entries and of
    the absolute values of its negative entries so far.  Row r decides its
    bits in the order `order`; for each j < r, d[j] is the decided part of
    the new entry z_j, and up[j] and un[j] sum the positive y_kj and the
    absolute values of the negative ones over the undecided k.  t[j] is
    column j's term of the bound, from ``_terms``: deciding the bit of row k
    changes only the columns j <= k, so a child takes the others' terms from
    its parent.
    """

    r: int
    pos: int
    bits: int
    rows: tuple
    s: tuple
    p: tuple
    q: tuple
    order: tuple
    d: tuple
    up: tuple
    un: tuple
    t: tuple


def _terms(n: int, r: int, s, p, q, d, up, un) -> tuple:
    """Each column's term of the bound with row r undecided: s_j plus the
    largest z^2 + Q(a, b) on z_j's interval [lo, hi], with a the larger of
    the column's positive and negative sums.  That value grows with |z| on
    each side of 0, so it is taken at hi where hi >= 0 and at lo where
    lo < 0.  zip stops at the shortest argument, so a child passes only the
    columns its decision changes."""
    al, be, ga = _fibonacci_tables(n)[0][n - 1 - r]
    terms = []
    for s, p, q, d, up, un in zip(s, p, q, d, up, un):
        lo, hi, best = d - up, d + un, 0
        if hi >= 0:
            a, b = p + hi, q
            a, b = a if a > b else b, a + b
            best = hi * hi + (al * a + be * b) * a + ga * b * b
        if lo < 0:
            a, b = p, q - lo
            a, b = a if a > b else b, a + b
            z = lo * lo + (al * a + be * b) * a + ga * b * b
            best = z if z > best else best
        terms.append(s + best)
    return tuple(terms)


def _start_row(n: int, r: int, bits: int, rows: tuple, s: tuple, p: tuple, q: tuple) -> _Prefix:
    order = tuple(sorted(range(r), key=lambda k: -sum(map(abs, rows[k]))))
    # with no bit of row r decided, every k < r is undecided: up = p, un = q
    d = (0,) * r
    return _Prefix(r, 0, bits, rows, s, p, q, order, d, p, q, _terms(n, r, s, p, q, d, p, q))


def _root(n: int) -> _Prefix:
    """Row 0 decided (it has no bits), row 1 started; for n = 1 the one mask."""
    empty = _start_row(n, 0, 0, (), (), (), ())
    return empty if n == 1 else _children(n, empty)[0]


def _bound(n: int, node: _Prefix) -> int:
    """An integer upper bound on ||X^-1||_F^2 over every completion of `node`."""
    return _fibonacci_tables(n)[1][node.r] + sum(node.t)


def _children(n: int, node: _Prefix) -> list:
    """The prefixes one decision below `node`: both values of the next bit of
    row r, or, with row r whole, row r + 1 started.  A whole mask has none."""
    r, pos = node.r, node.pos
    if pos < r:
        k = node.order[pos]
        yk = node.rows[k]  # y_kj is zero for j > k: the columns j <= k change
        up = [u - y if y > 0 else u for u, y in zip(node.up, yk)]
        un = [u + y if y < 0 else u for u, y in zip(node.un, yk)]
        d = [dj - y for dj, y in zip(node.d, yk)]
        bits, rows, s, p, q, order = node.bits, node.rows, node.s, node.p, node.q, node.order
        t0 = _terms(n, r, s, p, q, node.d, up, un)
        t1 = _terms(n, r, s, p, q, d, up, un)
        rest = slice(k + 1, None)
        up, un, t = tuple(up) + node.up[rest], tuple(un) + node.un[rest], node.t[rest]
        bit = 1 << (r * (r - 1) // 2 + k)
        return [
            _Prefix(r, pos + 1, bits, rows, s, p, q, order, node.d, up, un, t0 + t),
            _Prefix(r, pos + 1, bits | bit, rows, s, p, q, order, tuple(d) + node.d[rest], up, un, t1 + t),
        ]
    if r >= n - 1:
        return []
    z = node.d
    return [
        _start_row(
            n,
            r + 1,
            node.bits,
            node.rows + (z + (1,),),
            tuple([s + y * y for s, y in zip(node.s, z)]) + (1,),
            tuple([p + y if y > 0 else p for p, y in zip(node.p, z)]) + (1,),
            tuple([q - y if y < 0 else q for q, y in zip(node.q, z)]) + (0,),
        )
    ]


def _top_vector(g0) -> np.ndarray:
    """Two power steps on G0 from the all-ones vector, in Python ints, each
    shifted right to keep about 64 bits."""
    v = np.ones(g0.shape[0], dtype=object)
    for _ in range(2):
        v = g0.dot(v)
        shift = max(abs(x).bit_length() for x in v) - 64
        if shift > 0:
            v = v >> shift
    return v


@dataclass(frozen=True)
class Certificate:
    """What ``certify_cn`` proves.

    Every K(n) mask outside `survivors` has ||X^-1||_F^2 < num / den, so
    lambda_min(X X^T) > den / num >= kappa(y0).  num = v^T G0 v and
    den = v^T v; `nodes` counts the prefixes visited.
    """

    n: int
    survivors: tuple  # masks the bound could not prune, ascending
    num: int
    den: int
    nodes: int

    @property
    def margin(self) -> float:
        """num / den: the bound on ||X^-1||_F^2 under which a prefix is pruned
        (0 for v = 0, which prunes nothing)."""
        return self.num / self.den if self.den else 0.0


def certify_cn(n: int, cap: int | None = None) -> Certificate:
    """The K(n) masks that can attain c_n, with the proof that no other can.

    A depth-first search with an explicit stack over the bits of X, row by
    row; see the module docstring for the bound and the pruning rule.
    """
    return _certify(n, cap)[0]


def _certify(n: int, cap: int | None):
    """certify_cn(n, cap), and the G0 its proof rests on."""
    why = "its time grows about as n**4; waive it with cap= or `latmat search --i-know`"
    _check_n(n, CERTIFY_MAX_N if cap is None else cap, "search", why)
    g0 = _y0_gram(n)
    v = _top_vector(g0)
    num, den = int(v.dot(g0.dot(v))), int(v.dot(v))
    survivors, nodes, stack = [], 0, [_root(n)]
    while stack:
        node = stack.pop()
        nodes += 1
        if _bound(n, node) * den < num:
            continue
        children = _children(n, node)
        stack.extend(children)
        if not children:
            survivors.append(node.bits)
    return Certificate(n, tuple(sorted(survivors)), num, den, nodes), g0


def _certified(n: int, cap: int | None = None):
    """certify_cn(n), and each survivor's value.  y0, which always survives,
    is valued from the G0 of the proof, the Y^T Y that ``mask_value`` would
    form again."""
    cert, g0 = _certify(n, cap)
    y0 = y0_mask(n).bits
    return cert, {mask: _gram_value(g0) if mask == y0 else mask_value(n, mask) for mask in cert.survivors}


def _least(n: int, values: dict) -> SearchResult:
    """The smallest value, the smallest mask winning a tie."""
    value, mask = min((v, m) for m, v in values.items())
    return SearchResult(n, "min", value, TriangularMask(n, mask), 1 << (n * (n - 1) // 2))


def search_cn(n: int, cap: int | None = None) -> SearchResult:
    """Global minimum of the smallest Gram eigenvalue over K(n), with witness.

    The result comes from ``certify_cn``, whose proof covers every mask, so
    all 2^(n(n-1)/2) count as scanned.  `cap` overrides the search's cap,
    CERTIFY_MAX_N.  Nothing is cached: each call certifies afresh.
    """
    return _least(n, _certified(n, cap)[1])


def full_scan(n: int):
    """c_n and C_n over all of K(n): (``search_cn(n)``, ``search_Cn(n)``)."""
    return search_cn(n), search_Cn(n)


def search_Cn(n: int) -> SearchResult:
    """Global maximum of the largest Gram eigenvalue over K(n), with witness.

    The all-ones mask attains it, and its value has a closed form, so this
    runs no eigensolve, for any n >= 1.  With L the all-ones lower triangle,
    every X in K(n) has 0 <= X <= L entrywise, hence 0 <= X X^T <= L L^T
    entrywise.  By Perron-Frobenius the spectral radius of a nonnegative
    matrix is monotone in its entries, and a Gram matrix's spectral radius
    is its largest eigenvalue, so lambda_max(X X^T) <= lambda_max(L L^T).
    L L^T is the MIN matrix [min(i, j)].  Its inverse L^-T L^-1 is the
    tridiagonal T with diagonal (2, ..., 2, 1) and -1 beside it, whose
    eigenvalues are 4 sin^2((2k - 1) pi / (4n + 2)), k = 1..n, with
    eigenvectors sin((2k - 1) j pi / (2n + 1)), j = 1..n.  The smallest, at
    k = 1, gives lambda_max(L L^T) = 1 / (4 sin^2(pi / (4n + 2))), evaluated
    as (1 + cot^2) / 4: exactly 1.0 at n = 1, and within 5e-16 relative of
    the exact value for n <= 200.  The proof covers every mask, so all
    2^(n(n-1)/2) count as scanned.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = n * (n - 1) // 2
    value = (1.0 + 1.0 / math.tan(math.pi / (4 * n + 2)) ** 2) / 4.0
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
    return (48.0 / _n0_quartic(n)) ** ((n - 1) / 2.0)


def y0_matrix(n: int) -> np.ndarray:
    """Conjectured extremal member of K(n): ones on the diagonal and, below
    it, exactly where the row and column indices have opposite parity."""
    if n < 1:
        raise ValueError("n must be at least 1")
    y = np.eye(n, dtype=np.int64)
    rows, cols = tri_positions(n)
    y[rows, cols] = (rows + cols) % 2  # 1-based i+j odd <=> 0-based i+j odd
    return y


def y0_mask(n: int) -> TriangularMask:
    """y0 as a mask, without forming it: entry (i, j) is bit i(i-1)/2 + j."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return TriangularMask(n, sum(1 << (i * (i - 1) // 2 + j) for i in range(n) for j in range(1 - i % 2, i, 2)))


def n0_frobenius(n: int) -> float:
    """Frobenius norm of the conjectured extremal Gram matrix, computed
    directly in integer arithmetic."""
    g = y0_mask(n).gram()
    return math.sqrt(int((g * g).sum()))


def n0_frobenius_closed_form(n: int) -> float:
    """Closed form of the same norm: sqrt((n^4+56n^2+48n)/48) for even n,
    sqrt((n^4+50n^2+48n-51)/48) for odd n."""
    return math.sqrt(_n0_quartic(n) / 48.0)


def _n0_quartic(n: int) -> int:
    """48 ||N0||_F^2: n^4+56n^2+48n for even n, n^4+50n^2+48n-51 for odd n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n**4 + 56 * n**2 + 48 * n if n % 2 == 0 else n**4 + 50 * n**2 + 48 * n - 51


@dataclass(frozen=True)
class ConjectureCheck:
    n: int
    holds: bool
    c_n: float
    kappa_y0: float
    nodes: int  # prefixes the certified search visited
    margin: float  # v^T G0 v / v^T v, see Certificate


def y0_inverse(n: int) -> np.ndarray:
    """y0^-1 in Python ints (an object array), by forward substitution."""
    return _inverse(y0_matrix(n))


def _y0_gram(n: int) -> np.ndarray:
    """G0 = Y0^T Y0 in Python ints, with Y0 = y0^-1."""
    inv = y0_inverse(n)
    return inv.T @ inv


def kappa_y0(n: int) -> float:
    """Smallest eigenvalue of the conjectured extremal Gram matrix y0 y0^T,
    as 1 / lambda_max(Y0^T Y0) with Y0 = y0^-1 (``_gram_value``).

    A direct solve of y0 y0^T drowns in rounding as n grows: it gives
    -4.8e-16 at n = 60, against 4.17e-25.  Raises SpectraError (a
    ValueError) where Y0^T Y0 or its largest eigenvalue overflows float64.
    """
    return _gram_value(_y0_gram(n))


def verify_conjecture(n: int) -> ConjectureCheck:
    """Decide by ``certify_cn`` whether y0 attains c_n.

    `holds` is true iff y0 has the smallest value among the survivors: every
    other mask is proven above kappa(y0) in integers.  c_n is that smallest
    value.
    """
    cert, values = _certified(n)
    best = _least(n, values)
    y0 = y0_mask(n).bits
    holds = best.witness.bits == y0
    return ConjectureCheck(n, holds, best.value, values[y0], cert.nodes, cert.margin)


@dataclass(frozen=True)
class TableRow:
    n: int
    lower_bound_tn: float
    lower_bound_n0: float
    c_n: float


def table1(n_max: int) -> list:
    """Rows (n, unconditional bound, conjecture-based bound, certified c_n)."""
    if not 1 <= n_max <= 7:
        raise ValueError("the constants table is produced for n_max between 1 and 7")
    rows = []
    for n in range(1, n_max + 1):
        c = search_cn(n)
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
