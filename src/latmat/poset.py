"""Finite posets and lattices, with an order relation or with divisor labels.

Elements are opaque hashable labels mapped to dense integer indices at
construction time.  The stored element order is always a linear extension
of the partial order, so the ``leq`` matrix is upper triangular with a
True diagonal.  Posets are immutable once built and safe for concurrent
reads; derived structures (cover relation, packed down-sets, Mobius
table) are computed lazily and cached.

A poset built by ``divisor_poset`` is ordered by divisibility of its
labels, and reads every block of the relation off them; its dense N x N
relation is formed only when a caller asks for it.  When the labels are
exactly the products of the powers q^0..q^e of pairwise coprime q, the
order is a product of chains (``Poset._chains``): the meet and join of a
pair take the min and max of each exponent of its labels over the q.

Otherwise meets and joins are found only for the pairs asked, by one
bit-set routine over the pairs of a member set S in O(|S|^2 * N/8) bytes.
The join side is the meet side on the order dual: the same set under the
transposed relation (``leq.T``, Mobius matrix ``mu.T``), renumbered
i -> N-1-i so that it is again a linear extension, and read back through
that index map.  The Mobius matrix is one int64 row recursion; no bound
or region needs it.  Divisor labels stay below 2**63.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np


class PosetError(ValueError):
    """Malformed poset input: cycles, duplicate labels, bad covers, bad files."""


class LatticeError(PosetError):
    """A lattice operation failed: missing meet/join, or no bottom/top."""


# status codes of the meet or join of a pair
_OK, _NO_BOUND, _NOT_UNIQUE = 0, 1, 2


def _cover_matrix(leq: np.ndarray) -> np.ndarray:
    """cov[x, y]: x is covered by y, that is x < y with nothing in between."""
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    x, y = np.nonzero(strict)
    above, below = np.packbits(strict, axis=1), np.packbits(strict.T, axis=1)
    step = max(1, (1 << 18) // max(1, above.shape[1]))  # 256 KB gathers
    for k in range(0, x.size, step):
        xk, yk = x[k : k + step], y[k : k + step]
        strict[xk, yk] = ~(above[xk] & below[yk]).any(axis=1)
    return strict  # only the covers are left


# offset of the last element in a nonzero np.packbits byte v: its lowest set bit
_LAST_BIT = np.array([8 - (v & -v).bit_length() for v in range(256)], dtype=np.intp)


def _pair_meets(down: np.ndarray, idx) -> tuple:
    """Index and status of the meet of every pair of members idx (in any
    order) as two |idx| x |idx| arrays, from the packed down-sets
    down = np.packbits(leq.T, axis=1) of a linear extension.  There a pair's
    meet, if any, is its largest-index common lower bound, and that
    candidate is the meet iff no common lower bound lies outside its down-set.
    """
    idx = np.asarray(idx, dtype=np.intp)
    le = np.unpackbits(down[idx], axis=1)[:, idx].T.astype(bool)  # le[a, b]: x_a <= x_b
    meet = np.where(le, idx[:, None], idx[None, :])  # a comparable pair meets at its lower member
    status = np.full(meet.shape, _OK, dtype=np.int8)
    a, b = np.nonzero(np.triu(~(le | le.T)))
    step = max(1, (1 << 18) // max(1, down.shape[1]))  # 256 KB gathers
    for k in range(0, a.size, step):
        ak, bk = a[k : k + step], b[k : k + step]
        shared = down[idx[ak]] & down[idx[bk]]
        last = shared.shape[1] - 1 - (shared[:, ::-1] != 0).argmax(axis=1)
        byte = shared[np.arange(last.size), last]  # 0 iff no common lower bound
        meet[ak, bk] = meet[bk, ak] = top = np.where(byte != 0, 8 * last + _LAST_BIT[byte], -1)
        unique = ~(shared & ~down[top]).any(axis=1)
        status[ak, bk] = status[bk, ak] = np.where(byte == 0, _NO_BOUND, np.where(unique, _OK, _NOT_UNIQUE))
    return meet, status


@dataclass(frozen=True, eq=False)
class Chains:
    """A product of chains 1 < q < ... < q^e, one per generator q.  Element i
    is the label prod q[j] ** exponents[i, j]; its mixed-radix code, the sum
    of exponents[i, j] * strides[j], numbers the chains' products in the
    order np.multiply.outer lists them, and index[code] is i."""

    q: tuple  # the generators, ascending
    e: tuple  # their caps
    strides: np.ndarray  # intp, one per generator, the first the most significant
    exponents: np.ndarray  # N x k int8
    index: np.ndarray  # intp, from code to poset index

    def members(self) -> list:
        """The poset indices of each chain 1, q, ..., q^e."""
        return [self.index[stride * np.arange(cap + 1)] for stride, cap in zip(self.strides.tolist(), self.e)]


class Poset:
    """A finite partially ordered set: a dense order relation, or divisor labels."""

    def __init__(self, labels, leq: np.ndarray | None, _validate: bool = True, _divisors: bool = False):
        labels = list(labels)
        self._divisor_order = _divisors  # divisor_poset's: the order is divisibility of the labels
        self._labels = tuple(labels)
        self._index = {x: i for i, x in enumerate(self._labels)}
        if _divisors:  # the relation is read off the labels; leq is None
            self._values = np.array(labels, dtype=np.int64)
            return
        leq = np.asarray(leq, dtype=bool)
        if _validate:
            n = len(labels)
            if len(set(labels)) != n:
                raise PosetError("duplicate element labels")
            if leq.shape != (n, n):
                raise PosetError("leq matrix shape does not match element count")
            if not leq.diagonal().all():
                raise PosetError("order relation is not reflexive")
            if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
                raise PosetError("order relation is not antisymmetric")
            if ((leq @ leq) & ~leq).any():
                raise PosetError("order relation is not transitive")
            if np.tril(leq, -1).any():
                raise PosetError("element order is not a linear extension")
        leq = leq.copy()
        leq.setflags(write=False)
        self._leq = leq

    @cached_property
    def _leq(self) -> np.ndarray:
        """The dense order relation; a divisor poset forms it from its labels on first use."""
        every = np.arange(len(self))
        leq = self._block(every, every)
        leq.setflags(write=False)
        return leq

    def _block(self, rows, cols) -> np.ndarray:
        """leq[np.ix_(rows, cols)]; a divisor poset reads it off its labels."""
        if self._divisor_order:
            v = self._values
            return v[np.asarray(cols, dtype=np.intp)][None, :] % v[np.asarray(rows, dtype=np.intp)][:, None] == 0
        return self._leq[np.ix_(rows, cols)]

    @cached_property
    def _chains(self) -> Chains | None:
        """This divisor poset as a product of chains, or None: the pairwise
        coprime q > 1 whose powers q^0..q^e multiply, one of each, to exactly
        its labels.  The meet and join, gcd and lcm, then take the min and max
        of each exponent, and mu(x, y), the product over the q of the chain's
        mu, is mu(y/x) on the exponents (Rota 1964)."""
        if not self._divisor_order or self._labels[0] != 1:
            return None
        chains, rest = [], self._labels[-1]  # 1, q, ..., q^e for each q, while they are labels
        for x in self._labels[1:]:  # on a divisor set, a label coprime to the q so far is the next q
            if rest == 1:  # the q so far divide the top: no later label is coprime to them
                break
            if all(math.gcd(x, c[-1]) == 1 for c in chains):
                chains.append([1])
                while rest % x == 0 and chains[-1][-1] * x in self._index:
                    rest //= x
                    chains[-1].append(chains[-1][-1] * x)
        powers = [np.array(c, dtype=np.int64) for c in chains]  # each product divides the top: no overflow
        products = reduce(np.multiply.outer, powers, np.ones((), np.int64)).ravel()  # in code order
        code = np.argsort(products)  # of each label, in poset order
        if not np.array_equal(products[code], self._values):
            return None
        radix = [len(c) for c in chains]
        strides = np.array([math.prod(radix[j + 1 :]) for j in range(len(radix))], dtype=np.intp)
        exponents = np.indices(radix, dtype=np.int8).reshape(len(radix), code.size)[:, code].T  # in poset order
        return Chains(tuple(c[1] for c in chains), tuple(r - 1 for r in radix), strides, exponents, np.argsort(code))

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"Poset({list(self._labels)})"
        return f"Poset(<{len(self)} elements>)"

    @property
    def elements(self) -> tuple:
        return self._labels

    @property
    def leq_matrix(self) -> np.ndarray:
        return self._leq

    def index_of(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PosetError(f"unknown element {label!r}") from None

    def label_of(self, i: int):
        return self._labels[i]

    def leq(self, x, y) -> bool:
        return bool(self._block([self.index_of(x)], [self.index_of(y)])[0, 0])

    @cached_property
    def covers(self) -> list:
        """Cover pairs (x, y) with x covered by y."""
        cov = _cover_matrix(self._leq)
        return [(self._labels[i], self._labels[j]) for i, j in zip(*np.nonzero(cov))]

    @cached_property
    def _bottom_index(self):
        n = len(self)
        return 0 if n and self._block([0], np.arange(n)).all() else None

    @cached_property
    def _top_index(self):
        n = len(self)
        return n - 1 if n and self._block(np.arange(n), [n - 1]).all() else None

    @property
    def has_bottom(self) -> bool:
        return self._bottom_index is not None

    @property
    def has_top(self) -> bool:
        return self._top_index is not None

    @property
    def bottom(self):
        return None if self._bottom_index is None else self._labels[self._bottom_index]

    @property
    def top(self):
        return None if self._top_index is None else self._labels[self._top_index]

    # -- meets and joins ---------------------------------------------------

    @cached_property
    def _down_rows(self):
        """Packed down-sets of the poset and of its dual renumbered i -> N-1-i."""
        return np.packbits(self._leq.T, axis=1), np.packbits(self._leq[::-1, ::-1], axis=1)

    def _pairs(self, bound: str, idx):
        """Index and status of the meet (bound "meet") or the join ("join") of
        every pair of members idx: joins are the meets of the order dual.  On a
        product of chains a meet's (join's) code sums the min (max) of each exponent times its stride."""
        chains = self._chains
        if chains is not None:
            scaled = chains.exponents[np.asarray(idx, dtype=np.intp)] * chains.strides
            pick = np.minimum if bound == "meet" else np.maximum
            code = np.zeros((len(scaled), len(scaled)), dtype=np.intp)
            for column in scaled.T:
                code += pick.outer(column, column)
            return chains.index[code], np.full(code.shape, _OK, dtype=np.int8)
        if bound == "meet":
            return _pair_meets(self._down_rows[0], idx)
        n = len(self) - 1
        table, status = _pair_meets(self._down_rows[1], n - np.asarray(idx, dtype=np.intp))
        return n - table, status

    def _pair_bounds(self, bound: str, idx) -> np.ndarray:
        """The index table of _pairs, read-only; raises LatticeError at the
        first pair in row-major order without a unique meet or join."""
        table, status = self._pairs(bound, idx)
        for a, b in np.argwhere(status != _OK)[:1]:
            words = "greatest lower" if bound == "meet" else "least upper"
            pair = f"{self._labels[idx[a]]!r} and {self._labels[idx[b]]!r}"
            if status[a, b] == _NO_BOUND:
                raise LatticeError(f"no common {words.split()[1]} bound of {pair}")
            raise LatticeError(f"{words} bound of {pair} is not unique (not a lattice at this pair)")
        table.setflags(write=False)
        return table

    def meet(self, x, y):
        """Greatest lower bound of x and y; raises LatticeError if undefined."""
        return self._labels[self._pair_bounds("meet", [self.index_of(x), self.index_of(y)])[0, 1]]

    def join(self, x, y):
        """Least upper bound of x and y; raises LatticeError if undefined."""
        return self._labels[self._pair_bounds("join", [self.index_of(x), self.index_of(y)])[0, 1]]

    def is_lattice(self) -> bool:
        """True iff every pair has a unique meet and a unique join; at once on a product of chains."""
        every = np.arange(len(self))
        return self._chains is not None or all((self._pairs(b, every)[1] == _OK).all() for b in ("meet", "join"))

    # -- Mobius function ---------------------------------------------------

    def mobius(self) -> "MobiusTable":
        return MobiusTable(self, self._mobius_matrix)

    @cached_property
    def _mobius_matrix(self) -> np.ndarray:
        # Only the matrix is cached: a cached MobiusTable would point back at
        # this poset and keep it alive until the cyclic collector runs.
        # Z @ M = I for the unit upper triangular zeta matrix Z gives, bottom row
        # first, M[i] = e_i - the sum of M[k] over the k strictly above i.  Each
        # int64 sum is exact while n * max|M| < 2**63 over the rows it reads.
        n = len(self)
        m = np.eye(n, dtype=np.int64)
        for i in range(n - 2, -1, -1):
            m[i] -= m[np.flatnonzero(self._leq[i, i + 1 :]) + i + 1].sum(axis=0)
        if n * max(int(m.max(initial=0)), -int(m.min(initial=0))) >= 2**63:
            raise RuntimeError("Mobius values too large for exact int64 arithmetic")
        m.setflags(write=False)
        return m

    # -- subsets and the dual ----------------------------------------------

    def subset(self, labels) -> "ElementSubset":
        """Wrap labels as an ElementSubset of this poset, the members sorted
        by their position in the poset.  That position is a linear extension,
        so the enumeration is always admissible (comparable members appear
        in order) and is not checked pair by pair.
        """
        return ElementSubset(self, sorted(self.index_of(x) for x in labels), validate=False)

    def dual(self) -> "Poset":
        """Order dual: elements reversed so the order stays a linear extension."""
        rev = self._leq[::-1, ::-1].T
        return Poset(self._labels[::-1], rev, _validate=False)


class ElementSubset:
    """An ordered subset S of a poset, the index set of a matrix.

    The canonical ordering (produced by ``Poset.subset``) places comparable
    members in order: x_i below x_j implies i <= j.  Outputs of
    ``order_ideal``/``order_filter`` put the generating set first instead,
    which matrix factorizations rely on; those orderings may break the
    comparability convention for the trailing elements and are not
    revalidated.
    """

    def __init__(self, parent: Poset, indices, validate: bool = True):
        self.parent = parent
        self.indices = tuple(map(int, indices))
        if len(set(self.indices)) != len(self.indices):
            raise PosetError("subset members must be distinct")
        if validate:
            idx = np.asarray(self.indices, dtype=np.intp)
            for a, b in np.argwhere(np.tril(parent._block(idx, idx), -1))[:1]:
                raise PosetError(
                    f"subset order violates the comparability convention: "
                    f"{parent.label_of(idx[a])!r} precedes {parent.label_of(idx[b])!r} "
                    "in the order but follows it in the subset"
                )
        self._member_set = frozenset(self.indices)
        self._pair_tables = {}
        self._closures = {}

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, label) -> bool:
        return label in self.parent and self.parent.index_of(label) in self._member_set

    def __repr__(self) -> str:
        return f"ElementSubset({list(self.labels)})"

    @property
    def labels(self) -> tuple:
        return tuple(self.parent.label_of(i) for i in self.indices)

    def pair_indices(self, bound: str) -> np.ndarray:
        """Poset indices of the meets (bound "meet") or the joins ("join") of
        the member pairs, as a read-only |S| x |S| array cached per bound:
        entry [a, b] belongs to (x_a, x_b).  Raises LatticeError at the first
        pair in row-major order without a unique meet or join."""
        if bound not in self._pair_tables:
            self._pair_tables[bound] = self.parent._pair_bounds(bound, self.indices)
        return self._pair_tables[bound]

    def is_meet_closed(self) -> bool:
        """True iff the meet of every member pair is again a member; at once for a whole product of chains."""
        return self._is_whole_lattice() or bool(np.isin(self.pair_indices("meet"), self.indices).all())

    def is_join_closed(self) -> bool:
        return self._is_whole_lattice() or bool(np.isin(self.pair_indices("join"), self.indices).all())

    def _is_whole_lattice(self) -> bool:
        return len(self) == len(self.parent) and self.parent._chains is not None

    def order_ideal(self) -> "ElementSubset":
        """Downward closure of S, ordered with the members of S first, cached.

        The remaining ideal elements follow in poset order.  Requires the
        parent to have a bottom element.
        """
        if not self.parent.has_bottom:
            raise LatticeError("order ideal requires a bottom element")
        return self._closure("ideal", lambda every: self.parent._block(every, self.indices).any(axis=1))

    def order_filter(self) -> "ElementSubset":
        """Upward closure of S, members first: the order ideal under leq.T."""
        if not self.parent.has_top:
            raise LatticeError("order filter requires a top element")
        return self._closure("filter", lambda every: self.parent._block(self.indices, every).any(axis=0))

    def _closure(self, name: str, reach) -> "ElementSubset":
        """The members of S, then every other element of the mask reach(every
        index), in poset order.  S itself when it holds every element; it is
        not cached then, so that S does not refer to itself."""
        if len(self) == len(self.parent):
            return self
        if name not in self._closures:
            mask = reach(np.arange(len(self.parent)))
            mask[list(self.indices)] = False
            self._closures[name] = ElementSubset(
                self.parent, list(self.indices) + np.flatnonzero(mask).tolist(), validate=False
            )
        return self._closures[name]


@dataclass(frozen=True, repr=False)
class MobiusTable:
    """Mobius function of a poset as a dense integer matrix.

    ``matrix[i, j]`` holds the value for the elements at indices i, j; it is
    zero whenever the two are incomparable.
    """

    poset: Poset
    matrix: np.ndarray

    def value(self, x, y) -> int:
        return int(self.matrix[self.poset.index_of(x), self.poset.index_of(y)])

    def __repr__(self) -> str:
        return f"MobiusTable(<{len(self.poset)} elements>)"


# -- constructors ----------------------------------------------------------


def from_cover_relations(labels, covers) -> Poset:
    """Build a poset from its cover pairs (x, y) meaning x is covered by y."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise PosetError("duplicate element labels")
    pos = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in covers:
        if x not in pos or y not in pos:
            missing = x if x not in pos else y
            raise PosetError(f"cover references unknown label {missing!r}")
        succ[pos[x]].append(pos[y])
        indeg[pos[y]] += 1

    # Kahn topological sort, deterministic: smallest ready input index first.
    order = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != n:
        raise PosetError("cycle detected in cover relations")

    rank = {old: new for new, old in enumerate(order)}
    cov = np.zeros((n, n), dtype=bool)
    for x, y in covers:
        cov[rank[pos[x]], rank[pos[y]]] = True
    leq = np.eye(n, dtype=bool)
    for x in range(n - 1, -1, -1):  # each y that covers x comes later
        leq[x] |= leq[cov[x]].any(axis=0)
    # the closure of the covers in Kahn order is a reflexive, antisymmetric,
    # transitive and upper triangular relation by construction
    return Poset([labels[i] for i in order], leq, _validate=False)


def divisor_poset(integers) -> Poset:
    """The given positive integers ordered by divisibility, sorted ascending.
    Strictly increasing input, as divisors_of and gcd_lcm_closure return it,
    is kept as given; any other is sorted and de-duplicated first."""
    vals = list(map(int, integers))
    vals = vals if all(map(operator.lt, vals, vals[1:])) else sorted(set(vals))
    if not vals:
        raise PosetError("divisor poset needs at least one element")
    if vals[0] < 1:
        raise PosetError("divisor poset entries must be positive")
    if vals[-1] >= 2**63:  # the labels are int64 below
        raise PosetError("divisor poset entries must be below 2**63")
    return Poset(vals, None, _validate=False, _divisors=True)


def chain_poset(n: int) -> Poset:
    """The total order 1 < 2 < ... < n."""
    if n < 1:
        raise PosetError("chain length must be at least 1")
    leq = np.triu(np.ones((n, n), dtype=bool))
    return Poset(range(1, n + 1), leq, _validate=False)


def divisors_of(m: int) -> list:
    """All positive divisors of m, ascending: every product of one power
    p^0..p^e of each prime power p^e of m.  The primes are found by trial
    division of the shrinking cofactor up to its square root, so a prime m
    still takes about sqrt(m)/2 steps."""
    if m < 1:
        raise PosetError("argument must be a positive integer")
    divisors, rest, p = [1], operator.index(m), 2
    while rest > 1:
        width, power = len(divisors), 1
        while rest % p == 0:
            rest //= p
            power *= p
            divisors += [d * power for d in divisors[:width]]
        # the least odd factor above p, or rest itself when none is below its root
        p = next((q for q in range((p + 1) | 1, math.isqrt(rest) + 1, 2) if rest % q == 0), rest)
    return sorted(divisors)


def gcd_lcm_closure(integers) -> list:
    """Close a set of positive integers under pairwise gcd and lcm: the
    lcm-closure of the gcd-closure, still gcd-closed as divisibility is distributive."""
    vals = sorted(set(int(v) for v in integers))
    if not vals or vals[0] < 1:
        raise PosetError("closure needs positive integers")
    if math.lcm(*vals) >= 2**63:
        raise PosetError("the lcm of the closure's inputs must be below 2**63")
    for op in (np.gcd, np.lcm):
        # a set C closed under op stays closed once g and op(g, C) join it
        closed = np.empty(0, dtype=np.int64)
        for g in vals:
            closed = np.union1d(closed, np.append(op(g, closed), g))
        vals = closed.tolist()
    return vals


def divisor_lattice(integers) -> Poset:
    """Divisibility lattice generated by a set: its gcd/lcm closure."""
    return divisor_poset(gcd_lcm_closure(integers))


# -- text format -----------------------------------------------------------
#
# Line-oriented UTF-8:
#   # comment                      (ignored, as are blank lines)
#   elements: a b c d              (whitespace-separated labels)
#   covers:                        (header; then one pair per line)
#   a b                            (a covered by b)
# or the single-line shorthand
#   divisors: 1 2 3 4 6 12
# Numeric-looking labels are read as integers.


def _parse_label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def parse_poset(text: str) -> Poset:
    """Parse the poset text format; errors report 1-based line numbers."""
    labels = None
    covers = []
    in_covers = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("divisors:"):
            if labels is not None or in_covers:
                raise PosetError(f"line {lineno}: 'divisors:' cannot be mixed with other sections")
            toks = line[len("divisors:") :].split()
            if not toks:
                raise PosetError(f"line {lineno}: 'divisors:' needs at least one integer")
            try:
                ints = [int(t) for t in toks]
            except ValueError:
                raise PosetError(f"line {lineno}: 'divisors:' entries must be integers") from None
            if min(ints) < 1:
                raise PosetError(f"line {lineno}: 'divisors:' entries must be positive")
            return divisor_poset(ints)
        if line.startswith("elements:"):
            if labels is not None:
                raise PosetError(f"line {lineno}: duplicate 'elements:' line")
            labels = [_parse_label(t) for t in line[len("elements:") :].split()]
            if not labels:
                raise PosetError(f"line {lineno}: 'elements:' needs at least one label")
            continue
        if line == "covers:":
            if labels is None:
                raise PosetError(f"line {lineno}: 'covers:' before 'elements:'")
            in_covers = True
            continue
        if in_covers:
            toks = line.split()
            if len(toks) != 2:
                raise PosetError(f"line {lineno}: cover line must have exactly two labels")
            covers.append((_parse_label(toks[0]), _parse_label(toks[1])))
            continue
        raise PosetError(f"line {lineno}: unrecognized content {line!r}")
    if labels is None:
        raise PosetError("no 'elements:' or 'divisors:' line found")
    try:
        return from_cover_relations(labels, covers)
    except PosetError as exc:
        raise PosetError(f"invalid poset description: {exc}") from None


def format_poset(p: Poset) -> str:
    lines = ["elements: " + " ".join(str(x) for x in p.elements), "covers:"]
    lines += [f"{x} {y}" for x, y in p.covers]
    return "\n".join(lines) + "\n"


def load_poset(path) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poset(fh.read())
