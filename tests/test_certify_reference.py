"""The certified search against a reference: the same depth-first search with
the bound evaluated afresh on every prefix, each interval end through
``max()``, and the children built by ``NamedTuple._replace``, on a vector
and a Rayleigh quotient from the G0 formed from y0^-1.  The search carries
each column's term of the bound from parent to child and recomputes only the
columns a decision changes, and takes its products with G0 by O(n)
substitutions with y0; it must return the same certificate bit for bit,
visit the same prefixes in the same order, and bound each by the same
integer.
"""

from typing import NamedTuple

import numpy as np
import pytest

from latmat import constants
from latmat.constants import Certificate, _fibonacci_tables, y0_inverse

# -- the reference search: kept as written, a fresh bound per prefix -----------


class _Prefix(NamedTuple):
    """A node of the search: rows 0..r-1 of X decided, and `pos` bits of row r.

    rows[i] holds row i of Y = X^-1 up to its diagonal.  s, p and q hold, for
    each column j < r, the sum of its squares, of its positive entries and of
    the absolute values of its negative entries so far.  Row r decides its
    bits in the order `order`; for each j < r, d[j] is the decided part of
    the new entry z_j, and up[j] and un[j] sum the positive y_kj and the
    absolute values of the negative ones over the undecided k.
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


def _start_row(r: int, bits: int, rows: tuple, s: tuple, p: tuple, q: tuple) -> _Prefix:
    order = tuple(sorted(range(r), key=lambda k: -sum(map(abs, rows[k]))))
    up = tuple(sum(row[j] for row in rows[j:] if row[j] > 0) for j in range(r))
    un = tuple(sum(-row[j] for row in rows[j:] if row[j] < 0) for j in range(r))
    return _Prefix(r, 0, bits, rows, s, p, q, order, (0,) * r, up, un)


def reference_root(n: int) -> _Prefix:
    """Row 0 decided (it has no bits), row 1 started; for n = 1 the one mask."""
    empty = _start_row(0, 0, (), (), (), ())
    return empty if n == 1 else reference_children(n, empty)[0]


def reference_bound(n: int, node: _Prefix) -> int:
    """An integer upper bound on ||X^-1||_F^2 over every completion of `node`."""
    coef, tail = _fibonacci_tables(n)
    al, be, ga = coef[n - 1 - node.r]
    total = tail[node.r]
    for s, p, q, d, up, un in zip(node.s, node.p, node.q, node.d, node.up, node.un):
        best = 0
        for z in (d - up, d + un):  # the ends of z_j's interval
            a, b = (p + z, q) if z >= 0 else (p, q - z)
            a, b = max(a, b), a + b
            best = max(best, z * z + (al * a + be * b) * a + ga * b * b)
        total += s + best
    return total


def reference_children(n: int, node: _Prefix) -> list:
    """The prefixes one decision below `node`: both values of the next bit of
    row r, or, with row r whole, row r + 1 started.  A whole mask has none."""
    r, pos = node.r, node.pos
    if pos < r:
        k = node.order[pos]
        yk = node.rows[k]  # y_kj is zero for j > k
        up = tuple(u - y if y > 0 else u for u, y in zip(node.up, yk)) + node.up[k + 1 :]
        un = tuple(u + y if y < 0 else u for u, y in zip(node.un, yk)) + node.un[k + 1 :]
        d = tuple(dj - y for dj, y in zip(node.d, yk)) + node.d[k + 1 :]
        bit = 1 << (r * (r - 1) // 2 + k)
        return [
            node._replace(pos=pos + 1, up=up, un=un),
            node._replace(pos=pos + 1, bits=node.bits | bit, d=d, up=up, un=un),
        ]
    if r >= n - 1:
        return []
    z = node.d
    return [
        _start_row(
            r + 1,
            node.bits,
            node.rows + (z + (1,),),
            tuple(s + y * y for s, y in zip(node.s, z)) + (1,),
            tuple(p + y if y > 0 else p for p, y in zip(node.p, z)) + (1,),
            tuple(q - y if y < 0 else q for q, y in zip(node.q, z)) + (0,),
        )
    ]


def reference_top_vector(g0) -> np.ndarray:
    """Two power steps on G0 from the all-ones vector, in Python ints, each
    shifted right to keep about 64 bits."""
    v = np.ones(g0.shape[0], dtype=object)
    for _ in range(2):
        v = g0.dot(v)
        shift = max(abs(x).bit_length() for x in v) - 64
        if shift > 0:
            v = v >> shift
    return v


def reference_g0(n: int) -> np.ndarray:
    """G0 = Y0^T Y0, formed from y0^-1 as an object-array product."""
    y0 = y0_inverse(n)
    return y0.T @ y0


def reference_certify_cn(n: int, vector=None) -> Certificate:
    """The search loop of ``certify_cn``, on the G0 formed from y0^-1:
    v from ``reference_top_vector``, or vector(n), and num = v^T G0 v."""
    g0 = reference_g0(n)
    v = reference_top_vector(g0) if vector is None else np.array(vector(n), dtype=object)
    num, den = int(v.dot(g0.dot(v))), int(v.dot(v))
    survivors, nodes, stack = [], 0, [reference_root(n)]
    while stack:
        node = stack.pop()
        nodes += 1
        if reference_bound(n, node) * den < num:
            continue
        children = reference_children(n, node)
        stack.extend(children)
        if not children:
            survivors.append(node.bits)
    return Certificate(n, tuple(sorted(survivors)), num, den, nodes)


# -- the search against it -------------------------------------------------------

POOR_VECTORS = pytest.mark.parametrize(
    "vector",
    [
        lambda n: [0] * n,  # prunes nothing
        lambda n: [1] + [0] * (n - 1),  # far from the top
    ],
    ids=["zero", "first-unit"],
)


@pytest.mark.parametrize("n, cap", [(n, None) for n in range(1, 41)] + [(60, None), (61, 61)])
def test_certificate_matches_the_reference(n, cap):
    assert constants.certify_cn(n, cap) == reference_certify_cn(n)


@POOR_VECTORS
def test_certificate_matches_the_reference_under_a_poor_vector(monkeypatch, vector):
    monkeypatch.setattr(constants, "_top_vector", vector)
    for n in range(1, 6):
        assert constants.certify_cn(n) == reference_certify_cn(n, vector), n


def test_solves_with_y0_match_the_matrix_route():
    # y0^-1 w and (D y0 D)^-1 w by O(n) substitutions, D = diag((-1)^i), and
    # the vector they give, against object-array products with y0^-1 and G0
    rng = np.random.default_rng(5)
    for n in (*range(1, 13), 20, 41, 61):
        d = np.array([(-1) ** i for i in range(n)], dtype=object)
        assert constants._top_vector(n) == reference_top_vector(reference_g0(n)).tolist(), n
        for _ in range(3):
            w = [int(x) for x in rng.integers(-(2**40), 2**40, n)]
            assert constants._y0_solve(w) == y0_inverse(n).dot(w).tolist(), n
            assert constants._y0_solve(w, 1) == (d * y0_inverse(n).dot(d * w)).tolist(), n


def _lockstep(n, num, den):
    """Walk both searches side by side with the pruning rule num / den; each
    popped pair must be the same prefix with the same bound and the same
    number of children.  Returns the prefixes visited and the survivors."""
    ref, new, visited, survivors = [reference_root(n)], [constants._root(n)], 0, []
    while ref:
        a, b = ref.pop(), new.pop()
        visited += 1
        assert (a.r, a.pos, a.bits) == (b.r, b.pos, b.bits), n
        bound = reference_bound(n, a)
        assert constants._bound(n, b) == bound, (n, a.r, a.pos, a.bits)
        if bound * den < num:
            continue
        children = reference_children(n, a)
        ref.extend(children)
        new.extend(constants._children(n, b))
        assert len(ref) == len(new), (n, a.bits)
        if not children:
            survivors.append(a.bits)
    assert not new
    return visited, tuple(sorted(survivors))


def test_bound_matches_the_reference_on_every_visited_prefix():
    for n in range(1, 13):
        cert = constants.certify_cn(n)
        assert _lockstep(n, cert.num, cert.den) == (cert.nodes, cert.survivors), n


def test_bound_matches_the_reference_on_the_whole_tree():
    # num = 0 prunes nothing: every prefix of K(n), down to each of its masks
    for n in range(1, 6):
        assert _lockstep(n, 0, 1)[1] == tuple(range(1 << (n * (n - 1) // 2))), n
