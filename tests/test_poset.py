import gc
import math
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latmat
from latmat import LatticeError, PosetError
from latmat.poset import _NO_BOUND, _NOT_UNIQUE, _OK, _pair_meets

from conftest import lcm, random_posets


def test_diamond_construction(diamond):
    assert diamond.bottom == "a" and diamond.top == "d"
    assert diamond.is_lattice()
    assert set(diamond.covers) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}


def test_single_point():
    p = latmat.from_cover_relations(["a"], [])
    assert p.bottom == "a" and p.top == "a"
    assert p.meet("a", "a") == "a" and p.join("a", "a") == "a"


def test_cycle_detected():
    with pytest.raises(PosetError, match="cycle"):
        latmat.from_cover_relations(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_label():
    with pytest.raises(PosetError, match="duplicate"):
        latmat.from_cover_relations(["a", "a"], [])


def test_dangling_cover():
    with pytest.raises(PosetError, match="unknown label"):
        latmat.from_cover_relations(["a"], [("a", "z")])


def test_divisor_poset_orders_ascending():
    p = latmat.divisor_poset({12, 1, 6, 2, 3, 4})
    assert p.elements == (1, 2, 3, 4, 6, 12)
    assert p.bottom == 1 and p.top == 12


def test_divisor_poset_rejects_nonpositive():
    with pytest.raises(PosetError):
        latmat.divisor_poset([0, 2])


def test_labels_past_int64_raise_poset_error():
    with pytest.raises(PosetError, match=r"below 2\*\*63"):
        latmat.divisor_poset([1, 2**64])
    with pytest.raises(PosetError, match=r"below 2\*\*63"):
        latmat.divisor_lattice([2**62, 3])  # the lcm is 3 * 2**62
    assert latmat.divisor_lattice([2**62, 2]).elements == (2, 2**62)


def test_divisor_poset_no_bottom():
    p = latmat.divisor_poset([2, 3])
    assert not p.has_bottom and not p.has_top
    assert not p.is_lattice()


def test_chain_poset():
    p = latmat.chain_poset(3)
    assert p.elements == (1, 2, 3)
    assert p.meet(1, 3) == 1 and p.join(1, 3) == 3
    assert latmat.chain_poset(1).elements == (1,)
    with pytest.raises(PosetError):
        latmat.chain_poset(0)


def test_chain_meet_is_min():
    p = latmat.chain_poset(6)
    for i in p.elements:
        for j in p.elements:
            assert p.meet(i, j) == min(i, j)
            assert p.join(i, j) == max(i, j)


def test_divisor_meet_join_match_gcd_lcm(divisors12):
    for x in divisors12.elements:
        for y in divisors12.elements:
            assert divisors12.meet(x, y) == math.gcd(x, y)
            assert divisors12.join(x, y) == lcm(x, y)


def test_meet_no_common_lower_bound():
    p = latmat.divisor_poset([2, 3])
    with pytest.raises(LatticeError, match="no common lower bound of 2 and 3"):
        p.meet(2, 3)


def test_meet_not_unique():
    # two maximal common lower bounds b, c for the pair (d, e)
    p = latmat.from_cover_relations(
        "abcde", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("b", "e"), ("c", "e")]
    )
    with pytest.raises(LatticeError, match="not unique"):
        p.meet("d", "e")
    assert not p.is_lattice()


def test_is_lattice_matches_pairwise_oracle(divisors12):
    # oracle: every pairwise gcd and lcm stays inside the element set
    els = divisors12.elements
    oracle = all(math.gcd(x, y) in els and lcm(x, y) in els for x in els for y in els)
    assert divisors12.is_lattice() == oracle is True


def test_two_incomparable_points_not_lattice():
    p = latmat.from_cover_relations(["x", "y"], [])
    assert not p.is_lattice()


def test_meet_join_duality(divisors12):
    d = divisors12.dual()
    for x in divisors12.elements:
        for y in divisors12.elements:
            assert divisors12.meet(x, y) == d.join(x, y)
            assert divisors12.join(x, y) == d.meet(x, y)


def test_meet_is_greatest_lower_bound(divisors12):
    leq = divisors12.leq
    for x in divisors12.elements:
        for y in divisors12.elements:
            m = divisors12.meet(x, y)
            assert leq(m, x) and leq(m, y)
            for z in divisors12.elements:
                if leq(z, x) and leq(z, y):
                    assert leq(z, m)


def test_linear_extension_invariant(divisors12):
    assert not np.tril(divisors12.leq_matrix, -1).any()
    s = divisors12.subset([12, 4, 6, 1])
    idx = s.indices
    for a in range(len(idx)):
        for b in range(a):
            assert not divisors12.leq_matrix[idx[a], idx[b]]


def test_subset_order_validation(divisors12):
    with pytest.raises(PosetError, match="comparability convention: 4 precedes 12 in the order"):
        latmat.ElementSubset(divisors12, [divisors12.index_of(12), divisors12.index_of(4)])
    # reorder=True sorts it out
    s = divisors12.subset([12, 4])
    assert s.labels == (4, 12)


def test_meet_closed_examples(divisors12):
    p = latmat.divisor_poset(range(1, 11))
    assert p.subset(range(1, 11)).is_meet_closed()
    assert not divisors12.subset([2, 3]).is_meet_closed()
    chain_sub = divisors12.subset([1, 2, 4])
    assert chain_sub.is_meet_closed() and chain_sub.is_join_closed()


def test_order_ideal_s_first(divisors12):
    s = divisors12.subset([4, 6])
    ideal = s.order_ideal()
    assert ideal.labels == (4, 6, 1, 2, 3)


def test_order_ideal_downward_closed(divisors12):
    ideal = divisors12.subset([4, 6]).order_ideal()
    members = set(ideal.labels)
    for w in members:
        for z in divisors12.elements:
            if divisors12.leq(z, w):
                assert z in members


def test_order_ideal_fixed_point():
    p = latmat.divisor_poset(range(1, 9))
    s = p.subset(range(1, 9))
    assert s.order_ideal().labels == s.labels


def test_order_ideal_and_filter_are_built_once(divisors12):
    s = divisors12.subset([4, 6])
    assert s.order_ideal() is s.order_ideal() and s.order_filter() is s.order_filter()
    whole = divisors12.subset(divisors12.elements)
    assert whole.order_ideal() is whole and whole.order_filter() is whole


def test_order_ideal_requires_bottom():
    p = latmat.divisor_poset([2, 3, 6])
    with pytest.raises(LatticeError, match="bottom"):
        p.subset([6]).order_ideal()


def test_order_filter(divisors12):
    s = divisors12.subset([2, 3])
    assert s.order_filter().labels == (2, 3, 4, 6, 12)
    assert divisors12.subset([12]).order_filter().labels == (12,)


def test_order_filter_upward_closed(divisors12):
    filt = divisors12.subset([2, 3]).order_filter()
    members = set(filt.labels)
    for w in members:
        for z in divisors12.elements:
            if divisors12.leq(w, z):
                assert z in members


def test_mobius_reflexive_and_number_theoretic():
    p = latmat.divisor_poset(range(1, 13))
    mu = p.mobius()
    for x in p.elements:
        assert mu.value(x, x) == 1
    # against the number-theoretic Mobius function on a factor closed set
    def moebius(m):
        out, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if m > 1 else out

    for m in p.elements:
        assert mu.value(1, m) == moebius(m)
    assert mu.value(1, 6) == 1 and mu.value(1, 4) == 0


def test_mobius_diamond(diamond):
    mu = diamond.mobius()
    assert mu.value("a", "b") == -1 and mu.value("a", "c") == -1
    assert mu.value("a", "d") == 1  # hand recursion: -(1 - 1 - 1)


def test_mobius_row_sums(divisors12, diamond):
    for p in (divisors12, diamond, latmat.chain_poset(7)):
        mu = p.mobius().matrix
        zeta = p.leq_matrix.astype(np.int64)
        eye = np.eye(len(p), dtype=np.int64)
        assert np.array_equal(zeta @ mu, eye)
        assert np.array_equal(mu @ zeta, eye)


def test_cached_tables_keep_no_reference_cycle():
    # with the cyclic collector off, a poset whose Mobius and lattice tables
    # are cached must still be freed as soon as its last reference goes
    gc.disable()
    try:
        p = latmat.divisor_lattice(range(1, 9))
        p.mobius()
        assert p.is_lattice()
        subsets = [p.subset([2, 3]), p.subset(p.elements)]
        for s in subsets:
            s.order_ideal(), s.order_filter(), s.pair_indices("meet")
        r = weakref.ref(p)
        del p, s, subsets
        assert r() is None
    finally:
        gc.enable()


def test_gcd_lcm_closure():
    closed = latmat.gcd_lcm_closure([4, 6])
    assert closed == [2, 4, 6, 12]
    p = latmat.divisor_lattice([4, 6])
    assert p.is_lattice()


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=5))
def test_divisor_lattice_property(values):
    p = latmat.divisor_lattice(values)
    assert p.is_lattice()
    for x in values:
        for y in values:
            assert p.meet(x, y) == math.gcd(x, y)
            assert p.join(x, y) == lcm(x, y)


# -- pinned against brute-force references ------------------------------------


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_cover_relations_pass_the_constructor_checks(p):
    # from_cover_relations skips validation, since its closure of the covers
    # is a valid order by construction; the checking constructor must agree
    again = latmat.Poset(p.elements, p.leq_matrix)
    assert np.array_equal(again.leq_matrix, p.leq_matrix)


def _brute_meet_tables(leq):
    """Per pair: the status, and the largest-index common lower bound."""
    n = leq.shape[0]
    table = np.zeros((n, n), dtype=np.int64)
    status = np.full((n, n), _NO_BOUND, dtype=np.int8)
    for i in range(n):
        for j in range(n):
            lower = [z for z in range(n) if leq[z, i] and leq[z, j]]
            if lower:
                table[i, j] = max(lower)
                unique = any(all(leq[w, z] for w in lower) for z in lower)
                status[i, j] = _OK if unique else _NOT_UNIQUE
    return table, status


# six elements: (3, 4) has two maximal common lower bounds, and 5 is below
# and above nothing else
_NON_LATTICE = latmat.from_cover_relations(
    range(6), [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
)


def _member_orders(n, rng):
    """The whole poset in order, then random member subsets in random order."""
    yield np.arange(n)
    for _ in range(4):
        yield np.array(rng.sample(range(n), rng.randint(0, n)), dtype=np.intp)


@settings(max_examples=150, deadline=None)
@given(random_posets(), st.randoms(use_true_random=False))
@example(_NON_LATTICE, random.Random(0))
def test_meet_tables_match_brute_force(p, rng):
    leq = p.leq_matrix
    for order in (leq, leq[::-1, ::-1].T):  # the poset, and its dual renumbered N-1-i
        want_table, want_status = _brute_meet_tables(order)
        down = np.packbits(order.T, axis=1)
        for idx in _member_orders(len(p), rng):
            table, status = _pair_meets(down, idx)
            pairs = np.ix_(idx, idx)
            assert np.array_equal(status, want_status[pairs])
            bounded = status != _NO_BOUND
            assert np.array_equal(table[bounded], want_table[pairs][bounded])


@settings(max_examples=100, deadline=None)
@given(random_posets(), st.randoms(use_true_random=False))
@example(_NON_LATTICE, random.Random(0))
def test_pair_indices_match_whole_poset_meets_and_joins(p, rng):
    # a subset's pairs get the meets and joins that the whole poset gives them,
    # and the same error at the first pair without one
    for bound, whole in (("meet", p.meet), ("join", p.join)):
        for idx in _member_orders(len(p), rng):
            s = p.subset([p.label_of(i) for i in idx])
            pos = list(s.indices)
            try:
                want = [[p.index_of(whole(p.label_of(i), p.label_of(j))) for j in pos] for i in pos]
            except LatticeError as exc:
                with pytest.raises(LatticeError, match=re.escape(str(exc))):
                    s.pair_indices(bound)
                continue
            got = s.pair_indices(bound)
            assert got.tolist() == want and not got.flags.writeable
            assert s.pair_indices(bound) is got  # cached per subset and bound


def test_brute_force_example_has_every_status():
    _, status = _brute_meet_tables(_NON_LATTICE.leq_matrix)
    assert {_OK, _NO_BOUND, _NOT_UNIQUE} <= set(status.ravel().tolist())


@settings(max_examples=100, deadline=None)
@given(random_posets())
@example(_NON_LATTICE)
def test_mobius_matches_defining_sum(p):
    leq = p.leq_matrix
    n = len(p)
    mu = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):  # z < y implies index z < index y
            if leq[x, y]:
                between = [z for z in range(x, y) if leq[x, z] and leq[z, y]]
                mu[x][y] = 1 if x == y else -sum(mu[x][z] for z in between)
    assert p.mobius().matrix.tolist() == mu


def _naive_closure(values):
    current = set(values)
    while True:
        new = {op(x, y) for x in current for y in current for op in (math.gcd, lcm)} - current
        if not new:
            return sorted(current)
        current |= new


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=200), min_size=1, max_size=7))
def test_gcd_lcm_closure_matches_naive_fixpoint(values):
    closed = latmat.gcd_lcm_closure(values)
    assert closed == _naive_closure(values)
    assert all(type(v) is int for v in closed)


# -- text format ---------------------------------------------------------------


def test_poset_format_roundtrip(diamond):
    text = latmat.format_poset(diamond)
    again = latmat.parse_poset(text)
    assert again.elements == diamond.elements
    assert np.array_equal(again.leq_matrix, diamond.leq_matrix)


def test_divisors_of_matches_brute_force():
    for m in range(1, 3001):
        assert latmat.divisors_of(m) == [d for d in range(1, m + 1) if m % d == 0], m
    m = 2**4 * 3**3 * 5**2 * 7 * 11 * 13 * 17 * 19 * 23 * 29  # 7680 divisors, read off its primes
    got = latmat.divisors_of(m)
    assert m == 2329089562800 and len(got) == 7680 and got == sorted(got)
    assert all(m % d == 0 for d in got) and got[-1] == m


def test_parse_divisors_shorthand():
    p = latmat.parse_poset("# a comment\ndivisors: 1 2 3 4 6 12\n")
    assert p.elements == (1, 2, 3, 4, 6, 12)


def test_parse_poset_errors_carry_line_numbers():
    with pytest.raises(PosetError, match="line 2"):
        latmat.parse_poset("elements: a b\nwhat is this\n")
    with pytest.raises(PosetError, match="line 3"):
        latmat.parse_poset("elements: a b\ncovers:\na b c\n")
    with pytest.raises(PosetError, match="line 1"):
        latmat.parse_poset("covers:\n")
    with pytest.raises(PosetError, match="divisors"):
        latmat.parse_poset("divisors: 1 2 x\n")
    with pytest.raises(PosetError, match="no 'elements:'"):
        latmat.parse_poset("# nothing here\n")


def test_parse_poset_numeric_labels():
    p = latmat.parse_poset("elements: 1 2 4\ncovers:\n1 2\n2 4\n")
    assert p.elements == (1, 2, 4)
    assert p.meet(2, 4) == 2
