import math
import time

import numpy as np
import pytest
from hypothesis import strategies as st

import latmat


@pytest.fixture(scope="session")
def scan_table():
    """One certified full_scan per n in 1..7, shared by every test that needs
    exact extremal constants.  Wall time is recorded for the runtime budget."""
    results = {}
    t0 = time.perf_counter()
    for n in range(1, 8):
        results[n] = latmat.full_scan(n)
    elapsed = time.perf_counter() - t0
    return {"results": results, "elapsed": elapsed}


@pytest.fixture(scope="session")
def cn_values(scan_table):
    return {n: pair[0].value for n, pair in scan_table["results"].items()}


@pytest.fixture(scope="session")
def Cn_values(scan_table):
    return {n: pair[1].value for n, pair in scan_table["results"].items()}


@pytest.fixture
def diamond():
    return latmat.from_cover_relations(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


@pytest.fixture
def m3():
    """The five-element lattice with three atoms: the smallest non-distributive one."""
    return latmat.from_cover_relations(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


@pytest.fixture
def divisors12():
    return latmat.divisor_poset([1, 2, 3, 4, 6, 12])


# -- independent oracles -------------------------------------------------------


@st.composite
def random_posets(draw, max_size=10):
    """A poset on 0..n-1 from random edges i -> j (i < j), closed transitively
    and renumbered by from_cover_relations to a linear extension."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.sets(pairs.filter(lambda e: e[0] < e[1]), min_size=n // 2, max_size=3 * n))
    return latmat.from_cover_relations(range(n), sorted(edges))


def lcm(a, b):
    return a * b // math.gcd(a, b)


def prime_factors(m):
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def jordan_totient(m, k):
    """Multiplicative closed form m**k * prod over p | m of (1 - p**-k)."""
    v = float(m) ** k
    for p in prime_factors(m):
        v *= 1.0 - float(p) ** (-k)
    return v


def euler_phi(m):
    return int(round(jordan_totient(m, 1)))


def convolution_double_sum(p, fvals, alpha, w, direction):
    """Direct double sum over the order relation, independent of the library
    convolution path (recomputes Mobius values by interval recursion)."""
    leq = p.leq_matrix
    n = len(p)

    def mu(a, b):
        if a == b:
            return 1
        if not leq[a, b]:
            return 0
        return -sum(mu(a, z) for z in range(n) if leq[a, z] and leq[z, b] and z != b)

    wi = p.index_of(w)
    if direction == "down":
        return sum(
            latmat.real_power(fvals[z], alpha) * mu(z, wi) for z in range(n) if leq[z, wi]
        )
    return sum(
        mu(wi, z) * latmat.real_power(fvals[z], alpha) for z in range(n) if leq[wi, z]
    )


def brute_force_det(m):
    """Determinant by Leibniz expansion (fine for n <= 6)."""
    from itertools import permutations

    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    total = 0.0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        total += sign * np.prod([m[i, perm[i]] for i in range(n)])
    return total
