import math
import time
from fractions import Fraction

import numpy as np
import pytest

import latmat
from latmat import (
    CombinedSpec,
    ExistenceError,
    FactorizationError,
    PosetFunction,
    combined_matrix,
    factor_filter,
    factor_ideal,
    factor_join_closed,
    factor_meet_closed,
    g_matrix,
    join_matrix,
    matrices_close,
    meet_matrix,
)

from conftest import brute_force_det, euler_phi, lcm


@pytest.fixture
def div6():
    return latmat.divisor_poset([1, 2, 3, 6])


def identity_subset(p):
    return p.subset(p.elements), PosetFunction.identity(p)


# -- plain meet/join matrices ----------------------------------------------------


def test_min_matrix():
    p = latmat.chain_poset(3)
    s, f = identity_subset(p)
    assert np.array_equal(meet_matrix(s, f), [[1, 1, 1], [1, 2, 2], [1, 2, 3]])
    assert np.array_equal(join_matrix(s, f), [[1, 2, 3], [2, 2, 3], [3, 3, 3]])


def test_gcd_matrix():
    p = latmat.divisor_poset([1, 2, 3])
    s, f = identity_subset(p)
    assert np.array_equal(meet_matrix(s, f), [[1, 1, 1], [1, 2, 1], [1, 1, 3]])


def test_lcm_matrix(div6):
    s = div6.subset([1, 2, 3])
    f = PosetFunction.identity(div6)
    assert np.array_equal(join_matrix(s, f), [[1, 2, 3], [2, 2, 6], [3, 6, 3]])


def test_alpha_zero_gives_ones(div6):
    s, f = identity_subset(div6)
    assert np.array_equal(meet_matrix(s, f, 0.0), np.ones((4, 4)))
    assert np.array_equal(join_matrix(s, f, 0.0), np.ones((4, 4)))


def test_meet_matrix_gcd_oracle():
    p = latmat.divisor_poset(range(1, 11))
    s, f = identity_subset(p)
    m = meet_matrix(s, f)
    for a, x in enumerate(p.elements):
        for b, y in enumerate(p.elements):
            assert m[a, b] == math.gcd(x, y)


def test_meet_matrix_without_joins_available():
    # pairwise joins are missing in {1..10} under divisibility, but a pure
    # meet matrix must not need them
    p = latmat.divisor_poset(range(1, 11))
    s, f = identity_subset(p)
    meet_matrix(s, f)  # must not raise


# -- combined matrices -----------------------------------------------------------


def test_combined_collapses_to_meet_exactly(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, s, f)
    assert np.array_equal(combined_matrix(spec), meet_matrix(s, f))


def test_combined_collapses_to_join_exactly(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(0.0, 1.0, 0.0, 0.0, s, f)
    assert np.array_equal(combined_matrix(spec), join_matrix(s, f))


def test_reciprocal_matrix():
    p = latmat.divisor_poset([1, 2, 3, 6])
    s = p.subset([1, 2, 3])
    f = PosetFunction.identity(p)
    spec = CombinedSpec(-1.0, 1.0, 0.0, 0.0, s, f)
    assert np.array_equal(combined_matrix(spec), [[1, 2, 3], [2, 1, 6], [3, 6, 1]])


def test_combined_symmetry_is_exact():
    spec = latmat.gcd_power_family(7, 0.5, -0.5)
    m = combined_matrix(spec)
    assert np.array_equal(m, m.T)


def test_combined_entry_formula(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(2.0, -1.0, 0.5, 0.5, s, f)
    m = combined_matrix(spec)
    for a, x in enumerate(div6.elements):
        for b, y in enumerate(div6.elements):
            want = (
                math.gcd(x, y) ** 2.0
                * lcm(x, y) ** -1.0
                / (x**0.5 * y**0.5)
            )
            assert m[a, b] == pytest.approx(want, rel=1e-14)


def test_combined_asymmetric_case(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(1.0, 0.0, 1.0, 0.0, s, f)
    m = combined_matrix(spec)
    assert not np.array_equal(m, m.T)
    for a, x in enumerate(div6.elements):
        for b, y in enumerate(div6.elements):
            assert m[a, b] == pytest.approx(math.gcd(x, y) / x, rel=1e-14)


def _pairwise_entry(x, y, alpha, beta, gamma, delta):
    """gcd(x,y)^alpha lcm(x,y)^beta / (x^gamma y^delta), one pair at a time:
    Fractions when every exponent is an integer, else Python float powers
    multiplied and divided in the order meet, join, x, y."""
    g, l = math.gcd(x, y), lcm(x, y)
    if all(e == int(e) for e in (alpha, beta, gamma, delta)):
        val = Fraction(g) ** int(alpha) * Fraction(l) ** int(beta)
        return float(val / Fraction(x) ** int(gamma) / Fraction(y) ** int(delta))
    val = 1.0
    if alpha:
        val *= float(g) ** alpha
    if beta:
        val *= float(l) ** beta
    if gamma:
        val /= float(x) ** gamma
    if delta:
        val /= float(y) ** delta
    return val


@pytest.mark.parametrize("m", [720, 2520])
@pytest.mark.parametrize(
    "exps",
    [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0.5, -0.5, 0, 0),
        (-1, 1, 0, 0),
        (1.5, -0.5, 0, 0),
        (2, -1, 0.5, 0.5),
        (1, 0, 1, 0),
        (1, -1, 0, 0),
        (1, 0, 1, 1),
        (1, 1, 2, 1),
        (-1, 2, 1, 0),
        (2, -1, -1, 1),
    ],
)
def test_combined_matches_pairwise_oracle(m, exps):
    # bit for bit against a per-pair oracle; with gamma = delta the upper
    # triangle is computed and mirrored, so the matrix is exactly symmetric
    p = latmat.divisor_poset(latmat.divisors_of(m))
    s, f = identity_subset(p)
    got = combined_matrix(CombinedSpec(*map(float, exps), s, f))
    xs = p.elements
    want = np.array([[_pairwise_entry(x, y, *exps) for y in xs] for x in xs])
    if exps[2] == exps[3]:
        want = np.triu(want) + np.triu(want, 1).T
    assert np.array_equal(got, want)


def test_existence_clause_vanishing_on_s(div6):
    vals = {1: 0.0, 2: 2.0, 3: 3.0, 6: 6.0}
    f = PosetFunction.from_mapping(div6, vals)
    spec = CombinedSpec(1.0, 0.0, 1.0, 1.0, div6.subset(div6.elements), f)
    with pytest.raises(ExistenceError, match="gamma = delta = 0"):
        combined_matrix(spec)


def test_existence_clause_vanishing_meet(div6):
    vals = {1: 0.0, 2: 2.0, 3: 3.0, 6: 6.0}
    f = PosetFunction.from_mapping(div6, vals)
    spec = CombinedSpec(-1.0, 0.0, 0.0, 0.0, div6.subset([2, 3]), f)
    with pytest.raises(ExistenceError, match="at the meet of 3 and 2, which requires alpha >= 0"):
        combined_matrix(spec)


def test_existence_clause_vanishing_join(div6):
    vals = {1: 1.0, 2: 2.0, 3: 3.0, 6: 0.0}
    f = PosetFunction.from_mapping(div6, vals)
    spec = CombinedSpec(0.0, -1.0, 0.0, 0.0, div6.subset([2, 3]), f)
    with pytest.raises(ExistenceError, match="beta >= 0"):
        combined_matrix(spec)


def test_zero_exponents_skip_missing_joins():
    # beta = 0 must not require joins to exist at all
    p = latmat.divisor_poset(range(1, 11))
    s, f = identity_subset(p)
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, s, f)
    combined_matrix(spec)  # must not raise
    with pytest.raises(latmat.LatticeError):
        combined_matrix(CombinedSpec(1.0, 1.0, 0.0, 0.0, s, f))


# -- G matrix ---------------------------------------------------------------------


def test_g_matrix_semimultiplicative_is_ones(div6):
    s, f = identity_subset(div6)
    assert np.array_equal(g_matrix(s, f, 1.0), np.ones((4, 4)))


def test_g_matrix_exponent_zero(div6):
    s = div6.subset(div6.elements)
    f = PosetFunction.from_mapping(div6, {1: 1.0, 2: 5.0, 3: 3.0, 6: 7.0})
    assert np.array_equal(g_matrix(s, f, 0.0), np.ones((4, 4)))


def test_g_matrix_comparable_entries_one(div6):
    s = div6.subset(div6.elements)
    f = PosetFunction.from_mapping(div6, {1: 1.0, 2: 5.0, 3: 3.0, 6: 7.0})
    g = g_matrix(s, f, 1.0)
    # only the (2,3) pair is incomparable
    i, j = 1, 2
    assert g[i, j] == pytest.approx(1.0 * 7.0 / (5.0 * 3.0))
    mask = np.ones((4, 4), dtype=bool)
    mask[i, j] = mask[j, i] = False
    assert np.array_equal(g[mask], np.ones(14))


def test_g_matrix_zero_value_error(div6):
    f = PosetFunction.from_mapping(div6, {1: 1.0, 2: 0.0, 3: 3.0, 6: 7.0})
    with pytest.raises(latmat.PowerDomainError, match="f vanishes at 2 or 3"):
        g_matrix(div6.subset(div6.elements), f, 1.0)


# -- square-root factorizations ----------------------------------------------------


def test_factor_ideal_gcd_example():
    p = latmat.divisor_poset([1, 2, 3])
    s, f = identity_subset(p)
    a = factor_ideal(s, f)
    want = np.array(
        [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, math.sqrt(2.0)]]
    )
    assert np.allclose(a, want, atol=1e-14)
    assert matrices_close(a @ a.T, meet_matrix(s, f))


def test_factor_ideal_singleton(divisors12):
    s = divisors12.subset([4])
    f = PosetFunction.identity(divisors12)
    a = factor_ideal(s, f)
    assert matrices_close(a @ a.T, np.array([[4.0]]))


def test_factor_ideal_negative_entry_error():
    p = latmat.chain_poset(3)
    f = PosetFunction.from_mapping(p, {1: 1.0, 2: 3.0, 3: 2.0})  # not increasing
    with pytest.raises(FactorizationError, match="negative"):
        factor_ideal(p.subset(p.elements), f, 1.0)


def test_factor_filter_examples(divisors12):
    # reciprocal values decrease upward, so the up-convolution stays positive
    f = PosetFunction.identity(divisors12)
    s = divisors12.subset([4, 6])
    a = factor_filter(s, f, -1.0)
    assert matrices_close(a @ a.T, join_matrix(s, f, -1.0))


def test_factor_filter_chain():
    p = latmat.chain_poset(3)
    s, f = identity_subset(p)
    a = factor_filter(s, f, -1.0)
    # up entries 1/2, 1/6, 1/3; the (i,j) product sums to 1/max(i,j)
    assert np.allclose(np.sort(np.diag(a @ a.T)), [1.0 / 3.0, 1.0 / 2.0, 1.0])
    assert matrices_close(a @ a.T, join_matrix(s, f, -1.0))


def test_factor_filter_sign_error():
    # f = N makes the up-convolution negative, so the factorization must refuse
    p = latmat.chain_poset(3)
    s, f = identity_subset(p)
    with pytest.raises(FactorizationError, match="negative"):
        factor_filter(s, f, 1.0)


def test_factor_meet_closed_totients():
    p = latmat.divisor_poset(range(1, 7))
    s, f = identity_subset(p)
    e, d = factor_meet_closed(s, f)
    assert np.allclose(d, [euler_phi(k) for k in range(1, 7)])
    assert matrices_close(e @ np.diag(d) @ e.T, meet_matrix(s, f))
    # E is unit lower triangular, a 0/1 matrix
    assert np.array_equal(np.diag(e), np.ones(6))
    assert not np.triu(e, 1).any()
    assert set(np.unique(e)) <= {0.0, 1.0}


def test_smith_determinant():
    p = latmat.divisor_poset([1, 2, 3])
    s, f = identity_subset(p)
    _, d = factor_meet_closed(s, f)
    assert np.allclose(d, [1.0, 1.0, 2.0])
    det = brute_force_det(meet_matrix(s, f))
    assert det == pytest.approx(np.prod(d)) == pytest.approx(2.0)


def test_factor_meet_closed_rejects_open_set(divisors12):
    f = PosetFunction.identity(divisors12)
    with pytest.raises(FactorizationError, match="not meet closed"):
        factor_meet_closed(divisors12.subset([2, 3]), f)


def test_factor_join_closed_divisors_of_6(div6):
    s, f = identity_subset(div6)
    e, d = factor_join_closed(s, f)
    assert matrices_close(e.T @ np.diag(d) @ e, join_matrix(s, f))


def test_factor_join_closed_singleton(div6):
    s = div6.subset([2])
    f = PosetFunction.identity(div6)
    _, d = factor_join_closed(s, f)
    assert d[0] == pytest.approx(2.0)  # collapses to f(x) by inversion


def test_factor_join_closed_chain():
    p = latmat.chain_poset(4)
    s, f = identity_subset(p)
    e, d = factor_join_closed(s, f)
    assert np.allclose(d, [-1.0, -1.0, -1.0, 4.0])
    assert matrices_close(e.T @ np.diag(d) @ e, join_matrix(s, f))


def test_factor_join_closed_rejects_open_set():
    p = latmat.divisor_lattice(range(1, 7))
    f = PosetFunction.identity(p)
    with pytest.raises(FactorizationError, match="not join closed"):
        factor_join_closed(p.subset(range(1, 7)), f)


def test_factorizations_on_random_divisor_lattices():
    # full divisor lattices keep both convolutions sign-definite (totient-like
    # products), so all four factorizations apply
    rng = np.random.default_rng(2024)
    done = 0
    while done < 12:
        m = int(rng.integers(2, 400))
        p = latmat.divisor_poset(latmat.divisors_of(m))
        if len(p) > 36:
            continue
        s, f = identity_subset(p)
        a = factor_ideal(s, f)
        assert matrices_close(a @ a.T, meet_matrix(s, f))
        b = factor_filter(s, f, -1.0)
        assert matrices_close(b @ b.T, join_matrix(s, f, -1.0))
        e, d = factor_meet_closed(s, f)
        assert matrices_close(e @ np.diag(d) @ e.T, meet_matrix(s, f))
        e, d = factor_join_closed(s, f)
        assert matrices_close(e.T @ np.diag(d) @ e, join_matrix(s, f))
        done += 1


def test_diagonal_factorizations_on_closure_lattices(m3):
    # gcd/lcm closures of random sets, then M3 (not distributive): the
    # diagonal factorizations carry no sign conditions, so they must always
    # reconstruct
    rng = np.random.default_rng(77)
    cases = []
    while len(cases) < 10:
        base = rng.choice(np.arange(2, 61), size=int(rng.integers(2, 6)), replace=False)
        p = latmat.divisor_lattice(int(v) for v in base)
        if len(p) > 48:
            continue
        cases.append(identity_subset(p))
    m3_f = PosetFunction.from_mapping(m3, {"0": 1.0, "a": 2.0, "b": 3.0, "c": 5.0, "1": 7.0})
    cases.append((m3.subset(m3.elements), m3_f))
    for s, f in cases:
        e, d = factor_meet_closed(s, f)
        assert matrices_close(e @ np.diag(d) @ e.T, meet_matrix(s, f))
        e, d = factor_join_closed(s, f)
        assert matrices_close(e.T @ np.diag(d) @ e, join_matrix(s, f))


def _d_by_bincount(s, f, alpha, side):
    """d as the closed factorizations once formed it: the convolution summed
    by first (join side: last) member of S above (below) each element."""
    p = s.parent
    if side == "meet":
        conv = latmat.down_convolution(f, alpha, s)
        under = p._block(conv.domain.indices, s.indices)
        return np.bincount(under.argmax(axis=1), weights=conv.values, minlength=len(s))
    conv = latmat.up_convolution(f, alpha, s)
    under = p._block(s.indices[::-1], conv.domain.indices).T
    return np.bincount(under.argmax(axis=1), weights=conv.values, minlength=len(s))[::-1]


def test_closed_d_matches_the_bincount_formula(diamond):
    # the posets of `latmat selftest`'s factorization check, on every S that is
    # closed; E is checked by the reconstruction tests above
    cases = [(p, PosetFunction.identity(p)) for p in (latmat.chain_poset(5), latmat.divisor_lattice([36, 8]))]
    cases.append((diamond, PosetFunction(diamond, [1.0, 2.0, 3.0, 6.0])))
    compared = 0
    for p, f in cases:
        for labels in (p.elements, p.elements[:-1], p.elements[1:], p.elements[1:-1]):
            s = p.subset(labels)
            for alpha in (1.0, -1.0, 0.5):
                for side, factor, closed in (("meet", factor_meet_closed, s.is_meet_closed()),
                                             ("join", factor_join_closed, s.is_join_closed())):
                    if not closed:
                        with pytest.raises(FactorizationError, match=f"not {side} closed"):
                            factor(s, f, alpha)
                        continue
                    got, want = factor(s, f, alpha)[1], _d_by_bincount(s, f, alpha, side)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    compared += 1
    assert compared == 48  # the other 24 (S, side, alpha) are open and raise


# -- structure factorizations -------------------------------------------------------


def test_structure_meet_identity_case(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, s, f)
    fac = latmat.structure_meet(spec)
    assert matrices_close(fac.product(), meet_matrix(s, f))


def test_structure_meet_reciprocal(divisors12):
    s, f = identity_subset(divisors12)
    spec = CombinedSpec(-1.0, 1.0, 0.0, 0.0, s, f)
    m = combined_matrix(spec)
    assert matrices_close(latmat.structure_meet(spec).product(), m)
    assert matrices_close(latmat.structure_join(spec).product(), m)


def test_structure_semimultiplicative_core_untouched(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(2.0, 1.0, 0.0, 0.0, s, f)
    fac = latmat.structure_meet(spec)
    assert np.array_equal(fac.core * fac.g, fac.core)


def test_structure_asymmetric_exponents(div6):
    s, f = identity_subset(div6)
    spec = CombinedSpec(1.0, 2.0, 0.5, -0.5, s, f)
    m = combined_matrix(spec)
    assert matrices_close(latmat.structure_meet(spec).product(), m)
    assert matrices_close(latmat.structure_join(spec).product(), m)


def test_structure_nonsemimultiplicative_function(diamond):
    f = PosetFunction.from_mapping(diamond, {"a": 1.0, "b": 2.0, "c": 5.0, "d": 4.0})
    s = diamond.subset(diamond.elements)
    spec = CombinedSpec(1.0, 2.0, 1.0, 1.0, s, f)
    m = combined_matrix(spec)
    fac = latmat.structure_meet(spec)
    assert not np.array_equal(fac.g, np.ones((4, 4)))
    assert matrices_close(fac.product(), m)
    assert matrices_close(latmat.structure_join(spec).product(), m)


def test_ideal_block_split_psd():
    spec = latmat.gcd_power_family(6, 2.0, 1.0)
    m = combined_matrix(spec)
    p1, p2 = latmat.ideal_block_split(spec)
    assert matrices_close(p1 + p2, m)
    assert latmat.eigen_symmetric(p2).min >= -1e-10


def test_ideal_block_split_with_gamma():
    lattice = latmat.divisor_poset([1, 2, 3, 4, 6, 12])
    s = lattice.subset([4, 6, 12])
    f = PosetFunction.identity(lattice)
    spec = CombinedSpec(2.0, 1.0, 0.5, 0.5, s, f)
    p1, p2 = latmat.ideal_block_split(spec)
    assert matrices_close(p1 + p2, combined_matrix(spec))
    assert latmat.eigen_symmetric(p2).min >= -1e-10


# -- Hadamard diagonal identity ------------------------------------------------------


def test_hadamard_identity_random():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    c = np.diag(rng.normal(size=4))
    d = np.diag(rng.normal(size=4))
    assert latmat.hadamard_diag_identity_check(a, b, c, d)


def test_hadamard_identity_ones_case():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    c = np.diag(rng.normal(size=3))
    d = np.diag(rng.normal(size=3))
    j = np.ones((3, 3))
    assert latmat.hadamard_diag_identity_check(a, j, c, d)
    assert latmat.hadamard_diag_identity_check(a, rng.normal(size=(3, 3)), np.eye(3), np.eye(3))


def test_hadamard_rejects_nondiagonal():
    a = np.ones((2, 2))
    with pytest.raises(ValueError, match="diagonal"):
        latmat.hadamard_diag_identity_check(a, a, a, np.eye(2))


# -- text output -----------------------------------------------------------------------


def test_matrix_csv_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) * 1e3
    text = latmat.format_matrix(m, "csv")
    back = latmat.parse_matrix_csv(text)
    assert np.array_equal(m, back)  # 17 significant digits round-trip exactly


def test_matrix_pretty():
    out = latmat.format_matrix(np.eye(2), "pretty")
    assert "1" in out and "\n" in out
    with pytest.raises(ValueError, match="unknown matrix format"):
        latmat.format_matrix(np.eye(2), "fancy")


def test_parse_matrix_errors():
    with pytest.raises(ValueError, match="line 1"):
        latmat.parse_matrix_csv("a,b\n")
    with pytest.raises(ValueError, match="inconsistent"):
        latmat.parse_matrix_csv("1,2\n3\n")


# -- spectra of whole divisor lattices from their prime chains -------------------

REGION_PAIRS = ((1.0, 0.0), (0.0, 1.0), (0.5, -0.5), (-1.0, 1.0), (1.5, -0.5))


@pytest.fixture
def solved_sizes(monkeypatch):
    """Sizes of the matrices CombinedSpec.spectrum hands to the eigensolver."""
    sizes = []
    solve = latmat.matrices.eigen_symmetric
    monkeypatch.setattr(latmat.matrices, "eigen_symmetric", lambda m: sizes.append(len(m)) or solve(m))
    return sizes


def assert_matches_eigvalsh(spec, rel=1e-13):
    want = np.linalg.eigvalsh(combined_matrix(spec))
    got = spec.spectrum.eigenvalues
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("alpha, beta", REGION_PAIRS)
@pytest.mark.parametrize("m, chain_sizes", [(720, [5, 3, 2]), (2520, [4, 3, 2, 2]), (10080, [6, 3, 2, 2])])
def test_divisor_lattice_spectrum_is_the_chain_product(m, chain_sizes, alpha, beta, solved_sizes):
    spec = latmat.divisor_closed_family(m, alpha, beta)
    assert_matches_eigvalsh(spec)
    assert solved_sizes == chain_sizes


@pytest.mark.parametrize("m", [720, 2520, 10080])
def test_chain_product_meets_smiths_determinant(m, solved_sizes):
    # det of the GCD matrix on a divisor-closed set is the product of phi(x)
    spec = latmat.divisor_closed_family(m, 1.0, 0.0)
    want = math.prod(euler_phi(x) for x in latmat.divisors_of(m))
    assert float(np.prod(spec.spectrum.eigenvalues)) == pytest.approx(want, rel=1e-12)
    assert len(solved_sizes) == sum(m % q == 0 for q in (2, 3, 5, 7))  # one chain per prime


def test_chain_product_edge_cases(solved_sizes):
    assert latmat.divisor_closed_family(1, 1.0, 0.0).spectrum.eigenvalues.tolist() == [1.0]
    assert solved_sizes == []
    assert_matches_eigvalsh(latmat.divisor_closed_family(7919, -1.0, 1.0))
    assert solved_sizes == [2]
    # the primes come from the labels: no trial division up to sqrt(m)
    q = 2**61 - 1
    p = latmat.divisor_poset([1, 2, q, 2 * q])
    t0 = time.perf_counter()
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, *identity_subset(p))
    spec.spectrum
    assert time.perf_counter() - t0 < 0.25
    assert_matches_eigvalsh(spec)
    assert solved_sizes == [2, 2, 2]


def _multiplicative_with_negative_two(p):
    sign = {1: 1, 2: -1, 3: 1, 4: 1, 6: -1, 12: 1}
    return PosetFunction(p, [sign[x] * x for x in p.elements])


def _perturbed_at_six(p):
    return PosetFunction(p, [np.nextafter(6.0, 7.0) if x == 6 else float(x) for x in p.elements])


@pytest.mark.parametrize(
    "make",
    [
        lambda p: (p.subset([1, 2, 3, 4, 6]), PosetFunction.identity(p)),
        lambda p: (p.subset(p.elements), PosetFunction.from_name(p, "const:2")),
        lambda p: (p.subset(p.elements), _perturbed_at_six(p)),
        lambda p: (p.subset(p.elements), _multiplicative_with_negative_two(p)),
        lambda p: identity_subset(latmat.parse_poset(latmat.format_poset(p))),
        lambda p: identity_subset(latmat.divisor_poset([1, 2, 3, 4, 12])),
        lambda p: identity_subset(latmat.divisor_poset([2, 4, 6, 12])),
    ],
    ids=["proper-subset", "const-2", "perturbed-composite", "nonpositive", "parsed-covers", "not-all-divisors", "no-one"],
)
def test_chain_product_falls_back_to_one_solve(make, solved_sizes):
    s, f = make(latmat.divisor_poset(latmat.divisors_of(12)))
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, s, f)
    assert_matches_eigvalsh(spec, rel=1e-12)
    assert solved_sizes == [len(s)]


def test_chain_product_leaves_errors_to_the_full_solve(solved_sizes):
    s, f = identity_subset(latmat.divisor_poset(latmat.divisors_of(12)))
    with pytest.raises(latmat.SpectraError, match="not symmetric"):
        CombinedSpec(1.0, 0.0, 1.0, 0.0, s, f).spectrum  # gamma != delta
    assert solved_sizes == [6]
    other = PosetFunction.identity(latmat.divisor_poset(latmat.divisors_of(12)))
    with pytest.raises(ValueError, match="different posets"):
        CombinedSpec(1.0, 0.0, 0.0, 0.0, s, other).spectrum


def test_chain_product_overflow_raises():
    # each chain's eigenvalues are finite, but 2^600 * 3^600 is not
    with pytest.raises(latmat.SpectraError, match="not finite"):
        latmat.divisor_closed_family(6, 600.0, 0.0).spectrum
