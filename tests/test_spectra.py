import math

import numpy as np
import pytest

import latmat
from latmat import SpectraError, eigen_symmetric


GOLD_2x2 = np.array([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])


def test_analytic_2x2():
    s = eigen_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_identity():
    s = eigen_symmetric(np.eye(5))
    assert np.allclose(s.eigenvalues, 1.0)
    assert s.iterations == 0  # already diagonal


def test_golden_ratio_matrix():
    s = eigen_symmetric(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.eigenvalues, GOLD_2x2, atol=1e-13)


def test_rejects_nonsquare():
    with pytest.raises(SpectraError, match="square"):
        eigen_symmetric(np.ones((2, 3)))


def test_rejects_asymmetric():
    with pytest.raises(SpectraError, match="not symmetric"):
        eigen_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_matches_lapack_oracle_random():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 9, 16, 33):
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2
        ours = eigen_symmetric(m).eigenvalues
        lapack = np.linalg.eigvalsh(m)
        assert np.allclose(ours, lapack, atol=1e-10 * max(1.0, np.abs(m).max()))


def test_trace_and_det_invariants():
    rng = np.random.default_rng(7)
    for n in (3, 6, 10):
        q = rng.normal(size=(n, n))
        m = q @ q.T + n * np.eye(n)  # well conditioned SPD
        s = eigen_symmetric(m)
        assert s.eigenvalues.sum() == pytest.approx(np.trace(m), rel=1e-9)
        assert np.prod(s.eigenvalues) == pytest.approx(np.linalg.det(m), rel=1e-6)
        assert s.offdiag_residual <= 1e-12 * latmat.frobenius_norm(m)


def test_orthogonal_invariance():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 6))
    m = m + m.T
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rotated = q.T @ m @ q
    rotated = (rotated + rotated.T) / 2
    a = eigen_symmetric(m).eigenvalues
    b = eigen_symmetric(rotated).eigenvalues
    assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_kappa():
    assert latmat.kappa(np.array([[1.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        GOLD_2x2[0], abs=1e-13
    )
    assert latmat.kappa(np.diag([-3.0, 2.0])) == 2.0
    assert latmat.kappa(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius():
    assert latmat.spectral_radius(np.array([[1.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        GOLD_2x2[1], abs=1e-13
    )
    assert latmat.spectral_radius(np.eye(4)) == 1.0
    assert latmat.spectral_radius(np.diag([-3.0, 2.0])) == 3.0


def test_norms():
    j = np.ones((3, 3))
    assert latmat.frobenius_norm(j) == pytest.approx(3.0)
    assert latmat.spectral_norm(j) == pytest.approx(3.0, rel=1e-12)
    d = np.diag([1.0, 2.0])
    assert latmat.frobenius_norm(d) == pytest.approx(math.sqrt(5.0))
    assert latmat.spectral_norm(d) == pytest.approx(2.0)


def test_norm_inequalities_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        sa, sb = latmat.spectral_norm(a), latmat.spectral_norm(b)
        assert latmat.spectral_norm(a @ b) <= sa * sb * (1 + 1e-10)
        assert sa <= latmat.frobenius_norm(a) * (1 + 1e-10)


def test_inverse_radius_identity():
    # spectral radius of the inverse equals 1/kappa for invertible symmetric m
    rng = np.random.default_rng(9)
    for _ in range(5):
        q = rng.normal(size=(5, 5))
        m = q @ q.T + 5 * np.eye(5)
        inv = np.linalg.inv(m)
        inv = (inv + inv.T) / 2
        assert latmat.spectral_radius(inv) == pytest.approx(1.0 / latmat.kappa(m), rel=1e-9)


def test_is_positive_definite():
    assert latmat.is_positive_definite(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert not latmat.is_positive_definite(np.ones((3, 3)))  # singular
    assert not latmat.is_positive_definite(-np.eye(3))


def test_determinants():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5))
    assert latmat.determinant(m) == pytest.approx(np.linalg.det(m), rel=1e-9)
    sym = m + m.T
    assert latmat.det_symmetric(sym) == pytest.approx(np.linalg.det(sym), rel=1e-9)
    assert latmat.determinant(np.zeros((2, 2))) == 0.0



# -- relative accuracy against exact oracles ---------------------------------------


@pytest.mark.parametrize("m", [720, 2520])
def test_smallest_eigenvalue_of_gcd_powers_to_relative_accuracy(m):
    # gcd^k on a factor-closed set is E diag(J_k) E^T, with E the 0/1 incidence
    # matrix and J_k the down-convolution of x^k, so M^-1 = mu diag(1/J_k) mu^T
    # exactly, mu the Mobius matrix; lambda_min(M) = 1 / lambda_max(M^-1), which
    # eigvalsh gets to a few ulps.  The condition numbers run up to 4.4e13.
    p = latmat.divisor_poset(latmat.divisors_of(m))
    s, f = p.subset(p.elements), latmat.PosetFunction.identity(p)
    mu = p.mobius().matrix.astype(object)
    for k in (1, 2, 3, 4):
        j = [int(v) for v in latmat.down_convolution(f, k, s).values]
        common = math.lcm(*j)
        inverse = (mu * np.array([common // v for v in j], dtype=object)) @ mu.T
        exact = 1.0 / np.linalg.eigvalsh((inverse / common).astype(np.float64))[-1]
        assert abs(eigen_symmetric(latmat.meet_matrix(s, f, k)).min - exact) <= 1e-13 * exact


def _min_matrix(n):
    return np.minimum.outer(np.arange(1, n + 1), np.arange(1, n + 1)).astype(np.float64)


def _min_matrix_eigenvalues(n):
    return np.sort([1.0 / (4.0 * math.sin((2 * k - 1) * math.pi / (4 * n + 2)) ** 2) for k in range(1, n + 1)])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 24, 32, 48, 64])
def test_min_matrix_within_the_stopping_rule(n):
    # every eigenvalue within the Weyl bound of the returned spectrum: the last
    # off-diagonal residual, plus eps * ||M||_F of rounding per rotation step,
    # n steps a sweep; and 4 ulps for the rounding of the closed form
    m, eps = _min_matrix(n), np.finfo(np.float64).eps
    s = eigen_symmetric(m)
    ref = _min_matrix_eigenvalues(n)
    slack = s.offdiag_residual + s.iterations * n * eps * latmat.frobenius_norm(m) + 4 * eps * ref
    assert np.all(np.abs(s.eigenvalues - ref) <= slack)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 24])
def test_min_matrix_to_relative_accuracy(n):
    # every eigenvalue to 1e-13 relative; past n = 24 the smallest but one
    # loses it (4.1e-13 at n = 32, 2.1e-12 at n = 64)
    s = eigen_symmetric(_min_matrix(n))
    assert np.abs(s.eigenvalues / _min_matrix_eigenvalues(n) - 1.0).max() <= 1e-13
