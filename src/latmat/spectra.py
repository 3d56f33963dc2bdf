"""Self-contained symmetric eigensolver and spectral functionals.

The solver is a deterministic cyclic Jacobi iteration in round-robin order
(_kernels.jacobi_eigenvalues).  All target matrices in this package are
small, so simplicity and bit-reproducibility win over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import SpectraError, as_float64, jacobi_eigenvalues

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) with solver diagnostics."""

    eigenvalues: np.ndarray
    iterations: int
    offdiag_residual: float

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


def _as_square(m) -> np.ndarray:
    m = as_float64(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectraError(f"matrix must be square, got shape {m.shape}")
    return m


def eigen_symmetric(m) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    The input must be symmetric to 1e-12 (relative to its largest entry);
    convergence means the off-diagonal Frobenius norm falls to at most
    1e-12 ||m||_F within 50 sweeps.
    """
    m = _as_square(m)
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if m.size and float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
        raise SpectraError("matrix is not symmetric to working tolerance")
    return Spectrum(*jacobi_eigenvalues(m))


def kappa(m) -> float:
    """Smallest absolute eigenvalue of a symmetric matrix."""
    return float(np.abs(eigen_symmetric(m).eigenvalues).min())


def spectral_radius(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    return float(np.abs(eigen_symmetric(m).eigenvalues).max())


def frobenius_norm(m) -> float:
    m = np.asarray(m, dtype=np.float64)
    return float(np.sqrt((m * m).sum()))


def spectral_norm(m) -> float:
    """Largest singular value, via the Gram matrix (works for rectangular m)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise SpectraError("spectral norm needs a 2-d matrix")
    gram = m.T @ m
    top = eigen_symmetric(gram).max
    return float(np.sqrt(max(top, 0.0)))


def is_positive_definite(m) -> bool:
    """True iff the smallest eigenvalue exceeds 1e-9 * max(1, ||m||_F), a
    scale-aware margin, so singular matrices computed in floating point
    classify as not definite.
    """
    m = _as_square(m)
    return eigen_symmetric(m).min > 1e-9 * max(1.0, frobenius_norm(m))


def determinant(m) -> float:
    """Determinant of a small general matrix by LU with partial pivoting."""
    a = _as_square(m).copy()
    n = a.shape[0]
    det = 1.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            return 0.0
        if piv != k:
            a[[k, piv], :] = a[[piv, k], :]
            det = -det
        det *= a[k, k]
        a[k + 1 :, k:] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k:])
    return float(det)


def det_symmetric(m) -> float:
    """Determinant of a symmetric matrix as the product of its eigenvalues."""
    return float(np.prod(eigen_symmetric(m).eigenvalues))
