"""Self-contained symmetric eigensolver.

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


def eigen_symmetric(m) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    The input must be symmetric to 1e-12 (relative to its largest entry);
    convergence means the off-diagonal Frobenius norm falls to at most
    1e-12 ||m||_F within 50 sweeps.
    """
    m = as_float64(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectraError(f"matrix must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if m.size and float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
        raise SpectraError("matrix is not symmetric to working tolerance")
    return Spectrum(*jacobi_eigenvalues(m))
