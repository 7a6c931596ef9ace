"""Dense linear algebra helpers: symmetric eigensolver and
Perron-Frobenius power iteration.

All functions accept array-likes and return numpy arrays.  Matrices are
small (at most ~200x200) and dense; everything is a pure function of its
inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoxspecError

SYMMETRY_RTOL = 1e-12


class LinalgError(CoxspecError):
    """Raised on dimension / symmetry / domain violations."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative method exceeds its iteration cap."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with aligned orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __iter__(self):
        return iter((self.eigenvalues, self.eigenvectors))


def _as_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix has non-finite entries")
    return a


def check_symmetric(a):
    """Return `a` as a float array, raising if it is not symmetric."""
    a = _as_square(a)
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise LinalgError("matrix is not symmetric within tolerance")
    return a


def fix_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive."""
    vectors = np.array(vectors, dtype=float)
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigh_symmetric(a):
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues come out in descending order; eigenvector signs are fixed
    by the largest-magnitude-entry-positive rule so repeated runs agree.
    """
    a = check_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return EigenDecomposition(vals[order], fix_signs(vecs[:, order]))


def perron_frobenius(a, tol=1e-13, max_iter=100_000):
    """Spectral radius and positive unit eigenvector of a positive matrix.

    Power iteration; the matrices handled here are tiny (k x k with
    k <= 4) and well conditioned.
    """
    a = _as_square(a)
    if np.any(a <= 0):
        raise LinalgError("Perron-Frobenius requires strictly positive entries")
    scale = max(1.0, np.abs(a).max())
    v = np.ones(a.shape[0]) / np.sqrt(a.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        lam = np.linalg.norm(w)
        v = w / lam
        if np.linalg.norm(a @ v - lam * v) <= tol * scale:
            return lam, v
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")

