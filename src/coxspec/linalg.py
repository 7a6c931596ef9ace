"""Dense linear algebra helpers: symmetric eigensolver and the
Perron-Frobenius pair of a symmetric positive matrix.

All functions accept array-likes and return numpy arrays.  Matrices are
small (at most ~200x200) and dense; everything is a pure function of its
inputs.
"""

import numpy as np

from .errors import CoxspecError

SYMMETRY_RTOL = 1e-12


class LinalgError(CoxspecError):
    """Raised on dimension / symmetry / domain violations."""


def check_symmetric(a):
    """Return `a` as a float array, raising if it is not a finite
    symmetric matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix has non-finite entries")
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
    """Full eigendecomposition (vals, vecs) of a symmetric matrix.

    Eigenvalues come out in descending order, column r of vecs belonging
    to vals[r]; eigenvector signs are fixed by the
    largest-magnitude-entry-positive rule so repeated runs agree.
    """
    a = check_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return vals[order], fix_signs(vecs[:, order])


def perron_frobenius(a):
    """Spectral radius and positive unit eigenvector of a symmetric matrix
    with strictly positive entries: the top pair of one `eigh`, with the
    vector's sign made positive."""
    a = check_symmetric(a)
    if np.any(a <= 0):
        raise LinalgError("Perron-Frobenius requires strictly positive entries")
    vals, vecs = np.linalg.eigh(a)
    return vals[-1], np.abs(vecs[:, -1])
