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


def _which(bad):
    # " (matrix i of the stack)" for the first True of a stack's flags, ""
    # for the one flag of a single matrix
    return f" (matrix {int(np.argmax(bad))} of the stack)" if np.ndim(bad) else ""


def check_symmetric(a):
    """Return `a` as a float array, raising if it is not a finite symmetric
    matrix, or a stack (m, n, n) of them; the error names the first matrix
    of a stack that fails."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    axes = (-2, -1)
    finite = np.isfinite(a).all(axis=axes)
    if not finite.all():
        raise LinalgError(f"matrix has non-finite entries{_which(~finite)}")
    scale = np.maximum(1.0, np.abs(a).max(axis=axes))
    symmetric = np.abs(a - a.swapaxes(-1, -2)).max(axis=axes) <= SYMMETRY_RTOL * scale
    if not symmetric.all():
        raise LinalgError(f"matrix is not symmetric within tolerance{_which(~symmetric)}")
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
    if np.ndim(a) != 2:
        raise LinalgError(f"expected a square matrix, got shape {np.shape(a)}")
    a = check_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return vals[order], fix_signs(vecs[:, order])


def perron_frobenius(a):
    """Spectral radius and positive unit eigenvector of a symmetric matrix
    with strictly positive entries, or of each matrix of a stack (m, n, n):
    the top pair of one `eigh`, with the vector's sign made positive.  The
    checks apply to every matrix, and a `LinalgError` names the first one
    of a stack that fails.  `eigh` solves a stack one matrix at a time, so
    each row of a stack's result is bit for bit that of its matrix alone."""
    a = check_symmetric(a)
    positive = (a > 0).all(axis=(-2, -1))
    if not positive.all():
        raise LinalgError(f"Perron-Frobenius requires strictly positive entries{_which(~positive)}")
    vals, vecs = np.linalg.eigh(a)
    return vals[..., -1], np.abs(vecs[..., -1])
