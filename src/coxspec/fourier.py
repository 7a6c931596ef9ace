"""Group Fourier transform of the walk restricted to the geometric
3-dimensional representation.

The transform at the geometric representation is just the 3x3 symmetric
matrix x sigma_1 + y sigma_2 + z sigma_3; each of its eigenvalues occurs
in the spectrum of the full operator with multiplicity at least three.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .randwalk import build_operator


@dataclass(frozen=True)
class RepSpectrum:
    matrix: np.ndarray   # 3x3 symmetric
    roots: np.ndarray    # descending eigenvalues mu_1 >= mu_2 >= mu_3
    vectors: np.ndarray  # unit eigenvectors, column r belongs to roots[r]


def rep_fourier(x, group):
    """Fourier transform of the walk at the geometric representation: the
    one place that forms M = sum_j x_j sigma_j and diagonalises it.  `x` is
    one point's checked weights (3,) or a stack (m, 3), whose fields stack."""
    if group.rank != 3:
        raise DomainError(f"geometric Fourier transform needs rank 3, got rank {group.rank}")
    gens = group.generators
    # one gemv per point, bit for bit the M of the point alone
    mat = (x[..., None, :] @ gens.reshape(len(gens), -1)).reshape(x.shape[:-1] + gens.shape[1:])
    vals, vecs = np.linalg.eigh(mat)
    return RepSpectrum(matrix=mat, roots=vals[..., ::-1], vectors=vecs[..., ::-1])


def char_poly_coeffs(mat):
    """Coefficients (c2, c1, c0) of det(t I - mat) = t^3 + c2 t^2 + c1 t + c0."""
    tr = np.trace(mat)
    minors = 0.5 * (tr**2 - np.trace(mat @ mat))
    return -float(tr), float(minors), -float(np.linalg.det(mat))


def crosscheck_mu1(x, group, graph):
    """|mu_1(X) - lambda_1(P_X)|: the top eigenvalue of the 3x3 block
    against the full eigensolver."""
    from .spectral import lambda1  # spectral imports this module

    return abs(float(rep_fourier(x, group).roots[0]) - lambda1(build_operator(graph, x)))
