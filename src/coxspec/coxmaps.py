"""Closed-form machinery for reflection groups: fundamental-domain
vectors dual to the simple roots, the maps between fundamental points and
simplex weights/eigenvalues, and exact edge-length formulas.

For a fundamental point p = sum_j alpha_j p_j on the unit sphere there is
a unique interior simplex point X and eigenvalue lam with
lam p = sum_j x_j sigma_j(p); both directions of that correspondence are
implemented here, the inverse through the Perron-Frobenius eigenvector of
a strictly positive matrix.
"""

from dataclasses import dataclass

import numpy as np

from .coxeter import ReflectionGroup
from .errors import DomainError
from .linalg import perron_frobenius
from .randwalk import check_weights

# orbit_points: images closer than this in every coordinate are one point
ORBIT_DEDUP_TOL = 1e-6
# psi_maps: smallest ratio of two cone coefficients.  On the built-ins
# V |M^-1 alpha|_j <= 7.5 max(alpha), so each x'_j stays below 2^1021 and
# their sum below the largest float
PSI_ALPHA_RATIO = 2.0**-1018


def eta_rho(datum):
    """Shape constants of the built-in rank-3 family.

    eta = -2 * Gram_23 is 1, sqrt(2) or the golden ratio for A3/B3/H3;
    rho = 3 - eta^2 equals 4 det(Gram).
    """
    if datum.rank != 3 or datum.orders[0, 1] != 2 or datum.orders[0, 2] != 3:
        raise DomainError("eta/rho constants require the built-in rank-3 ordering")
    eta = -2.0 * datum.gram()[1, 2]
    return eta, 3.0 - eta**2


def gram_inverse(datum):
    """Inverse Gram matrix of the rank-3 built-ins, in closed form; any
    other datum raises `DomainError` (from `eta_rho`)."""
    eta, rho = eta_rho(datum)
    return (1.0 / rho) * np.array([[1 + rho, eta, 2], [eta, 3, 2 * eta], [2, 2 * eta, 4]])


def fundamental_vectors(group: ReflectionGroup):
    """The dual vectors p_j and volume V, cached on the group."""
    return group.fundamental_vectors


@dataclass(frozen=True)
class FundamentalPoint:
    """Point of the spherical fundamental domain with its cone coordinates,
    or a stack of them: both fields are (3,) or (m, 3)."""

    group: ReflectionGroup
    alphas: np.ndarray  # positive coefficients over the p_j
    point: np.ndarray   # sum_j alpha_j p_j, unit norm


def _worst(values):
    # the index of the largest of a stack's `values` (NaN first; True for
    # flags) and the words " at row i"; (..., "") for one point's value
    if np.ndim(values):
        i = int(np.argmax(values))
        return i, f" at row {i}"
    return ..., ""


def fundamental_point(group, alphas):
    """Normalize finite positive cone coefficients, one point (3,) or a
    stack (m, 3), onto the unit sphere.  The products are one gemv per
    point, so each row of a stack is bit for bit its point alone."""
    alphas = np.asarray(alphas, dtype=float)
    if (alphas.ndim not in (1, 2) or alphas.shape[-1] != group.rank
            or not np.all((alphas > 0) & (alphas < np.inf))):
        raise DomainError("need finite, strictly positive coefficients, one per generator")
    # an exact power-of-two scale into [0.5, 1): the norm of huge
    # coefficients would overflow, and the result does not change
    alphas = np.ldexp(alphas, -np.frexp(alphas.max(axis=-1, keepdims=True))[1])
    pvecs, _ = fundamental_vectors(group)
    p = (alphas[..., None, :] @ pvecs)[..., 0, :]
    # |p| from the dot product <p, p>, as np.linalg.norm takes it for one vector
    scale = np.sqrt(p[..., None, :] @ p[..., :, None])[..., 0]
    return FundamentalPoint(group=group, alphas=alphas / scale, point=p / scale)


def psi_maps(fp: FundamentalPoint):
    """Simplex point and eigenvalue realizing lam p = sum_j x_j sigma_j(p),
    for one fundamental point or for each row of a stack: (x (3,), lam) or
    (x (m, 3), lam (m,)), x read-only.

    The unnormalized weights are x' = V diag(alpha)^{-1} M^{-1} alpha and
    lam' = sum_j x'_j - 2V; rescaling by sum_j x'_j lands on the simplex.
    M^{-1} alpha is one gemv per point, so each row of a stack is bit for
    bit its point alone.  The defining relation is checked on every row; a
    `DomainError` names the worst one (a NaN deviation fails).
    """
    group = fp.group
    _, v = fundamental_vectors(group)
    minv = gram_inverse(group.datum)
    alphas = fp.alphas
    balanced = alphas.min(axis=-1) >= PSI_ALPHA_RATIO * alphas.max(axis=-1)
    if not balanced.all():
        i, where = _worst(~balanced)
        raise DomainError(
            f"cone coefficients {alphas[i]} differ by more than a factor 2^1018{where}"
        )
    xprime = v * (minv @ alphas[..., None])[..., 0] / alphas
    total = xprime.sum(axis=-1)
    lam = (total - 2.0 * v) / total
    x = check_weights(xprime / total[..., None])
    x.flags.writeable = False

    # defining relation, checked rather than assumed
    lhs = lam[..., None] * fp.point
    rhs = np.einsum("...j,jab,...b->...a", x, group.generators, fp.point)
    dev = np.abs(lhs - rhs).max(axis=-1)
    if not dev.max() <= 1e-10:  # NaN fails too
        i, where = _worst(dev)
        raise DomainError(f"lam p = sum_j x_j sigma_j(p) fails{where} (deviation {dev[i]:.2g})")
    return x, (lam if lam.ndim else float(lam))


def _pf_pair(group, x):
    """Perron-Frobenius eigenvalue and positive eigenvector of
    A = V D^{-1} M^{-1}, D = diag(x), with the volume V, for one interior
    point (3,) or a stack (m, 3): A is similar to the symmetric
    S = V D^{-1/2} M^{-1} D^{-1/2}, and S u = lam u gives A alpha = lam alpha
    for alpha = D^{-1/2} u."""
    interior = (x > 0).all(axis=-1)
    if not interior.all():
        raise DomainError(f"requires an interior simplex point{_worst(~interior)[1]}")
    _, v = fundamental_vectors(group)
    d = 1.0 / np.sqrt(x)
    outer = d[..., :, None] * d[..., None, :]  # the products of np.outer(d, d)
    lam_pf, u = perron_frobenius(v * gram_inverse(group.datum) * outer)
    return lam_pf, d * u, v


def psi_delta_inverse(group, x):
    """Fundamental point mapping to the given interior simplex point, or a
    stack of them for a stack (m, 3): alpha is the Perron-Frobenius
    eigenvector of A, scaled onto the unit sphere."""
    _, alpha, _ = _pf_pair(group, x)
    return fundamental_point(group, alpha)


def psi_lambda_of(group, x):
    """lam = 1 - 2 V mu with mu the reciprocal Perron-Frobenius
    eigenvalue of A, for one interior point or each row of a stack (m, 3);
    equals psi_maps of the inverse."""
    lam_pf, _, v = _pf_pair(group, x)
    return 1.0 - 2.0 * v / lam_pf


def edge_lengths_closed_form(fp: FundamentalPoint):
    """Euclidean length of each edge-class image of the orbit map:
    ||p - sigma_j(p)|| = 2 alpha_j V."""
    _, v = fundamental_vectors(fp.group)
    return 2.0 * fp.alphas * v


def orbit_points(group, p):
    """Deduplicated orbit of a point and the element -> orbit-index map.

    Images g p closer than `ORBIT_DEDUP_TOL` in every coordinate are one
    orbit point.  The first image not yet assigned becomes the next
    representative and takes every unassigned image close to it, so each
    image joins the earliest representative it is close to, also where
    closeness is not transitive.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (group.rank,) or not np.all(np.isfinite(p)):
        raise DomainError(f"orbit point must be {group.rank} finite coordinates")
    images = group.elements @ p
    # per coordinate: a max over a length-3 last axis is ten times slower
    close = np.ones((group.order, group.order), dtype=bool)
    for c in range(group.rank):
        close &= np.abs(images[:, c, None] - images[None, :, c]) < ORBIT_DEDUP_TOL
    index = np.full(group.order, -1)
    reps = []
    for i in range(group.order):
        if index[i] < 0:
            index[close[i] & (index < 0)] = len(reps)
            reps.append(i)
    return images[reps], index

