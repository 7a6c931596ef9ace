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

# orbit_points: an image g p within ORBIT_TOL |p| of p is p, so g fixes
# p.  On the 27 curve and edge limits of A3, B3 and H3, |<n_j, p>| / |p|
# is at most 5.2e-17 on a mirror and at least 0.168 off one, and the
# images g p of a fixing g round to within 2.2e-16 |p| of p
ORBIT_TOL = 1e-12
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
    x = check_weights(xprime / total[..., None], group.rank)
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
    for alpha = D^{-1/2} u.  `x` passes `check_weights`, and then the
    stricter interior test."""
    x = check_weights(x, group.rank)
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
    """Orbit of a point as the cosets of its stabiliser, and the element
    -> orbit-index map.

    The stabiliser H is the set of g with |g p - p| <= `ORBIT_TOL` |p|,
    and the orbit is G/H (Humphreys, *Reflection Groups and Coxeter
    Groups*, 1990, 1.12): each coset g H = `mult[g, H]` is one point, the
    image of its least element, numbered in that element's order.  Every
    image off H must lie more than 2 `ORBIT_TOL` |p| from p, else
    `DomainError`.  The elements are isometries, so H is then a subgroup,
    each image lies within the tolerance of its coset's point (checked
    too), and two points lie as far apart as some image off H from p.

    The last orbit solved is kept on the group (`orbit_memo`), keyed by
    the exact bytes of p, so a caller that meshes the orbit `curve_limit`
    or `boundary_limit` has just found does not solve it again; both
    arrays are read-only.  Bad input raises on every call.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (group.rank,) or not np.all(np.isfinite(p)):
        raise DomainError(f"orbit point must be {group.rank} finite coordinates")
    memo, key = group.orbit_memo, p.tobytes()
    if key in memo:
        return memo[key]
    images = group.elements @ p
    # the distances on an exact power-of-two scale: finite for any finite p
    e = -np.frexp(np.abs(p).max())[1]
    q, scaled = np.ldexp(p, e), np.ldexp(images, e)
    tol = ORBIT_TOL * np.linalg.norm(q)
    dist = np.linalg.norm(scaled - q, axis=1)
    fixes = dist <= tol
    least = group.mult[:, fixes].min(axis=1)
    is_rep = least == np.arange(group.order)
    index = (np.cumsum(is_rep) - 1)[least]
    moved = np.linalg.norm(scaled - scaled[is_rep][index], axis=1)
    if not (dist[~fixes].min(initial=np.inf) > 2 * tol and moved.max() <= tol):
        raise DomainError(f"ORBIT_TOL = {ORBIT_TOL:g} does not separate the orbit of {p}")
    pts = images[is_rep]
    pts.flags.writeable = index.flags.writeable = False
    memo.clear()
    memo[key] = pts, index
    return pts, index
