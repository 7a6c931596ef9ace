"""Eigenvalue clustering and spectral representations.

A spectral representation maps each vertex to its vector of values under
an orthonormal eigenbasis of a multiplicity-k eigenvalue; for invariant
walks on vertex transitive graphs the image lies on a sphere and edges
within an equivalence class share a common Euclidean length.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvarianceError
from .fourier import rep_fourier
from .linalg import eigh_symmetric, fix_signs
from .randwalk import check_weights, simplex_point

CLUSTER_TOL = 1e-7
# lambda1_cluster: the least isolation gap (`block_clusters`) that decides
# mu_1 = lambda_1.  It is a rounding bound, since the gap shrinks linearly
# towards the boundary (0.0564 e at the H3 corner (1 - e, e/2, e/2)): eigh
# is backward stable on the symmetric blocks (d <= 5, ||M|| <= sum_j x_j = 1),
# so by Weyl's inequality each computed value is within a small multiple of
# d eps ||M||, below 1e-14, of an exact one (Golub and Van Loan, 8.1 and
# 8.3); a gap is off by at most 2e-14, and 1e-12 leaves a factor of 50
ISOLATION_TOL = 1e-12
EDGE_SPREAD_TOL = 1e-8
# ||P B - lambda B|| allowed per unit of max(1, |lambda|) sqrt(|G|)
RESIDUAL_TOL = 1e-8
FAITHFUL_RTOL = 1e-6
GRAM_PAIRS = 50
# lambda1: points per stacked eigensolve of the bipartite half.  An H3
# point holds C and C C^T, two 60x60 arrays of 28 KiB (a stack of 100
# full 120x120 operators alone would be 11 MiB).  On the verify workload
# (2 cores, one OpenBLAS thread) 1, 4 and 16 points per chunk took the
# same time; peak RSS rose over the full single solves by 0.1-0.3 MiB at
# 4 points and by 0.5-0.6 MiB at 16
ORACLE_CHUNK = 4


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: float
    multiplicity: int
    basis: np.ndarray  # (n, multiplicity), orthonormal columns
    gap: float = np.inf  # distance to the neighbouring clusters' eigenvalues
    path: str = "dense"  # "fourier" (`lambda1_cluster`) or "dense" (`spectrum_clusters`)


def _warn_ambiguous(first, spread, size):
    # clusters (top eigenvalue, spread, multiplicity) wider than half the tolerance
    for c in np.flatnonzero(spread > 0.5 * CLUSTER_TOL):
        warnings.warn(
            f"ambiguous eigenvalue cluster near {first[c]:.6g} "
            f"(spread {spread[c]:.2g}); merged into one cluster of multiplicity {size[c]}"
        )


def _value_clusters(vals):
    """Clusters of the descending eigenvalues `vals` as (eigenvalue,
    start, stop, gap) with the cluster mean as eigenvalue.

    Neighbouring eigenvalues closer than `CLUSTER_TOL` chain into one
    cluster; a cluster whose spread exceeds half the tolerance is flagged
    with a warning.
    """
    cuts = np.flatnonzero(vals[:-1] - vals[1:] > CLUSTER_TOL) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [len(vals)]))
    _warn_ambiguous(vals[lo], vals[lo] - vals[hi - 1], hi - lo)
    means = np.add.reduceat(vals, lo) / (hi - lo)
    padded = np.concatenate(([np.inf], means, [-np.inf]))
    gaps = np.minimum(padded[:-2] - means, means - padded[2:])
    return list(zip(means.tolist(), lo.tolist(), hi.tolist(), gaps.tolist()))


def spectrum_clusters(p):
    """Partition the spectrum of the dense operator `p` into multiplicity
    clusters; each basis is the cluster's columns of one dense
    `eigh_symmetric`, orthonormal and sign-fixed."""
    vals, vecs = eigh_symmetric(p)
    return [
        SpectralCluster(
            eigenvalue=mean,
            multiplicity=hi - lo,
            basis=vecs[:, lo:hi],
            gap=gap,
        )
        for mean, lo, hi, gap in _value_clusters(vals)
    ]


def _pair_values(group, rows):
    """Ascending eigenvalues (m, P, D) of the padded blocks sum_j x_j rho(s_j)
    of `ReflectionGroup.det_pairs` at the rows (m, k), one gemv per point
    and one `eigvalsh`; a block of dimension d adds D - d exact zeros."""
    blocks = group.det_pairs[1][0]
    k, p, d, _ = blocks.shape
    return np.linalg.eigvalsh((rows[:, None, :] @ blocks.reshape(k, -1)).reshape(-1, p, d, d))


def block_spectrum(group, weights):
    """Descending eigenvalues of P_X, counted with multiplicity, from the
    det-pairs of irreducible blocks (`ReflectionGroup.det_pairs`): the
    trivial eigenvalue sum_j x_j and its negative, the eigenvalues mu of
    M = sum_j x_j sigma_j (`fourier.rep_fourier`) and -mu, 3 times each,
    and per other pair the values of one block and their negatives, d
    times each (a self-paired block's values only), from the padded stack
    `block_clusters` reads, less its zeros: entry 1 is bit for bit its lam1.

    `weights` is one weight vector (k,) or a stack (m, k), solved as one
    stack; the result is (|G|,) or (m, |G|), each row bit for bit its
    point alone.  The library reads lambda_1 from `block_clusters`; the
    whole sorted spectrum is public API and the tests' oracle.  The
    weights are checked by `check_weights`.
    """
    w = check_weights(weights, group.rank)
    rows = np.atleast_2d(w)
    mu, t = rep_fourier(rows, group).roots, rows.sum(axis=1, keepdims=True)
    parts = [t, -t] + [mu, -mu] * 3
    eig = _pair_values(group, rows)
    eig = np.take_along_axis(eig, np.argsort(-np.abs(eig), axis=-1), axis=-1)
    _, paired, dims = group.det_pairs[1]
    for v, d, both in zip(eig.swapaxes(0, 1), dims.tolist(), paired.tolist()):
        # the block's values by falling |value|: its D - d padding zeros last
        parts += [np.repeat(v[:, :d], d, axis=1)] + [np.repeat(-v[:, :d], d, axis=1)] * both
    vals = np.concatenate(parts, axis=1)
    vals.sort(axis=1)
    vals = vals[:, ::-1]
    return vals[0] if w.ndim == 1 else vals


def lambda1(group, weights):
    """Second-highest eigenvalue of P_X, counted with multiplicity, from a
    dense eigensolve of the whole graph: the oracle the block spectrum is
    checked against.  `weights` is one point (k,) or a stack (m, k); the
    result is a float or (m,).

    The Cayley graph is bipartite by the sign of det g, so
    P = [[0, C], [C^T, 0]] and the eigenvalues of P are +-sigma_i(C): lambda_1
    is sqrt of entry 1 of the descending `eigvalsh(C C^T)`, with C the
    |G|/2 x |G|/2 block filled along `ReflectionGroup.bipartite_half`.  No
    |G| x |G| array and no irreducible block is formed.  `ORACLE_CHUNK` points
    at a time, each solved alone, so a row of a stack is bit for bit its
    point alone.  The weights are checked by `check_weights`.
    """
    w = check_weights(weights, group.rank)
    rows, cols = group.bipartite_half
    points = np.atleast_2d(w)
    vals = np.empty(len(points))
    for start in range(0, len(points), ORACLE_CHUNK):
        chunk = points[start:start + ORACLE_CHUNK]
        c = np.zeros((len(chunk), len(rows), len(rows)))
        # the neighbours g s_j of g are distinct, so no entry is set twice
        c[:, rows[:, None], cols] = chunk[:, None, :]
        mu = np.linalg.eigvalsh(c @ c.swapaxes(-1, -2))
        vals[start:start + len(chunk)] = np.sqrt(mu[:, -2])
    return float(vals[0]) if w.ndim == 1 else vals


def block_clusters(group, weights, roots):
    """(lam1, gap), each (m,), of the lambda_1 clusters of the points
    `weights` (m, 3) from the descending eigenvalues `roots` (m, 3) of
    their blocks M = sum_j x_j sigma_j (`fourier.rep_fourier`): the one
    place lambda_1 is read from the irreducible blocks.

    lam1 is the largest of mu_1 and every other non-trivial eigenvalue
    (mu_2, -mu_3, and the other det-pairs' values with their negatives):
    lambda_1 counted with multiplicity, bit for bit entry 1 of
    `block_spectrum`.  The gap is the isolation rule: the smaller of the
    distance from mu_1 down to those values and the distance up to the
    trivial eigenvalue sum_j x_j.  Where it exceeds `ISOLATION_TOL`,
    lambda_1 is mu_1 with multiplicity 3, and the gap is never more than
    the distance between cluster means; each caller compares the gaps
    with its own bound (`check_gaps`).  The other pairs' values are one
    padded stack (`_pair_values`), whose zeros never move the maximum:
    max(mu_2, -mu_3) >= 0, as mu_3 <= mu_2."""
    mu1 = roots[:, 0]
    eig = _pair_values(group, weights)
    top = np.where(group.det_pairs[1][1], np.maximum(eig[..., -1], -eig[..., 0]), eig[..., -1])
    below = np.maximum(np.maximum(roots[:, 1], -roots[:, 2]), top.max(axis=1))
    return np.maximum(mu1, below), np.minimum(weights.sum(axis=1) - mu1, mu1 - below)


def check_gaps(weights, gap, min_gap):
    """A one-line `DomainError` naming the first row of `weights` whose
    `block_clusters` gap is not above `min_gap`; a NaN gap fails too."""
    low = np.flatnonzero(~(gap > min_gap))
    if len(low):
        r = low[0]
        raise DomainError(
            f"lambda_1 cluster gap {gap[r]:.2g} at x = {weights[r]} is not above {min_gap:g}"
        )


def _residual_excess(res, lam, n):
    # ||P B - lambda B|| over its tolerance, NaN for a NaN residual
    return res / (RESIDUAL_TOL * math.sqrt(n) * np.maximum(1.0, np.abs(lam)))


def block_lengths(group, weights, lam, vectors):
    """The projections c_j = <n_j, v> (m, 3) of the unit eigenvectors
    `vectors` (m, 3), M v = lam v, on the simple roots, and the class
    lengths (m, 3) of their embeddings sqrt(3/|G|) (g v).

    g is orthogonal, so a class-j edge has length
    sqrt(3/|G|) |g sigma_j v - g v| = sqrt(3/|G|) 2 |c_j| at every vertex.
    The residual of the embedding B is checked in 3x3 form:
    M v = v - 2 sum_j x_j c_j n_j and ||P B - lambda B|| = sqrt(3) ||M v - lambda v||;
    a large one is an `InvarianceError` that names the worst row.
    """
    c = (group.roots @ vectors[..., None])[..., 0]
    r = (1.0 - lam)[:, None] * vectors - 2.0 * (weights * c) @ group.roots
    res = np.sqrt(3.0 * (r * r).sum(axis=1))
    excess = _residual_excess(res, lam, group.order)
    if not excess.max() <= 1.0:  # NaN fails too
        i = excess.argmax()
        raise InvarianceError(f"cluster basis residual too large at row {i}: {res[i]:.2g}")
    return c, math.sqrt(3.0 / group.order) * 2.0 * np.abs(c)


def lambda1_cluster(group, x):
    """The cluster of P_X containing the second-highest eigenvalue: mu_1
    with multiplicity 3 and the sign-fixed basis sqrt(3/|G|) (g v)
    (`path == "fourier"`).  For M v = mu_1 v, f_r(g) = (g v)_r has
    (P f_r)(g) = sum_j x_j (g sigma_j v)_r = mu_1 f_r(g), and Schur's
    relations give the scale.

    A point whose `block_clusters` gap is not above `ISOLATION_TOL`, the
    rounding bound of the block eigenvalues (a boundary point whose graph
    falls apart), is a one-line `DomainError` from `check_gaps`; its
    clusters are those of `spectrum_clusters` on the dense operator.  `x`
    is one point (`simplex_point`).
    """
    x = simplex_point(x, group.rank)
    rep = rep_fourier(x[None], group)
    _, gap = block_clusters(group, x[None], rep.roots)
    check_gaps(x[None], gap, ISOLATION_TOL)
    basis = np.sqrt(3.0 / group.order) * (group.elements @ rep.vectors[0, :, :1])[..., 0]
    return SpectralCluster(float(rep.roots[0, 0]), 3, fix_signs(basis), float(gap[0]), "fourier")


def spectral_representation(group, x, cluster):
    """Embedding of the vertices: a copy of the cluster basis B, (n, k),
    whose row i is the image of vertex i.  ||P B - lambda B||, with
    P B = sum_j x_j B[successors[:, j]] by gathers along the Cayley graph
    and no dense operator, must be small, else `InvarianceError`.  `x` is
    one point (`simplex_point`)."""
    x = simplex_point(x, group.rank)
    b, lam = cluster.basis, cluster.eigenvalue
    gathered = np.take(b, group.successors.T, axis=0).reshape(group.rank, -1)
    r = (x @ gathered).reshape(b.shape) - lam * b
    res = np.sqrt((r * r).sum())
    if not _residual_excess(res, lam, len(b)) <= 1.0:  # NaN fails too
        raise InvarianceError(f"cluster basis residual too large: {res:.2g}")
    return b.copy()


def edge_class_lengths(pts, group):
    """Per-class Euclidean edge length of the embedding `pts`, (n, k),
    the mean over the vertices; a nonzero spread within a class is an
    `InvarianceError`."""
    diff = np.take(pts, group.successors, axis=0) - pts[:, None, :]
    d = np.sqrt((diff * diff).sum(axis=-1))  # the sums of np.linalg.norm
    spread = d.max(axis=0) - d.min(axis=0)
    if not spread.max() <= EDGE_SPREAD_TOL:
        j = spread.argmax()
        raise InvarianceError(f"edge class {j} has non-constant length (spread {spread[j]:.2g})")
    return d.mean(axis=0).tolist()


def check_faithful(pts):
    """True iff all pairwise vertex images are separated by more than
    `FAITHFUL_RTOL` times the mean radius."""
    radius = float(np.linalg.norm(pts, axis=1).mean())
    tol = FAITHFUL_RTOL * max(radius, 1e-30)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return bool(d2.min() > tol**2)


def gram_invariance_check(pts, group):
    """Max deviation of <Phi(i), Phi(j)> under the left group action:
    every translation g, on `GRAM_PAIRS` seeded pairs (i, j), in one
    gather over the Cayley table."""
    rng = np.random.default_rng(0)
    gram = pts @ pts.T
    pairs_i = rng.integers(0, group.order, size=GRAM_PAIRS)
    pairs_j = rng.integers(0, group.order, size=GRAM_PAIRS)
    moved = gram[group.mult[:, pairs_i], group.mult[:, pairs_j]]  # (|G|, pairs)
    return float(np.abs(gram[pairs_i, pairs_j] - moved).max())
