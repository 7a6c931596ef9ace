"""Eigenvalue clustering and spectral representations.

A spectral representation maps each vertex to its vector of values under
an orthonormal eigenbasis of a multiplicity-k eigenvalue; for invariant
walks on vertex transitive graphs the image lies on a sphere and edges
within an equivalence class share a common Euclidean length.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CoxspecError, DomainError
from .fourier import rep_fourier
from .linalg import eigh_symmetric, fix_signs
from .randwalk import build_operator

CLUSTER_TOL = 1e-7
EDGE_SPREAD_TOL = 1e-8
# ||P B - lambda B|| allowed per unit of max(1, |lambda|) sqrt(|G|)
RESIDUAL_TOL = 1e-8
FAITHFUL_RTOL = 1e-6
GRAM_PAIRS = 50
# block_spectrum: points per stacked eigensolve, which bounds the
# temporary block matrices to about 0.1 MiB on H3
SPECTRUM_CHUNK = 64
# lambda1: points per stacked eigensolve of the bipartite half.  An H3
# point holds C and C C^T, two 60x60 arrays of 28 KiB (a stack of 100
# full 120x120 operators alone would be 11 MiB).  On the verify workload
# (2 cores, one OpenBLAS thread) 1, 4 and 16 points per chunk took the
# same time; peak RSS rose over the full single solves by 0.1-0.3 MiB at
# 4 points and by 0.5-0.6 MiB at 16
ORACLE_CHUNK = 4


class InvarianceError(CoxspecError):
    """Signals a broken eigensolver or clustering: a quantity that must
    be constant across an edge class or orbit is not."""


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: float
    multiplicity: int
    basis: np.ndarray  # (n, multiplicity), orthonormal columns
    gap: float = np.inf  # distance to the neighbouring clusters' eigenvalues
    path: str = "dense"  # "fourier" (3x3 block) or "dense" (full eigensolve)


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


def _check_stack(group, weights):
    # one weight vector (k,) or a stack (m, k) of finite weights, as floats
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != group.rank or not np.all(np.isfinite(w)):
        raise DomainError(
            f"weights must be finite, of shape ({group.rank},) or (m, {group.rank}); "
            f"got shape {w.shape}"
        )
    return w


def _pair_values(group, rows):
    """Per stack of `ReflectionGroup.det_pairs`, the ascending eigenvalues
    (m, p, d) of its blocks sum_j x_j rho(s_j) at the rows (m, k), one gemv
    per point, and its pair mask (p,): rho (x) det has the negated values."""
    for blocks, paired in group.det_pairs[1]:
        k, p, d, _ = blocks.shape
        mats = (rows[:, None, :] @ blocks.reshape(k, -1)).reshape(-1, p, d, d)
        # a 1x1 block is its own eigenvalue, bit for bit what eigvalsh returns
        yield (mats[..., 0] if d == 1 else np.linalg.eigvalsh(mats)), paired


def block_spectrum(group, weights):
    """Descending eigenvalues of P_X, counted with multiplicity, from the
    det-pairs of irreducible blocks (`ReflectionGroup.det_pairs`): the
    trivial eigenvalue sum_j x_j and its negative, the eigenvalues mu of
    M = sum_j x_j sigma_j (`fourier.rep_fourier`) and -mu, 3 times each,
    and per other pair the values of one block and their negatives, d
    times each (a self-paired block's values only).

    `weights` is one weight vector (k,) or a stack (m, k), solved in chunks
    of `SPECTRUM_CHUNK` points; the result is (|G|,) or (m, |G|), each row
    bit for bit its point alone.  Other shapes, or weights not finite,
    raise `DomainError`.
    """
    w = _check_stack(group, weights)
    rows = np.atleast_2d(w)
    vals = np.empty((len(rows), group.order))
    for start in range(0, len(rows), SPECTRUM_CHUNK):
        chunk = rows[start:start + SPECTRUM_CHUNK]
        mu, t = rep_fourier(chunk, group).roots, chunk.sum(axis=1, keepdims=True)
        parts = [t, -t] + [mu, -mu] * 3
        for eig, paired in _pair_values(group, chunk):
            d = eig.shape[-1]
            parts += [np.repeat(eig.reshape(len(chunk), -1), d, axis=1),
                      np.repeat(-eig[:, paired].reshape(len(chunk), -1), d, axis=1)]
        vals[start:start + len(chunk)] = np.concatenate(parts, axis=1)
    vals.sort(axis=1)
    vals = vals[:, ::-1]
    return vals[0] if w.ndim == 1 else vals


def _bipartite_half(group):
    """Row and columns of the edges of the even-to-odd block C of P_X: the
    row (|G|/2,) of each even element (det g = +1) and the columns
    (|G|/2, k) of its neighbours along each class.  Every generator
    reflects, so an edge joins elements of opposite det sign; one that
    does not is an `InvarianceError`."""
    even = np.linalg.det(group.elements) > 0
    succ = group.successors
    same = even[succ] == even[:, None]
    if same.any():
        i, j = np.argwhere(same)[0]
        raise InvarianceError(
            f"edge {i}-{succ[i, j]} of class {j} joins two elements of equal det sign"
        )
    half = np.empty(len(even), dtype=np.intp)  # position of each element in its half
    half[even] = np.arange(even.sum())
    half[~even] = np.arange((~even).sum())
    return half[even], half[succ[even]]


def lambda1(group, weights):
    """Second-highest eigenvalue of P_X, counted with multiplicity, from a
    dense eigensolve of the whole graph: the oracle the block spectrum is
    checked against.  `weights` is one point (k,) or a stack (m, k); the
    result is a float or (m,).

    The Cayley graph is bipartite by the sign of det g, so
    P = [[0, C], [C^T, 0]] and the eigenvalues of P are +-sigma_i(C): lambda_1
    is sqrt of entry 1 of the descending `eigvalsh(C C^T)`, with C the
    |G|/2 x |G|/2 block filled from `successors`.  No |G| x |G| array and
    no irreducible block is formed.  `ORACLE_CHUNK` points at a time, each
    solved alone, so a row of a stack is bit for bit its point alone.
    Weights of another shape, or not finite, raise `DomainError`.
    """
    w = _check_stack(group, weights)
    rows, cols = _bipartite_half(group)
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
    """(gap, given), each (m,), of the lambda_1 clusters of the points
    `weights` (m, 3) from the descending eigenvalues `roots` (m, 3) of
    their blocks M = sum_j x_j sigma_j (`fourier.rep_fourier`), by the
    isolation rule: row r is given where mu_1 exceeds every other
    non-trivial eigenvalue by more than `CLUSTER_TOL` (mu_2, -mu_3, and
    the other det-pairs' values with their negatives) and lies more than
    `CLUSTER_TOL` below the trivial eigenvalue sum_j x_j.  Then lambda_1
    is mu_1 with multiplicity 3, and its gap is the smaller of the two
    distances, never more than the distance between cluster means."""
    mu1 = roots[:, 0]
    below = np.maximum(roots[:, 1], -roots[:, 2])
    for eig, paired in _pair_values(group, weights):
        top = np.where(paired, np.abs(eig).max(axis=-1), eig[..., -1])
        below = np.maximum(below, top.max(axis=1))
    gap = np.minimum(weights.sum(axis=1) - mu1, mu1 - below)
    return gap, gap > CLUSTER_TOL


def block_cluster(group, x):
    """The lambda_1 cluster of the point x (3,) from its 3x3 block, with
    the sign-fixed basis sqrt(3/|G|) (g v), or None where `block_clusters`
    does not give it: for M v = mu_1 v, f_r(g) = (g v)_r has
    (P f_r)(g) = sum_j x_j (g sigma_j v)_r = mu_1 f_r(g), and Schur's
    relations give the scale."""
    rep = rep_fourier(x[None], group)
    gap, given = block_clusters(group, x[None], rep.roots)
    if not given[0]:
        return None
    basis = np.sqrt(3.0 / group.order) * (group.elements @ rep.vectors[0, :, :1])[..., 0]
    return SpectralCluster(float(rep.roots[0, 0]), 3, fix_signs(basis), float(gap[0]), "fourier")


def _residual_excess(res, lam, n):
    # ||P B - lambda B|| over its tolerance, NaN for a NaN residual
    return res / (RESIDUAL_TOL * np.sqrt(n) * np.maximum(1.0, np.abs(lam)))


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
    return c, np.sqrt(3.0 / group.order) * 2.0 * np.abs(c)


def _dense_lambda1_cluster(group, x):
    # the lambda_1 cluster of the dense eigensolve of P_X: the second
    # cluster where the top one is simple, else the top one
    dense = spectrum_clusters(build_operator(group, x))
    return dense[dense[0].multiplicity == 1]


def lambda1_cluster(group, x):
    """The cluster of P_X containing the second-highest eigenvalue.

    Where the 3x3 block gives it (`block_cluster`), it is mu_1 with
    multiplicity 3 and the block basis.  Elsewhere (a boundary point whose
    graph falls apart, or a degenerate block) the cluster comes from the
    dense eigensolve.
    """
    cluster = block_cluster(group, _check_stack(group, x))
    return _dense_lambda1_cluster(group, x) if cluster is None else cluster


def spectral_representation(group, x, cluster):
    """Embedding of the vertices: a copy of the cluster basis B, (n, k),
    whose row i is the image of vertex i; flagged (warning) when the
    eigenvalue is simple.  ||P B - lambda B||, with
    P B = sum_j x_j B[successors[:, j]] by gathers along the Cayley graph
    and no dense operator, must be small, else `InvarianceError`."""
    if cluster.multiplicity == 1:
        warnings.warn("multiplicity-1 cluster: embedding into R^1")
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
