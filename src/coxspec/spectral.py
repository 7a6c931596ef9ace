"""Eigenvalue clustering and spectral representations.

A spectral representation maps each vertex to its vector of values under
an orthonormal eigenbasis of a multiplicity-k eigenvalue; for invariant
walks on vertex transitive graphs the image lies on a sphere and edges
within an equivalence class share a common Euclidean length.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import check_symmetric, eigh_symmetric, fix_signs

CLUSTER_TOL = 1e-7


class InvarianceError(RuntimeError):
    """Signals a broken eigensolver or clustering: a quantity that must
    be constant across an edge class or orbit is not."""


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: float
    multiplicity: int
    basis: np.ndarray  # (n, multiplicity), orthonormal columns
    gap: float = np.inf  # distance to the neighbouring clusters' eigenvalues
    path: str = "dense"  # "fourier" (3x3 block) or "dense" (full eigensolve)


@dataclass(frozen=True)
class Embedding:
    """Vertex coordinates under a multiplicity-k eigenbasis (rows)."""

    points: np.ndarray  # (n, k)
    cluster: SpectralCluster

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def radius(self):
        return float(np.linalg.norm(self.points, axis=1).mean())


def _value_clusters(vals, cluster_tol):
    """Clusters of the descending eigenvalues `vals` as (eigenvalue,
    start, stop, gap) with the cluster mean as eigenvalue.

    Neighbouring eigenvalues closer than `cluster_tol` chain into one
    cluster; a cluster whose spread exceeds half the tolerance is flagged
    with a warning.
    """
    cuts = np.flatnonzero(vals[:-1] - vals[1:] > cluster_tol) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [len(vals)]))
    spread = vals[lo] - vals[hi - 1]
    for c in np.flatnonzero(spread > 0.5 * cluster_tol):
        warnings.warn(
            f"ambiguous eigenvalue cluster near {vals[lo[c]]:.6g} "
            f"(spread {spread[c]:.2g}); merged into one cluster of multiplicity "
            f"{hi[c] - lo[c]}"
        )
    means = np.add.reduceat(vals, lo) / (hi - lo)
    padded = np.concatenate(([np.inf], means, [-np.inf]))
    gaps = np.minimum(padded[:-2] - means, means - padded[2:])
    return [
        (float(m), int(a), int(b), float(g)) for m, a, b, g in zip(means, lo, hi, gaps)
    ]


def _lambda1_index(top_multiplicity):
    # the cluster of the second-highest eigenvalue counted with
    # multiplicity: the top one unless it is simple
    return 1 if top_multiplicity == 1 else 0


def spectrum_clusters(op, cluster_tol=CLUSTER_TOL):
    """Partition the spectrum of the operator into multiplicity clusters
    with oriented orthonormal bases (one dense eigensolve)."""
    vals, vecs = eigh_symmetric(op.matrix)
    return [
        SpectralCluster(
            eigenvalue=mean,
            multiplicity=hi - lo,
            basis=_orient(vecs[:, lo:hi]),
            gap=gap,
        )
        for mean, lo, hi, gap in _value_clusters(vals, cluster_tol)
    ]


def _orient(basis):
    # deterministic in-cluster orientation: QR re-orthonormalization
    # followed by the largest-magnitude-entry-positive sign rule
    q, r = np.linalg.qr(basis)
    q = q * np.sign(np.diag(r))[None, :]
    return fix_signs(q)


def lambda1(op):
    """Second-highest eigenvalue, counted with multiplicity."""
    return float(np.linalg.eigvalsh(check_symmetric(op.matrix))[-2])


def lambda1_cluster(op, cluster_tol=CLUSTER_TOL):
    """The cluster containing the second-highest eigenvalue.

    The eigenvalues come from one values-only eigensolve.  When the
    cluster has multiplicity 3 and matches the top eigenvalue mu_1 of the
    3x3 block M = sum_j x_j sigma_j, its basis is f_r(g) = (g v)_r for the
    unit eigenvector M v = mu_1 v, scaled to orthonormal columns by
    Schur's relations: (P f_r)(g) = sum_j x_j (g sigma_j v)_r = mu_1 f_r(g).
    Otherwise (a boundary point whose graph falls apart, or a degenerate
    block) the cluster comes from the dense eigensolve.
    """
    vals = np.linalg.eigvalsh(check_symmetric(op.matrix))[::-1]
    clusters = _value_clusters(vals, cluster_tol)
    # the top cluster starts at 0, so its stop is its multiplicity
    lam, lo, hi, gap = clusters[_lambda1_index(clusters[0][2])]
    if hi - lo == 3:
        group = op.graph.group
        mus, vecs = np.linalg.eigh(np.tensordot(op.point.weights, group.generators, axes=1))
        if abs(mus[-1] - lam) <= cluster_tol:
            basis = np.sqrt(3.0 / group.order) * (group.elements @ vecs[:, -1])
            return SpectralCluster(lam, 3, fix_signs(basis), gap, "fourier")
    dense = spectrum_clusters(op, cluster_tol)
    return dense[_lambda1_index(dense[0].multiplicity)]


def spectral_representation(op, cluster):
    """Rows of the returned embedding are the per-vertex eigenfunction
    evaluations; flagged (warning) when the eigenvalue is simple."""
    if cluster.multiplicity == 1:
        warnings.warn("multiplicity-1 cluster: embedding into R^1")
    n = cluster.basis.shape[0]
    res = np.linalg.norm(op.matrix @ cluster.basis - cluster.eigenvalue * cluster.basis)
    if res > 1e-8 * max(1.0, abs(cluster.eigenvalue)) * np.sqrt(n):
        raise InvarianceError(f"cluster basis residual too large: {res:.2g}")
    return Embedding(points=cluster.basis.copy(), cluster=cluster)


def edge_class_lengths(emb, graph, spread_tol=1e-8):
    """Per-class Euclidean edge length; the within-class spread being
    zero is checked, not assumed."""
    lengths = []
    for j in range(graph.n_classes):
        nb = graph.successors[:, j]
        d = np.linalg.norm(emb.points - emb.points[nb], axis=1)
        if d.max() - d.min() > spread_tol:
            raise InvarianceError(
                f"edge class {j} has non-constant length (spread {d.max() - d.min():.2g})"
            )
        lengths.append(float(d.mean()))
    return lengths


def check_faithful(emb, tol=None):
    """True iff all pairwise vertex images are separated by more than tol."""
    if tol is None:
        tol = 1e-6 * max(emb.radius, 1e-30)
    pts = emb.points
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return bool(d2.min() > tol**2)


def gram_invariance_check(emb, group, gamma_indices=None, n_pairs=50, seed=0):
    """Max deviation of <Phi(i), Phi(j)> under the left group action.

    With `gamma_indices=None` a random sample of group elements is used;
    pass `range(group.order)` for the exhaustive check.
    """
    rng = np.random.default_rng(seed)
    if gamma_indices is None:
        gamma_indices = rng.integers(0, group.order, size=12)
    gram = emb.points @ emb.points.T
    pairs_i = rng.integers(0, group.order, size=n_pairs)
    pairs_j = rng.integers(0, group.order, size=n_pairs)
    worst = 0.0
    for g in gamma_indices:
        perm = group.left_action_permutation(int(g))
        dev = np.abs(gram[pairs_i, pairs_j] - gram[perm[pairs_i], perm[pairs_j]]).max()
        worst = max(worst, float(dev))
    return worst
