"""Eigenvalue clustering and spectral representations.

A spectral representation maps each vertex to its vector of values under
an orthonormal eigenbasis of a multiplicity-k eigenvalue; for invariant
walks on vertex transitive graphs the image lies on a sphere and edges
within an equivalence class share a common Euclidean length.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import eigh_symmetric, fix_signs

CLUSTER_TOL = 1e-7


class InvarianceError(RuntimeError):
    """Signals a broken eigensolver or clustering: a quantity that must
    be constant across an edge class or orbit is not."""


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: float
    multiplicity: int
    basis: np.ndarray  # (n, multiplicity), orthonormal columns


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


def spectrum_clusters(op, cluster_tol=CLUSTER_TOL):
    """Partition the spectrum of the operator into multiplicity clusters.

    Eigenvalues closer than `cluster_tol` merge; if a within-cluster gap
    is itself close to the tolerance the finer partition is chosen and a
    warning is emitted.
    """
    vals, vecs = eigh_symmetric(op.matrix)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i - 1] - vals[i] > cluster_tol:
            block = slice(start, i)
            spread = vals[start] - vals[i - 1]
            if spread > 0.5 * cluster_tol:
                warnings.warn(
                    f"ambiguous eigenvalue cluster near {vals[start]:.6g} "
                    f"(spread {spread:.2g}); keeping the finer partition"
                )
            clusters.append(
                SpectralCluster(
                    eigenvalue=float(vals[block].mean()),
                    multiplicity=i - start,
                    basis=_orient(vecs[:, block]),
                )
            )
            start = i
    return clusters


def _orient(basis):
    # deterministic in-cluster orientation: QR re-orthonormalization
    # followed by the largest-magnitude-entry-positive sign rule
    q, r = np.linalg.qr(basis)
    q = q * np.sign(np.diag(r))[None, :]
    return fix_signs(q)


def lambda1(op):
    """Second-highest eigenvalue, counted with multiplicity."""
    vals, _ = eigh_symmetric(op.matrix)
    return float(vals[1])


def lambda1_cluster(op, cluster_tol=CLUSTER_TOL):
    """The cluster containing the second-highest eigenvalue."""
    clusters = spectrum_clusters(op, cluster_tol)
    if clusters[0].multiplicity > 1:
        return clusters[0]
    return clusters[1]


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
