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
from .linalg import check_symmetric, eigh_symmetric, fix_signs
from .randwalk import build_operator

CLUSTER_TOL = 1e-7
EDGE_SPREAD_TOL = 1e-8
FAITHFUL_RTOL = 1e-6
GRAM_PAIRS = 50
# block_spectrum: points per stacked eigensolve, which bounds the
# temporary block matrices to about 0.1 MiB on H3
SPECTRUM_CHUNK = 64


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


def _cuts(vals):
    # starts of all clusters but the first in the descending `vals`
    return np.flatnonzero(vals[:-1] - vals[1:] > CLUSTER_TOL) + 1


def _value_clusters(vals):
    """Clusters of the descending eigenvalues `vals` as (eigenvalue,
    start, stop, gap) with the cluster mean as eigenvalue.

    Neighbouring eigenvalues closer than `CLUSTER_TOL` chain into one
    cluster; a cluster whose spread exceeds half the tolerance is flagged
    with a warning.
    """
    cuts = _cuts(vals)
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [len(vals)]))
    spread = vals[lo] - vals[hi - 1]
    for c in np.flatnonzero(spread > 0.5 * CLUSTER_TOL):
        warnings.warn(
            f"ambiguous eigenvalue cluster near {vals[lo[c]]:.6g} "
            f"(spread {spread[c]:.2g}); merged into one cluster of multiplicity "
            f"{hi[c] - lo[c]}"
        )
    means = np.add.reduceat(vals, lo) / (hi - lo)
    padded = np.concatenate(([np.inf], means, [-np.inf]))
    gaps = np.minimum(padded[:-2] - means, means - padded[2:])
    return list(zip(means.tolist(), lo.tolist(), hi.tolist(), gaps.tolist()))


def _lambda1_index(top_multiplicity):
    # the cluster of the second-highest eigenvalue counted with
    # multiplicity: the top one unless it is simple
    return 1 if top_multiplicity == 1 else 0


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


def block_spectrum(group, weights):
    """Descending eigenvalues of P_X, counted with multiplicity, from the
    irreducible blocks sum_j x_j rho(s_j) of `group.irreducible_blocks`.

    `weights` is one weight vector (k,) or a stack of them (m, k); the
    result is (|G|,) or (m, |G|).  One stacked `eigvalsh` per block
    dimension and chunk of `SPECTRUM_CHUNK` points.  Weights of another
    shape, or not finite, raise `DomainError`.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != group.rank or not np.all(np.isfinite(w)):
        raise DomainError(
            f"weights must be finite, of shape ({group.rank},) or (m, {group.rank}); "
            f"got shape {w.shape}"
        )
    rows = np.atleast_2d(w)
    vals = np.empty((len(rows), group.order))
    for start in range(0, len(rows), SPECTRUM_CHUNK):
        chunk = rows[start:start + SPECTRUM_CHUNK]
        col = 0
        for blocks in group.irreducible_blocks:
            k, copies, d, _ = blocks.shape
            mats = (chunk @ blocks.reshape(k, -1)).reshape(-1, copies, d, d)
            vals[start:start + len(chunk), col:col + copies * d] = (
                np.linalg.eigvalsh(mats).reshape(len(chunk), -1)
            )
            col += copies * d
    vals.sort(axis=1)
    vals = vals[:, ::-1]
    return vals[0] if w.ndim == 1 else vals


def lambda1(p):
    """Second-highest eigenvalue of the dense operator `p`, counted with
    multiplicity, from one values-only eigensolve: the oracle the block
    spectrum is checked against."""
    return float(np.linalg.eigvalsh(check_symmetric(p))[-2])


def block_cluster(group, x, vals):
    """The lambda_1 cluster read from the descending spectrum `vals` of
    P_X, with its basis from the 3x3 block, or None where that block does
    not give it.

    When the cluster has multiplicity 3 and matches the top eigenvalue
    mu_1 of M = sum_j x_j sigma_j (`fourier.rep_fourier`), its basis is
    f_r(g) = (g v)_r for the unit eigenvector M v = mu_1 v, scaled to
    orthonormal columns by Schur's relations:
    (P f_r)(g) = sum_j x_j (g sigma_j v)_r = mu_1 f_r(g).

    Only the clusters up to the third cut are formed: the top cluster,
    the lambda_1 cluster and its lower neighbour, which fixes the gap.
    """
    cuts = _cuts(vals)
    clusters = _value_clusters(vals[:cuts[2]] if len(cuts) > 2 else vals)
    # the top cluster starts at 0, so its stop is its multiplicity
    lam, lo, hi, gap = clusters[_lambda1_index(clusters[0][2])]
    if hi - lo != 3:
        return None
    rep = rep_fourier(x, group)
    if abs(rep.roots[0] - lam) > CLUSTER_TOL:
        return None
    basis = np.sqrt(3.0 / group.order) * (group.elements @ rep.vectors[:, 0])
    return SpectralCluster(lam, 3, fix_signs(basis), gap, "fourier")


def lambda1_cluster(graph, x):
    """The cluster of P_X containing the second-highest eigenvalue.

    The eigenvalues, the multiplicity and the gap come from
    `block_spectrum`, the basis from the 3x3 block (`block_cluster`).
    Elsewhere (a boundary point whose graph falls apart, or a degenerate
    block) the cluster comes from the dense eigensolve.
    """
    group = graph.group
    cluster = block_cluster(group, x, block_spectrum(group, x.weights))
    if cluster is None:
        dense = spectrum_clusters(build_operator(graph, x))
        cluster = dense[_lambda1_index(dense[0].multiplicity)]
    return cluster


def spectral_representation(graph, x, cluster):
    """Embedding of the vertices: a copy of the cluster basis B, (n, k),
    whose row i is the image of vertex i (the per-vertex eigenfunction
    evaluations), after checking ||P B - lambda B|| with
    P B = sum_j x_j B[successors[:, j]] (gathers along the Cayley graph,
    no dense operator); flagged (warning) when the eigenvalue is simple."""
    if cluster.multiplicity == 1:
        warnings.warn("multiplicity-1 cluster: embedding into R^1")
    b = cluster.basis
    k = graph.n_classes
    pb = (x.weights @ b[graph.successors.T].reshape(k, -1)).reshape(b.shape)
    res = np.linalg.norm(pb - cluster.eigenvalue * b)
    if res > 1e-8 * max(1.0, abs(cluster.eigenvalue)) * np.sqrt(b.shape[0]):
        raise InvarianceError(f"cluster basis residual too large: {res:.2g}")
    return b.copy()


def edge_class_lengths(pts, graph):
    """Per-class Euclidean edge length of the embedding `pts`; the
    within-class spread being zero is checked, not assumed."""
    d = np.linalg.norm(pts[graph.successors] - pts[:, None, :], axis=-1)  # (n, classes)
    spread = d.max(axis=0) - d.min(axis=0)
    j = int(spread.argmax())
    if spread[j] > EDGE_SPREAD_TOL:
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
