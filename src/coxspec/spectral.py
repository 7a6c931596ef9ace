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
# block_class_lengths: points per stacked basis, residual and length
# pass, which bounds its temporaries to about 0.7 MiB on H3
BASIS_CHUNK = 32


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


def _is_cut(vals):
    # True between neighbours of the descending `vals` (last axis) that
    # fall into different clusters
    return vals[..., :-1] - vals[..., 1:] > CLUSTER_TOL


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
    cuts = np.flatnonzero(_is_cut(vals)) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [len(vals)]))
    _warn_ambiguous(vals[lo], vals[lo] - vals[hi - 1], hi - lo)
    means = np.add.reduceat(vals, lo) / (hi - lo)
    padded = np.concatenate(([np.inf], means, [-np.inf]))
    gaps = np.minimum(padded[:-2] - means, means - padded[2:])
    return list(zip(means.tolist(), lo.tolist(), hi.tolist(), gaps.tolist()))


def _lambda1_index(top_multiplicity):
    # the cluster of the second-highest eigenvalue counted with
    # multiplicity: the top one unless it is simple (elementwise on arrays)
    return (top_multiplicity == 1) * 1


def lambda1_clusters(vals):
    """(eigenvalue, multiplicity, gap), each (m,), of the lambda_1 cluster
    of each row of the descending spectra `vals` (m, n): the rule, warnings
    and sums of `_value_clusters` on the clusters up to the row's third cut.
    """
    m, n = vals.shape
    r = np.arange(m)[:, None]
    cut = _is_cut(vals)
    pos = np.argsort(~cut, axis=1, kind="stable")[:, :3]
    # cluster bounds: 0, the first three cuts, and n past a row's last cut,
    # where a cluster has spread 0 and its sum starts at the trailing 0
    bounds = np.zeros((m, 4), dtype=np.intp)
    bounds[:, 1:] = np.where(cut[r, pos], pos + 1, n)
    size = bounds[:, 1:] - bounds[:, :-1]
    first = vals[r, np.minimum(bounds[:, :3], n - 1)]
    _warn_ambiguous(first.ravel(), (first - vals[r, bounds[:, 1:] - 1]).ravel(), size.ravel())
    sums = np.add.reduceat(np.append(vals, 0.0), (bounds + n * r).ravel()).reshape(m, 4)
    # the means between +inf and -inf, as in `_value_clusters`
    means = np.full((m, 4), -np.inf)
    means[:, 0] = np.inf
    np.divide(sums[:, :3], size, out=means[:, 1:], where=size > 0)
    c = _lambda1_index(size[:, 0])
    above, lam, below = means[r, c[:, None] + np.arange(3)].T
    return lam, size[r[:, 0], c], np.minimum(above - lam, lam - below)


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
    dimension above 1 and chunk of `SPECTRUM_CHUNK` points.  Weights of another
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
            # a 1x1 block is its own eigenvalue, bit for bit what eigvalsh returns
            eig = mats[..., 0] if d == 1 else np.linalg.eigvalsh(mats)
            vals[start:start + len(chunk), col:col + copies * d] = eig.reshape(len(chunk), -1)
            col += copies * d
    vals.sort(axis=1)
    vals = vals[:, ::-1]
    return vals[0] if w.ndim == 1 else vals


def lambda1(p):
    """Second-highest eigenvalue of the dense operator `p`, counted with
    multiplicity, from one values-only eigensolve: the oracle the block
    spectrum is checked against."""
    return float(np.linalg.eigvalsh(check_symmetric(p))[-2])


def block_clusters(group, weights, vals):
    """The `lambda1_clusters` of a stack of points, their weights (m, 3)
    and descending spectra (m, |G|), as (eigenvalue, multiplicity, gap,
    vectors, given).  Row r is given by the 3x3 block where its cluster has
    multiplicity 3 and eigenvalue mu_1, M v = mu_1 v for the unit
    `vectors[r]` and M = sum_j x_j sigma_j (`fourier.rep_fourier`, not
    formed where no row has multiplicity 3; `vectors` is then None)."""
    lam, multiplicity, gap = lambda1_clusters(vals)
    given = multiplicity == 3
    if not given.any():
        return lam, multiplicity, gap, None, given
    rep = rep_fourier(weights, group)
    given &= np.abs(rep.roots[:, 0] - lam) <= CLUSTER_TOL
    return lam, multiplicity, gap, rep.vectors[:, :, 0], given


def block_bases(group, vectors):
    """Orthonormal bases (m, |G|, 3) of the clusters `block_clusters`
    gives: for M v = mu_1 v, f_r(g) = (g v)_r has
    (P f_r)(g) = sum_j x_j (g sigma_j v)_r = mu_1 f_r(g), and Schur's
    relations give the scale sqrt(3/|G|)."""
    return np.sqrt(3.0 / group.order) * (group.elements @ vectors[:, None, :, None])[..., 0]


def block_cluster(group, x, vals):
    """The one-point case of `block_clusters` with its sign-fixed basis,
    or None where the 3x3 block does not give the cluster."""
    lam, _, gap, vectors, given = block_clusters(group, x.weights[None], vals[None])
    if not given[0]:
        return None
    basis = fix_signs(block_bases(group, vectors)[0])
    return SpectralCluster(float(lam[0]), 3, basis, float(gap[0]), "fourier")


def block_class_lengths(graph, weights, lam, vectors, rows):
    """`_class_lengths` of the `block_bases` of the given `rows` of a
    stack, `BASIS_CHUNK` rows at a time, each basis checked by
    `_check_residuals`."""
    lengths = np.empty((len(rows), graph.n_classes))
    for start in range(0, len(rows), BASIS_CHUNK):
        chunk = rows[start:start + BASIS_CHUNK]
        bases = block_bases(graph.group, vectors[chunk])
        _check_residuals(graph, weights[chunk], bases, lam[chunk], chunk)
        lengths[start:start + len(chunk)] = _class_lengths(bases, graph, chunk)
    return lengths


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


def _check_residuals(graph, weights, bases, lam, rows):
    """Raise `InvarianceError`, naming the worst of `rows`, unless each
    basis B of the stack (m, n, k) has a small ||P B - lambda B|| for its
    weights and eigenvalue; P B = sum_j x_j B[successors[:, j]] by gathers
    along the Cayley graph, no dense operator."""
    m, n, _ = bases.shape
    gathered = np.take(bases, graph.successors.T, axis=1).reshape(m, graph.n_classes, -1)
    r = (weights[:, None, :] @ gathered).reshape(bases.shape) - lam[:, None, None] * bases
    res = np.sqrt((r * r).sum(axis=(1, 2)))
    excess = res / (1e-8 * np.maximum(1.0, np.abs(lam)) * np.sqrt(n))
    if not excess.max() <= 1.0:  # NaN fails too
        i = excess.argmax()
        raise InvarianceError(f"cluster basis residual too large at row {rows[i]}: {res[i]:.2g}")


def _class_lengths(pts, graph, rows):
    """Per-class edge lengths (m, classes) of the stack of embeddings
    (m, n, k), means over the vertices; a nonzero spread within a class
    is an `InvarianceError` naming the worst of `rows`."""
    diff = np.take(pts, graph.successors, axis=1) - pts[:, :, None, :]
    d = np.sqrt((diff * diff).sum(axis=-1))  # the sums of np.linalg.norm
    spread = d.max(axis=1) - d.min(axis=1)
    if not spread.max() <= EDGE_SPREAD_TOL:
        i, j = np.unravel_index(spread.argmax(), spread.shape)
        raise InvarianceError(
            f"edge class {j} has non-constant length at row {rows[i]} (spread {spread[i, j]:.2g})"
        )
    return d.mean(axis=1)


def spectral_representation(graph, x, cluster):
    """Embedding of the vertices: a copy of the cluster basis B, (n, k),
    whose row i is the image of vertex i, after `_check_residuals`;
    flagged (warning) when the eigenvalue is simple."""
    if cluster.multiplicity == 1:
        warnings.warn("multiplicity-1 cluster: embedding into R^1")
    b = cluster.basis
    _check_residuals(graph, x.weights[None], b[None], np.array([cluster.eigenvalue]), [0])
    return b.copy()


def edge_class_lengths(pts, graph):
    """Per-class Euclidean edge length of the embedding `pts`, (n, k)."""
    return _class_lengths(pts[None], graph, [0])[0].tolist()


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
