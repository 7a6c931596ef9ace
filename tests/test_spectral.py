import dataclasses
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxspec
from coxspec import coxeter
from coxspec.coxeter import CoxeterError
from coxspec.coxmaps import eta_rho
from coxspec.errors import DomainError
from coxspec.fourier import rep_fourier
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import (
    _lambda1_fn,
    _lambda1_rows,
    block_state,
    minimize_lambda1,
    sweep_lambda1,
)
from coxspec.spectral import (
    CLUSTER_TOL,
    ISOLATION_TOL,
    ORACLE_CHUNK,
    InvarianceError,
    block_spectrum,
    check_faithful,
    edge_class_lengths,
    gram_invariance_check,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    _pair_values,
    _value_clusters,
    _warn_ambiguous,
    block_clusters,
    spectrum_clusters,
)

PHI = (1 + np.sqrt(5)) / 2
# the shape and finiteness rules of `check_weights` on a rank-3 group
BAD_WEIGHTS = r"weights must (have shape \(3,\) or \(m, 3\); got shape|be finite)"

CANONICAL = {
    "A3": (1 + np.sqrt(2)) / 3,
    "B3": (1 + np.sqrt(3)) / 3,
    "H3": (1 + np.sqrt(2 + PHI)) / 3,
}


def minimum_point(group):
    eta, rho = eta_rho(group.datum)
    denom = 12 + rho + 6 * eta
    return simplex_point(np.array([3 + rho + eta, 3 + 3 * eta, 6 + 2 * eta]) / denom)


def h3_uniform_embedding(h3):
    x = uniform_point(3)
    return spectral_representation(h3, x, lambda1_cluster(h3, x))


class TestClusters:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_canonical_lambda1(self, groups, name):
        assert lambda1(groups[name], uniform_point(3)) == pytest.approx(CANONICAL[name], abs=1e-10)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_lambda1_multiplicity_three(self, groups, name):
        assert lambda1_cluster(groups[name], uniform_point(3)).multiplicity == 3

    def test_multiplicity_three_at_random_interior(self, groups, no_operator):
        # interior clusters and their embeddings come from the blocks alone
        rng = np.random.default_rng(8)
        for group in groups.values():
            for _ in range(5):
                x = sample_interior(rng, 3)
                cluster = lambda1_cluster(group, x)
                assert cluster.multiplicity == 3 and cluster.path == "fourier"
                assert spectral_representation(group, x, cluster).shape[1] == 3

    def test_clusters_cover_spectrum(self, groups):
        clusters = spectrum_clusters(build_operator(groups["H3"], uniform_point(3)))
        assert sum(c.multiplicity for c in clusters) == 120
        vals = [c.eigenvalue for c in clusters]
        assert vals == sorted(vals, reverse=True)
        assert clusters[0].eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert clusters[0].multiplicity == 1

    @pytest.mark.parametrize("name,weights", [("H3", [1 / 3] * 3), ("B3", [0.2, 0.3, 0.5]),
                                              ("A3", [0.5, 0.5, 0.0])])
    def test_cluster_bases_are_orthonormal_eigenbases(self, groups, name, weights):
        p = build_operator(groups[name], simplex_point(weights))
        clusters = spectrum_clusters(p)
        for c, again in zip(clusters, spectrum_clusters(p)):
            b = c.basis
            assert b.shape == (p.shape[0], c.multiplicity)
            assert np.abs(b.T @ b - np.eye(c.multiplicity)).max() <= 1e-12
            assert np.linalg.norm(p @ b - c.eigenvalue * b) <= 1e-12
            assert np.array_equal(b, again.basis)

    def test_chained_values_merge_with_warning(self):
        # neighbours 0.6 tol apart chain into one cluster spanning 1.2 tol;
        # the absolute tolerance merges them rather than splitting the chain
        step = 0.6 * CLUSTER_TOL
        vals = np.array([1.0, 0.5, 0.5 - step, 0.5 - 2 * step, 0.0])
        with pytest.warns(UserWarning, match="ambiguous eigenvalue cluster.*multiplicity 3"):
            clusters = _value_clusters(vals)
        assert [(lo, hi) for _, lo, hi, _ in clusters] == [(0, 1), (1, 4), (4, 5)]
        assert clusters[1][0] == pytest.approx(0.5 - step, abs=1e-15)


def _is_cut(vals):
    # True between neighbours of the descending `vals` (last axis) that
    # fall into different clusters
    return vals[..., :-1] - vals[..., 1:] > CLUSTER_TOL


def _lambda1_index(top_multiplicity):
    # the cluster of the second-highest eigenvalue counted with
    # multiplicity: the top one unless it is simple (elementwise on arrays)
    return (top_multiplicity == 1) * 1


def lambda1_clusters(vals):
    """(eigenvalue, multiplicity, gap), each (m,), of the lambda_1 cluster
    of each row of the descending spectra `vals` (m, n): the rule, warnings
    and sums of `_value_clusters` on the clusters up to the row's third cut.
    The cut rule on a sorted spectrum, the oracle of the isolation rule of
    `block_clusters`."""
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


STEP = 0.6 * CLUSTER_TOL
SYNTHETIC_SPECTRA = {
    "simple top": [1.0, 0.5, 0.5, 0.5, 0.2, 0.2, 0.0, -0.3, -0.3, -0.3, -0.8, -1.0],
    "lambda1 of multiplicity 2": [1.0, 0.6, 0.6, 0.3, 0.3, 0.3, 0.1, 0.0, -0.2, -0.4, -0.9, -1.0],
    "top of multiplicity 4": [0.9, 0.9, 0.9, 0.9, 0.4, 0.1, 0.1, 0.0, -0.5, -0.5, -0.7, -1.0],
    "two cuts": [1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "one cut": [1.0] + [-1 / 11] * 11,
    "no cut": [0.25] * 12,
    "chained lambda1": [1.0, 0.5, 0.5 - STEP, 0.5 - 2 * STEP, 0.1, 0.0, -0.2, -0.2, -0.5, -0.6,
                        -0.8, -1.0],
}


class TestLambda1Clusters:
    """The stacked cut rule against `_value_clusters`, one row at a time."""

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    def test_matches_value_clusters_row_by_row(self):
        vals = np.array(list(SYNTHETIC_SPECTRA.values()))
        with pytest.warns(UserWarning) as stacked:
            lam, multiplicity, gap = lambda1_clusters(vals)
        for r, row in enumerate(vals):
            clusters = _value_clusters(row)
            mean, lo, hi, want_gap = clusters[1 if clusters[0][2] == 1 else 0]
            assert (lam[r], multiplicity[r], gap[r]) == (mean, hi - lo, want_gap)
        assert multiplicity.tolist() == [3, 2, 4, 3, 11, 12, 3]
        # only a spectrum of one cluster has no neighbour to fix the gap
        assert gap[5] == np.inf and np.all(np.isfinite(np.delete(gap, 5)))
        # the one ambiguous cluster warns once, as `_value_clusters` does
        with pytest.warns(UserWarning) as single:
            _value_clusters(vals[-1])
        assert [str(w.message) for w in stacked] == [str(w.message) for w in single]
        assert "multiplicity 3" in str(single[0].message)

    def test_one_row_is_the_stack_row(self):
        vals = np.array(list(SYNTHETIC_SPECTRA.values())[:6])
        stacked = lambda1_clusters(vals)
        for r in range(len(vals)):
            one = lambda1_clusters(vals[r:r + 1])
            assert [a[0] for a in one] == [a[r] for a in stacked]


class TestEmbedding:
    def test_points_on_sphere(self, h3):
        pts = h3_uniform_embedding(h3)
        assert pts.shape[1] == 3
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() - norms.min() <= 1e-9

    def test_faithful_at_interior(self, h3):
        pts = h3_uniform_embedding(h3)
        assert check_faithful(pts)

    def test_top_cluster_not_faithful(self, groups):
        # the constant eigenfunction collapses all vertices to one point;
        # the caller holds the multiplicity, so the embedding warns of nothing
        x = uniform_point(3)
        top = spectrum_clusters(build_operator(groups["A3"], x))[0]
        assert top.multiplicity == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = spectral_representation(groups["A3"], x, top)
        assert not check_faithful(pts)
        assert np.abs(pts - pts[0]).max() <= 1e-10

    def test_lambda1_cluster_takes_one_point(self, h3):
        # a stack is refused by `simplex_point`, before any eigensolve
        with pytest.raises(DomainError) as err:
            lambda1_cluster(h3, np.full((2, 3), 1 / 3))
        assert str(err.value) == "weights must be a 1-d array, one point; got shape (2, 3)"

    def test_residual_guard(self, groups):
        x = uniform_point(3)
        cluster = lambda1_cluster(groups["A3"], x)
        broken = type(cluster)(
            eigenvalue=cluster.eigenvalue + 0.1,
            multiplicity=cluster.multiplicity,
            basis=cluster.basis,
        )
        with pytest.raises(InvarianceError):
            spectral_representation(groups["A3"], x, broken)


class TestClassLengths:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_equilateral_at_minimum(self, groups, name):
        x = minimum_point(groups[name])
        pts = spectral_representation(groups[name], x, lambda1_cluster(groups[name], x))
        lengths = edge_class_lengths(pts, groups[name])
        assert max(lengths) / min(lengths) == pytest.approx(1.0, abs=1e-7)

    def test_three_distinct_lengths_at_uniform(self, h3):
        pts = h3_uniform_embedding(h3)
        lengths = sorted(edge_class_lengths(pts, h3))
        assert lengths[1] - lengths[0] > 1e-4
        assert lengths[2] - lengths[1] > 1e-4

    def test_tampered_embedding_detected(self, h3):
        pts = h3_uniform_embedding(h3)
        pts[17] *= 1.5
        with pytest.raises(InvarianceError):
            edge_class_lengths(pts, h3)


class TestInvariance:
    def test_gram_invariance_exhaustive(self, h3):
        rng = np.random.default_rng(9)
        x = sample_interior(rng, 3)
        pts = spectral_representation(h3, x, lambda1_cluster(h3, x))
        dev = gram_invariance_check(pts, h3)
        assert dev <= 1e-8

    def test_gram_invariance_all_groups(self, groups):
        for group in groups.values():
            x = uniform_point(3)
            pts = spectral_representation(group, x, lambda1_cluster(group, x))
            assert gram_invariance_check(pts, group) <= 1e-8

    def test_tampered_embedding_detected(self, h3):
        pts = h3_uniform_embedding(h3)
        pts[17] *= 1.5
        assert gram_invariance_check(pts, h3) > 1e-8


BOUNDARY_EPS = 1e-6


def region_point(group, region, raw, k):
    """A simplex point of the given region: the interior, BOUNDARY_EPS from
    side k (x_k = eps) or from vertex k (the other two weights eps), or
    within 1e-3 of the minimiser X0."""
    raw = np.array(raw)
    if region == "side":
        raw[k] = 0.0
        w = raw / raw.sum() * (1 - BOUNDARY_EPS)
        w[k] = BOUNDARY_EPS
    elif region == "vertex":
        w = np.full(3, BOUNDARY_EPS)
        w[k] = 1 - 2 * BOUNDARY_EPS
    elif region == "x0":
        d = raw - raw.mean()
        w = minimum_point(group) + 1e-3 * d / max(np.abs(d).max(), 1e-9)
        w /= w.sum()
    else:
        w = raw / raw.sum()
    return simplex_point(w)


def dense_lambda1_cluster(p):
    clusters = spectrum_clusters(p)
    return clusters[1] if clusters[0].multiplicity == 1 else clusters[0]


def assert_refused(group, x):
    """`lambda1_cluster` refuses x with the one-line `DomainError` of the
    isolation rule, and warns of nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^lambda_1 cluster gap \S+ at x = \[.*\] "
                                              f"is not above {ISOLATION_TOL:g}$") as err:
            lambda1_cluster(group, x)
    assert "\n" not in str(err.value)


def component_size(group, weights):
    """The size of each connected component of the graph of P_X at a point
    with one or two positive weights: the order of the subgroup that their
    generators generate."""
    a, *b = np.flatnonzero(weights)
    return 2 * int(group.datum.orders[a, b[0]]) if b else 2


FALLING_APART = [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.3, 0.7]]


class TestFourierCluster:
    """The 3x3-block cluster against the dense eigensolve as oracle."""

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["A3", "B3", "H3"]),
        region=st.sampled_from(["interior", "side", "vertex", "x0"]),
        raw=st.tuples(*[st.floats(0.05, 1.0)] * 3),
        k=st.integers(0, 2),
    )
    def test_matches_dense_oracle(self, groups, name, region, raw, k):
        group = groups[name]
        x = region_point(groups[name], region, raw, k)
        p = build_operator(group, x)
        fast, dense = lambda1_cluster(group, x), dense_lambda1_cluster(p)
        assert fast.path == "fourier" and dense.path == "dense"
        assert fast.multiplicity == dense.multiplicity == 3
        assert abs(fast.eigenvalue - dense.eigenvalue) <= 1e-12
        assert abs(fast.gap - dense.gap) <= 1e-12
        # the block basis is exact; the dense eigenvectors carry an error of
        # about n eps / gap (Davis-Kahan), which near the boundary, where
        # the gap is ~1e-7, exceeds 1e-12
        n = group.order
        tol = 1e-12 + n * np.finfo(float).eps / dense.gap
        b = fast.basis
        assert np.abs(b.T @ b - np.eye(3)).max() <= 1e-13
        assert np.abs(p @ b - fast.eigenvalue * b).max() <= 1e-13
        assert np.abs(b @ b.T - dense.basis @ dense.basis.T).max() <= tol
        lengths = [
            edge_class_lengths(spectral_representation(group, x, c), group) for c in (fast, dense)
        ]
        assert np.abs(np.subtract(*lengths)).max() <= tol

    def test_fourier_path_on_sweep_grid(self, groups):
        # every sweep row is the lambda_1 cluster the 3x3 block gives
        for group in groups.values():
            sweep = sweep_lambda1(group, 24)
            assert len(sweep) == 276
            for w, lam in zip(sweep.weights, sweep.lambda1):
                cluster = lambda1_cluster(group, w)
                assert (cluster.path, cluster.eigenvalue) == ("fourier", lam)

    @pytest.mark.parametrize(
        "weights,size",
        [([0.5, 0.5, 0.0], 4), ([1.0, 0.0, 0.0], 2), ([0.0, 0.0, 1.0], 2)],
    )
    def test_dense_path_where_graph_falls_apart(self, groups, weights, size):
        # generators 0 and 1 commute, so x = (1/2, 1/2, 0) leaves 4-cycles
        # and a simplex vertex a perfect matching: lambda_1 = 1 with
        # multiplicity n / (component size).  `lambda1_cluster` refuses the
        # point; the public dense path still gives that cluster
        x = simplex_point(weights)
        for group in groups.values():
            assert_refused(group, x)
            cluster = spectrum_clusters(build_operator(group, x))[0]
            assert cluster.path == "dense"
            assert cluster.multiplicity == group.order // size
            assert cluster.eigenvalue == pytest.approx(1.0, abs=1e-12)
            spectral_representation(group, x, cluster)

    @pytest.mark.parametrize("eps", [5e-7, 2e-7, 1e-7])
    def test_fourier_near_the_h3_corner(self, h3, eps):
        # interior points whose isolation gap (5.6e-8, 2.3e-8, 1.1e-8) is
        # below CLUSTER_TOL but far above ISOLATION_TOL: the block cluster,
        # with no warning (the dense clusters chain into multiplicity 4, 30
        # or 60 there)
        x = simplex_point([1 - 2 * eps, eps, eps])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cluster = lambda1_cluster(h3, x)
        assert (cluster.path, cluster.multiplicity) == ("fourier", 3)
        assert ISOLATION_TOL < cluster.gap <= CLUSTER_TOL
        assert abs(cluster.eigenvalue - lambda1(h3, x)) <= 1e-13

    def test_builds_no_operator(self, groups, no_operator):
        # interior points give the block cluster, boundary points the
        # one-line refusal, and neither builds the dense operator
        rng = np.random.default_rng(27)
        for group in groups.values():
            for x in sample_interior(rng, 3, rows=4):
                assert lambda1_cluster(group, x).path == "fourier"
            for weights in FALLING_APART:
                assert_refused(group, simplex_point(weights))


NEAR_EPS = [1e-6, 1e-7, 1e-8, 1e-9, 1e-10]


def near_boundary_points(rng):
    """Seeded interior points near every side and vertex of the simplex, at
    each smallest weight eps of `NEAR_EPS`: two per side k (x_k = eps) and
    two per vertex k (the other weights eps and eps u, u = 1 and u drawn
    from [1, 10]), as one stack."""
    points = []
    for eps in NEAR_EPS:
        for k in range(3):
            i, j = [a for a in range(3) if a != k]
            for t in rng.uniform(0.05, 0.95, 2):
                w = np.empty(3)
                w[k], w[i], w[j] = eps, (1 - eps) * t, (1 - eps) * (1 - t)
                points.append(w)
            for u in (1.0, rng.uniform(1.0, 10.0)):
                w = np.empty(3)
                w[i], w[j], w[k] = eps, eps * u, 1 - eps - eps * u
                points.append(w)
    return np.array([simplex_point(w) for w in points])


def unpadded_pair_values(group, rows):
    """The ascending eigenvalues (m, d) of each other pair's block
    sum_j x_j rho(s_j), solved at its own dimension, one list entry per
    pair of `det_pairs`: the reference of the padded stack."""
    return [
        np.linalg.eigvalsh(np.einsum("mj,jab->mab", rows, group.irreducible_blocks[i][:, a]))
        for i, a, _ in group.det_pairs[0][2:]
    ]


class TestIsolationTol:
    """`lambda1_cluster` by the rounding bound `ISOLATION_TOL`, near every
    side and vertex, where the isolation gap shrinks linearly with the
    smallest weight, against the dense oracle; and the padded stack of the
    other blocks at those smallest gaps."""

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_fourier_near_the_boundary(self, groups, name):
        group = groups[name]
        points = near_boundary_points(np.random.default_rng(28))
        dense = lambda1(group, points)
        n = group.order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, lam in zip(points, dense):
                cluster = lambda1_cluster(group, x)
                assert (cluster.path, cluster.multiplicity) == ("fourier", 3)
                assert cluster.gap > ISOLATION_TOL
                assert abs(cluster.eigenvalue - lam) <= 1e-13
                # the dense spectrum separates the triple too, and the block
                # basis spans its eigenspace, to Davis-Kahan's n eps / gap
                vals, vecs = np.linalg.eigh(build_operator(group, x))
                vals, vecs = vals[::-1], vecs[:, ::-1]
                dense_gap = min(vals[0] - vals[1], vals[3] - vals[4])
                assert dense_gap > ISOLATION_TOL
                b, d = cluster.basis, vecs[:, 1:4]
                tol = 1e-12 + n * np.finfo(float).eps / dense_gap
                assert np.abs(b @ b.T - d @ d.T).max() <= tol

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_padded_stack_at_the_smallest_gaps(self, groups, name):
        group = groups[name]
        points = near_boundary_points(np.random.default_rng(28))
        _, paired, dims = group.det_pairs[1]
        padded = _pair_values(group, points)
        mu = rep_fourier(points, group).roots
        below = np.maximum(mu[:, 1], -mu[:, 2])
        for r, own in enumerate(unpadded_pair_values(group, points)):
            # each block's values by falling |value|: its own solve to
            # rounding, then D - d exact zeros
            by_size = np.take_along_axis(padded[:, r], np.argsort(-np.abs(padded[:, r]), axis=1),
                                         axis=1)
            assert not by_size[:, dims[r]:].any()
            assert np.abs(np.sort(by_size[:, :dims[r]], axis=1) - own).max() <= 1e-14
            top = np.maximum(own[:, -1], -own[:, 0]) if paired[r] else own[:, -1]
            below = np.maximum(below, top)
        lam1, gap = block_clusters(group, points, mu)
        reference = np.minimum(points.sum(axis=1) - mu[:, 0], mu[:, 0] - below)
        assert np.abs(gap - reference).max() <= 1e-15
        assert np.array_equal(lam1, block_spectrum(group, points)[:, 1])


REGION_POINTS = dict(
    name=st.sampled_from(["A3", "B3", "H3"]),
    region=st.sampled_from(["interior", "side", "vertex", "x0"]),
    raw=st.tuples(*[st.floats(0.05, 1.0)] * 3),
    k=st.integers(0, 2),
)

# number of conjugacy classes, which is the number of irreducible
# representations: S4, Z2 x S4 and Z2 x A5
CLASS_COUNTS = {"A3": 5, "B3": 10, "H3": 10}


def dense_value_cluster(group, x):
    """(eigenvalue, multiplicity, gap, path) of the lambda_1 cluster from a
    dense `eigvalsh` by the cut rule of `_value_clusters`; path "fourier"
    where it is the triple of mu_1."""
    vals = np.linalg.eigvalsh(build_operator(group, x))[::-1]
    clusters = _value_clusters(vals)
    lam, lo, hi, gap = clusters[1 if clusters[0][2] == 1 else 0]
    mu1 = rep_fourier(x, group).roots[0]
    path = "fourier" if hi - lo == 3 and abs(mu1 - lam) <= CLUSTER_TOL else "dense"
    return lam, hi - lo, gap, path


class TestLambda1Oracle:
    """The lambda_1 oracle on the bipartite half C of the operator against
    the full `eigvalsh` of the |G|x|G| operator."""

    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_matches_full_eigvalsh(self, groups, name, region, raw, k):
        x = region_point(groups[name], region, raw, k)
        full = np.linalg.eigvalsh(build_operator(groups[name], x))[-2]
        assert abs(lambda1(groups[name], x) - full) <= 1e-14

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7]])
    def test_boundary_points(self, groups, weights):
        # where the graph falls apart and lambda_1 = 1 is multiple
        x = simplex_point(weights)
        for group in groups.values():
            full = np.linalg.eigvalsh(build_operator(group, x))[-2]
            assert abs(lambda1(group, x) - full) <= 1e-14

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stack_rows_match_single_points(self, groups, name):
        # interior, side, vertex and near-X0 points; stacks of one chunk,
        # of one point and of one point past a chunk
        group = groups[name]
        rng = np.random.default_rng(24)
        points = [
            region_point(group, region, rng.uniform(0.05, 1.0, 3), k)
            for region in ("interior", "side", "vertex", "x0")
            for k in range(3)
        ]
        for m in (1, ORACLE_CHUNK, ORACLE_CHUNK + 1):
            stack = np.array(points[-m:])
            vals = lambda1(group, stack)
            assert isinstance(vals, np.ndarray) and vals.shape == (m,)
            for w, val in zip(stack, vals):
                one = lambda1(group, w)
                assert isinstance(one, float) and one == val

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_edge_within_one_half_is_rejected(self, groups, name):
        # the identity is even, and so is s_0 s_1: an edge between them
        # breaks the bipartition by det sign
        group = groups[name]
        succ = np.array(group.successors)
        succ[0, 0] = succ[succ[0, 0], 1]
        tampered = dataclasses.replace(group, successors=succ)
        with pytest.raises(InvarianceError, match=f"edge 0-{succ[0, 0]} of class 0 joins"):
            lambda1(tampered, uniform_point(3))

    def test_parity_table_once_per_group(self, groups, monkeypatch):
        # the bipartite half is a read-only property of the group: a second
        # lambda1 takes no det of the elements
        group = dataclasses.replace(groups["B3"])
        first = lambda1(group, uniform_point(3))
        rows, cols = group.bipartite_half
        assert not rows.flags.writeable and not cols.flags.writeable

        def no_det(a):
            raise AssertionError("det taken again")

        monkeypatch.setattr(np.linalg, "det", no_det)
        assert lambda1(group, uniform_point(3)) == first
        assert group.bipartite_half[0] is rows

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.5], np.full((2, 2, 3), 1 / 3), [np.nan, 0.5, 0.5], [np.inf, 0, 0]]
    )
    def test_rejects_bad_weights(self, groups, weights):
        with pytest.raises(DomainError, match=BAD_WEIGHTS):
            lambda1(groups["A3"], weights)


class TestBlockSpectrum:
    """The spectrum from the irreducible blocks against the dense
    eigensolve as oracle."""

    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_matches_dense_eigvalsh(self, groups, name, region, raw, k):
        x = region_point(groups[name], region, raw, k)
        p = build_operator(groups[name], x)
        dense = np.linalg.eigvalsh(p)[::-1]
        vals = block_spectrum(groups[name], x)
        assert vals.shape == dense.shape
        assert np.abs(vals - dense).max() <= 1e-12
        # the lambda_1 of the certificates and convexity probes
        assert abs(_lambda1_fn(groups[name])(x[None])[0] - lambda1(groups[name], x)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_lambda1_cluster_matches_dense_clustering(self, groups, name, region, raw, k):
        # every region point has weights of at least 1e-6, where the dense
        # clusters and the isolation rule both give mu_1's triple
        x = region_point(groups[name], region, raw, k)
        cluster = lambda1_cluster(groups[name], x)
        lam, multiplicity, gap, path = dense_value_cluster(groups[name], x)
        assert (cluster.multiplicity, cluster.path) == (multiplicity, path) == (3, "fourier")
        assert abs(cluster.eigenvalue - lam) <= 1e-12
        assert abs(cluster.gap - gap) <= 1e-12

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7]])
    def test_boundary_points(self, groups, weights):
        # the spectrum still matches; lambda_1's cluster is refused by
        # `lambda1_cluster` and given by the public dense path
        x = simplex_point(weights)
        for group in groups.values():
            dense = np.linalg.eigvalsh(build_operator(group, x))[::-1]
            assert np.abs(block_spectrum(group, x) - dense).max() <= 1e-12
            assert_refused(group, x)
            top = spectrum_clusters(build_operator(group, x))[0]
            lam, multiplicity, gap, path = dense_value_cluster(group, x)
            assert (top.multiplicity, path) == (multiplicity, "dense")
            assert multiplicity == group.order // component_size(group, weights)
            assert abs(top.eigenvalue - lam) <= 1e-12

    @pytest.mark.bit_equal
    def test_stack_matches_single_points(self, groups):
        rng = np.random.default_rng(12)
        stack = np.array([sample_interior(rng, 3) for _ in range(7)])
        for group in groups.values():
            vals = block_spectrum(group, stack)
            assert vals.shape == (7, group.order)
            for w, row in zip(stack, vals):
                assert np.array_equal(block_spectrum(group, w), row)

    @pytest.mark.bit_equal
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["A3", "B3", "H3"]),
        points=st.lists(
            st.tuples(
                st.sampled_from(["interior", "side", "vertex", "x0"]),
                st.tuples(*[st.floats(0.05, 1.0)] * 3),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_stacked_lambda1_matches_single_points(self, groups, name, points):
        # the points alone and repeated to 100 rows, against each point
        # alone and entry 1 of its sorted block spectrum
        group = groups[name]
        f = _lambda1_fn(group)
        points = np.array([region_point(group, *point) for point in points])
        for stack in (points, np.resize(points, (100, 3))):
            vals = f(stack)
            assert vals.shape == (len(stack),)
            for w, val in zip(stack, vals):
                assert val == f(w[None])[0] == block_spectrum(group, w)[1]

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_dimensions_cover_the_group(self, groups, name):
        # one block per irreducible representation: sum irreps d^2 = |G|,
        # and there are as many representations as conjugacy classes
        group = groups[name]
        blocks = group.irreducible_blocks
        dims = [b.shape[2] for b in blocks]
        irreps = [b.shape[1] for b in blocks]
        assert dims == sorted(set(dims))
        assert all(b.shape == (3, r, d, d) for b, r, d in zip(blocks, irreps, dims))
        assert sum(r * d * d for r, d in zip(irreps, dims)) == group.order
        mult = group.mult
        inverse = np.argmin(mult, axis=1)
        conj = mult[mult, inverse[:, None]]  # conj[h, a] = h a h^-1
        classes = {frozenset(conj[:, a].tolist()) for a in range(group.order)}
        assert sum(irreps) == len(classes) == CLASS_COUNTS[name]

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_character_orthogonality(self, groups, name):
        # sum_g chi_a(g) chi_b(g) = |G| delta_ab over all blocks
        group = groups[name]
        chars = np.array(list(block_characters(group).values()))
        gram = chars @ chars.T
        assert np.abs(gram - group.order * np.eye(len(chars))).max() <= 1e-10

    def test_spectrum_repeats_each_block_value(self, h3):
        # at generic points each eigenvalue of a d-dimensional block occurs
        # exactly d times, bit for bit: d values of each of the block's
        # irreducible representations are repeated d times
        want = {b.shape[2]: b.shape[1] * b.shape[2] for b in h3.irreducible_blocks}
        rng = np.random.default_rng(23)
        for _ in range(5):
            _, repeats = np.unique(block_spectrum(h3, sample_interior(rng, 3)),
                                   return_counts=True)
            assert dict(zip(*np.unique(repeats, return_counts=True))) == want

    def test_character_tolerance_zero_raises(self, h3, monkeypatch):
        # no two copies of a representation have bit-equal characters, so a
        # zero tolerance leaves every copy in a class of its own
        monkeypatch.setattr(coxeter, "BLOCK_CHARACTER_TOL", 0.0)
        fresh = dataclasses.replace(h3)
        vars(fresh)["mult"] = h3.mult
        with pytest.raises(CoxeterError, match=r"dimension 3 occur in \[1, 1, 1, 1"):
            fresh.irreducible_blocks

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_blocks_represent_the_generators(self, groups, name):
        # each rho(s_j) is a symmetric involution, and the pair products
        # have the Coxeter orders
        group = groups[name]
        orders = group.datum.orders
        for b in group.irreducible_blocks:
            eye = np.eye(b.shape[2])
            assert np.array_equal(b, b.transpose(0, 1, 3, 2))
            assert np.abs(b @ b - eye).max() <= 1e-12
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                prod = np.linalg.matrix_power(b[i] @ b[j], int(orders[i, j]))
                assert np.abs(prod - eye).max() <= 1e-12

    def test_non_invariant_eigenspace_raises(self, h3):
        # the true table keeps the left operator's eigenspaces, but a
        # permuted generator column no longer maps them into themselves
        succ = h3.successors.copy()
        succ[:, 2] = succ[np.random.default_rng(3).permutation(h3.order), 2]
        broken = dataclasses.replace(h3, successors=succ)
        vars(broken)["mult"] = h3.mult
        with pytest.raises(CoxeterError, match="not invariant"):
            broken.irreducible_blocks

    @pytest.mark.parametrize(
        "weights",
        [[0.5, 0.5], [[0.2, 0.8]], [[[1 / 3] * 3]], [np.nan, 0.5, 0.5], [[0.2, 0.3, np.inf]]],
    )
    def test_rejects_bad_weights(self, h3, weights):
        with pytest.raises(DomainError, match=BAD_WEIGHTS):
            block_spectrum(h3, weights)

    def test_class_count_mismatch(self, groups):
        # a point of two classes on a rank-3 group: refused by the shape
        # test of `check_weights`, which `simplex_point` applies with the rank
        with pytest.raises(DomainError, match=r"shape \(3,\)"):
            lambda1_cluster(groups["A3"], simplex_point([0.5, 0.5]))

    def test_broken_group_raises_typed_error(self, b3):
        succ = b3.successors.copy()
        succ[:, 1] = succ[np.random.default_rng(4).permutation(b3.order), 1]
        broken = dataclasses.replace(b3, successors=succ)
        with pytest.raises(CoxeterError):
            block_spectrum(broken, uniform_point(3))


def block_characters(group):
    """{(i, c): chi (|G|,)} of every block of `irreducible_blocks`, with
    rho(g) for every g by breadth-first products along `successors`."""
    chars = {}
    for i, b in enumerate(group.irreducible_blocks):
        for c in range(b.shape[1]):
            rho = np.full((group.order, b.shape[2], b.shape[2]), np.nan)
            rho[0] = np.eye(b.shape[2])
            order = [0]
            for prev in order:
                for j, nxt in enumerate(group.successors[prev]):
                    if np.isnan(rho[nxt, 0, 0]):
                        rho[nxt] = rho[prev] @ b[j, c]
                        order.append(nxt)
            assert len(order) == group.order
            chars[i, c] = np.trace(rho, axis1=1, axis2=2)
    return chars


def without_representation(group, which):
    """A fresh copy of `group` whose representations lack the first
    representation of pair `which` of `det_pairs`."""
    blocks, chars, classes = group._representations
    i, a, _ = group.det_pairs[0][which]
    keep = np.arange(blocks[i].shape[1]) != a
    fresh = dataclasses.replace(group)
    vars(fresh)["_representations"] = (
        blocks[:i] + (blocks[i][:, keep],) + blocks[i + 1:],
        chars[:i] + [chars[i][keep]] + chars[i + 1:],
        classes,
    )
    return fresh


class TestDetPairs:
    """The pairs rho, rho (x) det of `ReflectionGroup.det_pairs` against
    characters taken on every element from the blocks themselves."""

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_pairs_cover_every_block_once(self, groups, name):
        group = groups[name]
        blocks = group.irreducible_blocks
        pairs, (stack, paired, dims) = group.det_pairs
        members = [(i, c) for i, a, b in pairs for c in sorted({a, b})]
        assert sorted(members) == [(i, c) for i, b in enumerate(blocks) for c in range(b.shape[1])]
        assert sum(blocks[i].shape[2] ** 2 for i, _ in members) == group.order
        # the stack: the first block of every pair after the geometric and
        # trivial ones, once each in pair order, zero-padded to the largest
        # dimension; read-only
        rest = pairs[2:]
        size = max(blocks[i].shape[2] for i, _, _ in rest)
        assert stack.shape == (group.rank, len(rest), size, size)
        assert dims.tolist() == [blocks[i].shape[2] for i, _, _ in rest]
        assert paired.tolist() == [a != b for _, a, b in rest]
        for r, (i, a, _) in enumerate(rest):
            d = dims[r]
            assert np.array_equal(stack[:, r, :d, :d], blocks[i][:, a])
            assert not stack[:, r, d:].any() and not stack[:, r, :, d:].any()
        for arr in (stack, paired, dims):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_padding_values_are_zero(self, groups, name):
        # a block of dimension d < D has D - d exact zeros among its padded
        # values at seeded interior, side, vertex and boundary points (A3's
        # one other block has no padding)
        group = groups[name]
        rng = np.random.default_rng(29)
        points = np.vstack([
            region_point(group, region, rng.uniform(0.05, 1.0, 3), k)
            for region in ("interior", "side", "vertex") for k in range(3) for _ in range(10)
        ] + FALLING_APART)
        padded = _pair_values(group, points)
        for r, d in enumerate(group.det_pairs[1][2]):
            smallest = np.sort(np.abs(padded[:, r]), axis=1)[:, :padded.shape[-1] - d]
            assert not smallest.any()

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_characters_of_the_pairs(self, groups, name):
        group = groups[name]
        chars = block_characters(group)
        det = np.linalg.det(group.elements)
        (gi, ga, _), (ti, ta, _) = group.det_pairs[0][:2]
        assert np.abs(chars[gi, ga] - np.trace(group.elements, axis1=1, axis2=2)).max() <= 1e-10
        assert np.abs(chars[ti, ta] - 1.0).max() <= 1e-10
        for i, a, b in group.det_pairs[0]:
            assert np.abs(chars[i, b] - det * chars[i, a]).max() <= 1e-10

    @pytest.mark.parametrize("name,count", [("A3", 1), ("B3", 0), ("H3", 0)])
    def test_self_paired(self, groups, name, count):
        # A3's 2-dimensional representation is the only self-paired one
        pairs = groups[name].det_pairs[0]
        selfpaired = [(i, a) for i, a, b in pairs if a == b]
        assert len(selfpaired) == count
        assert all(groups[name].irreducible_blocks[i].shape[2] == 2 for i, _ in selfpaired)

    @pytest.mark.parametrize("which,message", [(0, "geometric"), (1, "trivial"), (2, "det g chi")])
    def test_missing_representation_raises(self, h3, which, message):
        with pytest.raises(CoxeterError, match=f"lack a {message} character"):
            without_representation(h3, which).det_pairs

    def test_missing_geometric_raises_without_asserts(self):
        script = (
            "import sys; sys.path.insert(0, 'tests'); "
            "from coxspec import build_group; from coxspec.coxeter import CoxeterError; "
            "from test_spectral import without_representation\n"
            "try:\n"
            "    without_representation(build_group('A3'), 0).det_pairs\n"
            "except CoxeterError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(coxspec.__file__))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, capture_output=True,
                             env=dict(os.environ, PYTHONPATH=src), text=True, check=True).stdout
        assert "lack a geometric character" in out


def rule_points(group):
    """The grid-24 sweep points, seeded interior, side, vertex and near-X0
    points, and three boundary points where the graph falls apart (no
    isolated mu_1 there), as one stack."""
    rng = np.random.default_rng(26)
    seeded = [
        region_point(group, region, rng.uniform(0.05, 1.0, 3), k)
        for region in ("interior", "side", "vertex", "x0")
        for k in range(3)
        for _ in range(5)
    ]
    boundary = [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7]]
    return np.vstack((sweep_lambda1(group, 24).weights, seeded, boundary))


class TestIsolationRule:
    """`block_clusters` against the cut rule of `lambda1_clusters` on the
    sorted `block_spectrum`, the oracle."""

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_matches_cut_rule(self, groups, name):
        group = groups[name]
        w = rule_points(group)
        rep = rep_fourier(w, group)
        roots = rep.roots
        lam1, gap = block_clusters(group, w, roots)
        given = gap > CLUSTER_TOL
        vals = block_spectrum(group, w)
        # lambda_1 counted with multiplicity, at every point
        assert np.array_equal(lam1, vals[:, 1])
        lam, multiplicity, cut_gap = lambda1_clusters(vals)
        assert np.array_equal(given, (multiplicity == 3) & (np.abs(roots[:, 0] - lam) <= CLUSTER_TOL))
        # off the rule: exactly the points where the graph falls apart
        off = np.flatnonzero(~given)
        assert off.tolist() == list(range(len(w) - 3, len(w)))
        # the rows, the certificates and `lambda1_cluster` refuse a row the
        # block does not give, naming the first one; the public dense path
        # gives its cluster, of multiplicity |G| / (component size)
        with pytest.raises(DomainError, match="is not above 1e-07") as err:
            _lambda1_rows(group, w, roots, rep.vectors, CLUSTER_TOL)
        assert f"at x = {w[off[0]]} " in str(err.value)
        for r in off:
            assert_refused(group, w[r])
            top = spectrum_clusters(build_operator(group, w[r]))[0]
            assert top.multiplicity == multiplicity[r] == group.order // component_size(group, w[r])
        # mu_1 against the mean of its three copies: one rounding apart
        assert np.all(gap[given] <= cut_gap[given] + 4 * np.finfo(float).eps)
        # where the clusters around lambda_1 are single block values, the
        # gaps agree: the trivial value above, one repeated value below
        r = np.arange(len(w))
        last = 4 + np.argmax(_is_cut(vals)[:, 4:], axis=1)
        single = given & (vals[r, 4] == vals[r, last])
        assert single.sum() >= 276
        assert np.abs(gap - cut_gap)[single].max() <= 1e-12

    def test_cut_rule_is_only_an_oracle(self):
        for path in pathlib.Path(coxspec.__file__).parent.glob("*.py"):
            assert "lambda1_clusters" not in path.read_text()


def directional_derivative(f, weights, xi, h):
    return (f(weights + h * xi) - f(weights - h * xi)) / (2 * h)


class TestBlockGradient:
    """The Hellmann-Feynman gradient of mu_1 against central differences
    of the dense lambda_1 as oracle."""

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["A3", "B3", "H3"]),
        region=st.sampled_from(["interior", "side", "vertex", "x0"]),
        raw=st.tuples(*[st.floats(0.05, 1.0)] * 3),
        k=st.integers(0, 2),
    )
    def test_matches_dense_differences(self, groups, name, region, raw, k):
        group = groups[name]
        x = region_point(group, region, raw, k)
        gap = lambda1_cluster(group, x).gap
        _, grad, _ = block_state(x, group)
        # a step far below the cluster gap keeps both differences on the
        # lambda_1 branch (near the boundary the gap is ~1e-7); the dense
        # eigenvalues carry a rounding error of about n eps, which the
        # difference quotient divides by h
        h = min(1e-6, gap / 1000, x.min() / 2)
        tol = 1e-6 + group.order * np.finfo(float).eps / h

        def f(w):
            return lambda1(group, simplex_point(w))

        for a in range(3):
            for b in range(a + 1, 3):
                xi = np.zeros(3)
                xi[a], xi[b] = 1.0, -1.0
                d = directional_derivative(f, x, xi, h=h)
                assert abs(d - (grad[a] - grad[b])) <= tol

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_optimized_lengths_are_measured(self, groups, name):
        opt = minimize_lambda1(groups[name]).optimized
        pts = spectral_representation(groups[name], opt.x, lambda1_cluster(groups[name], opt.x))
        measured = edge_class_lengths(pts, groups[name])
        assert np.abs(np.subtract(opt.class_lengths, measured)).max() <= 1e-12
        assert opt.gradient_norm <= 1e-9
