import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxspec.coxmaps import eta_rho
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import sweep_lambda1
from coxspec.spectral import (
    CLUSTER_TOL,
    Embedding,
    InvarianceError,
    check_faithful,
    edge_class_lengths,
    gram_invariance_check,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    _value_clusters,
    spectrum_clusters,
)

PHI = (1 + np.sqrt(5)) / 2

CANONICAL = {
    "A3": (1 + np.sqrt(2)) / 3,
    "B3": (1 + np.sqrt(3)) / 3,
    "H3": (1 + np.sqrt(2 + PHI)) / 3,
}


def minimum_point(group):
    eta, rho = eta_rho(group.datum)
    denom = 12 + rho + 6 * eta
    return simplex_point(np.array([3 + rho + eta, 3 + 3 * eta, 6 + 2 * eta]) / denom)


class TestClusters:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_canonical_lambda1(self, graphs, name):
        op = build_operator(graphs[name], uniform_point(3))
        assert lambda1(op) == pytest.approx(CANONICAL[name], abs=1e-10)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_lambda1_multiplicity_three(self, graphs, name):
        op = build_operator(graphs[name], uniform_point(3))
        assert lambda1_cluster(op).multiplicity == 3

    def test_multiplicity_three_at_random_interior(self, graphs):
        rng = np.random.default_rng(8)
        for name, graph in graphs.items():
            for _ in range(5):
                op = build_operator(graph, sample_interior(rng, 3))
                assert lambda1_cluster(op).multiplicity == 3

    def test_clusters_cover_spectrum(self, graphs):
        op = build_operator(graphs["H3"], uniform_point(3))
        clusters = spectrum_clusters(op)
        assert sum(c.multiplicity for c in clusters) == 120
        vals = [c.eigenvalue for c in clusters]
        assert vals == sorted(vals, reverse=True)
        assert clusters[0].eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert clusters[0].multiplicity == 1

    def test_chained_values_merge_with_warning(self):
        # neighbours 0.6 tol apart chain into one cluster spanning 1.2 tol;
        # the absolute tolerance merges them rather than splitting the chain
        step = 0.6 * CLUSTER_TOL
        vals = np.array([1.0, 0.5, 0.5 - step, 0.5 - 2 * step, 0.0])
        with pytest.warns(UserWarning, match="ambiguous eigenvalue cluster.*multiplicity 3"):
            clusters = _value_clusters(vals, CLUSTER_TOL)
        assert [(lo, hi) for _, lo, hi, _ in clusters] == [(0, 1), (1, 4), (4, 5)]
        assert clusters[1][0] == pytest.approx(0.5 - step, abs=1e-15)


class TestEmbedding:
    def test_points_on_sphere(self, graphs):
        op = build_operator(graphs["H3"], uniform_point(3))
        emb = spectral_representation(op, lambda1_cluster(op))
        assert emb.dim == 3
        norms = np.linalg.norm(emb.points, axis=1)
        assert norms.max() - norms.min() <= 1e-9

    def test_faithful_at_interior(self, graphs):
        op = build_operator(graphs["H3"], uniform_point(3))
        emb = spectral_representation(op, lambda1_cluster(op))
        assert check_faithful(emb)

    def test_top_cluster_not_faithful(self, graphs):
        # the constant eigenfunction collapses all vertices to one point
        op = build_operator(graphs["A3"], uniform_point(3))
        top = spectrum_clusters(op)[0]
        with pytest.warns(UserWarning, match="multiplicity-1"):
            emb = spectral_representation(op, top)
        assert not check_faithful(emb)
        assert np.abs(emb.points - emb.points[0]).max() <= 1e-10

    def test_residual_guard(self, graphs):
        op = build_operator(graphs["A3"], uniform_point(3))
        cluster = lambda1_cluster(op)
        broken = type(cluster)(
            eigenvalue=cluster.eigenvalue + 0.1,
            multiplicity=cluster.multiplicity,
            basis=cluster.basis,
        )
        with pytest.raises(InvarianceError):
            spectral_representation(op, broken)


class TestClassLengths:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_equilateral_at_minimum(self, groups, graphs, name):
        op = build_operator(graphs[name], minimum_point(groups[name]))
        emb = spectral_representation(op, lambda1_cluster(op))
        lengths = edge_class_lengths(emb, graphs[name])
        assert max(lengths) / min(lengths) == pytest.approx(1.0, abs=1e-7)

    def test_three_distinct_lengths_at_uniform(self, graphs):
        op = build_operator(graphs["H3"], uniform_point(3))
        emb = spectral_representation(op, lambda1_cluster(op))
        lengths = sorted(edge_class_lengths(emb, graphs["H3"]))
        assert lengths[1] - lengths[0] > 1e-4
        assert lengths[2] - lengths[1] > 1e-4

    def test_tampered_embedding_detected(self, graphs):
        op = build_operator(graphs["H3"], uniform_point(3))
        emb = spectral_representation(op, lambda1_cluster(op))
        pts = emb.points.copy()
        pts[17] *= 1.5
        bad = Embedding(points=pts, cluster=emb.cluster)
        with pytest.raises(InvarianceError):
            edge_class_lengths(bad, graphs["H3"])


class TestInvariance:
    def test_gram_invariance_exhaustive(self, h3, graphs):
        rng = np.random.default_rng(9)
        op = build_operator(graphs["H3"], sample_interior(rng, 3))
        emb = spectral_representation(op, lambda1_cluster(op))
        dev = gram_invariance_check(emb, h3, gamma_indices=range(h3.order))
        assert dev <= 1e-8

    def test_gram_invariance_all_groups(self, groups, graphs):
        for name, group in groups.items():
            op = build_operator(graphs[name], uniform_point(3))
            emb = spectral_representation(op, lambda1_cluster(op))
            assert gram_invariance_check(emb, group) <= 1e-8


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
        w = minimum_point(group).weights + 1e-3 * d / max(np.abs(d).max(), 1e-9)
        w /= w.sum()
    else:
        w = raw / raw.sum()
    return simplex_point(w)


def dense_lambda1_cluster(op):
    clusters = spectrum_clusters(op)
    return clusters[1] if clusters[0].multiplicity == 1 else clusters[0]


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
    def test_matches_dense_oracle(self, groups, graphs, name, region, raw, k):
        graph = graphs[name]
        op = build_operator(graph, region_point(groups[name], region, raw, k))
        fast, dense = lambda1_cluster(op), dense_lambda1_cluster(op)
        assert fast.path == "fourier" and dense.path == "dense"
        assert fast.multiplicity == dense.multiplicity == 3
        assert abs(fast.eigenvalue - dense.eigenvalue) <= 1e-12
        assert abs(fast.gap - dense.gap) <= 1e-12
        # the block basis is exact; the dense eigenvectors carry an error of
        # about n eps / gap (Davis-Kahan), which near the boundary, where
        # the gap is ~1e-7, exceeds 1e-12
        n = graph.n_vertices
        tol = 1e-12 + n * np.finfo(float).eps / dense.gap
        b = fast.basis
        assert np.abs(b.T @ b - np.eye(3)).max() <= 1e-13
        assert np.abs(op.matrix @ b - fast.eigenvalue * b).max() <= 1e-13
        assert np.abs(b @ b.T - dense.basis @ dense.basis.T).max() <= tol
        lengths = [
            edge_class_lengths(spectral_representation(op, c), graph) for c in (fast, dense)
        ]
        assert np.abs(np.subtract(*lengths)).max() <= tol

    def test_fourier_path_on_sweep_grid(self, groups):
        for group in groups.values():
            rows = sweep_lambda1(group, 24)
            assert len(rows) == 276
            assert {row["path"] for row in rows} == {"fourier"}

    @pytest.mark.parametrize(
        "weights,components",
        [([0.5, 0.5, 0.0], 4), ([1.0, 0.0, 0.0], 2), ([0.0, 0.0, 1.0], 2)],
    )
    def test_dense_path_where_graph_falls_apart(self, graphs, weights, components):
        # generators 0 and 1 commute, so x = (1/2, 1/2, 0) leaves 4-cycles
        # and a simplex vertex a perfect matching: lambda_1 = 1 with
        # multiplicity n / (component size)
        for graph in graphs.values():
            op = build_operator(graph, simplex_point(weights))
            cluster = lambda1_cluster(op)
            assert cluster.path == "dense"
            assert cluster.multiplicity == graph.n_vertices // components
            assert cluster.eigenvalue == pytest.approx(1.0, abs=1e-12)
            spectral_representation(op, cluster)
