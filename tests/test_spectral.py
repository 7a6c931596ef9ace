import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxspec.coxeter import CoxeterError
from coxspec.coxmaps import eta_rho
from coxspec.fourier import rep_fourier
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import (
    _lambda1_fn,
    block_state,
    directional_derivative,
    minimize_lambda1,
    sweep_lambda1,
)
from coxspec.spectral import (
    CLUSTER_TOL,
    Embedding,
    InvarianceError,
    block_spectrum,
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


REGION_POINTS = dict(
    name=st.sampled_from(["A3", "B3", "H3"]),
    region=st.sampled_from(["interior", "side", "vertex", "x0"]),
    raw=st.tuples(*[st.floats(0.05, 1.0)] * 3),
    k=st.integers(0, 2),
)

# number of conjugacy classes, which is the number of irreducible
# representations: S4, Z2 x S4 and Z2 x A5
CLASS_COUNTS = {"A3": 5, "B3": 10, "H3": 10}


def dense_value_cluster(op):
    """(eigenvalue, multiplicity, gap, path) of the lambda_1 cluster from a
    dense `eigvalsh`, by the rule `lambda1_cluster` follows."""
    vals = np.linalg.eigvalsh(op.matrix)[::-1]
    clusters = _value_clusters(vals, CLUSTER_TOL)
    lam, lo, hi, gap = clusters[1 if clusters[0][2] == 1 else 0]
    mu1 = rep_fourier(op.point, op.graph.group).roots[0]
    path = "fourier" if hi - lo == 3 and abs(mu1 - lam) <= CLUSTER_TOL else "dense"
    return lam, hi - lo, gap, path


class TestBlockSpectrum:
    """The spectrum from the irreducible blocks against the dense
    eigensolve as oracle."""

    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_matches_dense_eigvalsh(self, groups, graphs, name, region, raw, k):
        x = region_point(groups[name], region, raw, k)
        op = build_operator(graphs[name], x)
        dense = np.linalg.eigvalsh(op.matrix)[::-1]
        vals = block_spectrum(groups[name], x.weights)
        assert vals.shape == dense.shape
        assert np.abs(vals - dense).max() <= 1e-12
        # the lambda_1 of the certificates and convexity probes
        assert abs(_lambda1_fn(graphs[name])(x.weights) - lambda1(op)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_lambda1_cluster_matches_dense_clustering(self, groups, graphs, name, region, raw, k):
        op = build_operator(graphs[name], region_point(groups[name], region, raw, k))
        cluster = lambda1_cluster(op)
        lam, multiplicity, gap, path = dense_value_cluster(op)
        assert cluster.multiplicity == multiplicity
        assert cluster.path == path
        assert abs(cluster.eigenvalue - lam) <= 1e-12
        assert abs(cluster.gap - gap) <= 1e-12

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7]])
    def test_boundary_points(self, groups, graphs, weights):
        for name, group in groups.items():
            op = build_operator(graphs[name], simplex_point(weights))
            dense = np.linalg.eigvalsh(op.matrix)[::-1]
            assert np.abs(block_spectrum(group, op.point.weights) - dense).max() <= 1e-12
            cluster = lambda1_cluster(op)
            lam, multiplicity, gap, path = dense_value_cluster(op)
            assert (cluster.multiplicity, cluster.path) == (multiplicity, path)
            assert abs(cluster.eigenvalue - lam) <= 1e-12

    def test_stack_matches_single_points(self, h3):
        rng = np.random.default_rng(12)
        stack = np.array([sample_interior(rng, 3).weights for _ in range(7)])
        vals = block_spectrum(h3, stack)
        assert vals.shape == (7, h3.order)
        for w, row in zip(stack, vals):
            assert np.abs(block_spectrum(h3, w) - row).max() <= 1e-14

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_dimensions_cover_the_group(self, groups, name):
        group = groups[name]
        blocks = group.irreducible_blocks
        dims = [b.shape[2] for b in blocks]
        copies = [b.shape[1] for b in blocks]
        assert dims == sorted(set(dims))
        assert all(b.shape == (3, c, d, d) for b, c, d in zip(blocks, copies, dims))
        assert sum(c * d for c, d in zip(copies, dims)) == group.order
        # a d-dimensional irreducible representation occurs in d copies
        assert all(c % d == 0 for c, d in zip(copies, dims))
        mult = group.mult
        inverse = np.argmin(mult, axis=1)
        conj = mult[mult, inverse[:, None]]  # conj[h, a] = h a h^-1
        classes = {frozenset(conj[:, a].tolist()) for a in range(group.order)}
        assert sum(c // d for c, d in zip(copies, dims)) == len(classes) == CLASS_COUNTS[name]

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

    def test_broken_group_raises_typed_error(self, b3):
        succ = b3.successors.copy()
        succ[:, 1] = succ[np.random.default_rng(4).permutation(b3.order), 1]
        broken = dataclasses.replace(b3, successors=succ)
        with pytest.raises(CoxeterError):
            block_spectrum(broken, uniform_point(3).weights)


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
    def test_matches_dense_differences(self, groups, graphs, name, region, raw, k):
        group, graph = groups[name], graphs[name]
        x = region_point(group, region, raw, k)
        gap = lambda1_cluster(build_operator(graph, x)).gap
        _, grad, _ = block_state(x, group)
        # a step far below the cluster gap keeps both differences on the
        # lambda_1 branch (near the boundary the gap is ~1e-7); the dense
        # eigenvalues carry a rounding error of about n eps, which the
        # difference quotient divides by h
        h = min(1e-6, gap / 1000, x.weights.min() / 2)
        tol = 1e-6 + graph.n_vertices * np.finfo(float).eps / h

        def f(w):
            return lambda1(build_operator(graph, simplex_point(w)))

        for a in range(3):
            for b in range(a + 1, 3):
                xi = np.zeros(3)
                xi[a], xi[b] = 1.0, -1.0
                d = directional_derivative(f, x.weights, xi, h=h)
                assert abs(d - (grad[a] - grad[b])) <= tol

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_optimized_lengths_are_measured(self, groups, graphs, name):
        opt = minimize_lambda1(groups[name]).optimized
        op = build_operator(graphs[name], opt.x)
        emb = spectral_representation(op, lambda1_cluster(op))
        measured = edge_class_lengths(emb, graphs[name])
        assert np.abs(np.subtract(opt.class_lengths, measured)).max() <= 1e-12
        assert opt.gradient_norm <= 1e-9
