import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxspec import coxeter
from coxspec.coxeter import CoxeterError
from coxspec.coxmaps import eta_rho
from coxspec.errors import DomainError
from coxspec.fourier import rep_fourier
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import (
    _lambda1_fn,
    block_state,
    minimize_lambda1,
    sweep_lambda1,
)
from coxspec.spectral import (
    CLUSTER_TOL,
    SPECTRUM_CHUNK,
    InvarianceError,
    block_spectrum,
    check_faithful,
    edge_class_lengths,
    gram_invariance_check,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    _value_clusters,
    lambda1_clusters,
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


def h3_uniform_embedding(graphs):
    x = uniform_point(3)
    return spectral_representation(graphs["H3"], x, lambda1_cluster(graphs["H3"], x))


class TestClusters:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_canonical_lambda1(self, graphs, name):
        p = build_operator(graphs[name], uniform_point(3))
        assert lambda1(p) == pytest.approx(CANONICAL[name], abs=1e-10)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_lambda1_multiplicity_three(self, graphs, name):
        assert lambda1_cluster(graphs[name], uniform_point(3)).multiplicity == 3

    def test_multiplicity_three_at_random_interior(self, graphs, no_operator):
        # interior clusters and their embeddings come from the blocks alone
        rng = np.random.default_rng(8)
        for name, graph in graphs.items():
            for _ in range(5):
                x = sample_interior(rng, 3)
                cluster = lambda1_cluster(graph, x)
                assert cluster.multiplicity == 3 and cluster.path == "fourier"
                assert spectral_representation(graph, x, cluster).shape[1] == 3

    def test_clusters_cover_spectrum(self, graphs):
        clusters = spectrum_clusters(build_operator(graphs["H3"], uniform_point(3)))
        assert sum(c.multiplicity for c in clusters) == 120
        vals = [c.eigenvalue for c in clusters]
        assert vals == sorted(vals, reverse=True)
        assert clusters[0].eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert clusters[0].multiplicity == 1

    @pytest.mark.parametrize("name,weights", [("H3", [1 / 3] * 3), ("B3", [0.2, 0.3, 0.5]),
                                              ("A3", [0.5, 0.5, 0.0])])
    def test_cluster_bases_are_orthonormal_eigenbases(self, graphs, name, weights):
        p = build_operator(graphs[name], simplex_point(weights))
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
    def test_points_on_sphere(self, graphs):
        pts = h3_uniform_embedding(graphs)
        assert pts.shape[1] == 3
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() - norms.min() <= 1e-9

    def test_faithful_at_interior(self, graphs):
        pts = h3_uniform_embedding(graphs)
        assert check_faithful(pts)

    def test_top_cluster_not_faithful(self, graphs):
        # the constant eigenfunction collapses all vertices to one point
        x = uniform_point(3)
        top = spectrum_clusters(build_operator(graphs["A3"], x))[0]
        with pytest.warns(UserWarning, match="multiplicity-1"):
            pts = spectral_representation(graphs["A3"], x, top)
        assert not check_faithful(pts)
        assert np.abs(pts - pts[0]).max() <= 1e-10

    def test_residual_guard(self, graphs):
        x = uniform_point(3)
        cluster = lambda1_cluster(graphs["A3"], x)
        broken = type(cluster)(
            eigenvalue=cluster.eigenvalue + 0.1,
            multiplicity=cluster.multiplicity,
            basis=cluster.basis,
        )
        with pytest.raises(InvarianceError):
            spectral_representation(graphs["A3"], x, broken)


class TestClassLengths:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_equilateral_at_minimum(self, groups, graphs, name):
        x = minimum_point(groups[name])
        pts = spectral_representation(graphs[name], x, lambda1_cluster(graphs[name], x))
        lengths = edge_class_lengths(pts, graphs[name])
        assert max(lengths) / min(lengths) == pytest.approx(1.0, abs=1e-7)

    def test_three_distinct_lengths_at_uniform(self, graphs):
        pts = h3_uniform_embedding(graphs)
        lengths = sorted(edge_class_lengths(pts, graphs["H3"]))
        assert lengths[1] - lengths[0] > 1e-4
        assert lengths[2] - lengths[1] > 1e-4

    def test_tampered_embedding_detected(self, graphs):
        pts = h3_uniform_embedding(graphs)
        pts[17] *= 1.5
        with pytest.raises(InvarianceError):
            edge_class_lengths(pts, graphs["H3"])


class TestInvariance:
    def test_gram_invariance_exhaustive(self, h3, graphs):
        rng = np.random.default_rng(9)
        x = sample_interior(rng, 3)
        pts = spectral_representation(graphs["H3"], x, lambda1_cluster(graphs["H3"], x))
        dev = gram_invariance_check(pts, h3)
        assert dev <= 1e-8

    def test_gram_invariance_all_groups(self, groups, graphs):
        for name, group in groups.items():
            x = uniform_point(3)
            pts = spectral_representation(graphs[name], x, lambda1_cluster(graphs[name], x))
            assert gram_invariance_check(pts, group) <= 1e-8

    def test_tampered_embedding_detected(self, h3, graphs):
        pts = h3_uniform_embedding(graphs)
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
        x = region_point(groups[name], region, raw, k)
        p = build_operator(graph, x)
        fast, dense = lambda1_cluster(graph, x), dense_lambda1_cluster(p)
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
        assert np.abs(p @ b - fast.eigenvalue * b).max() <= 1e-13
        assert np.abs(b @ b.T - dense.basis @ dense.basis.T).max() <= tol
        lengths = [
            edge_class_lengths(spectral_representation(graph, x, c), graph) for c in (fast, dense)
        ]
        assert np.abs(np.subtract(*lengths)).max() <= tol

    def test_fourier_path_on_sweep_grid(self, groups):
        for group in groups.values():
            sweep = sweep_lambda1(group, 24)
            assert len(sweep) == 276
            assert set(sweep.path) == {"fourier"}

    @pytest.mark.parametrize(
        "weights,components",
        [([0.5, 0.5, 0.0], 4), ([1.0, 0.0, 0.0], 2), ([0.0, 0.0, 1.0], 2)],
    )
    def test_dense_path_where_graph_falls_apart(self, graphs, weights, components):
        # generators 0 and 1 commute, so x = (1/2, 1/2, 0) leaves 4-cycles
        # and a simplex vertex a perfect matching: lambda_1 = 1 with
        # multiplicity n / (component size)
        x = simplex_point(weights)
        for graph in graphs.values():
            cluster = lambda1_cluster(graph, x)
            assert cluster.path == "dense"
            assert cluster.multiplicity == graph.n_vertices // components
            assert cluster.eigenvalue == pytest.approx(1.0, abs=1e-12)
            spectral_representation(graph, x, cluster)


REGION_POINTS = dict(
    name=st.sampled_from(["A3", "B3", "H3"]),
    region=st.sampled_from(["interior", "side", "vertex", "x0"]),
    raw=st.tuples(*[st.floats(0.05, 1.0)] * 3),
    k=st.integers(0, 2),
)

# number of conjugacy classes, which is the number of irreducible
# representations: S4, Z2 x S4 and Z2 x A5
CLASS_COUNTS = {"A3": 5, "B3": 10, "H3": 10}


def dense_value_cluster(graph, x):
    """(eigenvalue, multiplicity, gap, path) of the lambda_1 cluster from a
    dense `eigvalsh`, by the rule `lambda1_cluster` follows."""
    vals = np.linalg.eigvalsh(build_operator(graph, x))[::-1]
    clusters = _value_clusters(vals)
    lam, lo, hi, gap = clusters[1 if clusters[0][2] == 1 else 0]
    mu1 = rep_fourier(x, graph.group).roots[0]
    path = "fourier" if hi - lo == 3 and abs(mu1 - lam) <= CLUSTER_TOL else "dense"
    return lam, hi - lo, gap, path


class TestBlockSpectrum:
    """The spectrum from the irreducible blocks against the dense
    eigensolve as oracle."""

    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_matches_dense_eigvalsh(self, groups, graphs, name, region, raw, k):
        x = region_point(groups[name], region, raw, k)
        p = build_operator(graphs[name], x)
        dense = np.linalg.eigvalsh(p)[::-1]
        vals = block_spectrum(groups[name], x)
        assert vals.shape == dense.shape
        assert np.abs(vals - dense).max() <= 1e-12
        # the lambda_1 of the certificates and convexity probes
        assert abs(_lambda1_fn(graphs[name])(x[None])[0] - lambda1(p)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @settings(max_examples=80, deadline=None)
    @given(**REGION_POINTS)
    def test_lambda1_cluster_matches_dense_clustering(self, groups, graphs, name, region, raw, k):
        x = region_point(groups[name], region, raw, k)
        cluster = lambda1_cluster(graphs[name], x)
        lam, multiplicity, gap, path = dense_value_cluster(graphs[name], x)
        assert cluster.multiplicity == multiplicity
        assert cluster.path == path
        assert abs(cluster.eigenvalue - lam) <= 1e-12
        assert abs(cluster.gap - gap) <= 1e-12

    @pytest.mark.filterwarnings("ignore:ambiguous eigenvalue cluster")
    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7]])
    def test_boundary_points(self, groups, graphs, weights):
        x = simplex_point(weights)
        for name, group in groups.items():
            dense = np.linalg.eigvalsh(build_operator(graphs[name], x))[::-1]
            assert np.abs(block_spectrum(group, x) - dense).max() <= 1e-12
            cluster = lambda1_cluster(graphs[name], x)
            lam, multiplicity, gap, path = dense_value_cluster(graphs[name], x)
            assert (cluster.multiplicity, cluster.path) == (multiplicity, path)
            assert abs(cluster.eigenvalue - lam) <= 1e-12

    def test_stack_matches_single_points(self, groups):
        rng = np.random.default_rng(12)
        stack = np.array([sample_interior(rng, 3) for _ in range(7)])
        for group in groups.values():
            vals = block_spectrum(group, stack)
            assert vals.shape == (7, group.order)
            for w, row in zip(stack, vals):
                assert np.array_equal(block_spectrum(group, w), row)

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
    def test_stacked_lambda1_matches_single_points(self, groups, graphs, name, points):
        # the points repeated to span two chunks of SPECTRUM_CHUNK rows
        group, f = groups[name], _lambda1_fn(graphs[name])
        stack = np.array([region_point(group, *point) for point in points])
        stack = np.resize(stack, (SPECTRUM_CHUNK + len(points), 3))
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
        # rho(g) for every g by breadth-first products along `successors`,
        # then sum_g chi_a(g) chi_b(g) = |G| delta_ab over all blocks
        group = groups[name]
        chars = []
        for b in group.irreducible_blocks:
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
                chars.append(np.trace(rho, axis1=1, axis2=2))
        chars = np.array(chars)
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
        with pytest.raises(DomainError, match="weights must be finite"):
            block_spectrum(h3, weights)

    def test_class_count_mismatch(self, graphs):
        # the check in block_spectrum stands in for the one in build_operator
        with pytest.raises(DomainError, match=r"shape \(3,\)"):
            lambda1_cluster(graphs["A3"], simplex_point([0.5, 0.5]))

    def test_broken_group_raises_typed_error(self, b3):
        succ = b3.successors.copy()
        succ[:, 1] = succ[np.random.default_rng(4).permutation(b3.order), 1]
        broken = dataclasses.replace(b3, successors=succ)
        with pytest.raises(CoxeterError):
            block_spectrum(broken, uniform_point(3))


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
    def test_matches_dense_differences(self, groups, graphs, name, region, raw, k):
        group, graph = groups[name], graphs[name]
        x = region_point(group, region, raw, k)
        gap = lambda1_cluster(graph, x).gap
        _, grad, _ = block_state(x, group)
        # a step far below the cluster gap keeps both differences on the
        # lambda_1 branch (near the boundary the gap is ~1e-7); the dense
        # eigenvalues carry a rounding error of about n eps, which the
        # difference quotient divides by h
        h = min(1e-6, gap / 1000, x.min() / 2)
        tol = 1e-6 + graph.n_vertices * np.finfo(float).eps / h

        def f(w):
            return lambda1(build_operator(graph, simplex_point(w)))

        for a in range(3):
            for b in range(a + 1, 3):
                xi = np.zeros(3)
                xi[a], xi[b] = 1.0, -1.0
                d = directional_derivative(f, x, xi, h=h)
                assert abs(d - (grad[a] - grad[b])) <= tol

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_optimized_lengths_are_measured(self, groups, graphs, name):
        opt = minimize_lambda1(groups[name]).optimized
        pts = spectral_representation(graphs[name], opt.x, lambda1_cluster(graphs[name], opt.x))
        measured = edge_class_lengths(pts, graphs[name])
        assert np.abs(np.subtract(opt.class_lengths, measured)).max() <= 1e-12
        assert opt.gradient_norm <= 1e-9
