import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxspec.coxmaps import fundamental_point, psi_maps
from coxspec.linalg import eigh_symmetric
from coxspec.randwalk import (
    SimplexError,
    build_operator,
    check_weights,
    project_to_simplex,
    sample_interior,
    simplex_point,
    uniform_point,
)
from coxspec.solids import closed_form_minimum, curve_point, minimize_lambda1
from coxspec.spectral import lambda1


class TestSimplexPoint:
    def test_constraint_enforced(self):
        with pytest.raises(SimplexError):
            simplex_point([0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SimplexError, match="finite"):
            simplex_point([bad, 0.5, 0.5])

    @pytest.mark.parametrize(
        "row,rule", [([np.inf, -np.inf, 1.0], "must be finite"), ([1.2, -0.2, 0.0], "outside"),
                     ([0.5, 0.5, 0.5], "do not sum to 1")],
    )
    def test_stack_names_the_first_bad_row(self, row, rule):
        stack = np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], row, row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimplexError, match=f"{rule}.* at row 2"):
                check_weights(stack)
            with pytest.raises(SimplexError, match=rule):
                simplex_point(row)
        assert check_weights(stack[:2]).shape == (2, 3)

    def test_copy_of_the_input(self):
        w = np.array([0.2, 0.3, 0.5])
        x = simplex_point(w)
        w[:] = 5.0
        assert x.tolist() == [0.2, 0.3, 0.5]

    @pytest.mark.parametrize("shape", [(), (1, 3), (2, 3)])
    def test_one_dimensional(self, shape):
        with pytest.raises(SimplexError, match="weights must be a 1-d array"):
            simplex_point(np.full(shape, 1.0 / 3))

    def test_negative_rejected(self):
        with pytest.raises(SimplexError):
            simplex_point([-0.1, 0.5, 0.6])


class TestOperator:
    def test_canonical_laplacian(self, groups):
        p = build_operator(groups["H3"], uniform_point(3))
        off = p[~np.eye(120, dtype=bool)]
        assert set(np.round(off, 12)) <= {0.0, np.round(1 / 3, 12)}
        assert np.abs(p.sum(axis=1) - 1).max() <= 1e-12

    def test_symmetric_zero_diagonal(self, groups):
        rng = np.random.default_rng(0)
        p = build_operator(groups["B3"], sample_interior(rng, 3))
        assert p.shape == (48, 48)
        assert np.abs(p - p.T).max() <= 1e-15
        assert np.abs(np.diag(p)).max() == 0.0

    def test_support_respects_edges(self, groups):
        group = groups["A3"]
        p = build_operator(group, simplex_point([0.3, 0.3, 0.4]))
        edge_set = {(i, j) for i, j, _ in group.edges}
        ii, jj = np.nonzero(p)
        for i, j in zip(ii, jj):
            assert (min(i, j), max(i, j)) in edge_set

    def test_zero_weight_drops_class(self, groups):
        group = groups["A3"]
        p = build_operator(group, simplex_point([0.0, 0.5, 0.5]))
        for i, j, label in group.edges:
            assert (p[i, j] > 0) == (label != 0)

    def test_class_count_mismatch(self, groups):
        with pytest.raises(SimplexError):
            build_operator(groups["A3"], simplex_point([0.5, 0.5]))


def brute_force_projection(raw):
    """Enumerate all active sets and return the closest feasible point."""
    n = len(raw)
    best, best_d = None, np.inf
    for active in itertools.product([0, 1], repeat=n):
        free = [i for i in range(n) if active[i]]
        if not free:
            continue
        # minimize ||x - r||^2 with x_j = 0 off the support, sum x = 1
        rf = raw[free]
        theta = (rf.sum() - 1.0) / len(free)
        x = np.zeros(n)
        x[free] = rf - theta
        if np.any(x[free] < -1e-12):
            continue
        d = np.sum((x - raw) ** 2)
        if d < best_d:
            best, best_d = np.clip(x, 0, None), d
    return best


class TestProjection:
    @pytest.mark.parametrize("raw", [[np.nan, 0.2, 0.3], [np.inf, 0.0, 0.0], [1e308, 1e308, -1e308]])
    def test_rejects_non_finite_or_overflowing_input(self, raw):
        # one line naming the input, before the sort and without a numpy
        # overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimplexError, match="not finite or overflow their sum") as err:
                project_to_simplex(raw)
        assert "\n" not in str(err.value)

    def test_idempotent(self):
        x = simplex_point([0.2, 0.3, 0.5])
        y = project_to_simplex(x)
        assert np.abs(y - x).max() <= 1e-12

    def test_symmetric(self):
        y = project_to_simplex(np.ones(3))
        assert np.abs(y - 1 / 3).max() <= 1e-12

    def test_example_against_brute_force(self):
        raw = np.array([0.9, 0.2, -0.1])
        y = project_to_simplex(raw)
        expected = brute_force_projection(raw)
        assert np.abs(y - expected).max() <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        raw = rng.normal(size=n)
        y = project_to_simplex(raw)
        expected = brute_force_projection(raw)
        assert np.abs(y - expected).max() <= 1e-9


class TestSpectralStructure:
    def test_bipartite_symmetry(self, groups):
        rng = np.random.default_rng(4)
        for group in groups.values():
            vals, _ = eigh_symmetric(build_operator(group, sample_interior(rng, 3)))
            assert np.abs(vals + vals[::-1]).max() <= 1e-9

    def test_top_eigenvalue_simple_constant(self, groups):
        rng = np.random.default_rng(5)
        group = groups["H3"]
        vals, vecs = eigh_symmetric(build_operator(group, sample_interior(rng, 3)))
        assert abs(vals[0] - 1) <= 1e-12
        assert vals[1] < 1 - 1e-6
        top = vecs[:, 0]
        assert np.abs(top - top[0]).max() <= 1e-9

    def test_boundary_lambda1_monotone_to_one(self, groups):
        group = groups["H3"]
        lams = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            x = simplex_point([(1 - eps) / 2, eps, (1 - eps) / 2])
            lams.append(lambda1(group, x))
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[-1] > 1 - 1e-3

    def test_midpoint_convexity(self, groups):
        group = groups["A3"]
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = sample_interior(rng, 3), sample_interior(rng, 3)
            mid = simplex_point((a + b) / 2)
            lam_mid = lambda1(group, mid)
            lam_avg = (
                lambda1(group, a) + lambda1(group, b)
            ) / 2
            assert lam_mid <= lam_avg + 1e-9


class TestSampleInterior:
    @pytest.mark.bit_equal
    @pytest.mark.parametrize("margin", [0.02, 0.15, 1e-3])
    def test_stack_is_the_single_draws(self, margin):
        # the same numbers, bit for bit, and the generator left in the same state
        one, many = np.random.default_rng(5), np.random.default_rng(5)
        singles = np.array([sample_interior(one, 3, margin=margin) for _ in range(400)])
        stack = sample_interior(many, 3, margin=margin, rows=400)
        assert np.array_equal(stack, singles)
        assert np.array_equal(one.random(4), many.random(4))

    def test_stack_is_checked_and_read_only(self):
        stack = sample_interior(np.random.default_rng(6), 4, rows=7)
        assert stack.shape == (7, 4) and stack.dtype == float
        assert np.array_equal(check_weights(stack), stack)
        # each weight is at least the margin before the division by a sum below k (1 + margin)
        assert (stack > 0.02 / (4 * (1 + 0.02))).all()
        with pytest.raises(ValueError):
            stack[0, 0] = 0.5

    def test_rows_reshape_into_pairs(self):
        # the midpoint-convexity probe reads pairs (a, b) drawn in turn
        one, many = np.random.default_rng(7), np.random.default_rng(7)
        pairs = np.array([[sample_interior(one, 3) for _ in range(2)] for _ in range(5)])
        assert np.array_equal(sample_interior(many, 3, rows=10).reshape(5, 2, 3), pairs)


POINT_SOURCES = {
    "simplex_point": lambda g: simplex_point([0.2, 0.3, 0.5]),
    "uniform_point": lambda g: uniform_point(3),
    "sample_interior": lambda g: sample_interior(np.random.default_rng(0), 3),
    "project_to_simplex": lambda g: project_to_simplex([0.9, 0.4, -0.2]),
    "closed_form_minimum": lambda g: closed_form_minimum(g.datum)[0],
    "psi_maps": lambda g: psi_maps(fundamental_point(g, [1.0, 2.0, 3.0]))[0],
    "CriticalReport.x": lambda g: minimize_lambda1(g).optimized.x,
    "CurveSample.x": lambda g: curve_point("C2", 2.0, g).x,
}


@pytest.mark.parametrize("source", POINT_SOURCES)
def test_points_are_read_only_arrays(a3, source):
    x = POINT_SOURCES[source](a3)
    assert isinstance(x, np.ndarray) and x.shape == (3,) and x.dtype == float
    with pytest.raises(ValueError):
        x[0] = 0.5
