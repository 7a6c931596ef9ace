import numpy as np
import pytest

from coxspec import solids, spectral
from coxspec.coxmaps import DomainError, fundamental_point, orbit_points
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import (
    CURVE_VERTICES,
    MinimizationError,
    boundary_limit,
    closed_form_minimum,
    critical_certificate,
    curve_limit,
    curve_point,
    directional_derivative,
    h3_curve_c2,
    minimize_lambda1,
    sweep_lambda1,
)
from coxspec.spectral import (
    block_spectrum,
    edge_class_lengths,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    spectrum_clusters,
)

PHI = (1 + np.sqrt(5)) / 2


class TestClosedFormMinimum:
    def test_a3_values(self, a3):
        x, lam = closed_form_minimum(a3.datum)
        assert np.abs(x.weights - np.array([0.3, 0.3, 0.4])).max() <= 1e-12
        assert lam == pytest.approx(0.8, abs=1e-12)

    def test_b3_values(self, b3):
        r2 = np.sqrt(2)
        x, lam = closed_form_minimum(b3.datum)
        expected = np.array([4 + r2, 3 + 3 * r2, 6 + 2 * r2]) / (13 + 6 * r2)
        assert np.abs(x.weights - expected).max() <= 1e-12
        assert lam == pytest.approx((11 + 6 * r2) / (13 + 6 * r2), abs=1e-12)

    def test_h3_values(self, h3):
        x, lam = closed_form_minimum(h3.datum)
        expected = np.array([5, 3 + 3 * PHI, 6 + 2 * PHI]) / (14 + 5 * PHI)
        assert np.abs(x.weights - expected).max() <= 1e-12
        assert lam == pytest.approx((10 + 7 * PHI) / (14 + 5 * PHI), abs=1e-12)


class TestMinimize:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_optimizer_recovers_closed_form(self, groups, name, monkeypatch):
        # the gate checks the optimised point and value; this checks the
        # closed-form report that `coxspec minimize` prints next to them,
        # the step count, and that one dense eigensolve (the final oracle)
        # is all the minimiser and its certificate make
        calls = []
        monkeypatch.setattr(solids, "lambda1", lambda p: calls.append(p) or lambda1(p))
        res = minimize_lambda1(groups[name])
        closed, opt = res.closed_form, res.optimized
        x0, lam0 = closed_form_minimum(groups[name].datum)
        assert np.array_equal(closed.x.weights, x0.weights)
        assert abs(closed.lam - lam0) <= 1e-12 and abs(opt.lam - closed.lam) <= 1e-12
        assert closed.equilateral and closed.gradient_norm <= 1e-6
        assert opt.equilateral
        assert res.iterations < 50
        assert len(calls) == 1

    def test_non_convergence_is_typed(self, a3, monkeypatch):
        monkeypatch.setattr(solids, "MAX_ITER", 1)
        with pytest.raises(MinimizationError, match="did not converge"):
            minimize_lambda1(a3)

    def test_oracle_disagreement_is_typed(self, a3, monkeypatch):
        # the dense lambda_1 at the result must equal the block's mu_1
        monkeypatch.setattr(solids, "lambda1", lambda p: 0.5)
        with pytest.raises(MinimizationError, match="is not lambda_1"):
            minimize_lambda1(a3)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_certificate_at_minimum(self, groups, graphs, name, monkeypatch, no_operator):
        # the certificate's finite differences read the irreducible blocks:
        # it certifies X0, and measures a seeded point, with the dense
        # lambda_1 disabled and no dense operator built
        def no_dense(p):
            raise AssertionError("dense lambda_1 called")

        monkeypatch.setattr(solids, "lambda1", no_dense)
        monkeypatch.setattr(spectral, "lambda1", no_dense)
        group, graph = groups[name], graphs[name]
        x, lam = closed_form_minimum(group.datum)
        report = critical_certificate(x, group, graph)
        assert report.gradient_norm <= 1e-6
        assert report.equilateral
        assert abs(report.lam - lam) <= 1e-12
        x = sample_interior(np.random.default_rng(36), 3, margin=0.1)
        report = critical_certificate(x, group, graph)
        assert abs(report.lam - block_spectrum(group, x.weights)[1]) <= 1e-12
        assert report.gradient_norm > 1e-3 and not report.equilateral

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_uniform_point_is_not_critical(self, groups, graphs, name):
        report = critical_certificate(uniform_point(3), groups[name], graphs[name])
        assert report.gradient_norm > 1e-3
        assert not report.equilateral

    def test_strict_convexity_random_segments(self, a3, graphs):
        graph = graphs["A3"]
        rng = np.random.default_rng(30)
        for _ in range(30):
            a, b = sample_interior(rng, 3), sample_interior(rng, 3)
            if np.abs(a.weights - b.weights).max() < 1e-3:
                continue
            mid = simplex_point((a.weights + b.weights) / 2)
            gap = (
                lambda1(build_operator(graph, a)) + lambda1(build_operator(graph, b))
            ) / 2 - lambda1(build_operator(graph, mid))
            assert gap > 1e-10


class TestDerivativeIdentity:
    def test_gram_differences_give_directional_derivatives(self, h3, graphs):
        # <Phi(e), Phi(sigma_a e)> - <Phi(e), Phi(sigma_b e)> equals
        # (k / n) D lambda_1 at xi = e_a / m_a - e_b / m_b
        graph = graphs["H3"]
        rng = np.random.default_rng(31)
        e = h3.element_index(np.eye(3))
        for _ in range(5):
            x = sample_interior(rng, 3, margin=0.1)
            pts = spectral_representation(graph, x, lambda1_cluster(graph, x))
            gram = pts @ pts.T

            def f(w):
                return lambda1(build_operator(graph, simplex_point(w)))

            for a in range(3):
                for b in range(a + 1, 3):
                    xi = np.zeros(3)
                    xi[a], xi[b] = 1.0, -1.0
                    lhs = gram[e, graph.successors[e, a]] - gram[e, graph.successors[e, b]]
                    rhs = (3.0 / h3.order) * directional_derivative(f, x.weights, xi)
                    assert abs(lhs - rhs) <= 1e-5

    def test_derivative_stable_under_step_refinement(self, h3, graphs):
        graph = graphs["H3"]

        def f(w):
            return lambda1(build_operator(graph, simplex_point(w)))

        x = simplex_point([0.25, 0.35, 0.4])
        xi = np.array([1.0, -1.0, 0.0])
        d4 = directional_derivative(f, x.weights, xi, h=1e-4)
        d5 = directional_derivative(f, x.weights, xi, h=1e-5)
        assert abs(d4 - d5) <= 1e-3 * max(abs(d4), 1e-6)


class TestCurves:
    def test_two_lengths_coincide(self, h3):
        fixed = {"C1": 0, "C2": 1, "C3": 2}
        for curve, j in fixed.items():
            for t in (0.3, 1.7, 5.0):
                s = curve_point(curve, t, h3)
                others = [s.class_lengths[i] for i in range(3) if i != j]
                assert abs(others[0] - others[1]) <= 1e-12

    def test_curves_meet_minimizer_at_t_one(self, groups):
        for group in groups.values():
            x0, lam0 = closed_form_minimum(group.datum)
            for curve in ("C1", "C2", "C3"):
                s = curve_point(curve, 1.0, group)
                assert np.abs(s.x.weights - x0.weights).max() <= 1e-12
                assert s.lam == pytest.approx(lam0, abs=1e-12)

    def test_h3_c2_closed_form(self, h3):
        for t in np.geomspace(0.05, 20.0, 25):
            s = curve_point("C2", float(t), h3)
            assert np.abs(s.x.weights - h3_curve_c2(float(t)).weights).max() <= 1e-10

    def test_interior_samples_are_full_orbits(self, h3):
        for curve in ("C1", "C2", "C3"):
            fp = fundamental_point(h3, solids.CURVE_PATTERNS[curve](2.0))
            assert len(orbit_points(h3, fp.point)[0]) == 120

    def test_rejects_bad_parameters(self, h3):
        with pytest.raises(DomainError):
            curve_point("C4", 1.0, h3)
        with pytest.raises(DomainError):
            curve_point("C1", 0.0, h3)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_rejects_non_finite_parameter(self, h3, t):
        with pytest.raises(DomainError, match="finite"):
            curve_point("C2", t, h3)


class TestLimits:
    @pytest.mark.parametrize("curve,count", [("C1", 12), ("C2", 20), ("C3", 30)])
    def test_zero_limits_are_single_orbits(self, h3, curve, count):
        _, pts, _ = curve_limit(curve, h3, 0)
        assert len(pts) == count

    @pytest.mark.parametrize("curve", ["C1", "C2", "C3"])
    def test_infinity_limits_have_sixty_points(self, h3, curve):
        _, pts, _ = curve_limit(curve, h3, "inf")
        assert len(pts) == 60

    @pytest.mark.parametrize(
        "target,count",
        [([0.0, 0.45, 0.55], 12), ([0.45, 0.0, 0.55], 20), ([0.45, 0.55, 0.0], 30)],
    )
    def test_edge_interior_limits(self, h3, target, count):
        _, n, pattern = boundary_limit(target, h3)
        assert n == count
        assert np.count_nonzero(pattern) == 1

    def test_vertex_limits_follow_curves(self, h3):
        for curve, j in CURVE_VERTICES.items():
            target = np.eye(3)[j]
            _, n, _ = boundary_limit(target, h3, curve=curve)
            assert n == 60

    def test_vertex_limit_requires_matching_curve(self, h3):
        with pytest.raises(DomainError, match="curve dependent"):
            boundary_limit([1.0, 0.0, 0.0], h3)
        with pytest.raises(DomainError, match="does not end"):
            boundary_limit([1.0, 0.0, 0.0], h3, curve="C2")

    def test_unknown_curve_names_the_curves(self, h3):
        with pytest.raises(DomainError, match="unknown curve 'C9'; choose from C1, C2, C3"):
            boundary_limit(np.array([1.0, 0.0, 0.0]), h3, curve="C9")
        with pytest.raises(DomainError, match="choose from C1, C2, C3"):
            curve_limit("C9", h3, 0)

    def test_curve_checked_at_edge_targets(self, h3):
        with pytest.raises(DomainError, match="unknown curve 'C9'; choose from C1, C2, C3"):
            boundary_limit([0.0, 0.5, 0.5], h3, curve="C9")
        _, n, _ = boundary_limit([0.0, 0.5, 0.5], h3, curve="C1")
        assert n == 12

    def test_interior_target_rejected(self, h3):
        with pytest.raises(DomainError):
            boundary_limit([0.3, 0.3, 0.4], h3)


class TestSweep:
    def test_grid_two_is_the_uniform_point(self, a3):
        rows = sweep_lambda1(a3, 2)
        assert len(rows) == 1
        assert np.abs(rows[0]["x"].weights - 1 / 3).max() <= 1e-12
        assert rows[0]["multiplicity"] == 3

    def test_rows_and_multiplicity(self, b3):
        g = 6
        rows = sweep_lambda1(b3, g)
        assert len(rows) == (g - 1) * g // 2
        for row in rows:
            assert row["multiplicity"] == 3
            assert len(row["class_lengths"]) == 3

    def test_minimum_row_near_closed_form(self, a3):
        g = 40
        rows = sweep_lambda1(a3, g)
        best = min(rows, key=lambda r: r["lambda1"])
        x0, lam0 = closed_form_minimum(a3.datum)
        assert np.abs(best["x"].weights - x0.weights).max() <= 2.0 / g
        assert best["lambda1"] >= lam0 - 1e-12

    def test_builds_no_operator(self, a3, h3, no_operator):
        for group in (a3, h3):
            rows = sweep_lambda1(group, 6)
            assert len(rows) == 15
            assert {row["path"] for row in rows} == {"fourier"}

    def test_rows_match_dense_clusters(self, b3, graphs):
        # the dense eigensolve as oracle: lambda_1 is the top cluster
        # after the simple eigenvalue 1
        graph = graphs["B3"]
        for row in sweep_lambda1(b3, 7):
            p = build_operator(graph, row["x"])
            dense = spectrum_clusters(p)[1]
            assert abs(row["lambda1"] - lambda1(p)) <= 1e-12
            assert row["multiplicity"] == dense.multiplicity
            lengths = edge_class_lengths(spectral_representation(graph, row["x"], dense), graph)
            assert np.abs(np.subtract(row["class_lengths"], lengths)).max() <= 1e-12

    def test_rejects_small_grid(self, a3):
        with pytest.raises(DomainError):
            sweep_lambda1(a3, 1)
