import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import coxspec
from coxspec import solids, spectral, verify
from coxspec.cli import main
from coxspec.coxmaps import DomainError, fundamental_point, orbit_points
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import (
    CURVE_VERTICES,
    MinimizationError,
    block_state,
    boundary_limit,
    closed_form_minimum,
    critical_certificate,
    curve_limit,
    curve_point,
    minimize_lambda1,
    sweep_lambda1,
)
from coxspec.spectral import (
    InvarianceError,
    block_cluster,
    block_clusters,
    block_lengths,
    block_spectrum,
    edge_class_lengths,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    spectrum_clusters,
)

PHI = (1 + np.sqrt(5)) / 2


def directional_derivative(f, weights, xi, h=solids.FD_STEP):
    return (f(weights + h * xi) - f(weights - h * xi)) / (2 * h)


def pointwise_lambda1(graph):
    """lambda_1 of one point, one `block_spectrum` call each: the oracle for
    the stacked `_lambda1_fn` of the certificates and the gate's probes."""
    return lambda w: float(block_spectrum(graph.group, simplex_point(w))[1])


def pointwise_gradient_norm(graph, weights):
    f, derivs = pointwise_lambda1(graph), []
    for a in range(3):
        for b in range(a + 1, 3):
            xi = np.zeros(3)
            xi[a], xi[b] = 1.0, -1.0
            derivs.append(directional_derivative(f, weights, xi))
    return float(np.linalg.norm(derivs))


def h3_curve_c2(t):
    """Closed-form weights along the alpha = gamma curve of the (4,6,10)
    group, parametrized by the coefficient ratio t."""
    denom = 3 * PHI * t**2 + (14 - PHI) * t + 3 * PHI
    return np.array([(5 - PHI) * t + PHI, 3 * PHI * t**2 + 3 * t, 6 * t + 2 * PHI]) / denom


class TestClosedFormMinimum:
    def test_a3_values(self, a3):
        x, lam = closed_form_minimum(a3.datum)
        assert np.abs(x - np.array([0.3, 0.3, 0.4])).max() <= 1e-12
        assert lam == pytest.approx(0.8, abs=1e-12)

    def test_b3_values(self, b3):
        r2 = np.sqrt(2)
        x, lam = closed_form_minimum(b3.datum)
        expected = np.array([4 + r2, 3 + 3 * r2, 6 + 2 * r2]) / (13 + 6 * r2)
        assert np.abs(x - expected).max() <= 1e-12
        assert lam == pytest.approx((11 + 6 * r2) / (13 + 6 * r2), abs=1e-12)

    def test_h3_values(self, h3):
        x, lam = closed_form_minimum(h3.datum)
        expected = np.array([5, 3 + 3 * PHI, 6 + 2 * PHI]) / (14 + 5 * PHI)
        assert np.abs(x - expected).max() <= 1e-12
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
        assert np.array_equal(closed.x, x0)
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
        assert abs(report.lam - block_spectrum(group, x)[1]) <= 1e-12
        assert report.gradient_norm > 1e-3 and not report.equilateral

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stacked_stencil_matches_points(self, groups, graphs, name):
        # the six stencil points in one stack give the gradient norm of six
        # single-point evaluations, bit for bit
        group, graph = groups[name], graphs[name]
        rng = np.random.default_rng(37)
        points = [closed_form_minimum(group.datum)[0], uniform_point(3)]
        points += [sample_interior(rng, 3, margin=0.1) for _ in range(4)]
        for x in points:
            report = critical_certificate(x, group, graph)
            assert report.gradient_norm == pointwise_gradient_norm(graph, x)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_one_spectrum_per_certificate(self, groups, graphs, name, monkeypatch):
        # x is row 0 of the stencil stack: one `block_spectrum` call, and
        # no `lambda1_cluster` where the 3x3 block gives the cluster
        def refuse(*args):
            raise AssertionError("lambda1_cluster called")

        stacks = []

        def spectrum(group, weights):
            stacks.append(len(weights))
            return block_spectrum(group, weights)

        monkeypatch.setattr(solids, "lambda1_cluster", refuse)
        monkeypatch.setattr(solids, "block_spectrum", spectrum)
        x = closed_form_minimum(groups[name].datum)[0]
        report = critical_certificate(x, groups[name], graphs[name])
        assert stacks == [7]
        assert report.lam == spectral.rep_fourier(x, groups[name]).roots[0]

    def test_certificate_off_the_block_takes_lambda1_cluster(self, a3, graphs, monkeypatch):
        # a mu_1 that misses lambda_1: the cluster of x comes from
        # lambda1_cluster, the finite differences still from the stack
        true_rep, true_cluster = spectral.rep_fourier, solids.lambda1_cluster
        expected = critical_certificate(uniform_point(3), a3, graphs["A3"])

        def shifted(weights, group):
            rep = true_rep(weights, group)
            return dataclasses.replace(rep, roots=rep.roots + 1.0)

        paths = []

        def spy(graph, x):
            cluster = true_cluster(graph, x)
            paths.append(cluster.path)
            return cluster

        monkeypatch.setattr(spectral, "rep_fourier", shifted)
        monkeypatch.setattr(solids, "lambda1_cluster", spy)
        report = critical_certificate(uniform_point(3), a3, graphs["A3"])
        assert paths == ["dense"]
        assert report.gradient_norm == expected.gradient_norm
        assert abs(report.lam - expected.lam) <= 1e-12
        assert np.abs(np.subtract(report.class_lengths, expected.class_lengths)).max() <= 1e-9

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.5, 0.0], [1 - 1.5e-6, 1e-6, 0.5e-6], [0.3, 0.7 - 9e-7, 9e-7]]
    )
    def test_certificate_near_boundary_is_refused(self, h3, graphs, weights, monkeypatch):
        # a stencil point would leave the simplex: one-line DomainError
        # before any evaluation
        def refuse(*args):
            raise AssertionError("lambda_1 evaluated")

        monkeypatch.setattr(solids, "lambda1_cluster", refuse)
        monkeypatch.setattr(solids, "block_spectrum", refuse)
        with pytest.raises(DomainError, match="every weight to be at least FD_STEP") as err:
            critical_certificate(simplex_point(weights), h3, graphs["H3"])
        assert "\n" not in str(err.value)

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
            if np.abs(a - b).max() < 1e-3:
                continue
            mid = simplex_point((a + b) / 2)
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
                    rhs = (3.0 / h3.order) * directional_derivative(f, x, xi)
                    assert abs(lhs - rhs) <= 1e-5

    def test_derivative_stable_under_step_refinement(self, h3, graphs):
        graph = graphs["H3"]

        def f(w):
            return lambda1(build_operator(graph, simplex_point(w)))

        x = simplex_point([0.25, 0.35, 0.4])
        xi = np.array([1.0, -1.0, 0.0])
        d4 = directional_derivative(f, x, xi, h=1e-4)
        d5 = directional_derivative(f, x, xi, h=1e-5)
        assert abs(d4 - d5) <= 1e-3 * max(abs(d4), 1e-6)


def gate_value(report, cid):
    return next(c["value"] for c in report["checks"] if c["id"] == cid)


class TestStackedProbes:
    """The gate's stacked probes against the loops of one point at a time
    that they replaced, on the same rng streams: the values are equal."""

    def test_convexity_probes(self, graphs, verify_report, monkeypatch):
        # the stacks the suite evaluates, recorded
        stacks, stacked = [], solids._lambda1_fn

        def recording(graph):
            f = stacked(graph)

            def record(weights):
                stacks.append((weights, f(weights)))
                return stacks[-1][1]

            return record

        monkeypatch.setattr(verify, "_lambda1_fn", recording)
        verify.suite_invariants()
        (mid_points, mid_values), (margin_points, margin_values) = stacks

        f = pointwise_lambda1(graphs["H3"])
        rng = np.random.default_rng(20240613)
        # the draws of suite_invariants before its convexity probes: the
        # Fourier cross-checks (3 x 50), the psi checks (3 x 100) and the
        # spectrum symmetry point
        for _ in range(3 * 50 + 3 * 100 + 1):
            sample_interior(rng, 3)
        points, values = [], []  # per draw: a, b and their midpoint
        worst_mid = -np.inf
        for _ in range(200):
            a, b = sample_interior(rng, 3), sample_interior(rng, 3)
            mid = f((a + b) / 2)
            worst_mid = max(worst_mid, mid - (f(a) + f(b)) / 2)
            points.append([a, b, (a + b) / 2])
            values.append([f(a), f(b), mid])
        # the stack holds all a, then all b, then all midpoints
        assert np.array_equal(mid_points, np.concatenate(np.swapaxes(points, 0, 1)))
        assert np.array_equal(mid_values, np.ravel(values, order="F"))
        assert max(worst_mid, 0.0) == gate_value(verify_report, "midpoint_convexity")

        points, values = [], []  # per accepted draw: x + d, x - d and x
        worst_margin = np.inf
        count = 0
        while count < 200:
            x = sample_interior(rng, 3, margin=0.15)
            d = rng.normal(size=3)
            d -= d.mean()
            d *= 0.05 / np.abs(d).max()
            if np.any(x + d <= 0) or np.any(x - d <= 0):
                continue
            margin = (f(x + d) + f(x - d)) / 2 - f(x)
            worst_margin = min(worst_margin, margin)
            count += 1
            points.append([x + d, x - d, x])
            values.append([f(w) for w in points[-1]])
        assert np.array_equal(margin_points, np.concatenate(np.swapaxes(points, 0, 1)))
        assert np.array_equal(margin_values, np.ravel(values, order="F"))
        assert worst_margin == gate_value(verify_report, "strict_convexity_margin")

    def test_derivative_identity(self, graphs, verify_report):
        graph = graphs["H3"]
        f = pointwise_lambda1(graph)
        rng = np.random.default_rng(42)
        worst = 0.0
        done = 0
        while done < 20:
            x = sample_interior(rng, 3)
            top = lambda1_cluster(graph, x)
            if top.gap <= solids.GAP_GUARD:
                continue
            pts = spectral_representation(graph, x, top)
            k, n = top.multiplicity, graph.n_vertices
            for a in range(3):
                for b in range(a + 1, 3):
                    xi = np.zeros(3)
                    xi[a], xi[b] = 1.0, -1.0
                    d = directional_derivative(f, x, xi)
                    ia, jb = graph.successors[0, a], graph.successors[0, b]
                    lhs = pts[0] @ pts[ia] - pts[0] @ pts[jb]
                    worst = max(worst, abs(lhs - (k / n) * d))
            done += 1
        assert worst == gate_value(verify_report, "derivative_identity")


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
                assert np.abs(s.x - x0).max() <= 1e-12
                assert s.lam == pytest.approx(lam0, abs=1e-12)

    def test_h3_c2_closed_form(self, h3):
        for t in np.geomspace(0.05, 20.0, 25):
            s = curve_point("C2", float(t), h3)
            assert np.abs(s.x - h3_curve_c2(float(t))).max() <= 1e-10

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target", [[np.nan, 0.0, 1.0], [np.inf, 0.0, -np.inf]])
    def test_non_finite_target_rejected(self, h3, target):
        with pytest.raises(DomainError, match="target must lie on the simplex$"):
            boundary_limit(target, h3)


class TestSweep:
    def test_grid_two_is_the_uniform_point(self, a3):
        sweep = sweep_lambda1(a3, 2)
        assert len(sweep) == 1
        assert np.abs(sweep.weights[0] - 1 / 3).max() <= 1e-12
        assert sweep.multiplicity[0] == 3

    def test_rows_and_multiplicity(self, b3):
        g = 6
        sweep = sweep_lambda1(b3, g)
        assert len(sweep) == (g - 1) * g // 2
        assert np.all(sweep.multiplicity == 3)
        assert sweep.class_lengths.shape == (len(sweep), 3)

    def test_minimum_row_near_closed_form(self, a3):
        g = 40
        sweep = sweep_lambda1(a3, g)
        best = int(np.argmin(sweep.lambda1))
        x0, lam0 = closed_form_minimum(a3.datum)
        assert np.abs(sweep.weights[best] - x0).max() <= 2.0 / g
        assert sweep.lambda1[best] >= lam0 - 1e-12

    def test_builds_no_operator(self, a3, h3, no_operator):
        for group in (a3, h3):
            sweep = sweep_lambda1(group, 6)
            assert len(sweep) == 15
            assert set(sweep.path) == {"fourier"}

    def test_rows_match_dense_clusters(self, b3, graphs):
        # the dense eigensolve as oracle: lambda_1 is the top cluster
        # after the simple eigenvalue 1
        graph = graphs["B3"]
        sweep = sweep_lambda1(b3, 7)
        for w, lam, multiplicity, measured in zip(
            sweep.weights, sweep.lambda1, sweep.multiplicity, sweep.class_lengths
        ):
            x = simplex_point(w)
            p = build_operator(graph, x)
            dense = spectrum_clusters(p)[1]
            assert abs(lam - lambda1(p)) <= 1e-12
            assert multiplicity == dense.multiplicity
            lengths = edge_class_lengths(spectral_representation(graph, x, dense), graph)
            assert np.abs(measured - lengths).max() <= 1e-12

    def test_columns_are_read_only(self, a3):
        sweep = sweep_lambda1(a3, 4)
        for column in (sweep.weights, sweep.lambda1, sweep.multiplicity,
                       sweep.class_lengths, sweep.path):
            assert len(column) == len(sweep) == 6
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stack_matches_points_bit_for_bit(self, groups, graphs, name, tmp_path):
        # the oracle: one point at a time, each from its row of the stacked
        # spectra through block_cluster, with the class lengths of
        # block_state, and the CSV line formed from its fields; the
        # measured lengths of the embedding agree to rounding
        group, graph, g = groups[name], graphs[name], 24
        sweep = sweep_lambda1(group, g)
        spectra = block_spectrum(group, np.asarray(sweep.weights))
        points = [
            simplex_point(np.array([i, j, g + 1 - i - j]) / (g + 1))
            for i in range(1, g) for j in range(1, g + 1 - i)
        ]
        assert len(sweep) == len(points) == 276
        lines = ["x,y,z,lambda1,mult,len1,len2,len3"]
        for r, x in enumerate(points):
            cluster = block_cluster(group, x, spectra[r])
            lengths = block_state(x, group)[2].tolist()
            measured = edge_class_lengths(spectral_representation(graph, x, cluster), graph)
            assert np.array_equal(sweep.weights[r], x)
            assert sweep.lambda1[r] == cluster.eigenvalue
            assert sweep.multiplicity[r] == cluster.multiplicity
            assert sweep.class_lengths[r].tolist() == lengths
            assert np.abs(sweep.class_lengths[r] - measured).max() <= 1e-15
            assert sweep.path[r] == cluster.path
            lines.append(",".join([
                *(f"{w:.15g}" for w in x), f"{cluster.eigenvalue:.15g}",
                str(cluster.multiplicity), *(f"{v:.15g}" for v in lengths),
            ]))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--group", name, "--grid", str(g), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == lines

    def test_row_off_the_block_takes_lambda1_cluster(self, a3, graphs, monkeypatch):
        # a mu_1 that misses lambda_1 in the first row of every stack: sweep
        # row 0 must leave the block path and come back through
        # lambda1_cluster, which takes the dense cluster
        true_rep, true_cluster = spectral.rep_fourier, solids.lambda1_cluster

        def shifted(weights, group):
            rep = true_rep(weights, group)
            roots = rep.roots.copy()
            roots[0, 0] += 1.0
            return dataclasses.replace(rep, roots=roots)

        seen = []

        def spy(graph, x):
            cluster = true_cluster(graph, x)
            seen.append((x, cluster.path))
            return cluster

        expected = sweep_lambda1(a3, 6)
        monkeypatch.setattr(spectral, "rep_fourier", shifted)
        monkeypatch.setattr(solids, "lambda1_cluster", spy)
        sweep = sweep_lambda1(a3, 6)
        assert len(seen) == 1 and np.array_equal(seen[0][0], sweep.weights[0])
        assert seen[0][1] == "dense"
        assert sweep.path.tolist() == ["dense"] + ["fourier"] * 14
        p = build_operator(graphs["A3"], simplex_point(sweep.weights[0]))
        assert abs(sweep.lambda1[0] - lambda1(p)) <= 1e-12
        assert sweep.multiplicity[0] == 3
        assert np.abs(sweep.class_lengths[0] - expected.class_lengths[0]).max() <= 1e-9
        for column in ("lambda1", "multiplicity", "class_lengths"):
            assert np.array_equal(getattr(sweep, column)[1:], getattr(expected, column)[1:])

    def test_rejects_small_grid(self, a3):
        with pytest.raises(DomainError):
            sweep_lambda1(a3, 1)


STACK = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.1, 0.6, 0.3]])


def wrong_eigenvector_stack(group):
    """Three points with their mu_1 and top block eigenvectors, the vector
    of row 2 replaced by the eigenvector of mu_2."""
    lam, _, _, vectors, given = block_clusters(group, STACK, block_spectrum(group, STACK))
    assert given.all()
    vectors = vectors.copy()
    vectors[2] = spectral.rep_fourier(simplex_point(STACK[2]), group).vectors[:, 1]
    return STACK, lam, vectors


def moved_vertex_embedding(group):
    """The block embedding of the point STACK[0], with vertex 17 moved."""
    x = simplex_point(STACK[0])
    cluster = block_cluster(group, x, block_spectrum(group, x))
    basis = cluster.basis.copy()
    basis[17] *= 1.5
    return x, dataclasses.replace(cluster, basis=basis)


class TestStackedChecks:
    """The residual check of a stack of block eigenvectors and the checks
    of one embedding are typed errors, with and without asserts."""

    def test_corrupted_basis_fails_the_residual(self, h3, graphs):
        x, cluster = moved_vertex_embedding(h3)
        with pytest.raises(InvarianceError, match="residual too large"):
            spectral_representation(graphs["H3"], x, cluster)
        spectral_representation(graphs["H3"], x, lambda1_cluster(graphs["H3"], x))

    def test_perturbed_length_fails_the_spread(self, h3, graphs):
        x, cluster = moved_vertex_embedding(h3)
        with pytest.raises(InvarianceError, match="non-constant length"):
            edge_class_lengths(cluster.basis, graphs["H3"])
        assert len(edge_class_lengths(lambda1_cluster(graphs["H3"], x).basis, graphs["H3"])) == 3

    def test_wrong_eigenvector_fails_its_row(self, b3):
        weights, lam, vectors = wrong_eigenvector_stack(b3)
        _, good = block_lengths(b3, weights[:2], lam[:2], vectors[:2])
        for w, lengths in zip(weights[:2], good):
            assert np.array_equal(lengths, block_state(simplex_point(w), b3)[2])
        with pytest.raises(InvarianceError, match="residual too large at row 2"):
            block_lengths(b3, weights, lam, vectors)

    def test_checks_raise_without_asserts(self):
        script = (
            "import sys; sys.path.insert(0, 'tests'); "
            "from coxspec import build_group, cayley_graph; "
            "from coxspec.spectral import InvarianceError, block_lengths, edge_class_lengths; "
            "from test_solids import moved_vertex_embedding, wrong_eigenvector_stack\n"
            "group = build_group('H3'); graph = cayley_graph(group)\n"
            "weights, lam, vectors = wrong_eigenvector_stack(group)\n"
            "_, cluster = moved_vertex_embedding(group)\n"
            "for check in (lambda: block_lengths(group, weights, lam, vectors),\n"
            "              lambda: edge_class_lengths(cluster.basis, graph)):\n"
            "    try:\n"
            "        check()\n"
            "    except InvarianceError as exc:\n"
            "        print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(coxspec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env, cwd=root,
                             capture_output=True, text=True, check=True).stdout
        assert "residual too large at row 2" in out
        assert "non-constant length" in out
