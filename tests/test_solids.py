import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import coxspec
from coxspec import solids, spectral, verify
from coxspec.cli import main
from coxspec.coxmaps import (
    DomainError,
    fundamental_point,
    orbit_points,
    psi_delta_inverse,
    psi_lambda_of,
    psi_maps,
)
from coxspec.fourier import crosscheck_mu1
from coxspec.randwalk import (
    SimplexError,
    build_operator,
    sample_interior,
    simplex_point,
    uniform_point,
)
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


def pointwise_lambda1(group):
    """lambda_1 of one point, one `block_spectrum` call each: the oracle for
    the stacked `_lambda1_fn` of the certificates and the gate's probes."""
    return lambda w: float(block_spectrum(group, simplex_point(w))[1])


def pointwise_gradient_norm(group, weights):
    f, derivs = pointwise_lambda1(group), []
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
        monkeypatch.setattr(
            solids, "lambda1", lambda group, x: calls.append(x) or lambda1(group, x)
        )
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
        monkeypatch.setattr(solids, "lambda1", lambda group, x: 0.5)
        with pytest.raises(MinimizationError, match="is not lambda_1"):
            minimize_lambda1(a3)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_certificate_at_minimum(self, groups, name, monkeypatch, no_operator):
        # the certificate's finite differences read the irreducible blocks:
        # it certifies X0, and measures a seeded point, with the dense
        # lambda_1 disabled and no dense operator built
        def no_dense(group, x):
            raise AssertionError("dense lambda_1 called")

        monkeypatch.setattr(solids, "lambda1", no_dense)
        monkeypatch.setattr(spectral, "lambda1", no_dense)
        group = groups[name]
        x, lam = closed_form_minimum(group.datum)
        report = critical_certificate(x, group)
        assert report.gradient_norm <= 1e-6
        assert report.equilateral
        assert abs(report.lam - lam) <= 1e-12
        x = sample_interior(np.random.default_rng(36), 3, margin=0.1)
        report = critical_certificate(x, group)
        assert abs(report.lam - block_spectrum(group, x)[1]) <= 1e-12
        assert report.gradient_norm > 1e-3 and not report.equilateral

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stacked_stencil_matches_points(self, groups, name):
        # the six stencil points in one stack give the gradient norm of six
        # single-point evaluations, bit for bit
        group = groups[name]
        rng = np.random.default_rng(37)
        points = [closed_form_minimum(group.datum)[0], uniform_point(3)]
        points += [sample_interior(rng, 3, margin=0.1) for _ in range(4)]
        for x in points:
            report = critical_certificate(x, group)
            assert report.gradient_norm == pointwise_gradient_norm(group, x)

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stencil_mu1_is_pointwise_lambda1(self, groups, name):
        # rows 1-6 of the certificate's `rep_fourier` stack are lambda_1 of
        # each stencil point alone, bit for bit: entry 1 of its block spectrum
        group = groups[name]
        rng = np.random.default_rng(39)
        points = [closed_form_minimum(group.datum)[0], uniform_point(3)]
        points += list(sample_interior(rng, 3, margin=0.05, rows=20))
        for x in points:
            stack = solids._pair_stencil(np.asarray(x)[None], solids.FD_STEP)
            mu1 = spectral.rep_fourier(np.vstack((x, stack)), group).roots[1:, 0]
            assert mu1.tolist() == [block_spectrum(group, w)[1] for w in stack]

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_one_spectrum_per_certificate(self, groups, name, monkeypatch):
        # x is row 0 of one 7-row `rep_fourier` stack, whose rows 1-6 give
        # the stencil: on a row the 3x3 block gives, no `block_spectrum`
        # call, and neither the dense cluster nor a measured embedding
        def refuse(*args):
            raise AssertionError("the measured path was taken")

        stacks = []

        def fourier(weights, group):
            stacks.append(weights.shape)
            return spectral.rep_fourier(weights, group)

        for measured in ("_dense_lambda1_cluster", "spectral_representation",
                         "edge_class_lengths", "block_spectrum"):
            monkeypatch.setattr(solids, measured, refuse)
        monkeypatch.setattr(solids, "rep_fourier", fourier)
        x = closed_form_minimum(groups[name].datum)[0]
        report = critical_certificate(x, groups[name])
        assert stacks == [(7, 3)]
        assert report.lam == spectral.rep_fourier(x, groups[name]).roots[0]

    def test_certificate_off_the_block_takes_lambda1_cluster(self, a3, monkeypatch):
        # a mu_1 that misses lambda_1 in the certificate's stack: the
        # cluster of x comes from the dense eigensolve, the finite
        # differences from one `block_spectrum` of the six stencil points,
        # whose own `rep_fourier` is the true one
        true_rep, true_cluster = spectral.rep_fourier, solids._dense_lambda1_cluster
        true_spectrum = solids.block_spectrum
        expected = critical_certificate(uniform_point(3), a3)

        def shifted(weights, group):
            rep = true_rep(weights, group)
            return dataclasses.replace(rep, roots=rep.roots + 1.0)

        paths, stacks = [], []

        def spy(group, x):
            cluster = true_cluster(group, x)
            paths.append(cluster.path)
            return cluster

        def spectrum(group, weights):
            stacks.append(len(weights))
            return true_spectrum(group, weights)

        monkeypatch.setattr(solids, "rep_fourier", shifted)
        monkeypatch.setattr(solids, "_dense_lambda1_cluster", spy)
        monkeypatch.setattr(solids, "block_spectrum", spectrum)
        report = critical_certificate(uniform_point(3), a3)
        assert paths == ["dense"] and stacks == [6]
        assert report.gradient_norm == expected.gradient_norm
        assert abs(report.lam - expected.lam) <= 1e-12
        assert np.abs(np.subtract(report.class_lengths, expected.class_lengths)).max() <= 1e-9

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_certificate_lengths_match_the_measured_embedding(self, groups, name):
        # the closed-form lengths sqrt(3/|G|) 2 |<n_j, v>| against the
        # lengths measured on the |G| x 3 block basis
        group = groups[name]
        rng = np.random.default_rng(38)
        points = [closed_form_minimum(group.datum)[0], uniform_point(3)]
        points += list(sample_interior(rng, 3, margin=0.05, rows=40))
        for x in points:
            report = critical_certificate(x, group)
            cluster = block_cluster(group, x)
            measured = edge_class_lengths(spectral_representation(group, x, cluster), group)
            assert np.abs(np.subtract(report.class_lengths, measured)).max() <= 1e-15

    @pytest.mark.parametrize(
        "x,error,message",
        [
            ([0.5, 0.5, 0.5], SimplexError, "weights do not sum to 1"),
            ([[0.2, 0.3, 0.5]], DomainError, r"x must be one point of shape \(3,\)"),
            ([0.2, 0.3, np.nan], SimplexError, "weights must be finite"),
        ],
    )
    def test_certificate_rejects_bad_points(self, h3, x, error, message, monkeypatch):
        # a list or an array that is not one simplex point: a typed
        # one-line error before any evaluation
        def refuse(*args):
            raise AssertionError("lambda_1 evaluated")

        monkeypatch.setattr(solids, "block_spectrum", refuse)
        for given in (x, np.array(x)):
            with pytest.raises(error, match=message) as err:
                critical_certificate(given, h3)
            assert "\n" not in str(err.value)

    def test_certificate_takes_a_list(self, h3):
        x = closed_form_minimum(h3.datum)[0]
        report = critical_certificate(x.tolist(), h3)
        expected = critical_certificate(x, h3)
        assert np.array_equal(report.x, x) and not report.x.flags.writeable
        assert report.class_lengths == expected.class_lengths
        assert report.gradient_norm == expected.gradient_norm

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.5, 0.0], [1 - 1.5e-6, 1e-6, 0.5e-6], [0.3, 0.7 - 9e-7, 9e-7]]
    )
    def test_certificate_near_boundary_is_refused(self, h3, weights, monkeypatch):
        # a stencil point would leave the simplex: one-line DomainError
        # before any evaluation
        def refuse(*args):
            raise AssertionError("lambda_1 evaluated")

        monkeypatch.setattr(solids, "_dense_lambda1_cluster", refuse)
        monkeypatch.setattr(solids, "block_spectrum", refuse)
        with pytest.raises(DomainError, match="every weight to be at least FD_STEP") as err:
            critical_certificate(simplex_point(weights), h3)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_uniform_point_is_not_critical(self, groups, name):
        report = critical_certificate(uniform_point(3), groups[name])
        assert report.gradient_norm > 1e-3
        assert not report.equilateral

    def test_strict_convexity_random_segments(self, a3):
        rng = np.random.default_rng(30)
        for _ in range(30):
            a, b = sample_interior(rng, 3), sample_interior(rng, 3)
            if np.abs(a - b).max() < 1e-3:
                continue
            mid = simplex_point((a + b) / 2)
            gap = (
                lambda1(a3, a) + lambda1(a3, b)
            ) / 2 - lambda1(a3, mid)
            assert gap > 1e-10


class TestDerivativeIdentity:
    def test_gram_differences_give_directional_derivatives(self, h3):
        # <Phi(e), Phi(sigma_a e)> - <Phi(e), Phi(sigma_b e)> equals
        # (k / n) D lambda_1 at xi = e_a / m_a - e_b / m_b
        rng = np.random.default_rng(31)
        e = h3.element_index(np.eye(3))
        for _ in range(5):
            x = sample_interior(rng, 3, margin=0.1)
            pts = spectral_representation(h3, x, lambda1_cluster(h3, x))
            gram = pts @ pts.T

            def f(w):
                return lambda1(h3, simplex_point(w))

            for a in range(3):
                for b in range(a + 1, 3):
                    xi = np.zeros(3)
                    xi[a], xi[b] = 1.0, -1.0
                    lhs = gram[e, h3.successors[e, a]] - gram[e, h3.successors[e, b]]
                    rhs = (3.0 / h3.order) * directional_derivative(f, x, xi)
                    assert abs(lhs - rhs) <= 1e-5

    def test_derivative_stable_under_step_refinement(self, h3):
        def f(w):
            return lambda1(h3, simplex_point(w))

        x = simplex_point([0.25, 0.35, 0.4])
        xi = np.array([1.0, -1.0, 0.0])
        d4 = directional_derivative(f, x, xi, h=1e-4)
        d5 = directional_derivative(f, x, xi, h=1e-5)
        assert abs(d4 - d5) <= 1e-3 * max(abs(d4), 1e-6)


def gate_value(report, cid):
    return next(c["value"] for c in report["checks"] if c["id"] == cid)


@pytest.mark.bit_equal
class TestStackedProbes:
    """The gate's stacked probes against the loops of one point at a time
    that they replaced, on the same rng streams: the values are equal."""

    def test_convexity_probes(self, h3, verify_report, monkeypatch):
        # the stacks the suite evaluates, recorded
        stacks, stacked = [], solids._lambda1_fn

        def recording(group):
            f = stacked(group)

            def record(weights):
                stacks.append((weights, f(weights)))
                return stacks[-1][1]

            return record

        monkeypatch.setattr(verify, "_lambda1_fn", recording)
        verify.suite_invariants()
        (mid_points, mid_values), (margin_points, margin_values) = stacks

        f = pointwise_lambda1(h3)
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

    def test_oracle_stacks(self, groups, verify_report, monkeypatch):
        # criteria 6 and 7 make one lambda_1 call per group and check, on
        # the points the one-at-a-time loops drew, in their rng order; the
        # gate values are the maxima of those loops
        oracle, stacks = spectral.lambda1, []

        def recording(group, weights):
            stacks.append((group.datum.name, np.array(weights)))
            return oracle(group, weights)

        monkeypatch.setattr(spectral, "lambda1", recording)
        monkeypatch.setattr(verify, "lambda1", recording)
        verify.suite_invariants()
        monkeypatch.undo()
        assert [(name, len(w)) for name, w in stacks] == [
            ("A3", 50), ("B3", 50), ("H3", 50), ("A3", 100), ("B3", 100), ("H3", 100)
        ]
        rng = np.random.default_rng(20240613)
        for name, w in stacks:
            group = groups[name]
            drawn = [sample_interior(rng, 3) for _ in range(len(w))]
            assert np.array_equal(w, drawn)
            if len(w) == 50:
                dev = max(crosscheck_mu1(x, group) for x in drawn)
                assert dev == gate_value(verify_report, f"fourier_crosscheck_{name}")
                continue
            dev = max(abs(psi_lambda_of(group, x) - lambda1(group, x)) for x in drawn)
            assert dev == gate_value(verify_report, f"psi_vs_eigensolver_{name}")
            dev = max(np.abs(psi_maps(psi_delta_inverse(group, x))[0] - x).max() for x in drawn)
            assert dev == gate_value(verify_report, f"psi_round_trip_{name}")

    def test_derivative_identity(self, h3, verify_report):
        f = pointwise_lambda1(h3)
        rng = np.random.default_rng(42)
        worst = 0.0
        done = 0
        while done < 20:
            x = sample_interior(rng, 3)
            top = lambda1_cluster(h3, x)
            if top.gap <= solids.GAP_GUARD:
                continue
            pts = spectral_representation(h3, x, top)
            k, n = top.multiplicity, h3.order
            for a in range(3):
                for b in range(a + 1, 3):
                    xi = np.zeros(3)
                    xi[a], xi[b] = 1.0, -1.0
                    d = directional_derivative(f, x, xi)
                    ia, jb = h3.successors[0, a], h3.successors[0, b]
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


@pytest.mark.bit_equal
class TestCurveStacks:
    """`curve_point` over a 1-d array of t against its single-t calls."""

    # t up to the 2^1018 limit of the cone-coefficient ratio, both ways
    TS = np.array([2.0**-1018, np.nextafter(2.0**-1018, 1.0), 1e-300, 1e-7, 0.3, 1.0,
                   2.5, 1e12, 1e300, np.nextafter(2.0**1018, 0.0), 2.0**1018])

    @pytest.mark.parametrize("curve", ["C1", "C2", "C3"])
    def test_rows_equal_single_calls(self, groups, curve):
        for group in groups.values():
            stack = curve_point(curve, self.TS, group)
            assert stack.t.shape == (len(self.TS),) and stack.x.shape == (len(self.TS), 3)
            assert not stack.x.flags.writeable
            for r, t in enumerate(self.TS):
                one = curve_point(curve, float(t), group)
                assert one.t == stack.t[r] and isinstance(one.t, float)
                assert np.array_equal(one.x, stack.x[r])
                assert one.lam == stack.lam[r] and isinstance(one.lam, float)
                assert np.array_equal(one.class_lengths, stack.class_lengths[r])

    def test_single_row_stack(self, h3):
        stack = curve_point("C2", np.array([0.5]), h3)
        one = curve_point("C2", 0.5, h3)
        assert np.array_equal(stack.x[0], one.x) and stack.lam[0] == one.lam

    @pytest.mark.parametrize(
        "bad,message",
        [(0.0, "positive and finite at row 2"), (-1.0, "positive and finite at row 2"),
         (np.inf, "positive and finite at row 2"), (np.nan, "positive and finite at row 2"),
         (2.0**1019, "factor 2\\^1018 at row 2"), (2.0**-1019, "factor 2\\^1018 at row 2")],
    )
    def test_bad_row_is_named(self, h3, bad, message):
        with pytest.raises(DomainError, match=message):
            curve_point("C1", np.array([0.5, 2.0, bad, 3.0]), h3)

    def test_rejects_a_matrix_of_t(self, h3):
        with pytest.raises(DomainError, match="1-d array"):
            curve_point("C1", np.ones((2, 2)), h3)


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

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_edge_limits_are_curve_limits(self, groups, name):
        # x_k -> 0 leaves alpha_k alone wherever on the edge the target
        # lies, also 1e-6 and 1e-9 from either end: the limit of C_(k+1)
        # at t -> 0, bit for bit
        group = groups[name]
        near_ends = [1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9]
        shares = np.concatenate((near_ends, np.random.default_rng(41).random(12)))
        for k in range(3):
            p_ref, pts_ref, pattern_ref = curve_limit(f"C{k + 1}", group, 0)
            assert np.array_equal(pattern_ref, np.eye(3)[k])
            for a in shares:
                target = np.zeros(3)
                target[[j for j in range(3) if j != k]] = a, 1.0 - a
                p, n, pattern = boundary_limit(target, group)
                assert np.array_equal(p, p_ref), target
                assert n == len(pts_ref)
                assert np.array_equal(pattern, pattern_ref)

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
        with pytest.raises(SimplexError, match="weights must be finite: "):
            boundary_limit(target, h3)

    def test_target_sum_checked_as_every_point(self, h3):
        # a sum 5e-10 off 1 is not a simplex point: rejected as given, not
        # as an interpolated point the caller never passed
        with pytest.raises(SimplexError, match=r"weights do not sum to 1: \[0\. +0\.5 "):
            boundary_limit([0.0, 0.5, 0.5 + 5e-10], h3)

    def test_target_within_simplex_tolerance_accepted(self, h3):
        # a weight of -1e-13 is inside SIMPLEX_TOL, as everywhere else
        _, n, pattern = boundary_limit([-1e-13, 0.5, 0.5 + 1e-13], h3)
        _, n_ref, pattern_ref = boundary_limit([0.0, 0.5, 0.5], h3)
        assert n == n_ref == 12
        assert np.abs(pattern - pattern_ref).max() <= 1e-9

    def test_target_shape_rejected(self, h3):
        with pytest.raises(DomainError, match=r"target must be one point of shape \(3,\)"):
            boundary_limit([0.5, 0.5], h3)


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

    def test_rows_match_dense_clusters(self, b3):
        # the dense eigensolve as oracle: lambda_1 is the top cluster
        # after the simple eigenvalue 1
        sweep = sweep_lambda1(b3, 7)
        for w, lam, multiplicity, measured in zip(
            sweep.weights, sweep.lambda1, sweep.multiplicity, sweep.class_lengths
        ):
            x = simplex_point(w)
            dense = spectrum_clusters(build_operator(b3, x))[1]
            assert abs(lam - lambda1(b3, x)) <= 1e-12
            assert multiplicity == dense.multiplicity
            lengths = edge_class_lengths(spectral_representation(b3, x, dense), b3)
            assert np.abs(measured - lengths).max() <= 1e-12

    def test_columns_are_read_only(self, a3):
        sweep = sweep_lambda1(a3, 4)
        for column in (sweep.weights, sweep.lambda1, sweep.multiplicity,
                       sweep.class_lengths, sweep.path):
            assert len(column) == len(sweep) == 6
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stack_matches_points_bit_for_bit(self, groups, name, tmp_path):
        # the oracle: one point at a time through block_cluster, with the
        # class lengths of block_state, and the CSV line formed from its
        # fields; the measured lengths of the embedding agree to rounding
        group, g = groups[name], 24
        sweep = sweep_lambda1(group, g)
        points = [
            simplex_point(np.array([i, j, g + 1 - i - j]) / (g + 1))
            for i in range(1, g) for j in range(1, g + 1 - i)
        ]
        assert len(sweep) == len(points) == 276
        lines = ["x,y,z,lambda1,mult,len1,len2,len3"]
        for r, x in enumerate(points):
            cluster = block_cluster(group, x)
            lengths = block_state(x, group)[2].tolist()
            measured = edge_class_lengths(spectral_representation(group, x, cluster), group)
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

    def test_row_off_the_block_takes_lambda1_cluster(self, a3, monkeypatch):
        # a mu_1 that misses lambda_1 in the first row of the sweep's one
        # `rep_fourier` stack: sweep row 0 must leave the block path for the
        # dense cluster, and no row takes a spectrum
        true_rep, true_cluster = spectral.rep_fourier, solids._dense_lambda1_cluster
        true_spectrum = spectral.block_spectrum
        stacks = []

        def shifted(weights, group):
            stacks.append(len(weights))
            rep = true_rep(weights, group)
            roots = rep.roots.copy()
            roots[0, 0] += 1.0
            return dataclasses.replace(rep, roots=roots)

        seen, spectra = [], []

        def spy(group, x):
            cluster = true_cluster(group, x)
            seen.append((x, cluster.path))
            return cluster

        def spectrum(group, weights):
            spectra.append(len(weights))
            return true_spectrum(group, weights)

        expected = sweep_lambda1(a3, 6)
        monkeypatch.setattr(solids, "rep_fourier", shifted)
        monkeypatch.setattr(solids, "_dense_lambda1_cluster", spy)
        for module in (solids, spectral):
            monkeypatch.setattr(module, "block_spectrum", spectrum)
        sweep = sweep_lambda1(a3, 6)
        assert stacks == [15] and spectra == []
        assert len(seen) == 1 and np.array_equal(seen[0][0], sweep.weights[0])
        assert seen[0][1] == "dense"
        assert sweep.path.tolist() == ["dense"] + ["fourier"] * 14
        assert abs(sweep.lambda1[0] - lambda1(a3, sweep.weights[0])) <= 1e-12
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
    rep = spectral.rep_fourier(STACK, group)
    assert block_clusters(group, STACK, rep.roots)[1].all()
    lam, vectors = rep.roots[:, 0], rep.vectors[:, :, 0].copy()
    vectors[2] = spectral.rep_fourier(simplex_point(STACK[2]), group).vectors[:, 1]
    return STACK, lam, vectors


def moved_vertex_embedding(group):
    """The block embedding of the point STACK[0], with vertex 17 moved."""
    x = simplex_point(STACK[0])
    cluster = block_cluster(group, x)
    basis = cluster.basis.copy()
    basis[17] *= 1.5
    return x, dataclasses.replace(cluster, basis=basis)


class TestStackedChecks:
    """The residual check of a stack of block eigenvectors and the checks
    of one embedding are typed errors, with and without asserts."""

    def test_corrupted_basis_fails_the_residual(self, h3):
        x, cluster = moved_vertex_embedding(h3)
        with pytest.raises(InvarianceError, match="residual too large"):
            spectral_representation(h3, x, cluster)
        spectral_representation(h3, x, lambda1_cluster(h3, x))

    def test_perturbed_length_fails_the_spread(self, h3):
        x, cluster = moved_vertex_embedding(h3)
        with pytest.raises(InvarianceError, match="non-constant length"):
            edge_class_lengths(cluster.basis, h3)
        assert len(edge_class_lengths(lambda1_cluster(h3, x).basis, h3)) == 3

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
            "from coxspec import build_group; "
            "from coxspec.spectral import InvarianceError, block_lengths, edge_class_lengths; "
            "from test_solids import moved_vertex_embedding, wrong_eigenvector_stack\n"
            "group = build_group('H3')\n"
            "weights, lam, vectors = wrong_eigenvector_stack(group)\n"
            "_, cluster = moved_vertex_embedding(group)\n"
            "for check in (lambda: block_lengths(group, weights, lam, vectors),\n"
            "              lambda: edge_class_lengths(cluster.basis, group)):\n"
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
