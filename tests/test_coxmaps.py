import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxspec.cli import main
from coxspec.coxeter import CoxeterDatum
from coxspec.coxmaps import (
    DomainError,
    FundamentalPoint,
    edge_lengths_closed_form,
    eta_rho,
    fundamental_point,
    fundamental_vectors,
    gram_inverse,
    orbit_points,
    psi_delta_inverse,
    psi_lambda_of,
    psi_maps,
)
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.solids import CURVE_PATTERNS
from coxspec.spectral import edge_class_lengths, lambda1_cluster, spectral_representation

PHI = (1 + np.sqrt(5)) / 2


class TestConstants:
    @pytest.mark.parametrize(
        "name,eta", [("A3", 1.0), ("B3", np.sqrt(2)), ("H3", PHI)]
    )
    def test_eta_rho(self, groups, name, eta):
        e, r = eta_rho(groups[name].datum)
        assert e == pytest.approx(eta, abs=1e-12)
        assert r == pytest.approx(3 - eta**2, abs=1e-12)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_gram_inverse(self, groups, name):
        datum = groups[name].datum
        prod = gram_inverse(datum) @ datum.gram()
        assert np.abs(prod - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize(
        "orders",
        [[[2, 3, 2], [3, 2, 3], [2, 3, 2]], [[2, 2, 2], [2, 2, 2], [2, 2, 2]], [[2, 5], [5, 2]]],
    )
    def test_gram_inverse_only_for_builtins(self, orders):
        # the closed form needs the built-in ordering (m12 = 2, m13 = 3)
        with pytest.raises(DomainError, match="built-in rank-3 ordering"):
            gram_inverse(CoxeterDatum("other", np.array(orders)))


class TestFundamentalVectors:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_duality(self, groups, name):
        group = groups[name]
        p, v = fundamental_vectors(group)
        assert v > 0
        assert np.abs(group.roots @ p.T - v * np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_determinant_semantics(self, groups, name, seed):
        # <p_j, u> is the determinant of the roots with n_j replaced by u
        group = groups[name]
        p, _ = fundamental_vectors(group)
        u = np.random.default_rng(seed).normal(size=3)
        for j in range(3):
            replaced = group.roots.copy()
            replaced[j] = u
            assert abs(p[j] @ u - np.linalg.det(replaced)) <= 1e-12 * max(1.0, np.abs(u).max())

    def test_rejects_negative_orientation(self, h3):
        swapped = dataclasses.replace(h3, roots=h3.roots[[1, 0, 2]])
        with pytest.raises(DomainError, match="orientation"):
            fundamental_vectors(swapped)

    def test_h3_volume(self, h3):
        _, v = fundamental_vectors(h3)
        assert v**2 == pytest.approx((2 - PHI) / 4, abs=1e-12)

    @pytest.mark.parametrize("j,count", [(0, 12), (1, 20), (2, 30)])
    def test_h3_orbit_sizes(self, h3, j, count):
        p, _ = fundamental_vectors(h3)
        pts, index = orbit_points(h3, p[j] / np.linalg.norm(p[j]))
        assert len(pts) == count
        assert sorted(set(index)) == list(range(count))

    def test_rejects_bad_alphas(self, h3):
        with pytest.raises(DomainError):
            fundamental_point(h3, [1.0, -1.0, 1.0])
        with pytest.raises(DomainError):
            fundamental_point(h3, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_alphas(self, h3, bad):
        with pytest.raises(DomainError, match="finite"):
            fundamental_point(h3, [bad, 1.0, 1.0])

    @pytest.mark.parametrize("t", [1e-300, 1e160, 1e300])
    @pytest.mark.parametrize("pattern", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    def test_extreme_coefficients_stay_finite(self, groups, pattern, t):
        # |alpha| near 1e154 and above overflows a plain norm
        alphas = np.where(np.array(pattern) > 0, 1.0, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for group in groups.values():
                fp = fundamental_point(group, alphas)
                assert np.all(np.isfinite(fp.alphas)) and np.all(np.isfinite(fp.point))
                assert abs(np.linalg.norm(fp.point) - 1.0) <= 1e-15
                assert np.abs(fp.alphas @ fundamental_vectors(group)[0] - fp.point).max() <= 1e-15
                x, lam = psi_maps(fp)
                assert np.all(np.isfinite(x)) and np.isfinite(lam)

    @pytest.mark.parametrize("curve", ["C1", "C2", "C3"])
    def test_coefficient_ratio_limit(self, groups, curve):
        # just inside the limit the weights are finite; past it (down to
        # coefficients that round to 0) a one-line DomainError names it,
        # and no numpy warning is raised on either side
        pattern = CURVE_PATTERNS[curve]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for group in groups.values():
                for t in (2.0**-1017, 2.0**1017):
                    x, lam = psi_maps(fundamental_point(group, pattern(t)))
                    assert np.all(np.isfinite(x)) and np.isfinite(lam)
                for t in (2.0**-1019, 1e-308, 5e-324, 2.0**1019, 1e308):
                    with pytest.raises(DomainError, match="factor 2\\^1018"):
                        psi_maps(fundamental_point(group, pattern(t)))

    def test_curve_past_the_limit_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["curve", "--group", "H3", "--curve", "C2", "--t-min", "1e-308",
                "--t-max", "1e-308", "--samples", "1", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("coxspec: cone coefficients") and err.count("\n") == 1
        assert not out.exists()

    def test_power_of_two_scale_is_exact(self, h3):
        # the same point, bit for bit, from coefficients scaled by 2^k,
        # also past 2^512 where the squares in a plain norm overflow
        rng = np.random.default_rng(3)
        for _ in range(20):
            alphas = rng.random(3) + 0.05
            fp = fundamental_point(h3, alphas)
            for k in (-40, 3, 600, 1000):
                other = fundamental_point(h3, np.ldexp(alphas, k))
                assert np.array_equal(other.point, fp.point)
                assert np.array_equal(other.alphas, fp.alphas)


def _greedy_orbit(group, p, dedup_tol=1e-6):
    # reference: each image against every representative found so far
    images = group.elements @ np.asarray(p, dtype=float)
    reps = []
    index = np.empty(group.order, dtype=int)
    for i, q in enumerate(images):
        for r, rep in enumerate(reps):
            if np.abs(rep - q).max() < dedup_tol:
                index[i] = r
                break
        else:
            index[i] = len(reps)
            reps.append(q)
    return np.stack(reps), index


# cone coefficients of zero, far below, just below, at and just above the
# default dedup_tol, and well clear of it
NEAR_TOL = [0.0, 1e-9, 3e-7, 1e-6, 2e-6, 1e-3]
coefficient = st.one_of(st.sampled_from(NEAR_TOL), st.floats(0.0, 1.0))


class TestOrbitPoints:
    def assert_matches_greedy(self, group, p):
        reps, index = orbit_points(group, p)
        ref_reps, ref_index = _greedy_orbit(group, p)
        assert np.array_equal(reps, ref_reps)
        assert np.array_equal(index, ref_index)

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["A3", "B3", "H3"]),
        # tinier cone points underflow when normalised
        alphas=st.tuples(coefficient, coefficient, coefficient).filter(lambda a: max(a) >= 1e-9),
    )
    def test_matches_greedy_on_cone_points(self, groups, name, alphas):
        pvecs, _ = fundamental_vectors(groups[name])
        p = np.array(alphas) @ pvecs
        self.assert_matches_greedy(groups[name], p / np.linalg.norm(p))

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(["A3", "B3", "H3"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_greedy_on_unit_vectors(self, groups, name, seed):
        u = np.random.default_rng(seed).normal(size=3)
        self.assert_matches_greedy(groups[name], u / np.linalg.norm(u))

    def test_non_transitive_closeness(self, groups):
        # images within dedup_tol of a representative are not all within
        # dedup_tol of each other; first-match keeps 12 points where
        # "first close image" would keep 16
        a3 = groups["A3"]
        pvecs, _ = fundamental_vectors(a3)
        p = np.array([3e-7, 0.5, 3e-7]) @ pvecs
        p /= np.linalg.norm(p)
        images = a3.elements @ p
        close = (np.abs(images[:, None] - images[None]) < 1e-6).all(axis=-1)
        assert ((close.astype(int) @ close > 0) & ~close).any()
        assert len(np.unique(close.argmax(axis=1))) == 16
        self.assert_matches_greedy(a3, p)
        assert len(orbit_points(a3, p)[0]) == 12

    @pytest.mark.parametrize(
        "p", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0], [[1.0, 0.0, 0.0]]]
    )
    def test_rejects_bad_point(self, h3, p):
        with pytest.raises(DomainError, match="finite coordinates"):
            orbit_points(h3, p)


class TestPsiMaps:
    @pytest.mark.parametrize(
        "name,eta", [("A3", 1.0), ("B3", np.sqrt(2)), ("H3", PHI)]
    )
    def test_equal_alphas_hit_the_minimum(self, groups, name, eta):
        rho = 3 - eta**2
        denom = 12 + rho + 6 * eta
        x, lam = psi_maps(fundamental_point(groups[name], [1.0, 1.0, 1.0]))
        expected = np.array([3 + rho + eta, 3 + 3 * eta, 6 + 2 * eta]) / denom
        assert np.abs(x - expected).max() <= 1e-12
        assert lam == pytest.approx((12 + 6 * eta - rho) / denom, abs=1e-12)

    def test_defining_relation(self, h3):
        rng = np.random.default_rng(12)
        for _ in range(20):
            fp = fundamental_point(h3, rng.random(3) + 0.05)
            x, lam = psi_maps(fp)
            rhs = sum(
                x[j] * (h3.generators[j] @ fp.point) for j in range(3)
            )
            assert np.abs(lam * fp.point - rhs).max() <= 1e-12

    def test_defining_relation_violation_rejected(self, h3):
        fp = fundamental_point(h3, [0.4, 0.8, 1.3])
        other = fundamental_point(h3, [1.3, 0.8, 0.4]).point
        with pytest.raises(DomainError, match="fails"):
            psi_maps(FundamentalPoint(group=h3, alphas=fp.alphas, point=other))

    def test_lambda_matches_eigensolver(self, groups, graphs):
        rng = np.random.default_rng(13)
        for name, group in groups.items():
            graph = graphs[name]
            for _ in range(10):
                fp = fundamental_point(group, rng.random(3) + 0.05)
                x, lam = psi_maps(fp)
                cluster = lambda1_cluster(graph, x)
                assert lam == pytest.approx(cluster.eigenvalue, abs=1e-9)
                assert cluster.multiplicity == 3

    def test_round_trip(self, groups):
        rng = np.random.default_rng(14)
        for group in groups.values():
            for _ in range(20):
                x = sample_interior(rng, 3)
                fp = psi_delta_inverse(group, x)
                x_back, lam = psi_maps(fp)
                assert np.abs(x_back - x).max() <= 1e-9
                assert lam == pytest.approx(psi_lambda_of(group, x), abs=1e-10)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("A3", (1 + np.sqrt(2)) / 3),
            ("B3", (1 + np.sqrt(3)) / 3),
            ("H3", (1 + np.sqrt(2 + PHI)) / 3),
        ],
    )
    def test_uniform_point_closed_form(self, groups, name, expected):
        assert psi_lambda_of(groups[name], uniform_point(3)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_inverse_needs_interior(self, h3):
        with pytest.raises(DomainError):
            psi_delta_inverse(h3, simplex_point([0.0, 0.5, 0.5]))
        with pytest.raises(DomainError):
            psi_lambda_of(h3, simplex_point([0.5, 0.5, 0.0]))


class TestEdgeLengths:
    def test_closed_form_is_reflection_distance(self, h3):
        rng = np.random.default_rng(15)
        fp = fundamental_point(h3, rng.random(3) + 0.1)
        lengths = edge_lengths_closed_form(fp)
        for j in range(3):
            d = np.linalg.norm(fp.point - h3.generators[j] @ fp.point)
            assert d == pytest.approx(lengths[j], abs=1e-12)

    def test_spectral_lengths_proportional_to_alphas(self, groups, graphs):
        # measured class lengths of the unit-columns embedding carry an
        # extra sqrt(k / n) against the orbit-map lengths
        rng = np.random.default_rng(16)
        for name, group in groups.items():
            graph = graphs[name]
            fp = fundamental_point(group, rng.random(3) + 0.1)
            x, _ = psi_maps(fp)
            pts = spectral_representation(graph, x, lambda1_cluster(graph, x))
            measured = np.array(edge_class_lengths(pts, graph))
            expected = edge_lengths_closed_form(fp) * np.sqrt(3.0 / group.order)
            assert np.abs(measured - expected).max() <= 1e-8


class TestOrbitEigenfunctions:
    """Columns r of `group.elements @ p` are gamma -> <gamma p, e_r>."""

    def test_norms_and_orthogonality(self, groups):
        rng = np.random.default_rng(17)
        for group in groups.values():
            fp = fundamental_point(group, rng.random(3) + 0.1)
            funcs = group.elements @ fp.point
            gram = funcs.T @ funcs
            expected = (group.order / 3.0) * np.eye(3)
            assert np.abs(gram - expected).max() <= 1e-9

    def test_eigenfunction_relation(self, h3, graphs):
        fp = fundamental_point(h3, [0.4, 0.8, 1.3])
        x, lam = psi_maps(fp)
        p = build_operator(graphs["H3"], x)
        funcs = h3.elements @ fp.point
        assert np.abs(p @ funcs - lam * funcs).max() <= 1e-10
