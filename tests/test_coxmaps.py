import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxspec import solids
from coxspec.cli import main
from coxspec.coxeter import CoxeterDatum
from coxspec.coxmaps import (
    ORBIT_TOL,
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
    # reference: each image joins the first representative found so far
    # within dedup_tol in every coordinate, else becomes the next one
    images = group.elements @ np.asarray(p, dtype=float)
    reps = np.empty_like(images)
    count = 0
    index = np.empty(group.order, dtype=int)
    for i, q in enumerate(images):
        close = (np.abs(reps[:count] - q) < dedup_tol).all(axis=1)
        if close.any():
            index[i] = close.argmax()
        else:
            index[i] = count
            reps[count] = q
            count += 1
    return reps[:count], index


def cone_point(group, alphas):
    p = np.asarray(alphas, dtype=float) @ fundamental_vectors(group)[0]
    return p / np.linalg.norm(p)


def mirror_points(group):
    # the cone points of the curve and edge limits: each coefficient 0 or 1
    patterns = [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    return [cone_point(group, pattern) for pattern in patterns]


def parabolic_order(group, zero):
    # |W_J| of the generators J with a zero cone coefficient
    J = np.flatnonzero(zero)
    if len(J) < 2:
        return 2 ** len(J)
    return 2 * int(group.datum.orders[J[0], J[1]])


# cone coefficients clear of every tolerance: zero, or at least 1e-3
coefficient = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
# coefficients far below, below, at and above the greedy's 1e-6
NEAR_MIRROR = [1e-9, 3e-7, 1e-6, 2e-6]


class TestOrbitPoints:
    def assert_matches_greedy(self, group, p):
        reps, index = orbit_points(group, p)
        ref_reps, ref_index = _greedy_orbit(group, p)
        assert np.array_equal(reps, ref_reps)
        assert np.array_equal(index, ref_index)

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["A3", "B3", "H3"]),
        alphas=st.tuples(coefficient, coefficient, coefficient).filter(lambda a: max(a) > 0),
    )
    def test_matches_greedy_on_cone_points(self, groups, name, alphas):
        self.assert_matches_greedy(groups[name], cone_point(groups[name], alphas))

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(["A3", "B3", "H3"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_greedy_on_unit_vectors(self, groups, name, seed):
        u = np.random.default_rng(seed).normal(size=3)
        self.assert_matches_greedy(groups[name], u / np.linalg.norm(u))

    def test_matches_greedy_on_limits_and_generic_points(self, groups):
        # the 27 curve and edge limits, and seeded points inside the cone
        rng = np.random.default_rng(20)
        for group in groups.values():
            points = [solids.curve_limit(c, group, end)[0]
                      for c in CURVE_PATTERNS for end in (0, "inf")]
            points += [solids.boundary_limit((1.0 - e) / 2, group)[0] for e in np.eye(3)]
            points += [cone_point(group, a) for a in rng.random((5, 3)) + 1e-3]
            for p in points:
                self.assert_matches_greedy(group, p)

    def test_images_of_mirror_points_match_greedy(self, groups):
        # g p for every element g: the stabiliser g H g^-1, cosets of it
        for group in groups.values():
            for p in mirror_points(group):
                for q in group.elements @ p:
                    self.assert_matches_greedy(group, q)

    def test_near_mirror_points_are_distinct(self, groups):
        # a coefficient of 1e-9 to 2e-6 keeps the point off its mirror:
        # |G| / |W_J| points for the exactly zero coefficients J, so 24 at
        # the A3 point (3e-7, 0.5, 3e-7), not the 4 of (0, 0.5, 0)
        a3 = groups["A3"]
        assert len(orbit_points(a3, cone_point(a3, [3e-7, 0.5, 3e-7]))[0]) == 24
        for group in groups.values():
            for c in NEAR_MIRROR:
                for alphas in itertools.product([0.0, c, 0.4, 1.0], repeat=3):
                    if max(alphas) < 0.4:
                        continue
                    reps, index = orbit_points(group, cone_point(group, alphas))
                    expected = group.order // parabolic_order(group, np.equal(alphas, 0.0))
                    assert len(reps) == expected
                    assert np.array_equal(np.bincount(index), np.full(expected, group.order // expected))

    def test_zero_point_is_one_point(self, groups):
        for group in groups.values():
            reps, index = orbit_points(group, np.zeros(3))
            assert np.array_equal(reps, np.zeros((1, 3))) and not index.any()

    @pytest.mark.filterwarnings("error")
    def test_scale_free(self, groups):
        # |p| near 1e300 or 1e-270 overflows or underflows a plain norm
        for group in groups.values():
            for p in mirror_points(group):
                reps, index = orbit_points(group, p)
                for k in (-900, 600, 1000):
                    scaled = orbit_points(group, np.ldexp(p, k))
                    assert np.array_equal(scaled[0], np.ldexp(reps, k))
                    assert np.array_equal(scaled[1], index)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_unseparated_orbit_raises(self, groups, name):
        # moved 1.5 ORBIT_TOL by s_1: neither fixed nor clear of the mirror
        group = groups[name]
        p = cone_point(group, [1.0, 0.0, 0.0])
        on = orbit_points(group, p + 0.1 * ORBIT_TOL * group.roots[1])
        off = orbit_points(group, p + 10 * ORBIT_TOL * group.roots[1])
        assert len(on[0]) == len(orbit_points(group, p)[0]) < len(off[0])
        with pytest.raises(DomainError, match="does not separate the orbit"):
            orbit_points(group, p + 0.75 * ORBIT_TOL * group.roots[1])

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

    def test_lambda_matches_eigensolver(self, groups):
        rng = np.random.default_rng(13)
        for group in groups.values():
            for _ in range(10):
                fp = fundamental_point(group, rng.random(3) + 0.05)
                x, lam = psi_maps(fp)
                cluster = lambda1_cluster(group, x)
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


def interior_stack(rng, m):
    # interior points, half of them within 1e-3 of the boundary, and the
    # uniform point
    rows = [sample_interior(rng, 3, margin=1e-3 if r % 2 else 0.02) for r in range(m - 1)]
    return np.array(rows + [uniform_point(3)])


class TestPsiStacks:
    """The psi maps on (m, 3) stacks: each row bit for bit the call on its
    point alone, every row checked, and the single-point values pinned."""

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_rows_match_single_points(self, groups, name):
        group = groups[name]
        xs = interior_stack(np.random.default_rng(16), 40)
        lam = psi_lambda_of(group, xs)
        fp = psi_delta_inverse(group, xs)
        x_back, lam_back = psi_maps(fp)
        assert lam.shape == lam_back.shape == (40,)
        assert fp.alphas.shape == fp.point.shape == x_back.shape == (40, 3)
        assert not x_back.flags.writeable
        for r, x in enumerate(xs):
            one = psi_delta_inverse(group, x)
            assert psi_lambda_of(group, x) == lam[r]
            assert np.array_equal(one.alphas, fp.alphas[r])
            assert np.array_equal(one.point, fp.point[r])
            x_one, lam_one = psi_maps(one)
            assert isinstance(lam_one, float) and lam_one == lam_back[r]
            assert np.array_equal(x_one, x_back[r])

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_fundamental_point_rows(self, groups, name):
        # cone coefficients spread over sixty decades
        group = groups[name]
        rng = np.random.default_rng(17)
        alphas = rng.random((30, 3)) * 10.0 ** rng.integers(-30, 30, size=(30, 3))
        fp = fundamental_point(group, alphas)
        x, lam = psi_maps(fp)
        for r in range(30):
            one = fundamental_point(group, alphas[r])
            assert np.array_equal(one.alphas, fp.alphas[r])
            assert np.array_equal(one.point, fp.point[r])
            x_one, lam_one = psi_maps(one)
            assert np.array_equal(x_one, x[r]) and lam_one == lam[r]

    def test_single_points_pinned(self, groups):
        # curve_point and boundary_limit of one point, to the last bit
        s = solids.curve_point("C2", 0.5, groups["H3"])
        assert [v.hex() for v in s.x] == [
            "0x1.14699adeaa2f0p-2", "0x1.c556a89d9f369p-3", "0x1.04758869431adp-1"
        ]
        assert s.lam.hex() == "0x1.f00bed8a98ebdp-1"
        assert [v.hex() for v in s.class_lengths] == [
            "0x1.8c531012d9fffp-3", "0x1.8c531012d9fffp-2", "0x1.8c531012d9fffp-3"
        ]
        s = solids.curve_point("C3", 1e-3, groups["A3"])
        assert [v.hex() for v in s.x] == [
            "0x1.ff7d3082705afp-2", "0x1.ff7d3082705b2p-2", "0x1.059efb1f49f46p-10"
        ]
        assert s.lam.hex() == "0x1.ff7d51f6ac166p-1"
        p, count, _ = solids.boundary_limit(np.array([0.0, 0.5, 0.5]), groups["H3"])
        assert count == 12
        assert [v.hex() for v in p] == [
            "0x1.0d2ca0da1530ap-1", "0x1.28ea9c91dfea2p-55", "0x1.b38880b4603e6p-1"
        ]
        p, count, _ = solids.boundary_limit(np.array([0.5, 0.0, 0.5]), groups["B3"])
        assert count == 8
        assert [v.hex() for v in p] == ["0x0.0p+0", "0x1.279a74590331ap-1", "0x1.a20bd700c2c3fp-1"]

    def test_relation_names_the_worst_row(self, h3):
        fp = fundamental_point(h3, np.random.default_rng(18).random((6, 3)) + 0.05)
        point = fp.point.copy()
        point[1] += 1e-9  # a deviation of about 1e-9
        point[4] = fundamental_point(h3, fp.alphas[4][::-1]).point
        with pytest.raises(DomainError, match="fails at row 4 "):
            psi_maps(FundamentalPoint(group=h3, alphas=fp.alphas, point=point))

    def test_nan_deviation_fails(self, h3):
        # a NaN deviation is not below the tolerance
        fp = fundamental_point(h3, np.random.default_rng(19).random((5, 3)) + 0.05)
        point = fp.point.copy()
        point[2, 1] = np.nan
        with pytest.raises(DomainError, match="fails at row 2 \\(deviation nan\\)"):
            psi_maps(FundamentalPoint(group=h3, alphas=fp.alphas, point=point))
        with pytest.raises(DomainError, match="fails \\(deviation nan\\)"):
            psi_maps(FundamentalPoint(group=h3, alphas=fp.alphas[2], point=point[2]))

    def test_coefficient_ratio_names_the_row(self, h3):
        alphas = np.ones((4, 3))
        alphas[3, 1] = 2.0**-1019
        with pytest.raises(DomainError, match="factor 2\\^1018 at row 3$"):
            psi_maps(fundamental_point(h3, alphas))

    def test_stacked_inverse_needs_interior(self, h3):
        xs = np.array([uniform_point(3), [0.0, 0.5, 0.5]])
        with pytest.raises(DomainError, match="interior simplex point at row 1$"):
            psi_delta_inverse(h3, xs)
        with pytest.raises(DomainError, match="interior simplex point at row 1$"):
            psi_lambda_of(h3, xs)


class TestEdgeLengths:
    def test_closed_form_is_reflection_distance(self, h3):
        rng = np.random.default_rng(15)
        fp = fundamental_point(h3, rng.random(3) + 0.1)
        lengths = edge_lengths_closed_form(fp)
        for j in range(3):
            d = np.linalg.norm(fp.point - h3.generators[j] @ fp.point)
            assert d == pytest.approx(lengths[j], abs=1e-12)

    def test_spectral_lengths_proportional_to_alphas(self, groups):
        # measured class lengths of the unit-columns embedding carry an
        # extra sqrt(k / n) against the orbit-map lengths
        rng = np.random.default_rng(16)
        for group in groups.values():
            fp = fundamental_point(group, rng.random(3) + 0.1)
            x, _ = psi_maps(fp)
            pts = spectral_representation(group, x, lambda1_cluster(group, x))
            measured = np.array(edge_class_lengths(pts, group))
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

    def test_eigenfunction_relation(self, h3):
        fp = fundamental_point(h3, [0.4, 0.8, 1.3])
        x, lam = psi_maps(fp)
        p = build_operator(h3, x)
        funcs = h3.elements @ fp.point
        assert np.abs(p @ funcs - lam * funcs).max() <= 1e-10
