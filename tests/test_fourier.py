import numpy as np
import pytest

from coxspec.coxeter import CoxeterDatum, generate_group
from coxspec.errors import DomainError
from coxspec.fourier import char_poly_coeffs, crosscheck_mu1, rep_fourier
from coxspec.linalg import eigh_symmetric
from coxspec.randwalk import build_operator, sample_interior, simplex_point, uniform_point
from coxspec.spectral import ORACLE_CHUNK

PHI = (1 + np.sqrt(5)) / 2


class TestRepFourier:
    def test_matrix_is_weighted_generator_sum(self, h3):
        x = simplex_point([0.2, 0.3, 0.5])
        rep = rep_fourier(x, h3)
        expected = sum(x[j] * h3.generators[j] for j in range(3))
        assert np.abs(rep.matrix - expected).max() <= 1e-15

    def test_single_class_roots(self, h3):
        # a single reflection has eigenvalues (1, 1, -1)
        rep = rep_fourier(simplex_point([1.0, 0.0, 0.0]), h3)
        assert np.abs(rep.roots - np.array([1.0, 1.0, -1.0])).max() <= 1e-12

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_stack_matches_single_points(self, groups, name):
        # bit for bit: M, its roots and its vectors of a point alone are
        # those of its row in a stack
        rng = np.random.default_rng(11)
        points = [sample_interior(rng, 3) for _ in range(40)] + [simplex_point([1.0, 0.0, 0.0])]
        stacked = rep_fourier(np.array(points), groups[name])
        assert stacked.matrix.shape == (41, 3, 3) and stacked.roots.shape == (41, 3)
        for r, x in enumerate(points):
            one = rep_fourier(x, groups[name])
            for field in ("matrix", "roots", "vectors"):
                assert np.array_equal(getattr(stacked, field)[r], getattr(one, field))

    def test_rejects_rank_two(self):
        dihedral = generate_group(CoxeterDatum("I2(5)", np.array([[2, 5], [5, 2]])))
        with pytest.raises(DomainError, match="rank 3"):
            rep_fourier(simplex_point([0.5, 0.5]), dihedral)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("A3", (1 + np.sqrt(2)) / 3),
            ("B3", (1 + np.sqrt(3)) / 3),
            ("H3", (1 + np.sqrt(2 + PHI)) / 3),
        ],
    )
    def test_mu1_uniform_closed_form(self, groups, name, expected):
        mu1 = rep_fourier(uniform_point(3), groups[name]).roots[0]
        assert mu1 == pytest.approx(expected, abs=1e-12)


class TestCharPoly:
    def test_coeffs_against_numpy(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(3, 3))
        a = a + a.T
        c2, c1, c0 = char_poly_coeffs(a)
        expected = np.poly(a)
        assert np.abs(np.array([c2, c1, c0]) - expected[1:]).max() <= 1e-12

    def test_h3_closed_form_on_grid(self, h3):
        # t^3 - t^2 - q t + q + 2 (2 - phi) x y z with
        # q = 1 - 4 x y - 3 x z - (3 - phi) y z
        for i in range(1, 6):
            for j in range(1, 7 - i):
                w = np.array([i, j, 7 - i - j]) / 7.0
                c2, c1, c0 = char_poly_coeffs(rep_fourier(simplex_point(w), h3).matrix)
                x, y, z = w
                q = 1 - 4 * x * y - 3 * x * z - (3 - PHI) * y * z
                assert abs(c2 + 1) <= 1e-12
                assert abs(c1 + q) <= 1e-12
                assert abs(c0 - (q + 2 * (2 - PHI) * x * y * z)) <= 1e-12


class TestCrosscheck:
    def test_mu1_equals_lambda1(self, groups):
        rng = np.random.default_rng(21)
        for group in groups.values():
            for _ in range(10):
                x = sample_interior(rng, 3)
                assert crosscheck_mu1(x, group) <= 1e-9

    @pytest.mark.bit_equal
    def test_stack_matches_single_points(self, groups):
        # one deviation per row, each that of its point alone
        rng = np.random.default_rng(23)
        xs = np.array([sample_interior(rng, 3) for _ in range(2 * ORACLE_CHUNK + 1)])
        for group in groups.values():
            devs = crosscheck_mu1(xs, group)
            assert devs.shape == (len(xs),) and devs.max() <= 1e-9
            for x, dev in zip(xs, devs):
                assert crosscheck_mu1(x, group) == dev

    def test_rep_roots_in_full_spectrum_with_multiplicity(self, h3):
        rng = np.random.default_rng(22)
        x = sample_interior(rng, 3)
        roots = rep_fourier(x, h3).roots
        vals, _ = eigh_symmetric(build_operator(h3, x))
        for mu in roots:
            assert np.sum(np.abs(vals - mu) <= 1e-9) >= 3
