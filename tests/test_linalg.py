import numpy as np
import pytest

from coxspec.coxeter import coxeter_datum
from coxspec.linalg import LinalgError, eigh_symmetric, perron_frobenius

PHI = (1 + np.sqrt(5)) / 2


def cubic_roots(b, c, d):
    """Real roots of t^3 + b t^2 + c t + d via the trigonometric formula.

    Independent oracle for 3x3 symmetric eigenvalues (all roots real).
    """
    p = c - b**2 / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    m = 2 * np.sqrt(-p / 3)
    theta = np.arccos(np.clip(3 * q / (p * m), -1, 1)) / 3
    return sorted(
        (m * np.cos(theta - 2 * np.pi * k / 3) - b / 3 for k in range(3)), reverse=True
    )


class TestEigh:
    def test_identity(self):
        vals, vecs = eigh_symmetric(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(vecs @ vecs.T, np.eye(3))

    def test_swap_matrix(self):
        vals, _ = eigh_symmetric([[0, 1], [1, 0]])
        assert np.allclose(vals, [1, -1])

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_gram_matrix_vs_cubic_oracle(self, name):
        m = coxeter_datum(name).gram()
        # coefficients of det(tI - M)
        b = -np.trace(m)
        c = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
        d = -np.linalg.det(m)
        expected = cubic_roots(b, c, d)
        vals, _ = eigh_symmetric(m)
        assert np.abs(vals - expected).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 20, 80, 150])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        a = a + a.T
        vals, vecs = eigh_symmetric(a)
        scale = np.abs(a).max()
        assert np.abs(a - vecs @ np.diag(vals) @ vecs.T).max() <= 1e-9 * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(vals) <= 0)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        d1 = eigh_symmetric(a)
        d2 = eigh_symmetric(a.copy())
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        for r in range(6):
            col = d1.eigenvectors[:, r]
            assert col[np.abs(col).argmax()] > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(LinalgError):
            eigh_symmetric(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(LinalgError):
            eigh_symmetric([[0, 1], [0, 0]])


class TestPerronFrobenius:
    def test_all_ones(self):
        lam, v = perron_frobenius(np.ones((3, 3)))
        assert abs(lam - 3) <= 1e-12
        assert np.abs(v - 1 / np.sqrt(3)).max() <= 1e-10

    @pytest.mark.parametrize(
        "name,expected",
        [("A3", 2 + np.sqrt(2)), ("B3", 4 + 2 * np.sqrt(3))],
    )
    def test_gram_inverse_closed_forms(self, name, expected):
        from coxspec.coxmaps import gram_inverse

        lam, v = perron_frobenius(gram_inverse(coxeter_datum(name)))
        assert abs(lam - expected) <= 1e-10
        assert np.all(v > 0)
        assert abs(np.linalg.norm(v) - 1) <= 1e-12

    def test_dominates_spectrum(self):
        rng = np.random.default_rng(3)
        a = rng.random((5, 5)) + 0.1
        s = (a + a.T) / 2
        lam, _ = perron_frobenius(s)
        vals, _ = eigh_symmetric(s)
        assert lam >= np.abs(vals).max() - 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(LinalgError):
            perron_frobenius([[1, 0], [1, 1]])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(LinalgError, match="symmetric"):
            perron_frobenius([[1, 2], [3, 1]])


class TestDet:
    def test_h3_root_volume(self, h3):
        # det(N)^2 = det(N N^T), the product of the Gram matrix eigenvalues
        gram = h3.roots @ h3.roots.T
        v2 = np.prod(eigh_symmetric(gram).eigenvalues)
        assert v2 == pytest.approx((2 - PHI) / 4, abs=1e-12)
