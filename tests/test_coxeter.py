import dataclasses
import itertools

import numpy as np
import pytest

from coxspec.coxeter import (
    CoxeterError,
    build_group,
    coxeter_datum,
    generate_group,
    reflection_matrix,
    simple_roots,
)

PHI = (1 + np.sqrt(5)) / 2
ETA = {"A3": 1.0, "B3": np.sqrt(2), "H3": PHI}


class TestDatum:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_gram_pattern(self, name):
        g = coxeter_datum(name).gram()
        expected = np.array(
            [[1, 0, -0.5], [0, 1, -ETA[name] / 2], [-0.5, -ETA[name] / 2, 1]]
        )
        assert np.abs(g - expected).max() <= 1e-12

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_finite(self, name):
        assert coxeter_datum(name).is_finite()

    def test_rejects_bad_orders(self):
        from coxspec.coxeter import CoxeterDatum

        with pytest.raises(CoxeterError):
            CoxeterDatum("bad", np.array([[2, 1], [1, 2]]))
        with pytest.raises(CoxeterError):
            CoxeterDatum("bad", np.array([[2, 3], [4, 2]]))


class TestSimpleRoots:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_gram_reproduced(self, name):
        datum = coxeter_datum(name)
        roots = simple_roots(datum)
        assert np.abs(roots @ roots.T - datum.gram()).max() <= 1e-12

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_unit_norm(self, name):
        roots = simple_roots(coxeter_datum(name))
        assert np.abs(np.linalg.norm(roots, axis=1) - 1).max() <= 1e-12

    def test_h3_positive_volume(self):
        roots = simple_roots(coxeter_datum("H3"))
        v = np.linalg.det(roots.T)
        assert v == pytest.approx(np.sqrt((2 - PHI) / 4), abs=1e-12)

    def test_infinite_group_rejected(self):
        from coxspec.coxeter import CoxeterDatum

        # (3,3,3) triangle group is affine, Gram not positive definite
        affine = CoxeterDatum("affine", np.array([[2, 3, 3], [3, 2, 3], [3, 3, 2]]))
        with pytest.raises(CoxeterError, match="finite"):
            simple_roots(affine)


class TestReflection:
    def test_axis_reflection(self):
        sigma = reflection_matrix([1.0, 0.0, 0.0])
        assert np.allclose(sigma, np.diag([-1.0, 1.0, 1.0]))

    def test_negates_normal(self):
        n = np.array([0.6, 0.8, 0.0])
        assert np.allclose(reflection_matrix(n) @ n, -n)

    def test_rejects_non_unit(self):
        with pytest.raises(CoxeterError):
            reflection_matrix([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_pair_products_have_coxeter_order(self, name):
        datum = coxeter_datum(name)
        roots = simple_roots(datum)
        sigmas = [reflection_matrix(r) for r in roots]
        for i, j in itertools.combinations(range(3), 2):
            prod = sigmas[i] @ sigmas[j]
            power = np.eye(3)
            for _ in range(int(datum.orders[i, j])):
                power = power @ prod
            assert np.abs(power - np.eye(3)).max() <= 1e-9


class TestGroup:
    @pytest.mark.parametrize("name,order", [("A3", 24), ("B3", 48), ("H3", 120)])
    def test_orders(self, groups, name, order):
        assert groups[name].order == order

    def test_a3_is_symmetric_group_order(self, a3):
        # |A3| equals 4! (symmetric-group oracle)
        import math

        assert a3.order == math.factorial(4)

    def test_elements_orthogonal(self, h3):
        prod = np.einsum("nij,nik->njk", h3.elements, h3.elements)
        assert np.abs(prod - np.eye(3)).max() <= 1e-9

    def test_generators_involutive(self, groups):
        for g in groups.values():
            for sigma in g.generators:
                assert np.abs(sigma @ sigma - np.eye(3)).max() <= 1e-10

    def test_successor_table_total(self, groups):
        for g in groups.values():
            assert g.successors.shape == (g.order, 3)
            assert g.successors.min() >= 0
            assert g.successors.max() < g.order

    def test_closure_stable(self, b3):
        # one further closure pass discovers nothing new
        for i in range(b3.order):
            for j in range(3):
                prod = b3.elements[i] @ b3.generators[j]
                assert b3.element_index(prod) == b3.successors[i, j]

    def test_associativity_random_triples(self, h3):
        rng = np.random.default_rng(11)
        idx = rng.integers(0, h3.order, size=(100, 3))
        for a, b, c in idx:
            lhs = (h3.elements[a] @ h3.elements[b]) @ h3.elements[c]
            rhs = h3.elements[a] @ (h3.elements[b] @ h3.elements[c])
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_size_cap(self):
        with pytest.raises(CoxeterError, match="too large"):
            generate_group(coxeter_datum("H3"), max_elements=50)


class TestCayleyGraph:
    def test_counts(self, graphs):
        g = graphs["H3"]
        assert g.n_vertices == 120
        assert len(g.edges) == 180
        assert g.n_classes == 3

    def test_regular_degree(self, graphs):
        for g in graphs.values():
            for i in range(g.n_vertices):
                nbs = [nb for nb, _ in g.adjacency(i)]
                assert len(set(nbs)) == 3
                assert i not in nbs

    def test_bipartite(self, graphs):
        for g in graphs.values():
            color = g.bipartition()
            for i, j, _ in g.edges:
                assert color[i] != color[j]

    def test_face_cycles_close(self, graphs):
        # alternating (s_i, s_j) walks close after exactly 2 m_ij steps
        for name, g in graphs.items():
            orders = g.group.datum.orders
            for a, b in itertools.combinations(range(3), 2):
                for start in range(0, g.n_vertices, 7):
                    v, gen, steps = start, a, 0
                    while True:
                        v = int(g.successors[v, gen])
                        gen = b if gen == a else a
                        steps += 1
                        if v == start and gen == a:
                            break
                    assert steps == 2 * orders[a, b]

    def test_left_action_is_labelled_automorphism(self, h3, graphs):
        graph = graphs["H3"]
        edge_set = {(i, j, l) for i, j, l in graph.edges}
        rng = np.random.default_rng(2)
        for g in rng.integers(0, h3.order, size=10):
            perm = h3.left_action_permutation(int(g))
            assert sorted(perm) == list(range(120))
            for i, j, label in graph.edges:
                a, b = perm[i], perm[j]
                assert (min(a, b), max(a, b), label) in edge_set


def scan_left_action(group, g):
    """The left action found by a float scan of every product: the oracle
    for the Cayley table."""
    products = group.elements[g][None, :, :] @ group.elements
    return np.array([group.element_index(m) for m in products])


def with_permuted_column(group, j, seed):
    rng = np.random.default_rng(seed)
    succ = group.successors.copy()
    succ[:, j] = succ[rng.permutation(group.order), j]
    return dataclasses.replace(group, successors=succ)


class TestCayleyTable:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_left_action_matches_float_scan(self, groups, name):
        group = groups[name]
        if name == "H3":
            gs = np.random.default_rng(5).choice(group.order, size=20, replace=False)
        else:
            gs = range(group.order)
        for g in gs:
            assert np.array_equal(group.left_action_permutation(int(g)), scan_left_action(group, g))

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_table_axioms(self, groups, name):
        group = groups[name]
        mult, succ, n = group.mult, group.successors, group.order
        assert mult.dtype.kind == "i" and mult.shape == (n, n)
        assert np.all(np.sort(mult, axis=1) == np.arange(n))
        assert np.array_equal(mult[0], np.arange(n))
        assert np.array_equal(mult[:, 0], np.arange(n))
        for j in range(group.rank):
            # mult[a, successors[b, j]] == successors[mult[a, b], j]
            assert np.array_equal(mult[:, succ[:, j]], succ[mult, j])

    def test_table_matches_matrix_products(self, h3):
        rng = np.random.default_rng(6)
        for a, b in rng.integers(0, h3.order, size=(200, 2)):
            prod = h3.elements[a] @ h3.elements[b]
            assert np.abs(h3.elements[h3.mult[a, b]] - prod).max() <= 1e-12

    def test_table_is_read_only(self, a3):
        with pytest.raises(ValueError):
            a3.mult[0, 0] = 1

    def test_built_lazily(self):
        group = build_group("A3")
        assert "mult" not in vars(group) and "irreducible_blocks" not in vars(group)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_broken_successor_column_rejected(self, b3, j):
        with pytest.raises(CoxeterError):
            with_permuted_column(b3, j, seed=j).mult
