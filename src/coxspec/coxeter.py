"""Finite rank-3 Coxeter reflection groups and their Cayley graphs.

A group is built from its matrix of orders m_ij: the simple roots are the
Cholesky factor rows of the Gram matrix M_ij = -cos(pi/m_ij), generators
are the corresponding reflections, and the full element list is produced
by breadth-first closure under right multiplication, on exact keys.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import CoxspecError, DomainError, MeshError

# element_index: largest entrywise distance of a matrix to its element
DEDUP_TOL = 1e-6
# generate_group: eta = 2cos(pi/m) for m = 4, 5, 6 has eta^2 = p + q eta
ETA_SQUARED = {4: (2, 0), 5: (1, 1), 6: (3, 0)}
# generate_group: closure size at which a datum counts as not finite
MAX_ELEMENTS = 100_000
# irreducible_blocks: seed of the generic left operator, the relative
# eigenvalue distance that separates its eigenspaces, the largest allowed
# deviation from invariance (observed: 2e-14 on H3), and the largest
# character difference of two copies of one representation, read on one
# element per conjugacy class (observed: 1.2e-14 on H3; distinct
# characters differ by at least sqrt(2) on some class, since
# sum_g (chi_a - chi_b)(g)^2 = 2|G|, and by 2 on A3, B3 and H3)
BLOCK_SEED = 0
BLOCK_SPLIT_RTOL = 1e-8
BLOCK_INVARIANCE_TOL = 1e-10
BLOCK_CHARACTER_TOL = 1e-8


class CoxeterError(CoxspecError):
    pass


@dataclass(frozen=True)
class CoxeterDatum:
    """Coxeter matrix of generator-product orders (diagonal entries 2)."""

    name: str
    orders: np.ndarray

    def __post_init__(self):
        # exact integers only: generate_group picks its ring from the orders
        f = np.asarray(self.orders, dtype=float)
        bad = np.argwhere(~np.isfinite(f) | (f != np.round(f)) | (np.abs(f) >= 2.0**31))
        if len(bad):
            entry = tuple(bad[0].tolist())
            raise CoxeterError(f"{self.name}: order {entry} is {f[entry]:g}, not a finite integer below 2**31")
        m = f.astype(int)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise CoxeterError("order matrix must be square")
        if not np.array_equal(m, m.T):
            raise CoxeterError("order matrix must be symmetric")
        if np.any(np.diag(m) != 2):
            raise CoxeterError("diagonal orders must be 2 (involutive generators)")
        if np.any(m[~np.eye(len(m), dtype=bool)] < 2):
            raise CoxeterError("off-diagonal orders must be >= 2")
        object.__setattr__(self, "orders", m)

    @property
    def rank(self):
        return self.orders.shape[0]

    def gram(self):
        """Gram matrix of the simple roots: -cos(pi/m_ij), ones on diagonal."""
        g = -np.cos(np.pi / self.orders)
        np.fill_diagonal(g, 1.0)
        return g


def _rank3_datum(name, m23):
    # generator ordering: m12 = 2, m13 = 3, m23 varies (3, 4 or 5)
    return CoxeterDatum(name, np.array([[2, 2, 3], [2, 2, m23], [3, m23, 2]]))


BUILTIN_NAMES = ("A3", "B3", "H3")


def coxeter_datum(name):
    """Built-in rank-3 data; the generator ordering puts the commuting
    pair first, so eta = -2 M_23 is 1, sqrt(2), golden ratio."""
    try:
        return _rank3_datum(name, {"A3": 3, "B3": 4, "H3": 5}[name])
    except KeyError:
        raise CoxeterError(f"unknown built-in group {name!r}") from None


def simple_roots(datum):
    """Unit simple roots realizing the Gram matrix, with positive
    determinant orientation.

    Cholesky of the (positive definite) Gram matrix yields rows with the
    required inner products and a positive determinant for free.
    """
    gram = datum.gram()
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise CoxeterError(f"{datum.name}: not a finite Coxeter group") from None
    roots = chol  # row i is n_i
    if np.linalg.det(roots) <= 0:
        raise CoxeterError(f"{datum.name}: simple roots are not positively oriented")
    return roots


def reflection_matrix(n):
    """Householder reflection about the hyperplane with unit normal n."""
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise CoxeterError("reflection normal must be a unit vector")
    return np.eye(len(n)) - 2.0 * np.outer(n, n)


@dataclass(frozen=True)
class ReflectionGroup:
    """Complete matrix group with generator-multiplication structure.

    elements[0] is the identity; successors[i, j] is the index of
    elements[i] @ generators[j]; `generate_group` makes all four arrays
    read-only.  The group is its own Cayley graph: vertices are the
    element indices, and `successors` gives the neighbour along each
    generator class.  Its `edges`, the Cayley table `mult`, the
    `irreducible_blocks` and the `face_cycles` are derived from
    `successors` on first use.
    """

    datum: CoxeterDatum
    roots: np.ndarray        # (k, k), row i = simple root n_i
    generators: np.ndarray   # (k, k, k)
    elements: np.ndarray     # (n, k, k)
    successors: np.ndarray   # (n, k) int

    @property
    def rank(self):
        return self.datum.rank

    @property
    def order(self):
        return self.elements.shape[0]

    def element_index(self, matrix):
        """Index of the group element entrywise closest to `matrix`."""
        dist = np.abs(self.elements - matrix).max(axis=(1, 2))
        i = int(dist.argmin())
        if dist[i] >= DEDUP_TOL:
            raise CoxeterError("matrix is not a group element")
        return i

    @cached_property
    def edges(self):
        """The Cayley graph's edges as one read-only int array (E, 3) of
        rows (i, j, label) with i < j = successors[i, label], ordered by i,
        then by label."""
        i, label = np.nonzero(np.arange(self.order)[:, None] < self.successors)
        edges = np.column_stack((i, self.successors[i, label], label))
        edges.flags.writeable = False
        return edges

    @cached_property
    def fundamental_vectors(self):
        """(p, V): the rows p_j of V * N^{-T}, N the matrix of simple roots
        (rows n_i), satisfy <n_i, p_j> = V * delta_ij with V = det(N) > 0;
        for k = 3 they are signed cross products of the other two roots.
        Computed once per group; p is read-only."""
        v = float(np.linalg.det(self.roots))
        if v <= 0:
            raise DomainError("root orientation must have positive determinant")
        p = v * np.linalg.inv(self.roots).T
        dev = np.abs(self.roots @ p.T - v * np.eye(self.rank)).max()
        if dev > 1e-12:
            raise DomainError(f"fundamental vectors are not dual to the roots (deviation {dev:.2g})")
        p.flags.writeable = False
        return p, v

    @cached_property
    def mult(self):
        """Integer Cayley table: mult[a, b] is the index of
        elements[a] @ elements[b].

        Built from `successors` alone: column 0 is the identity map, and
        for b = b' s_j reached in breadth-first order,
        mult[:, b] = successors[mult[:, b'], j].  The group axioms are
        checked once on every edge: each row is a permutation, element 0
        is the identity, and mult[a, b s_j] = mult[a, b] s_j.  Read-only.
        """
        n, k = self.successors.shape
        mult = np.full((n, n), -1, dtype=np.intp)
        mult[:, 0] = np.arange(n)
        order = [0]
        # every edge (b', j) is visited once, so every edge is checked
        for b_prev in order:
            for j in range(k):
                b = self.successors[b_prev, j]
                col = self.successors[mult[:, b_prev], j]
                if mult[0, b] < 0:
                    mult[:, b] = col
                    order.append(b)
                elif not np.array_equal(mult[:, b], col):
                    raise CoxeterError(f"Cayley table is not compatible with generator {j}")
        if len(order) != n or not np.array_equal(mult[0], np.arange(n)):
            raise CoxeterError("successor table does not reach every element from the identity")
        seen = np.zeros((n, n), dtype=bool)
        seen[np.arange(n)[:, None], mult] = True
        if not seen.all():
            raise CoxeterError("Cayley table row is not a permutation")
        mult.flags.writeable = False
        return mult

    @cached_property
    def irreducible_blocks(self):
        """Matrices rho(s_j) = U' R_j U of the right action on one
        eigenspace U per irreducible representation, found among the
        eigenspaces of one generic symmetric left operator.

        A = sum_h c_h (L_h + L_h') with fixed random c commutes with every
        right multiplication R_j, (R_j f)(g) = f(g s_j), so each of its
        eigenspaces is right-invariant; for generic c each one is an
        irreducible representation, and a d-dimensional one occurs in d
        eigenspaces.  The copies carry one block up to a change of basis,
        so one is kept per character chi(g) = sum_h (U U')[h, h g], a class
        function read on the least element g of each conjugacy class: the
        eigenspaces of one dimension are grouped by character within
        `BLOCK_CHARACTER_TOL`, and each group must have d members.  The
        spectrum of P_X = sum_j x_j R_j is then the union of the spectra
        of the blocks sum_j x_j rho(s_j), each eigenvalue repeated d times.
        Returns one read-only array (k, irreps, d, d) per dimension d,
        ascending in d, with [j, c] = rho_c(s_j).  The invariance
        R_j U = U rho(s_j) is checked for every eigenspace.
        """
        return self._representations[0]

    @cached_property
    def _representations(self):
        # (irreducible_blocks, characters (irreps, classes) per dimension, classes)
        n, k = self.successors.shape
        inverse = np.argmin(self.mult, axis=1)
        coeffs = np.random.default_rng(BLOCK_SEED).standard_normal(n)
        coeffs += coeffs[inverse]  # c_h + c_{h^-1}: A is symmetric
        # the least element of each conjugacy class {h g h^-1}
        least = self.mult[self.mult, inverse[:, None]].min(axis=0)
        reps = np.flatnonzero(least == np.arange(n))
        left = np.zeros((n, n))
        left[np.arange(n)[None, :], self.mult] = coeffs[:, None]  # A[g, h g]
        vals, vecs = np.linalg.eigh(left)
        del left
        cuts = np.flatnonzero(np.diff(vals) > BLOCK_SPLIT_RTOL * np.abs(vals).max()) + 1
        by_dim = {}  # d -> [character, block, copies] per irreducible representation
        for u in np.split(vecs, cuts, axis=1):
            shifted = u[self.successors.T]  # (k, n, d): rows of R_j U
            rho = np.einsum("na,jnb->jab", u, shifted)
            dev = np.abs(shifted - u @ rho).max()
            if dev > BLOCK_INVARIANCE_TOL:
                raise CoxeterError(
                    f"eigenspace of dimension {u.shape[1]} is not invariant under the "
                    f"generators (deviation {dev:.2g})"
                )
            chi = np.einsum("ha,hra->r", u, u[self.mult[:, reps]])
            irreps = by_dim.setdefault(u.shape[1], [])
            for irrep in irreps:
                if np.abs(irrep[0] - chi).max() <= BLOCK_CHARACTER_TOL:
                    irrep[2] += 1
                    break
            else:
                # R_j is a symmetric involution, so rho(s_j) is symmetric up to rounding
                irreps.append([chi, (rho + rho.transpose(0, 2, 1)) / 2, 1])
        blocks = []
        for d in sorted(by_dim):
            copies = [irrep[2] for irrep in by_dim[d]]
            if any(c != d for c in copies):
                raise CoxeterError(
                    f"characters of dimension {d} occur in {copies} eigenspaces; "
                    f"expected {d} each"
                )
            stack = np.stack([irrep[1] for irrep in by_dim[d]], axis=1)
            stack.flags.writeable = False
            blocks.append(stack)
        return tuple(blocks), [np.array([ir[0] for ir in by_dim[d]]) for d in sorted(by_dim)], reps

    @cached_property
    def det_pairs(self):
        """The representations of `irreducible_blocks` in pairs rho,
        rho (x) det, from the characters read on one element per conjugacy
        class: chi_{rho (x) det}(g) = det g chi_rho(g) (Serre, 2.1), so the
        block of rho (x) det is minus that of rho.  Returns (pairs, stacks):
        one (i, a, b) per pair, position i in `irreducible_blocks` and the
        indices of rho and rho (x) det (a == b: self-paired), the geometric
        pair (chi_a(g) = tr g) first, the trivial one (chi_a = 1) second;
        and per position of the others, the read-only blocks (k, p, d, d) of
        their rho_a with a bool (p,), true where b != a.  A missing
        geometric or trivial character, or a partner, is a `CoxeterError`."""
        blocks, chars, classes = self._representations
        g = self.elements[classes]
        where = [(i, c) for i, b in enumerate(blocks) for c in range(b.shape[1])]
        chi = np.concatenate(chars)
        hit = lambda want: np.abs(chi - want).max(axis=-1) <= BLOCK_CHARACTER_TOL  # noqa: E731
        match = hit((np.linalg.det(g) * chi)[:, None])  # [a, b]: chi_b = det g chi_a
        geometric, trivial = hit(np.trace(g, axis1=1, axis2=2)), hit(1.0)
        for what, ok in (("geometric", geometric.any()), ("trivial", trivial.any()),
                         ("det g chi", match.any(axis=1).all())):
            if not ok:
                raise CoxeterError(f"irreducible characters lack a {what} character")
        partner, first = match.argmax(axis=1), [geometric.argmax(), trivial.argmax()]
        rest = [a for a in range(len(chi)) if a <= partner[a] and not {a, partner[a]} & set(first)]
        pairs = tuple((*where[a], where[partner[a]][1]) for a in first + rest)
        stacks = []
        for i, b in enumerate(blocks):
            own = np.array([(a, c) for j, a, c in pairs[2:] if j == i], dtype=np.intp).reshape(-1, 2)
            if len(own):
                stacks.append((b[:, own[:, 0]], own[:, 0] != own[:, 1]))
                stacks[-1][0].flags.writeable = stacks[-1][1].flags.writeable = False
        return pairs, tuple(stacks)

    @cached_property
    def face_cycles(self):
        """The alternating-generator cycles of the Cayley graph, one
        read-only int array (cycles, 2 m_ab) per generator pair a < b in
        order.  A row is s, s s_a, s s_a s_b, ...: the coset s <s_a, s_b>,
        started at its least element s; rows ascend in s.  A walk whose
        first return to its start is not at step 2 m_ab raises
        `MeshError`."""
        n, k = self.successors.shape
        cycles = []
        for a in range(k):
            for b in range(a + 1, k):
                length = 2 * int(self.datum.orders[a, b])
                walk = np.empty((n, length + 1), dtype=np.intp)
                walk[:, 0] = np.arange(n)
                for step in range(length):
                    walk[:, step + 1] = self.successors[walk[:, step], (a, b)[step % 2]]
                # each walk must first return to its start at the last step;
                # argmax is 0 for a walk that never returns, and length >= 4
                bad = np.flatnonzero((walk[:, 1:] == walk[:, :1]).argmax(axis=1) != length - 1)
                if len(bad):
                    raise MeshError(
                        f"face cycle for pair ({a},{b}) from vertex {bad[0]} does not "
                        f"first close after {length} steps"
                    )
                walk = walk[:, :length]
                rows = walk[walk.min(axis=1) == np.arange(n)]
                rows.flags.writeable = False
                cycles.append(rows)
        return tuple(cycles)

    def left_action_permutation(self, g):
        """Vertex permutation i -> index(element_g . element_i): row g of
        the Cayley table."""
        return self.mult[g]


def generate_group(datum):
    """Breadth-first closure of the generating reflections, each element g
    found again by its numbers-game key g^-1 rho in fundamental-weight
    coordinates (Bjorner and Brenti, GTM 231, 4.3): key(e) = (1, ..., 1)
    and key(g s_j) = s_j key(g).  A coordinate is an integer, or a pair
    a + b eta for eta = 2cos(pi/m), m the one order in `ETA_SQUARED`;
    other data raise.  rho lies in the open chamber, so distinct elements
    have distinct keys.  A new element's matrix is elements[i] @ generators[j].
    """
    roots = simple_roots(datum)
    k = datum.rank
    gens = np.stack([reflection_matrix(roots[j]) for j in range(k)])
    high = sorted(set(datum.orders.ravel().tolist()) - {2, 3})
    if len(high) > 1 or not set(high) <= ETA_SQUARED.keys():
        raise CoxeterError(f"{datum.name}: exact keys need orders in 2..6, at most one above 3 (got {high})")
    # s_j negates coordinate j and adds 2cos(pi/m_ij) times it to each
    # coordinate i: key += step[:, j] key_j, with 2cos(pi/m) as an integer
    # matrix on (a, b) and -2 in block j
    d = 1 + len(high)
    two_cos = {2: np.zeros((d, d), int), 3: np.eye(d, dtype=int)}
    two_cos.update({m: np.array([[0, 1], ETA_SQUARED[m]]).T for m in high})
    step = np.block([[two_cos[m] for m in row] for row in datum.orders]) - 2 * np.eye(k * d, dtype=int)
    step = step.reshape(k * d, k, d)

    index = {((1,) + (0,) * (d - 1)) * k: 0}  # key -> element
    elements = [np.eye(k)]
    successors = []
    while len(successors) < len(index):
        # one breadth-first level at a time: products[j][f] = key of level[f] s_j
        level = np.array(list(index)[len(successors) :])
        products = (level + np.einsum("fje,cje->jfc", level.reshape(-1, k, d), step)).tolist()
        for i, row in enumerate(zip(*products), start=len(successors)):
            successors.append([])
            for j, key in enumerate(map(tuple, row)):
                if key not in index:
                    if len(index) >= MAX_ELEMENTS:
                        raise CoxeterError("group too large or not finite")
                    index[key] = len(index)
                    elements.append(elements[i] @ gens[j])
                successors[i].append(index[key])

    stacked = np.stack(elements)
    successors = np.array(successors)
    for arr in (roots, gens, stacked, successors):
        arr.flags.writeable = False
    return ReflectionGroup(
        datum=datum,
        roots=roots,
        generators=gens,
        elements=stacked,
        successors=successors,
    )


@cache
def build_group(name):
    """The built-in group `name`, built once per process and shared, so
    its cached properties are computed once per datum."""
    return generate_group(coxeter_datum(name))


def cayley_graph(group):
    # the group is its own Cayley graph; perfbench/run.py still calls this
    return group
