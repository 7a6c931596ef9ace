"""Invariant transition probabilities on a Cayley graph.

A simplex point assigns one weight per generator class subject to
sum_j x_j = 1; it realizes a symmetric stochastic operator with zero
diagonal on the graph.  Every class has multiplicity 1 because the
generators are involutions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoxspecError

SIMPLEX_TOL = 1e-12


class SimplexError(CoxspecError):
    pass


@dataclass(frozen=True)
class SimplexPoint:
    """Invariant transition probabilities, one weight per edge class."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise SimplexError("weights must be a 1-d array")
        if not np.all(np.isfinite(w)):
            raise SimplexError(f"weights must be finite: {w}")
        if np.any(w < -SIMPLEX_TOL) or np.any(w > 1 + SIMPLEX_TOL):
            raise SimplexError(f"weights outside [0, 1]: {w}")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
            raise SimplexError(f"weights do not sum to 1: {w}")
        object.__setattr__(self, "weights", w)

    @property
    def interior(self):
        return bool(np.all(self.weights > 0))

    def __len__(self):
        return len(self.weights)


def simplex_point(weights):
    return SimplexPoint(weights)


def uniform_point(n_classes):
    """The canonical-Laplacian point: all classes carry equal weight."""
    return SimplexPoint(np.full(n_classes, 1.0 / n_classes))


def sample_interior(rng, n_classes, margin=0.02):
    """Random interior simplex point, bounded away from the boundary."""
    w = margin + rng.random(n_classes)
    return SimplexPoint(w / w.sum())


def build_operator(graph, x):
    """The dense |G| x |G| symmetric stochastic matrix with zero diagonal
    realizing X: only the dense oracle and the dense clusters read it."""
    if len(x) != graph.n_classes:
        raise SimplexError(
            f"point has {len(x)} classes, graph has {graph.n_classes}"
        )
    n = graph.n_vertices
    p = np.zeros((n, n))
    for j in range(graph.n_classes):
        nb = graph.successors[:, j]
        p[np.arange(n), nb] += x.weights[j]
    return p


def project_to_simplex(raw):
    """Euclidean projection onto {x >= 0, sum_j x_j = 1}.

    Sorting-based active-set method: with multiplier theta the solution
    is x_j = max(0, r_j - theta); the correct support is found by
    scanning the sorted r_j in decreasing order and verified against the
    constraint.
    """
    r = np.asarray(raw, dtype=float)
    desc = np.sort(r)[::-1]
    cum = np.cumsum(desc)
    for s in range(len(r), 0, -1):
        theta = (cum[s - 1] - 1.0) / s
        if desc[s - 1] > theta:
            x = np.maximum(0.0, r - theta)
            total = x.sum()
            if abs(total - 1.0) > 1e-9:
                raise SimplexError(f"projection violates the constraint: sum {total!r}")
            return SimplexPoint(np.clip(x / total, 0.0, 1.0))
    raise SimplexError("projection failed (empty support)")
