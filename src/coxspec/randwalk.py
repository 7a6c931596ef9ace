"""Invariant transition probabilities on a Cayley graph.

A simplex point assigns one weight per generator class subject to
sum_j x_j = 1; it realizes a symmetric stochastic operator with zero
diagonal on the graph.  Every class has multiplicity 1 because the
generators are involutions.
"""

import numpy as np

from .errors import CoxspecError

SIMPLEX_TOL = 1e-12


class SimplexError(CoxspecError):
    pass


# in this order: a point that is not finite fails before its sum is taken
_WEIGHT_RULES = (
    ("must be finite", lambda w: ~np.isfinite(w).all(axis=-1)),
    ("outside [0, 1]", lambda w: ((w < -SIMPLEX_TOL) | (w > 1 + SIMPLEX_TOL)).any(axis=-1)),
    ("do not sum to 1", lambda w: np.abs(w.sum(axis=-1) - 1.0) > SIMPLEX_TOL),
)


def check_weights(weights):
    """The weights of one point (k,) or a stack (m, k) as a float array,
    checked by `_WEIGHT_RULES`; a `SimplexError` names the first rule and
    row that fail."""
    w = np.asarray(weights, dtype=float)
    # accepted in one pass: NaN and inf fail the range test, so the sum of
    # a row with both infinities is not taken
    inside = ((w >= -SIMPLEX_TOL) & (w <= 1 + SIMPLEX_TOL)).all()
    if inside and (np.abs(w.sum(axis=-1) - 1.0) <= SIMPLEX_TOL).all():
        return w
    for rule, broken in _WEIGHT_RULES:
        bad = broken(w)
        if bad.any():
            i = np.argmax(bad)
            where = f" at row {i}: {w[i]}" if w.ndim > 1 else f": {w}"
            raise SimplexError(f"weights {rule}{where}")


def simplex_point(weights):
    """Invariant transition probabilities, one weight per edge class, as a
    read-only float copy (k,) checked by `check_weights`."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1:
        raise SimplexError("weights must be a 1-d array")
    check_weights(w)
    w.flags.writeable = False
    return w


def uniform_point(n_classes):
    """The canonical-Laplacian point: all classes carry equal weight."""
    return simplex_point(np.full(n_classes, 1.0 / n_classes))


def sample_interior(rng, n_classes, margin=0.02, rows=None):
    """Random interior simplex point (n_classes,), bounded away from the
    boundary; with `rows`, a stack (rows, n_classes) of them from one draw,
    bit for bit the points of `rows` calls in turn, which also leave the
    generator in the same state.  Read-only, checked by `check_weights`."""
    w = margin + rng.random(n_classes if rows is None else (rows, n_classes))
    w = check_weights(w / w.sum(axis=-1, keepdims=True))
    w.flags.writeable = False
    return w


def build_operator(group, x):
    """The dense |G| x |G| symmetric stochastic matrix with zero diagonal
    realizing X on the Cayley graph of `group`: only the dense oracle and
    the dense clusters read it."""
    if len(x) != group.rank:
        raise SimplexError(f"point has {len(x)} classes, group has rank {group.rank}")
    n = group.order
    p = np.zeros((n, n))
    # the neighbours g s_j of g are distinct, so no entry is set twice
    p[np.arange(n)[:, None], group.successors] += x
    return p


def project_to_simplex(raw):
    """Euclidean projection onto {x >= 0, sum_j x_j = 1}.

    Sorting-based active-set method: with multiplier theta the solution
    is x_j = max(0, r_j - theta); the correct support is found by
    scanning the sorted r_j in decreasing order and verified against the
    constraint.
    """
    r = np.asarray(raw, dtype=float)
    # below fmax / n (NaN fails), neither the sums nor r - theta overflow
    if not np.abs(r).max(initial=0.0) <= np.finfo(float).max / max(len(r), 2):
        raise SimplexError(f"cannot project weights that are not finite or overflow their sum: {r}")
    desc = np.sort(r)[::-1]
    cum = np.cumsum(desc)
    for s in range(len(r), 0, -1):
        theta = (cum[s - 1] - 1.0) / s
        if desc[s - 1] > theta:
            x = np.maximum(0.0, r - theta)
            total = x.sum()
            if abs(total - 1.0) > 1e-9:
                raise SimplexError(f"projection violates the constraint: sum {total!r}")
            return simplex_point(np.clip(x / total, 0.0, 1.0))
    raise SimplexError("projection failed (empty support)")
