"""Invariant transition probabilities on a Cayley graph.

A simplex point assigns one weight per generator class subject to
sum_j x_j = 1; it realizes a symmetric stochastic operator with zero
diagonal on the graph.  Every class has multiplicity 1 because the
generators are involutions.
"""

import numpy as np

from .errors import DomainError

SIMPLEX_TOL = 1e-12


class SimplexError(DomainError):
    """Weights that are not one point or a stack of points of the simplex."""


# in this order: a point that is not finite fails before its sum is taken
_WEIGHT_RULES = (
    ("must be finite", lambda w: ~np.isfinite(w).all(axis=-1)),
    ("outside [0, 1]", lambda w: ((w < -SIMPLEX_TOL) | (w > 1 + SIMPLEX_TOL)).any(axis=-1)),
    ("do not sum to 1", lambda w: np.abs(w.sum(axis=-1) - 1.0) > SIMPLEX_TOL),
)


def check_weights(weights, k):
    """The weights of one point (k,) or a stack (m, k) as a float array,
    checked by `_WEIGHT_RULES`: the one rule for a simplex point, which
    every public entry that takes weights applies.  A `SimplexError` names
    the wrong shape, or the first rule and row that fail."""
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != k:
        raise SimplexError(f"weights must have shape ({k},) or (m, {k}); got shape {w.shape}")
    # accepted in three reductions: NaN and inf fail the range test, so the
    # sum of a row with both infinities is not taken
    if (np.minimum.reduce(w, None, initial=np.inf) >= -SIMPLEX_TOL
            and np.maximum.reduce(w, None, initial=-np.inf) <= 1 + SIMPLEX_TOL
            and np.maximum.reduce(abs(w.sum(axis=-1) - 1.0), None, initial=0.0) <= SIMPLEX_TOL):
        return w
    for rule, broken in _WEIGHT_RULES:
        bad = broken(w)
        if bad.any():
            i = np.argmax(bad)
            where = f" at row {i}: {w[i]}" if w.ndim > 1 else f": {w}"
            raise SimplexError(f"weights {rule}{where}")


def simplex_point(weights, k=None):
    """Invariant transition probabilities, one weight per edge class, as a
    read-only float copy of one point (k,) checked by `check_weights`; k
    is the point's length unless given."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1:
        raise SimplexError(f"weights must be a 1-d array, one point; got shape {w.shape}")
    check_weights(w, len(w) if k is None else k)
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
    w = check_weights(w / w.sum(axis=-1, keepdims=True), n_classes)
    w.flags.writeable = False
    return w


def build_operator(group, x):
    """The dense |G| x |G| symmetric stochastic matrix with zero diagonal
    realizing X on the Cayley graph of `group`: only the dense oracle and
    the dense clusters read it.  `x` is one point (`simplex_point`)."""
    x = simplex_point(x, group.rank)
    n = group.order
    p = np.zeros((n, n))
    # the neighbours g s_j of g are distinct, so no entry is set twice
    p[np.arange(n)[:, None], group.successors] += x
    return p


def _support_scan(r):
    # x_j = max(0, r_j - theta) for the largest support s of the sorted r
    # with desc[s-1] > theta = (cum[s-1] - 1) / s, or None if none passes
    desc = np.sort(r)[::-1]
    cum, desc = np.cumsum(desc).tolist(), desc.tolist()
    for s in range(len(r), 0, -1):
        theta = (cum[s - 1] - 1.0) / s
        if desc[s - 1] > theta:
            return np.maximum(0.0, r - theta)
    return None


def project_to_simplex(raw):
    """Euclidean projection onto {x >= 0, sum_j x_j = 1}.

    Sorting-based active-set method: with multiplier theta the solution
    is x_j = max(0, r_j - theta); the correct support is found by
    scanning the sorted r_j in decreasing order and verified against the
    constraint.  Entries of about 1e16 and above absorb the 1 in theta,
    so that no support passes; only then is the scan run again on
    r - max(r), which has the same projection.
    """
    r = np.asarray(raw, dtype=float)
    if r.ndim != 1:
        raise SimplexError(f"can project only one point, a 1-d array; got shape {r.shape}")
    # below fmax / n (NaN fails), neither the sums nor r - theta overflow
    if not np.abs(r).max(initial=0.0) <= np.finfo(float).max / max(len(r), 2):
        raise SimplexError(f"cannot project weights that are not finite or overflow their sum: {r}")
    x = _support_scan(r)
    if x is None and len(r):
        x = _support_scan(r - r.max())
    if x is None:
        raise SimplexError("projection failed (empty support)")
    total = x.sum()
    if abs(total - 1.0) > 1e-9:
        raise SimplexError(f"projection violates the constraint: sum {total!r}")
    # 0 <= x_j <= total, a sum of non-negative floats, so no clip is needed
    return simplex_point(x / total)
