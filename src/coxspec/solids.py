"""Optimization and deformation of the second-eigenvalue embedding:
minimum of lambda_1 over the simplex, criticality certificates, the three
equal-length curves and the boundary degenerations.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coxmaps import (
    _worst,
    edge_lengths_closed_form,
    eta_rho,
    fundamental_point,
    fundamental_vectors,
    orbit_points,
    psi_maps,
)
from .errors import CoxspecError, DomainError
from .fourier import rep_fourier
from .randwalk import (
    SIMPLEX_TOL,
    check_weights,
    project_to_simplex,
    simplex_point,
    uniform_point,
)
from .spectral import CLUSTER_TOL, block_clusters, block_lengths, check_gaps, lambda1

FD_STEP = 1e-6
EQUILATERAL_TOL = 1e-7
# smallest cluster gap at which finite differences of lambda_1 with step
# FD_STEP stay on one eigenvalue branch
GAP_GUARD = 1e-4
MIN_GRAD_TOL = 1e-9
MAX_ITER = 10_000

CURVE_PATTERNS = {
    # cone-coefficient pattern in t, (3,) for one t and (m, 3) for a 1-d
    # array; two equal coefficients force two equal edge-class lengths
    # (lengths are proportional to the alphas)
    "C1": lambda t: np.stack(np.broadcast_arrays(1.0, t, t), axis=-1),
    "C2": lambda t: np.stack(np.broadcast_arrays(t, 1.0, t), axis=-1),
    "C3": lambda t: np.stack(np.broadcast_arrays(t, t, 1.0), axis=-1),
}
# simplex vertex reached as t -> infinity along each curve
CURVE_VERTICES = {"C1": 0, "C2": 1, "C3": 2}


def _check_curve(curve):
    if curve not in CURVE_PATTERNS:
        raise DomainError(f"unknown curve {curve!r}; choose from {', '.join(CURVE_PATTERNS)}")


def closed_form_minimum(datum):
    """Minimizing weights and value of lambda_1 for the rank-3 built-ins."""
    eta, rho = eta_rho(datum)
    denom = 12.0 + rho + 6.0 * eta
    x = simplex_point(np.array([3 + rho + eta, 3 + 3 * eta, 6 + 2 * eta]) / denom)
    lam = (12.0 + 6.0 * eta - rho) / denom
    return x, lam


def _lambda1_fn(group):
    """lambda_1 as a function of a stack of weights (m, 3), as (m,), one
    point being a stack of one: the function the finite differences and
    convexity probes evaluate.  The stack is checked once (`check_weights`)
    and is one `rep_fourier` stack; each value is the lam1 of
    `block_clusters`, bit for bit that of its point alone."""
    def f(weights):
        w = np.atleast_2d(check_weights(weights, group.rank))
        return block_clusters(group, w, rep_fourier(w, group).roots)[0]

    return f


# the steps of the central differences: xi = e_a - e_b for a < b, then -xi
_XI = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
_STENCIL_STEPS = np.stack((_XI, -_XI))[:, None]  # (2, 1, 3, 3)
# x + _CERT_STENCIL is x, then _pair_stencil(x[None], FD_STEP), bit for bit
_CERT_STENCIL = np.vstack((np.zeros(3), FD_STEP * _STENCIL_STEPS.reshape(-1, 3)))


def _pair_stencil(weights, h):
    # the points w + h xi, then w - h xi, for each row w of `weights` (m, 3), as (6 m, 3)
    return (weights[:, None] + h * _STENCIL_STEPS).reshape(-1, 3)


def pair_derivatives(f, weights, h=FD_STEP):
    """Central differences (f(w + h xi) - f(w - h xi)) / 2h along
    xi = e_a - e_b, a < b, at each row w of `weights` (m, 3), as (m, 3 pairs):
    one call of the stacked `f` on the whole stencil."""
    plus, minus = f(_pair_stencil(weights, h)).reshape(2, len(weights), -1)
    return (plus - minus) / (2 * h)


class MinimizationError(CoxspecError):
    """The minimiser did not converge, or its mu_1 is not lambda_1."""


@dataclass(frozen=True)
class CriticalReport:
    x: np.ndarray  # (3,) read-only, from `simplex_point`
    lam: float
    gradient_norm: float
    class_lengths: list
    equilateral: bool


@dataclass(frozen=True)
class MinimizationResult:
    closed_form: CriticalReport
    optimized: CriticalReport
    iterations: int


def _is_equilateral(lengths):
    return bool(abs(max(lengths) / min(lengths) - 1.0) <= EQUILATERAL_TOL)


def critical_certificate(x, group, graph=None):
    """Finite-difference criticality check paired with the equilateral
    measurement of the second-eigenvalue embedding, at one point x
    (`simplex_point`) whose weights are all at least `FD_STEP`.

    x and its six stencil points are one `rep_fourier` stack, one add
    `x + _CERT_STENCIL`: row 0 gives lambda_1 and the class lengths
    (`_lambda1_rows`), and a gap at most `GAP_GUARD` is a `DomainError`.
    Above it, lambda_1(x') = mu_1(x') at each stencil point by Weyl's
    inequality (||P_x' - P_x|| <= 2 `FD_STEP`, 50 times below the guard),
    bit for bit the lam1 of `block_clusters` at x' alone.  `graph` is ignored."""
    x = simplex_point(x, group.rank)
    if x.min() < FD_STEP:
        raise DomainError(
            f"finite differences need every weight to be at least FD_STEP = {FD_STEP:g}; "
            f"got {x}"
        )
    rep = rep_fourier(x + _CERT_STENCIL, group)
    lam, lengths = _lambda1_rows(group, x[None], rep.roots[:1], rep.vectors[:1], GAP_GUARD)
    mu1 = rep.roots[1:, 0]
    grad = (mu1[:3] - mu1[3:]) / (2 * FD_STEP)
    lengths = lengths[0].tolist()
    return CriticalReport(
        x=x,
        lam=float(lam[0]),
        gradient_norm=math.sqrt(grad @ grad),  # np.linalg.norm, bit for bit
        class_lengths=lengths,
        equilateral=_is_equilateral(lengths),
    )


def block_state(x, group):
    """mu_1 of the 3x3 block at x, its tangent gradient and the class
    lengths of the block embedding.

    For M v = mu_1 v with |v| = 1, d mu_1 / d x_j = v' sigma_j v
    = 1 - 2 <n_j, v>^2 (Hellmann-Feynman); the gradient along the simplex
    is that minus its mean.  The lengths are those of `block_lengths`.
    """
    rep = rep_fourier(x, group)
    c, lengths = block_lengths(group, x[None], rep.roots[:1], rep.vectors[None, :, 0])
    g = 1.0 - 2.0 * c[0]**2
    return float(rep.roots[0]), g - g.sum() / len(g), lengths[0]  # g.mean(), bit for bit


def minimize_lambda1(group):
    """Closed-form minimum of lambda_1 together with an independent
    numerical minimization of mu_1, which is convex as the top eigenvalue
    of a matrix affine in x: projected gradient on `block_state`, Armijo
    backtracking, Barzilai-Borwein initial steps.  One dense `lambda1` at
    the result is the oracle that mu_1 is lambda_1 there."""
    x_closed, _ = closed_form_minimum(group.datum)

    x = uniform_point(group.rank)
    fx, g, lengths = block_state(x, group)
    step = 1.0
    for iterations in range(1, MAX_ITER + 1):
        if np.linalg.norm(g) <= MIN_GRAD_TOL:
            break
        # Armijo backtracking from the BB-seeded step
        s = step
        for _ in range(60):
            x_new = project_to_simplex(x - s * g)
            f_new, g_new, lengths_new = block_state(x_new, group)
            if f_new <= fx - 1e-4 * float(g @ (x - x_new)):
                break
            s *= 0.5
        dw, dg = x_new - x, g_new - g
        denom = float(dg @ dg)
        step = float(dw @ dg) / denom if denom > 0 else 1.0
        step = min(max(abs(step), 1e-6), 1e3)
        x, g, fx, lengths = x_new, g_new, f_new, lengths_new
        if np.abs(dw).max() < 1e-13:
            break
    else:
        raise MinimizationError(f"lambda_1 minimization did not converge; best {x}")

    lam_dense = lambda1(group, x)
    if abs(lam_dense - fx) > CLUSTER_TOL:
        raise MinimizationError(f"mu_1 = {fx!r} is not lambda_1 = {lam_dense!r} at {x}")
    report_opt = CriticalReport(
        x=x,
        lam=fx,
        gradient_norm=float(np.linalg.norm(g)),
        class_lengths=lengths.tolist(),
        equilateral=_is_equilateral(lengths),
    )
    report_closed = critical_certificate(x_closed, group)
    return MinimizationResult(
        closed_form=report_closed, optimized=report_opt, iterations=iterations
    )


@dataclass(frozen=True)
class CurveSample:
    """One sample of a curve, or a stack of them: t float or (m,), x (3,)
    or (m, 3) read-only from `psi_maps`, lam float or (m,), class_lengths
    (3,) or (m, 3)."""

    curve: str
    t: float
    x: np.ndarray
    lam: float
    class_lengths: np.ndarray


def curve_point(curve, t, group):
    """Sample of the equal-length curve at t > 0, or one sample per entry
    of a 1-d array t as one stack, each row bit for bit its t alone: two
    of the three class lengths coincide for every t, and the curves meet
    at the minimizer at t = 1.  Closed forms of the fundamental point
    only; no orbit is formed.  A bad t raises `DomainError`, which names
    its row in a stack."""
    _check_curve(curve)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise DomainError("curve parameter must be a number or a 1-d array")
    valid = (t > 0) & (t < np.inf)
    if not valid.all():
        raise DomainError(f"curve parameter must be positive and finite{_worst(~valid)[1]}")
    fp = fundamental_point(group, CURVE_PATTERNS[curve](t))
    x, lam = psi_maps(fp)
    return CurveSample(
        curve=curve, t=t if t.ndim else float(t), x=x, lam=lam,
        class_lengths=edge_lengths_closed_form(fp),
    )


def curve_limit(curve, group, end):
    """Degenerate orbit at a curve endpoint (`end` is 0 or "inf")."""
    _check_curve(curve)
    base = CURVE_PATTERNS[curve]
    if end == 0:
        pattern = np.where(base(0.0) > 0, base(0.0), 0.0)
    elif end in ("inf", np.inf):
        pattern = np.where(base(2.0) > base(1.0), 1.0, 0.0)
    else:
        raise DomainError("curve end must be 0 or 'inf'")
    p = pattern @ fundamental_vectors(group)[0]
    p = p / np.linalg.norm(p)
    pts, _ = orbit_points(group, p)
    return p, pts, pattern


def boundary_limit(target, group, curve=None):
    """Limit orbit as the weights approach a boundary target.

    An edge target with x_k = 0 has the pattern e_k, the limit of curve
    C_(k+1) at t -> 0, wherever on the edge it lies: the weights are
    proportional to x'_j = V (M^-1 alpha)_j / alpha_j with M^-1 > 0
    entrywise, so x'_k >= V (M^-1)_kk, and x_k -> 0 needs sum x' -> inf.
    The other two weights stay positive, so both other alpha_j -> 0.
    Vertex targets are curve dependent and require a curve id; a curve
    id, where given, must name a curve for every target.  The target is
    one point (`simplex_point`), as every other point is.
    """
    if curve is not None:
        _check_curve(curve)
    target = simplex_point(target, group.rank)
    zeros = np.flatnonzero(target <= SIMPLEX_TOL)
    if len(zeros) == 0:
        raise DomainError("target must lie on the simplex boundary")
    if len(zeros) >= 2:
        if curve is None:
            raise DomainError("vertex targets are curve dependent; pass a curve id")
        vertex = int(np.argmax(target))
        if CURVE_VERTICES[curve] != vertex:
            raise DomainError(f"curve {curve} does not end at this simplex vertex")
        p, pts, pattern = curve_limit(curve, group, "inf")
    else:
        p, pts, pattern = curve_limit(f"C{zeros[0] + 1}", group, 0)
    return p, len(pts), pattern


@dataclass(frozen=True, eq=False)  # == of arrays has no truth value
class Sweep:
    """The rows of `sweep_lambda1` as read-only columns."""

    weights: np.ndarray        # (m, 3) lattice points
    lambda1: np.ndarray        # (m,) second eigenvalue, of multiplicity 3
    class_lengths: np.ndarray  # (m, 3) from `block_lengths`

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self):
        return len(self.weights)


def _lambda1_rows(group, weights, roots, vectors, min_gap):
    """(mu_1, class lengths (m, 3)) of the points `weights` (m, 3) from the
    `roots` (m, 3) and `vectors` (m, 3, 3) of their `rep_fourier`: the rows
    of the sweep and of the certificates.  A row is lambda_1 with
    multiplicity 3 where its gap (`block_clusters`) exceeds `min_gap`, at
    least `CLUSTER_TOL`; the first row where it does not is a one-line
    `DomainError`, raised before any length is formed."""
    _, gap = block_clusters(group, weights, roots)
    check_gaps(weights, gap, min_gap)
    return roots[:, 0], block_lengths(group, weights, roots[:, 0], vectors[:, :, 0])[1]


def sweep_lambda1(group, g):
    """Deterministic barycentric sweep of the open simplex at the lattice
    points (i, j, k) / (g + 1) with positive integer parts, as a `Sweep`.

    `g` must be an integer (numpy integers included, bool not) of at least
    2, else `DomainError`.  The points are checked once; their 3x3 blocks
    are one `rep_fourier` stack and their rows one `_lambda1_rows`, where a
    gap at most `CLUSTER_TOL` is a `DomainError`.  On the built-in groups
    no point whose weights are all at least `FD_STEP` has such a gap (a
    seeded scan in the tests), and every weight here is 1 / (g + 1) or more.
    """
    if isinstance(g, bool) or not isinstance(g, numbers.Integral) or g < 2:
        raise DomainError(f"grid resolution must be an integer of at least 2, got {g!r}")
    denom = int(g) + 1  # np.uint8(255) + 1 would wrap to 0
    ij = np.array([(i, j) for i in range(1, denom - 1) for j in range(1, denom - i)])
    weights = check_weights(np.column_stack((ij, denom - ij.sum(axis=1))) / denom, 3)
    rep = rep_fourier(weights, group)
    lam, lengths = _lambda1_rows(group, weights, rep.roots, rep.vectors, CLUSTER_TOL)
    return Sweep(weights, lam, lengths)
