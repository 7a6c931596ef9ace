"""Optimization and deformation of the second-eigenvalue embedding:
minimum of lambda_1 over the simplex, criticality certificates, the three
equal-length curves and the boundary degenerations.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .coxeter import cayley_graph
from .coxmaps import (
    edge_lengths_closed_form,
    eta_rho,
    fundamental_point,
    fundamental_vectors,
    orbit_points,
    psi_delta_inverse,
    psi_maps,
)
from .errors import CoxspecError, DomainError
from .fourier import rep_fourier
from .randwalk import (
    build_operator,
    check_weights,
    project_to_simplex,
    simplex_point,
    uniform_point,
)
from .spectral import (
    CLUSTER_TOL,
    SPECTRUM_CHUNK,
    block_cluster,
    block_clusters,
    block_lengths,
    block_spectrum,
    edge_class_lengths,
    lambda1,
    lambda1_cluster,
    spectral_representation,
)

FD_STEP = 1e-6
EQUILATERAL_TOL = 1e-7
# smallest cluster gap at which finite differences of lambda_1 with step
# FD_STEP stay on one eigenvalue branch
GAP_GUARD = 1e-4
MIN_GRAD_TOL = 1e-9
MAX_ITER = 10_000
# boundary_limit: geometric steps towards the target, and the decay over
# the last step below which a cone coefficient counts as vanishing
LIMIT_STEPS = 8
VANISH_RATIO = 0.1

CURVE_PATTERNS = {
    # cone-coefficient pattern in t; two equal coefficients force two
    # equal edge-class lengths (lengths are proportional to the alphas)
    "C1": lambda t: np.array([1.0, t, t]),
    "C2": lambda t: np.array([t, 1.0, t]),
    "C3": lambda t: np.array([t, t, 1.0]),
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


def _lambda1_fn(graph):
    """lambda_1 as a function of a stack of weights (m, 3), as (m,): the
    function the finite differences and convexity probes evaluate.  The
    stack is checked once and read from the irreducible blocks
    `SPECTRUM_CHUNK` rows at a time, keeping entry 1 of each spectrum, so
    no (m, |G|) array is held.  Each value is bit for bit that of its
    point alone."""
    def f(weights):
        w = check_weights(weights)
        vals = np.empty(len(w))
        for s in range(0, len(w), SPECTRUM_CHUNK):
            vals[s:s + SPECTRUM_CHUNK] = block_spectrum(graph.group, w[s:s + SPECTRUM_CHUNK])[:, 1]
        return vals

    return f


def _pair_stencil(weights, h):
    # the points w + h xi, then w - h xi, for xi = e_a - e_b, a < b, and
    # each row w of `weights` (m, n), as (2 m pairs, n)
    m, n = weights.shape
    a, b = np.array(list(combinations(range(n), 2))).T
    step = h * (np.eye(n)[a] - np.eye(n)[b])
    return np.concatenate((weights[:, None] + step, weights[:, None] - step)).reshape(-1, n)


def pair_derivatives(f, weights, h=FD_STEP):
    """Central differences (f(w + h xi) - f(w - h xi)) / 2h along
    xi = e_a - e_b, a < b, at each row w of `weights` (m, n), as (m, pairs):
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


def critical_certificate(x, group, graph):
    """Finite-difference criticality check paired with the equilateral
    measurement of the second-eigenvalue embedding.

    x and its six stencil points are one `block_spectrum` stack: row 0
    gives the cluster (`block_cluster`, or `lambda1_cluster` where the 3x3
    block does not give it), the other rows the finite differences."""
    if x.min() < FD_STEP:
        raise DomainError(
            f"finite differences need every weight to be at least FD_STEP = {FD_STEP:g}; "
            f"got {x}"
        )
    vals = block_spectrum(group, np.vstack((x, _pair_stencil(x[None], FD_STEP))))
    top = block_cluster(group, x, vals[0])
    if top is None:
        top = lambda1_cluster(graph, x)
    if top.gap <= GAP_GUARD:
        raise DomainError(
            f"eigenvalue cluster gap {top.gap:.2g} too small for finite differences"
        )
    plus, minus = vals[1:, 1].reshape(2, -1)
    grad_norm = float(np.linalg.norm((plus - minus) / (2 * FD_STEP)))

    lengths = edge_class_lengths(spectral_representation(graph, x, top), graph)
    return CriticalReport(
        x=x,
        lam=float(top.eigenvalue),
        gradient_norm=grad_norm,
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
    return float(rep.roots[0]), g - g.mean(), lengths[0]


def minimize_lambda1(group):
    """Closed-form minimum of lambda_1 together with an independent
    numerical minimization of mu_1, which is convex as the top eigenvalue
    of a matrix affine in x: projected gradient on `block_state`, Armijo
    backtracking, Barzilai-Borwein initial steps.  One dense `lambda1` at
    the result is the oracle that mu_1 is lambda_1 there."""
    graph = cayley_graph(group)
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

    lam_dense = lambda1(build_operator(graph, x))
    if abs(lam_dense - fx) > CLUSTER_TOL:
        raise MinimizationError(f"mu_1 = {fx!r} is not lambda_1 = {lam_dense!r} at {x}")
    report_opt = CriticalReport(
        x=x,
        lam=fx,
        gradient_norm=float(np.linalg.norm(g)),
        class_lengths=lengths.tolist(),
        equilateral=_is_equilateral(lengths),
    )
    report_closed = critical_certificate(x_closed, group, graph)
    return MinimizationResult(
        closed_form=report_closed, optimized=report_opt, iterations=iterations
    )


@dataclass(frozen=True)
class CurveSample:
    curve: str
    t: float
    x: np.ndarray  # (3,) read-only, from `simplex_point`
    lam: float
    class_lengths: np.ndarray


def curve_point(curve, t, group):
    """Sample of the equal-length curve: two of the three class lengths
    coincide for every t > 0, and the curves meet at the minimizer at t = 1.
    Closed forms of the fundamental point only; no orbit is formed."""
    _check_curve(curve)
    if not 0 < t < np.inf:
        raise DomainError("curve parameter must be positive and finite")
    fp = fundamental_point(group, CURVE_PATTERNS[curve](float(t)))
    x, lam = psi_maps(fp)
    return CurveSample(
        curve=curve, t=float(t), x=x, lam=lam, class_lengths=edge_lengths_closed_form(fp)
    )


def _limit_from_pattern(group, pattern):
    pvecs, _ = fundamental_vectors(group)
    p = np.asarray(pattern, dtype=float) @ pvecs
    p = p / np.linalg.norm(p)
    pts, _ = orbit_points(group, p)
    return p, pts


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
    p, pts = _limit_from_pattern(group, pattern)
    return p, pts, pattern


def boundary_limit(target, group, curve=None):
    """Limit orbit as the weights approach a boundary target.

    Edge-interior targets are approached on the straight line from the
    barycenter; the surviving cone coefficients are detected from the
    decay of the inverse map along geometric steps.  Vertex targets are
    curve dependent and require a curve id; a curve id, where given, must
    name a curve for every target.
    """
    if curve is not None:
        _check_curve(curve)
    target = np.asarray(target, dtype=float)
    if (target.shape != (group.rank,) or not np.isfinite(target).all()
            or abs(target.sum() - 1) > 1e-9 or np.any(target < 0)):
        raise DomainError("target must lie on the simplex")
    zeros = np.flatnonzero(target <= 1e-12)
    if len(zeros) == 0:
        raise DomainError("target must lie on the simplex boundary")
    if len(zeros) >= 2:
        if curve is None:
            raise DomainError("vertex targets are curve dependent; pass a curve id")
        vertex = int(np.argmax(target))
        if CURVE_VERTICES[curve] != vertex:
            raise DomainError(f"curve {curve} does not end at this simplex vertex")
        p, pts, pattern = curve_limit(curve, group, "inf")
        return p, len(pts), pattern

    center = np.full(group.rank, 1.0 / group.rank)
    alphas = []
    for n in range(1, LIMIT_STEPS + 1):
        eps = 2.0**-n
        xn = simplex_point((1 - eps) * target + eps * center)
        a = psi_delta_inverse(group, xn).alphas
        alphas.append(a / a.max())
    surviving = alphas[-1] / alphas[-2] > 1.0 - VANISH_RATIO
    surviving &= alphas[-1] > 1e-4
    # linear extrapolation in eps of the surviving coefficients
    pattern = np.where(surviving, 2 * alphas[-1] - alphas[-2], 0.0)
    p, pts = _limit_from_pattern(group, pattern)
    return p, len(pts), pattern


@dataclass(frozen=True, eq=False)  # == of arrays has no truth value
class Sweep:
    """The rows of `sweep_lambda1` as read-only columns."""

    weights: np.ndarray        # (m, 3) lattice points
    lambda1: np.ndarray        # (m,) second eigenvalue
    multiplicity: np.ndarray   # (m,) its multiplicity
    class_lengths: np.ndarray  # (m, 3) from `block_lengths`, measured on "dense" rows
    path: np.ndarray           # (m,) "fourier" or "dense", see `lambda1_cluster`

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self):
        return len(self.weights)


def sweep_lambda1(group, g):
    """Deterministic barycentric sweep of the open simplex at the lattice
    points (i, j, k) / (g + 1) with positive integer parts, as a `Sweep`.

    The points are checked once; their spectra come from one batch of
    block eigensolves, their clusters from one `block_clusters`, and the
    class lengths of the rows the 3x3 block gives from `block_lengths` of
    their eigenvectors.  Any other row takes `lambda1_cluster`, which
    builds a dense operator, and is measured.
    """
    if g < 2:
        raise DomainError("grid resolution must be at least 2")
    graph = cayley_graph(group)
    denom = g + 1
    ij = np.array([(i, j) for i in range(1, denom - 1) for j in range(1, denom - i)])
    weights = check_weights(np.column_stack((ij, denom - ij.sum(axis=1))) / denom)
    lam, multiplicity, _, vectors, given = block_clusters(
        group, weights, block_spectrum(group, weights)
    )
    lengths = np.empty_like(weights)
    if given.any():
        lengths[given] = block_lengths(group, weights[given], lam[given], vectors[given])[1]
    for r in np.flatnonzero(~given):
        x = simplex_point(weights[r])
        cluster = lambda1_cluster(graph, x)
        lam[r], multiplicity[r] = cluster.eigenvalue, cluster.multiplicity
        lengths[r] = edge_class_lengths(spectral_representation(graph, x, cluster), graph)
    return Sweep(weights, lam, multiplicity, lengths, np.where(given, "fourier", "dense"))
