"""Optimization and deformation of the second-eigenvalue embedding:
minimum of lambda_1 over the simplex, criticality certificates, the three
equal-length curves and the boundary degenerations.
"""

from dataclasses import dataclass

import numpy as np

from .coxeter import cayley_graph
from .coxmaps import (
    DomainError,
    edge_lengths_closed_form,
    eta_rho,
    fundamental_point,
    fundamental_vectors,
    orbit_points,
    psi_delta_inverse,
    psi_maps,
)
from .randwalk import SimplexPoint, build_operator, project_to_simplex, simplex_point, uniform_point
from .spectral import (
    edge_class_lengths,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    spectrum_clusters,
)

FD_STEP = 1e-6
GRAD_TOL = 1e-6
EQUILATERAL_TOL = 1e-7

CURVE_PATTERNS = {
    # cone-coefficient pattern in t; two equal coefficients force two
    # equal edge-class lengths (lengths are proportional to the alphas)
    "C1": lambda t: np.array([1.0, t, t]),
    "C2": lambda t: np.array([t, 1.0, t]),
    "C3": lambda t: np.array([t, t, 1.0]),
}
# simplex vertex reached as t -> infinity along each curve
CURVE_VERTICES = {"C1": 0, "C2": 1, "C3": 2}


def closed_form_minimum(datum):
    """Minimizing weights and value of lambda_1 for the rank-3 built-ins."""
    eta, rho = eta_rho(datum)
    denom = 12.0 + rho + 6.0 * eta
    x = simplex_point(np.array([3 + rho + eta, 3 + 3 * eta, 6 + 2 * eta]) / denom)
    lam = (12.0 + 6.0 * eta - rho) / denom
    return x, lam


def _lambda1_fn(graph):
    def f(weights):
        return lambda1(build_operator(graph, simplex_point(weights)))

    return f


def _tangent_basis(n_classes):
    # orthonormal basis of the simplex tangent space {sum xi = 0}
    basis = []
    for a in range(1, n_classes):
        v = np.zeros(n_classes)
        v[:a] = 1.0
        v[a] = -a
        basis.append(v / np.linalg.norm(v))
    return basis


def _gradient(f, weights, h=FD_STEP):
    g = np.zeros_like(weights)
    for v in _tangent_basis(len(weights)):
        d = (f(weights + h * v) - f(weights - h * v)) / (2 * h)
        g += d * v
    return g


def directional_derivative(f, weights, xi, h=FD_STEP):
    return (f(weights + h * xi) - f(weights - h * xi)) / (2 * h)


@dataclass(frozen=True)
class CriticalReport:
    x: SimplexPoint
    lam: float
    gradient_norm: float
    class_lengths: list
    equilateral: bool


@dataclass(frozen=True)
class MinimizationResult:
    closed_form: CriticalReport
    optimized: CriticalReport
    iterations: int


def critical_certificate(x, group, graph=None, h=FD_STEP, gap_guard=1e-4):
    """Finite-difference criticality check paired with the equilateral
    measurement of the second-eigenvalue embedding."""
    if graph is None:
        graph = cayley_graph(group)
    op = build_operator(graph, x)
    clusters = spectrum_clusters(op)
    top = clusters[1] if clusters[0].multiplicity == 1 else clusters[0]
    i = clusters.index(top)
    gap = min(
        abs(clusters[i - 1].eigenvalue - top.eigenvalue) if i > 0 else np.inf,
        abs(clusters[i + 1].eigenvalue - top.eigenvalue) if i + 1 < len(clusters) else np.inf,
    )
    if gap <= gap_guard:
        raise DomainError(f"eigenvalue cluster gap {gap:.2g} too small for finite differences")

    f = _lambda1_fn(graph)
    n = graph.n_classes
    derivs = []
    for a in range(n):
        for b in range(a + 1, n):
            xi = np.zeros(n)
            xi[a], xi[b] = 1.0, -1.0
            derivs.append(directional_derivative(f, x.weights, xi, h))
    grad_norm = float(np.linalg.norm(derivs))

    emb = spectral_representation(op, top)
    lengths = edge_class_lengths(emb, graph)
    ratio = max(lengths) / min(lengths)
    return CriticalReport(
        x=x,
        lam=float(top.eigenvalue),
        gradient_norm=grad_norm,
        class_lengths=lengths,
        equilateral=bool(abs(ratio - 1.0) <= EQUILATERAL_TOL),
    )


def minimize_lambda1(group, max_iter=10_000, grad_tol=1e-9):
    """Closed-form minimum of lambda_1 together with an independent
    numerical minimization (projected gradient, Armijo backtracking,
    Barzilai-Borwein initial steps)."""
    graph = cayley_graph(group)
    x_closed, lam_closed = closed_form_minimum(group.datum)

    f = _lambda1_fn(graph)
    w = uniform_point(graph.n_classes).weights
    g = _gradient(f, w)
    fw = f(w)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.linalg.norm(g) <= grad_tol:
            break
        # Armijo backtracking from the BB-seeded step
        s = step
        for _ in range(60):
            w_new = project_to_simplex(w - s * g).weights
            f_new = f(w_new)
            if f_new <= fw - 1e-4 * float(g @ (w - w_new)):
                break
            s *= 0.5
        g_new = _gradient(f, w_new)
        dw, dg = w_new - w, g_new - g
        denom = float(dg @ dg)
        step = float(dw @ dg) / denom if denom > 0 else 1.0
        step = min(max(abs(step), 1e-6), 1e3)
        if np.abs(dw).max() < 1e-13:
            w, g, fw = w_new, g_new, f_new
            break
        w, g, fw = w_new, g_new, f_new
    else:
        raise RuntimeError(f"lambda_1 minimization did not converge; best {w}")

    x_opt = simplex_point(w)
    report_closed = critical_certificate(x_closed, group, graph)
    report_opt = CriticalReport(
        x=x_opt,
        lam=float(fw),
        gradient_norm=float(np.linalg.norm(g)),
        class_lengths=report_closed.class_lengths,
        equilateral=report_closed.equilateral,
    )
    return MinimizationResult(
        closed_form=report_closed, optimized=report_opt, iterations=iterations
    )


@dataclass(frozen=True)
class CurveSample:
    curve: str
    t: float
    x: SimplexPoint
    lam: float
    class_lengths: np.ndarray
    distinct_points: int


def curve_point(curve, t, group, dedup_tol=1e-6):
    """Sample of the equal-length curve: two of the three class lengths
    coincide for every t > 0, and the curves meet at the minimizer at t = 1."""
    if curve not in CURVE_PATTERNS:
        raise DomainError(f"unknown curve {curve!r}")
    if not t > 0:
        raise DomainError("curve parameter must be positive")
    fp = fundamental_point(group, CURVE_PATTERNS[curve](float(t)))
    x, lam = psi_maps(fp)
    lengths = edge_lengths_closed_form(fp)
    count = len(orbit_points(group, fp.point, dedup_tol)[0])
    return CurveSample(
        curve=curve, t=float(t), x=x, lam=lam,
        class_lengths=lengths, distinct_points=count,
    )


def h3_curve_c2(t):
    """Closed-form weights along the alpha = gamma curve of the (4,6,10)
    group, parametrized by the coefficient ratio t."""
    phi = (1 + np.sqrt(5)) / 2
    denom = 3 * phi * t**2 + (14 - phi) * t + 3 * phi
    return simplex_point(
        np.array([(5 - phi) * t + phi, 3 * phi * t**2 + 3 * t, 6 * t + 2 * phi]) / denom
    )


def _limit_from_pattern(group, pattern, dedup_tol=1e-6):
    pvecs, _ = fundamental_vectors(group)
    p = np.asarray(pattern, dtype=float) @ pvecs
    p = p / np.linalg.norm(p)
    pts, _ = orbit_points(group, p, dedup_tol)
    return p, pts


def curve_limit(curve, group, end):
    """Degenerate orbit at a curve endpoint (`end` is 0 or "inf")."""
    if curve not in CURVE_PATTERNS:
        raise DomainError(f"unknown curve {curve!r}")
    base = CURVE_PATTERNS[curve]
    if end == 0:
        pattern = np.where(base(0.0) > 0, base(0.0), 0.0)
    elif end in ("inf", np.inf):
        pattern = np.where(base(2.0) > base(1.0), 1.0, 0.0)
    else:
        raise DomainError("curve end must be 0 or 'inf'")
    p, pts = _limit_from_pattern(group, pattern)
    return p, pts, pattern


def boundary_limit(target, group, curve=None, steps=8, vanish_ratio=0.1):
    """Limit orbit as the weights approach a boundary target.

    Edge-interior targets are approached on the straight line from the
    barycenter; the surviving cone coefficients are detected from the
    decay of the inverse map along geometric steps.  Vertex targets are
    curve dependent and require a curve id.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (group.rank,) or abs(target.sum() - 1) > 1e-9 or np.any(target < 0):
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
    for n in range(1, steps + 1):
        eps = 2.0**-n
        xn = simplex_point((1 - eps) * target + eps * center)
        a = psi_delta_inverse(group, xn).alphas
        alphas.append(a / a.max())
    surviving = alphas[-1] / alphas[-2] > 1.0 - vanish_ratio
    surviving &= alphas[-1] > 1e-4
    # linear extrapolation in eps of the surviving coefficients
    pattern = np.where(surviving, 2 * alphas[-1] - alphas[-2], 0.0)
    p, pts = _limit_from_pattern(group, pattern)
    return p, len(pts), pattern


def sweep_lambda1(group, g):
    """Deterministic barycentric sweep of the open simplex.

    Lattice points (i, j, k) / (g + 1) with positive integer parts; each
    row carries the second eigenvalue, its multiplicity and the measured
    class lengths of its embedding.
    """
    if g < 2:
        raise DomainError("grid resolution must be at least 2")
    graph = cayley_graph(group)
    denom = g + 1
    points = [
        simplex_point(np.array([i, j, denom - i - j]) / denom)
        for i in range(1, denom - 1)
        for j in range(1, denom - i)
        if denom - i - j >= 1
    ]
    rows = []
    for x in points:
        op = build_operator(graph, x)
        cluster = lambda1_cluster(op)
        emb = spectral_representation(op, cluster)
        rows.append({
            "x": x,
            "lambda1": float(cluster.eigenvalue),
            "multiplicity": int(cluster.multiplicity),
            "class_lengths": edge_class_lengths(emb, graph),
        })
    return rows
