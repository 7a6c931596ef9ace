"""Named verification suites over the built-in groups.

This module is the one registry of checks.  Each check returns a record
with its id, a measured value, its tolerance, a verdict and the number of
the acceptance criterion it serves (1-10, or None for the extra
Perron-Frobenius and uniform-point cross-checks).  Suites aggregate
records, the CLI turns them into a JSON report, and the acceptance tests
check the same records.
"""

from collections import Counter
from itertools import combinations

import numpy as np

from .coxeter import build_group, cayley_graph
from .coxmaps import (
    gram_inverse,
    psi_delta_inverse,
    psi_lambda_of,
    psi_maps,
)
from .errors import CoxspecError
from .fourier import char_poly_coeffs, crosscheck_mu1, rep_fourier
from .linalg import eigh_symmetric, perron_frobenius
from .mesh import cayley_faces
from .randwalk import build_operator, sample_interior, simplex_point, uniform_point
from .solids import (
    GAP_GUARD,
    _lambda1_fn,
    boundary_limit,
    critical_certificate,
    curve_limit,
    curve_point,
    minimize_lambda1,
    pair_derivatives,
)
from .spectral import (
    gram_invariance_check,
    lambda1,
    lambda1_cluster,
    spectral_representation,
)

SUITE_NAMES = ("closed_forms", "invariants", "theorem2", "curves", "all")

# what each acceptance criterion states
CRITERIA = {
    1: "H3 minimum: lambda and weights match the closed form",
    2: "B3 and A3 minima match the closed forms",
    3: "uniform-weight lambda_1 values with multiplicity 3",
    4: "equilateral embedding exactly at the critical point",
    5: "Gram-difference derivative identity",
    6: "3x3 Fourier block matches the full spectrum",
    7: "closed-form eigenvalue map agrees with the eigensolver",
    8: "group orders and H3 Cayley face census",
    9: "curve degenerations and boundary mixing collapse",
    10: "symmetry, invariance and convexity property suites",
}

PHI = (1 + np.sqrt(5)) / 2
R2 = np.sqrt(2)

# the paper's minimizer X0 and minimum of lambda_1, written out per group
# so that the gate does not depend on the code it checks
PAPER_MINIMA = {
    "A3": (np.array([0.3, 0.3, 0.4]), 0.8),
    "B3": (
        np.array([4 + R2, 3 + 3 * R2, 6 + 2 * R2]) / (13 + 6 * R2),
        (11 + 6 * R2) / (13 + 6 * R2),
    ),
    "H3": (
        np.array([5, 3 + 3 * PHI, 6 + 2 * PHI]) / (14 + 5 * PHI),
        (10 + 7 * PHI) / (14 + 5 * PHI),
    ),
}

# second eigenvalue of the canonical Laplacian, per group
CANONICAL_LAMBDA1 = {
    "A3": (1 + np.sqrt(2)) / 3,
    "B3": (1 + np.sqrt(3)) / 3,
    "H3": (1 + np.sqrt(2 + PHI)) / 3,
}
PF_LAMBDA = {"A3": 2 + np.sqrt(2), "B3": 4 + 2 * np.sqrt(3), "H3": 2 / (2 - np.sqrt(2 + PHI))}
GROUP_ORDERS = {"A3": 24, "B3": 48, "H3": 120}


def _check(cid, value, tolerance, criterion, passed=None):
    value = float(value)
    if passed is None:
        passed = value <= tolerance
    return {"id": cid, "value": value, "tolerance": tolerance, "passed": bool(passed),
            "criterion": criterion}


def _count_check(cid, count, expected, criterion):
    return _check(cid, count, expected, criterion, passed=count == expected)


def suite_closed_forms():
    checks = []
    for name in ("A3", "B3", "H3"):
        group = build_group(name)
        x0, lam0 = PAPER_MINIMA[name]
        res = minimize_lambda1(group)
        crit = 1 if name == "H3" else 2
        checks.append(_check(f"min_lambda_{name}", abs(res.optimized.lam - lam0), 1e-9, crit))
        checks.append(_check(f"min_point_{name}", np.abs(res.optimized.x - x0).max(), 1e-6, crit))

        graph = cayley_graph(group)
        cluster = lambda1_cluster(graph, uniform_point(3))
        dev = abs(cluster.eigenvalue - CANONICAL_LAMBDA1[name])
        checks.append(_check(f"canonical_lambda1_{name}", dev, 1e-9, 3))
        checks.append(_count_check(f"canonical_mult_{name}", cluster.multiplicity, 3, 3))

        lam_pf, _ = perron_frobenius(gram_inverse(group.datum))
        checks.append(_check(f"pf_gram_inverse_{name}", abs(lam_pf - PF_LAMBDA[name]), 1e-9, None))
        dev = abs(psi_lambda_of(group, uniform_point(3)) - CANONICAL_LAMBDA1[name])
        checks.append(_check(f"psi_lambda_uniform_{name}", dev, 1e-9, None))
    return checks


def suite_invariants():
    checks = []
    rng = np.random.default_rng(20240613)

    for name in ("A3", "B3", "H3"):
        order = build_group(name).order
        checks.append(_count_check(f"group_order_{name}", order, GROUP_ORDERS[name], 8))

    h3 = build_group("H3")
    graph = cayley_graph(h3)
    checks.append(_count_check("h3_vertices", graph.n_vertices, 120, 8))
    n_edges = len(graph.edges)
    checks.append(_count_check("h3_edges", n_edges, 180, 8))
    census = Counter(len(f) for f in cayley_faces(graph))
    faces = census.total()
    checks.append(
        _check("h3_face_census", faces, 62, 8, passed=census == {4: 30, 6: 20, 10: 12})
    )
    checks.append(_count_check("h3_euler", graph.n_vertices - n_edges + faces, 2, 8))

    # Fourier cross-check and the H3 characteristic polynomial
    for name in ("A3", "B3", "H3"):
        group = build_group(name)
        gname = cayley_graph(group)
        dev = max(
            crosscheck_mu1(sample_interior(rng, 3), group, gname) for _ in range(50)
        )
        checks.append(_check(f"fourier_crosscheck_{name}", dev, 1e-9, 6))
    dev = 0.0
    for i in range(1, 10):
        for j in range(1, 10 - i):
            x = simplex_point(np.array([i, j, 10 - i - j]) / 10)
            c2, c1, c0 = char_poly_coeffs(rep_fourier(x, h3).matrix)
            xx, yy, zz = x
            q = 1 - 4 * xx * yy - 3 * xx * zz - (3 - PHI) * yy * zz
            dev = max(
                dev, abs(c2 + 1), abs(c1 + q), abs(c0 - (q + 2 * (2 - PHI) * xx * yy * zz))
            )
    checks.append(_check("h3_char_poly_grid", dev, 1e-12, 6))

    # Psi consistency: closed-form eigenvalue map vs the eigensolver,
    # and the round trip through the fundamental domain
    for name in ("A3", "B3", "H3"):
        group = build_group(name)
        gname = cayley_graph(group)
        dev_lam, dev_rt = 0.0, 0.0
        for _ in range(100):
            x = sample_interior(rng, 3)
            dev_lam = max(
                dev_lam,
                abs(psi_lambda_of(group, x) - lambda1(build_operator(gname, x))),
            )
            x_back, _ = psi_maps(psi_delta_inverse(group, x))
            dev_rt = max(dev_rt, np.abs(x_back - x).max())
        checks.append(_check(f"psi_vs_eigensolver_{name}", dev_lam, 1e-9, 7))
        checks.append(_check(f"psi_round_trip_{name}", dev_rt, 1e-9, 7))

    # bipartite spectral symmetry on H3
    vals, _ = eigh_symmetric(build_operator(graph, sample_interior(rng, 3)))
    checks.append(_check("h3_spectrum_symmetry", np.abs(vals + vals[::-1]).max(), 1e-9, 10))

    # orbit eigenfunction norms and Gram invariance at the uniform point
    fp = psi_delta_inverse(h3, uniform_point(3))
    phi_mat = h3.elements @ fp.point  # columns r: gamma -> <gamma p, e_r>
    dev = np.abs(phi_mat.T @ phi_mat - (h3.order / 3) * np.eye(3)).max()
    checks.append(_check("orbit_eigenfunction_norms", dev, 1e-8, 10))
    x = uniform_point(3)
    pts = spectral_representation(graph, x, lambda1_cluster(graph, x))
    checks.append(_check("gram_invariance", gram_invariance_check(pts, h3), 1e-8, 10))

    # orbit moment matrix proportional to the identity
    p = fp.point
    moment = sum(np.outer(e @ p, e @ p) for e in h3.elements)
    dev = np.abs(moment - (h3.order / 3) * np.eye(3)).max()
    checks.append(_check("moment_matrix_identity", dev, 1e-8, 10))

    # convexity of lambda_1 on the simplex: each probe draws all its
    # points, then evaluates them as one stack
    f = _lambda1_fn(graph)
    ab = np.array([[sample_interior(rng, 3) for _ in range(2)] for _ in range(200)])
    a, b = ab[:, 0], ab[:, 1]
    fa, fb, mid = f(np.concatenate((a, b, (a + b) / 2))).reshape(3, -1)
    worst_mid = (mid - (fa + fb) / 2).max()
    checks.append(_check("midpoint_convexity", max(worst_mid, 0.0), 1e-9, 10))

    centers, steps = [], []
    while len(centers) < 200:
        x = sample_interior(rng, 3, margin=0.15)
        d = rng.normal(size=3)
        d -= d.mean()
        d *= 0.05 / np.abs(d).max()
        if np.all(x + d > 0) and np.all(x - d > 0):
            centers.append(x)
            steps.append(d)
    x, d = np.array(centers), np.array(steps)
    plus, minus, mid = f(np.concatenate((x + d, x - d, x))).reshape(3, -1)
    worst_margin = ((plus + minus) / 2 - mid).min()
    checks.append(
        _check("strict_convexity_margin", worst_margin, 1e-10, 10, passed=worst_margin > 1e-10)
    )
    return checks


def suite_theorem2():
    checks = []
    h3 = build_group("H3")
    graph = cayley_graph(h3)
    x0 = simplex_point(PAPER_MINIMA["H3"][0])

    cert0 = critical_certificate(x0, h3, graph)
    checks.append(_check("x0_gradient_norm", cert0.gradient_norm, 1e-6, 4))
    spread = max(cert0.class_lengths) / min(cert0.class_lengths) - 1
    checks.append(_check("x0_equilateral", spread, 1e-7, 4, passed=cert0.equilateral))

    cert_hat = critical_certificate(uniform_point(3), h3, graph)
    norm = cert_hat.gradient_norm
    checks.append(_check("xhat_gradient_norm", norm, 1e-3, 4, passed=norm > 1e-3))
    spread = max(cert_hat.class_lengths) / min(cert_hat.class_lengths) - 1
    checks.append(
        _check("xhat_not_equilateral", spread, 1e-7, 4, passed=not cert_hat.equilateral)
    )

    # derivative identity from the equilateral correspondence: the points
    # whose cluster gap passes the guard, then their stencils in one stack
    rng = np.random.default_rng(42)
    kept, lhs, scale = [], [], []
    s = graph.successors[0]
    while len(kept) < 20:
        x = sample_interior(rng, 3)
        top = lambda1_cluster(graph, x)
        if top.gap <= GAP_GUARD:
            continue
        pts = spectral_representation(graph, x, top)
        kept.append(x)
        lhs.append([pts[0] @ pts[s[a]] - pts[0] @ pts[s[b]] for a, b in combinations(range(3), 2)])
        scale.append(top.multiplicity / graph.n_vertices)
    d = pair_derivatives(_lambda1_fn(graph), np.array(kept))
    worst = np.abs(np.array(lhs) - np.array(scale)[:, None] * d).max()
    checks.append(_check("derivative_identity", worst, 1e-5, 5))
    return checks


def suite_curves():
    checks = []
    h3 = build_group("H3")
    graph = cayley_graph(h3)

    s = curve_point("C2", 1e3, h3)
    other = min(s.class_lengths[0], s.class_lengths[2])
    checks.append(_check("c2_beta_length_shrinks", s.class_lengths[1] / other, 1e-2, 9))

    _, pts0, _ = curve_limit("C2", h3, 0)
    checks.append(_count_check("c2_limit_t0_count", len(pts0), 20, 9))
    _, ptsi, _ = curve_limit("C2", h3, "inf")
    checks.append(_count_check("c2_limit_tinf_count", len(ptsi), 60, 9))

    for target, expected in (
        ([0.0, 0.5, 0.5], 12),
        ([0.5, 0.0, 0.5], 20),
        ([0.5, 0.5, 0.0], 30),
    ):
        _, count, _ = boundary_limit(np.array(target), h3)
        checks.append(_count_check(f"edge_limit_{expected}", count, expected, 9))

    lams = []
    for eps in (1e-2, 1e-3, 1e-4):
        x = simplex_point(np.array([(1 - eps) / 2, eps, (1 - eps) / 2]))
        lams.append(lambda1(build_operator(graph, x)))
    monotone = lams[0] < lams[1] < lams[2]
    checks.append(
        _check("boundary_lambda1", lams[-1], 0.999, 9, passed=monotone and lams[-1] > 0.999)
    )
    return checks


_SUITES = {
    "closed_forms": suite_closed_forms,
    "invariants": suite_invariants,
    "theorem2": suite_theorem2,
    "curves": suite_curves,
}


def run_suite(name):
    """Run a named suite; returns {"suite", "checks", "passed"}."""
    if name == "all":
        checks = [c for key in _SUITES for c in _SUITES[key]()]
    elif name in _SUITES:
        checks = _SUITES[name]()
    else:
        raise CoxspecError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return {"suite": name, "checks": checks, "passed": all(c["passed"] for c in checks)}
