"""The four benchmark workloads and the checks on their outputs.

A workload turns a seed into a fixed list of tasks.  A task calls coxspec,
through ``coxspec.cli.main`` in-process where a CLI verb does the job and
through the library otherwise, and checks what comes back against a
computation made here with numpy alone.  A task fails when it raises or
when a check reports a problem; a pass runs every task once.

Every function of coxspec is looked up on its module at call time
(``cx.solids.critical_certificate``), so the wrappers of a traced run
see the calls.
"""

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

GROUPS = ("A3", "B3", "H3")
ORDERS = {"A3": 24, "B3": 48, "H3": 120}
# order m of the product of generators 1 and 2 (0-based); generators 0
# and 1 commute and generators 0 and 2 have product order 3
M23 = {"A3": 3, "B3": 4, "H3": 5}
ETA = {"A3": 1.0, "B3": math.sqrt(2.0), "H3": (1.0 + math.sqrt(5.0)) / 2.0}

# Input sizes, chosen so that one pass of each workload takes one to four
# seconds on one core: long enough that the median over a run's passes is
# steady on a shared machine.
SWEEP_GRID = 24
CERT_POINTS = 32
CURVE_SAMPLES = 12

TOL = 1e-9
EDGE_TARGETS = ([0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0])
CURVE_ALPHAS = {
    "C1": lambda t: np.array([1.0, t, t]),
    "C2": lambda t: np.array([t, 1.0, t]),
    "C3": lambda t: np.array([t, t, 1.0]),
}
# class lengths are proportional to the cone coefficients, so each curve
# keeps the two classes whose coefficients are both t equal
CURVE_EQUAL_PAIR = {"C1": (1, 2), "C2": (0, 2), "C3": (0, 1)}
SWEEP_HEADER = ["x", "y", "z", "lambda1", "mult", "len1", "len2", "len3"]
CURVE_HEADER = ["t", "x", "y", "z", "lambda1", "len1", "len2", "len3"]


@dataclass
class Task:
    name: str
    run: object  # callable returning a list of problems, empty when correct


class Context:
    """What the tasks share: the imported package, the groups built during
    set-up, a scratch directory and the optional tracer."""

    def __init__(self, cx, groups, graphs, tmpdir, tracer=None):
        self.cx = cx
        self.groups = groups
        self.graphs = graphs
        self.tmpdir = tmpdir
        self.tracer = tracer

    def path(self, name):
        return os.path.join(self.tmpdir, name)

    def cli(self, argv, stdout_name):
        """Run one CLI verb in-process; its standard output goes to a file.

        Returns the exit code and the captured standard output."""
        out = self.path(stdout_name)
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            code = self.cx.cli.main(argv)
        written = [out] + [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]
        if self.tracer is not None:
            self.tracer.count("cli.bytes_written", sum(os.path.getsize(p) for p in written))
        with open(out) as fh:
            return code, fh.read()


# ---------------------------------------------------------------- helpers


def top_block(weights, generators):
    """Top eigenvalue and unit eigenvector of sum_j x_j sigma_j, batched
    over the rows of `weights`."""
    blocks = np.einsum("pj,jab->pab", np.atleast_2d(weights), generators)
    vals, vecs = np.linalg.eigh(blocks)
    return vals[:, -1], vecs[:, :, -1]


def block_class_lengths(v, generators, order):
    """sqrt(3/|G|) * 2|<n_j, v>| for each generator j, from
    |<n_j, v>|^2 = (1 - v' sigma_j v) / 2 for a unit vector v."""
    quad = np.einsum("pa,jab,pb->pj", v, generators, v)
    return math.sqrt(3.0 / order) * np.sqrt(np.maximum(2.0 * (1.0 - quad), 0.0))


def closed_form_minimum(name):
    """The paper's minimiser X0 and minimum lambda_1 from eta and rho."""
    eta = ETA[name]
    rho = 3.0 - eta**2
    denom = 12.0 + rho + 6.0 * eta
    x0 = np.array([3 + rho + eta, 3 + 3 * eta, 6 + 2 * eta]) / denom
    return x0, (12.0 + 6.0 * eta - rho) / denom


def canonical_cycle(seq):
    seq = list(seq)
    turns = [seq[r:] + seq[:r] for s in (seq, seq[::-1]) for r in range(len(seq))]
    return tuple(min(turns))


def uniform_polyhedron(name, ringed):
    """Vertex count and vertex configuration of the Wythoff polyhedron
    whose ringed nodes are the generators with a positive cone coefficient.

    The diagram is the path a -3- b -m- c with a = generator 0,
    b = generator 2 and c = generator 1.  A pair of generators of product
    order k gives a 2k-gon when both are ringed and a k-gon when one is;
    the vertex count is |G| over the order of the unringed subgroup.
    """
    m = M23[name]
    key = (0 in ringed, 2 in ringed, 1 in ringed)
    config, stabiliser = {
        (True, False, False): ((3,) * m, 2 * m),
        (False, False, True): ((m, m, m), 6),
        (False, True, False): ((3, m, 3, m), 4),
        (True, True, False): ((m, 6, 6), 2),
        (False, True, True): ((3, 2 * m, 2 * m), 2),
        (True, False, True): ((3, 4, m, 4), 2),
        (True, True, True): ((4, 6, 2 * m), 1),
    }[key]
    return ORDERS[name] // stabiliser, canonical_cycle(config)


def shuffled(rng):
    return [str(name) for name in rng.permutation(GROUPS)]


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: header {rows[:1]} is not {header}")
    return np.array(rows[1:], dtype=float).reshape(-1, len(header))


def _first(problems, limit=5):
    return problems[:limit] + ([f"... {len(problems) - limit} more"] if len(problems) > limit else [])


# -------------------------------------------------------------- landscape


def sweep_points(grid):
    denom = grid + 1
    return np.array(
        [(i, j, denom - i - j) for i in range(1, denom - 1) for j in range(1, denom - i)
         if denom - i - j >= 1],
        dtype=float,
    ) / denom


def check_sweep_csv(path, group, name, grid):
    """Every row's lambda_1, multiplicity and class lengths against the
    3x3 block; the row count is g(g-1)/2."""
    data = _read_csv(path, SWEEP_HEADER)
    want = sweep_points(grid)
    if len(data) != grid * (grid - 1) // 2 or len(want) != len(data):
        return [f"{len(data)} rows, expected {grid * (grid - 1) // 2}"]
    if group.order != ORDERS[name]:
        return [f"group order {group.order}, expected {ORDERS[name]}"]
    mu, v = top_block(want, group.generators)
    lengths = block_class_lengths(v, group.generators, group.order)
    problems = []
    for r, row in enumerate(data):
        if np.abs(row[:3] - want[r]).max() > 1e-12:
            problems.append(f"row {r}: point {row[:3]} is not {want[r]}")
        if abs(row[3] - mu[r]) > TOL:
            problems.append(f"row {r}: lambda1 {row[3]!r} vs block {mu[r]!r}")
        if row[4] != 3:
            problems.append(f"row {r}: multiplicity {row[4]:g}")
        if np.abs(row[5:] - lengths[r]).max() > TOL:
            problems.append(f"row {r}: lengths {row[5:]} vs block {lengths[r]}")
    return _first(problems)


def sweep_task(ctx, name):
    out = ctx.path(f"sweep-{name}.csv")
    code, _ = ctx.cli(["sweep", "--group", name, "--grid", str(SWEEP_GRID), "--out", out],
                      f"sweep-{name}.txt")
    problems = [] if code == 0 else [f"exit code {code}"]
    return problems + check_sweep_csv(out, ctx.groups[name], name, SWEEP_GRID)


def landscape_tasks(ctx, rng):
    return [Task(f"sweep {name}", partial(sweep_task, ctx, name)) for name in shuffled(rng)]


# ---------------------------------------------------------------- optimum


def parse_minimize(text):
    fields = {}
    for line in text.splitlines():
        for key in ("closed form X0", "closed form lambda1", "optimized X",
                    "optimized lambda1", "gradient norm", "equilateral", "iterations"):
            if line.startswith(key + " "):
                fields[key] = line[len(key) + 1:].split()
    return fields


def minimize_task(ctx, name):
    code, text = ctx.cli(["minimize", "--group", name], f"minimize-{name}.txt")
    fields = parse_minimize(text)
    if code != 0 or len(fields) != 7:
        return [f"exit code {code}, parsed {sorted(fields)}"]
    x0, lam0 = closed_form_minimum(name)
    problems = []
    x_cf = np.array(fields["closed form X0"], dtype=float)
    x_opt = np.array(fields["optimized X"], dtype=float)
    if np.abs(x_cf - x0).max() > 1e-12:
        problems.append(f"closed form X0 {x_cf} vs {x0}")
    if abs(float(fields["closed form lambda1"][0]) - lam0) > TOL:
        problems.append(f"closed form lambda1 {fields['closed form lambda1']} vs {lam0!r}")
    if np.abs(x_opt - x0).max() > 1e-6:
        problems.append(f"optimized X {x_opt} vs X0 {x0}")
    if abs(float(fields["optimized lambda1"][0]) - lam0) > TOL:
        problems.append(f"optimized lambda1 {fields['optimized lambda1']} vs {lam0!r}")
    if float(fields["gradient norm"][0]) > 1e-6 or fields["equilateral"] != ["True"]:
        problems.append(f"X0 not certified: {fields['gradient norm']} {fields['equilateral']}")
    return problems


def certificate_task(ctx, name, weights, at_minimum):
    """At X0 the embedding is equilateral and critical; anywhere farther
    than 0.02 from X0 it is neither (the paper's theorem)."""
    group = ctx.groups[name]
    x = ctx.cx.randwalk.simplex_point(weights)
    cert = ctx.cx.solids.critical_certificate(x, group, ctx.graphs[name])
    mu, v = top_block(weights, group.generators)
    lengths = block_class_lengths(v, group.generators, group.order)[0]
    problems = []
    if abs(cert.lam - mu[0]) > TOL:
        problems.append(f"lambda {cert.lam!r} vs block {mu[0]!r}")
    if np.abs(np.array(cert.class_lengths) - lengths).max() > TOL:
        problems.append(f"class lengths {cert.class_lengths} vs block {lengths}")
    if at_minimum:
        if not (cert.equilateral and cert.gradient_norm <= 1e-6):
            problems.append(f"X0: equilateral {cert.equilateral}, gradient {cert.gradient_norm:.3g}")
        if abs(cert.lam - closed_form_minimum(name)[1]) > TOL:
            problems.append(f"X0: lambda {cert.lam!r} is not the closed-form minimum")
    elif cert.equilateral or cert.gradient_norm <= 1e-3:
        problems.append(f"{weights}: equilateral {cert.equilateral}, gradient {cert.gradient_norm:.3g}")
    return problems


def seeded_points(rng, name, count):
    """Interior points with every weight above 0.015, farther than 0.02
    from X0 (rejection sampling)."""
    x0, _ = closed_form_minimum(name)
    points = []
    while len(points) < count:
        w = 0.05 + rng.random(3)
        w /= w.sum()
        if np.linalg.norm(w - x0) > 0.02:
            points.append(w)
    return points


def optimum_tasks(ctx, rng):
    tasks = []
    for name in shuffled(rng):
        tasks.append(Task(f"minimize {name}", partial(minimize_task, ctx, name)))
        x0, _ = closed_form_minimum(name)
        tasks.append(Task(f"certificate {name} X0", partial(certificate_task, ctx, name, x0, True)))
        for i, w in enumerate(seeded_points(rng, name, CERT_POINTS)):
            tasks.append(Task(f"certificate {name} #{i}",
                              partial(certificate_task, ctx, name, w, False)))
    return tasks


# ----------------------------------------------------------------- orbits


def fundamental_direction(roots, alphas):
    """Unit vector sum_j alpha_j p_j with <n_i, p_j> proportional to delta_ij."""
    p = np.linalg.inv(roots) @ np.asarray(alphas, dtype=float)
    return p / np.linalg.norm(p)


def check_curve_csv(path, group, curve, ts):
    """Two equal class lengths per sample, lambda p = sum_j x_j sigma_j p
    with p computed here from t, and lambda the top eigenvalue of the block."""
    data = _read_csv(path, CURVE_HEADER)
    if len(data) != len(ts):
        return [f"{len(data)} samples, expected {len(ts)}"]
    problems = []
    a, b = CURVE_EQUAL_PAIR[curve]
    mu, _ = top_block(data[:, 1:4], group.generators)
    for r, row in enumerate(data):
        t, x, lam, lengths = row[0], row[1:4], row[4], row[5:]
        if abs(t - ts[r]) > 1e-12 * ts[r]:
            problems.append(f"sample {r}: t {t!r} is not {ts[r]!r}")
        if np.any(x <= 0) or abs(x.sum() - 1.0) > 1e-12:
            problems.append(f"sample {r}: {x} is not an interior simplex point")
        p = fundamental_direction(group.roots, CURVE_ALPHAS[curve](ts[r]))
        residual = np.abs(lam * p - np.einsum("j,jab,b->a", x, group.generators, p)).max()
        if residual > TOL:
            problems.append(f"sample {r}: eigen-relation residual {residual:.3g}")
        if abs(lam - mu[r]) > TOL:
            problems.append(f"sample {r}: lambda1 {lam!r} vs block {mu[r]!r}")
        if abs(lengths[a] - lengths[b]) > TOL * max(lengths[a], lengths[b]):
            problems.append(f"sample {r}: lengths {lengths} have no equal pair {a},{b}")
    return _first(problems)


def curve_task(ctx, name, curve, t_min, t_max):
    out = ctx.path(f"curve-{name}-{curve}.csv")
    code, _ = ctx.cli(["curve", "--group", name, "--curve", curve, "--t-min", repr(t_min),
                       "--t-max", repr(t_max), "--samples", str(CURVE_SAMPLES), "--out", out],
                      f"curve-{name}-{curve}.txt")
    problems = [] if code == 0 else [f"exit code {code}"]
    ts = np.geomspace(t_min, t_max, CURVE_SAMPLES)
    return problems + check_curve_csv(out, ctx.groups[name], curve, ts)


def check_orbit(ctx, name, label, point, count, pattern, ringed):
    """The limit orbit is the uniform polyhedron its Wythoff pattern
    names; its mesh has Euler characteristic 2 and survives an OFF round
    trip byte for byte."""
    cx, group = ctx.cx, ctx.groups[name]
    found = {j for j in range(3) if pattern[j] > 0}
    if found != ringed:
        return [f"{label}: pattern {pattern} rings {sorted(found)}, expected {sorted(ringed)}"]
    vertices, config = uniform_polyhedron(name, ringed)
    problems = [] if count == vertices else [f"{label}: {count} orbit points, expected {vertices}"]
    mesh = cx.mesh.build_orbit_mesh(group, point)
    if len(mesh.vertices) != vertices:
        problems.append(f"{label}: mesh has {len(mesh.vertices)} vertices, expected {vertices}")
    if mesh.euler_characteristic() != 2:
        problems.append(f"{label}: Euler characteristic {mesh.euler_characteristic()}")
    got = cx.mesh.vertex_configuration(mesh)
    if tuple(got) != config:
        problems.append(f"{label}: vertex configuration {got}, expected {config}")
    first, second = ctx.path(f"{label}.off"), ctx.path(f"{label}-again.off")
    cx.mesh.export_off(mesh, first)
    cx.mesh.export_off(cx.mesh.parse_off(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        if fa.read() != fb.read():
            problems.append(f"{label}: re-exported OFF file differs")
    return problems


def curve_limit_task(ctx, name, curve, end):
    point, pts, pattern = ctx.cx.solids.curve_limit(curve, ctx.groups[name], end)
    # t -> 0 keeps the coefficient that stays 1; t -> inf keeps the two t's
    alphas = CURVE_ALPHAS[curve](0.0 if end == 0 else 2.0)
    ringed = set(np.flatnonzero(alphas > (0.0 if end == 0 else 1.0)).tolist())
    return check_orbit(ctx, name, f"{name}-{curve}-{end}", point, len(pts), pattern, ringed)


def boundary_limit_task(ctx, name, k):
    target = np.array(EDGE_TARGETS[k])
    point, count, pattern = ctx.cx.solids.boundary_limit(target, ctx.groups[name])
    # x_k -> 0 along the inverse map leaves alpha_k as the only positive
    # coefficient: x_j is proportional to (M^-1 alpha)_j / alpha_j
    return check_orbit(ctx, name, f"{name}-edge{k}", point, count, pattern, {k})


def orbits_tasks(ctx, rng):
    tasks = []
    for name in shuffled(rng):
        for curve in ("C1", "C2", "C3"):
            t_min = float(10.0 ** -rng.uniform(0.7, 1.3))
            t_max = float(10.0 ** rng.uniform(0.7, 1.3))
            tasks.append(Task(f"curve {name} {curve}",
                              partial(curve_task, ctx, name, curve, t_min, t_max)))
        for curve in ("C1", "C2", "C3"):
            for end in (0, "inf"):
                tasks.append(Task(f"curve limit {name} {curve} {end}",
                                  partial(curve_limit_task, ctx, name, curve, end)))
        for k in range(3):
            tasks.append(Task(f"edge limit {name} {k}", partial(boundary_limit_task, ctx, name, k)))
    return tasks


# ----------------------------------------------------------------- verify


def verify_task(ctx):
    code, text = ctx.cli(["verify", "--suite", "all"], "verify.json")
    report = json.loads(text)
    failed = [c["id"] for c in report["checks"] if not c["passed"]]
    problems = [] if code == 0 and report["passed"] else [f"exit code {code}"]
    return problems + [f"check {cid} did not pass" for cid in failed]


def verify_tasks(ctx, rng):
    # the suites draw their points from seeds of their own: nothing to seed
    return [Task("verify all", partial(verify_task, ctx))]


WORKLOADS = {
    "landscape": landscape_tasks,
    "optimum": optimum_tasks,
    "orbits": orbits_tasks,
    "verify": verify_tasks,
}
