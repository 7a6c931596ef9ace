"""Command-line interface.

Verbs: group (structure info), spectrum (eigenvalue clusters at a simplex
point), embed (mesh export), minimize, curve (CSV samples along an
equal-length curve), sweep (CSV over a barycentric grid), verify (named
check suites as JSON).  Numeric output uses 15 significant digits.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
from collections import Counter

import numpy as np

from .coxeter import BUILTIN_NAMES, build_group, cayley_graph
from .errors import CoxspecError, DomainError
from .mesh import build_cayley_mesh, cayley_faces, export_obj, export_off
from .randwalk import build_operator, simplex_point, uniform_point
from .solids import curve_point, minimize_lambda1, sweep_lambda1
from .spectral import (
    check_faithful,
    edge_class_lengths,
    lambda1_cluster,
    spectral_representation,
    spectrum_clusters,
)
from .verify import SUITE_NAMES, run_suite


def _fmt(x):
    return f"{x:.15g}"


def _parse_point(args):
    # every built-in has 3 edge classes
    if args.point is None:
        return uniform_point(3)
    try:
        weights = [float(t) for t in args.point.split(",")]
    except ValueError:
        raise CoxspecError(f"--point must be numbers x,y,z, got {args.point!r}") from None
    if len(weights) != 3:
        raise CoxspecError(f"--point must be three numbers x,y,z, got {args.point!r}")
    return simplex_point(weights)


@contextlib.contextmanager
def _open_out(path):
    """Open the --out file before any work is done; a path that cannot be
    written is a one-line error, and a verb that fails leaves no file."""
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise CoxspecError(f"cannot write --out {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


def _add_group_arg(parser):
    parser.add_argument("--group", choices=BUILTIN_NAMES, default="H3")


def cmd_group(args):
    group = build_group(args.group)
    graph = cayley_graph(group)
    census = Counter(len(f) for f in cayley_faces(graph))
    print(f"group {args.group}")
    print(f"order {group.order}")
    print(f"edges {len(graph.edges)}")
    print(f"edge classes {graph.n_classes}")
    faces = census.total()
    print("faces", " ".join(f"{size}-gon:{census[size]}" for size in sorted(census)))
    print(f"euler {group.order - len(graph.edges) + faces}")
    return 0


def cmd_spectrum(args):
    x = _parse_point(args)
    group = build_group(args.group)
    graph = cayley_graph(group)
    print("point", " ".join(_fmt(w) for w in x))
    for c in spectrum_clusters(build_operator(graph, x)):
        print(f"{_fmt(c.eigenvalue)} multiplicity {c.multiplicity}")
    return 0


def cmd_embed(args):
    x = _parse_point(args)
    group = build_group(args.group)
    graph = cayley_graph(group)
    if args.eigenvalue == "second":
        cluster = lambda1_cluster(graph, x)
    else:
        clusters = spectrum_clusters(build_operator(graph, x))
        if not args.eigenvalue.isdigit() or int(args.eigenvalue) >= len(clusters):
            last = len(clusters) - 1
            raise CoxspecError(f"--eigenvalue must be 'second' or a cluster index 0..{last}")
        cluster = clusters[int(args.eigenvalue)]
    pts = spectral_representation(graph, x, cluster)
    lengths = edge_class_lengths(pts, graph)
    writer = export_off if args.format == "off" else export_obj
    nbytes = writer(build_cayley_mesh(pts, graph), args.out)
    print(f"wrote {nbytes} bytes to {args.out}")
    print("eigenvalue", _fmt(cluster.eigenvalue), "multiplicity", cluster.multiplicity)
    print("faithful", check_faithful(pts))
    print("class lengths", " ".join(_fmt(v) for v in lengths))
    return 0


def cmd_minimize(args):
    group = build_group(args.group)
    res = minimize_lambda1(group)
    print("closed form X0", " ".join(_fmt(w) for w in res.closed_form.x))
    print("closed form lambda1", _fmt(res.closed_form.lam))
    print("optimized X", " ".join(_fmt(w) for w in res.optimized.x))
    print("optimized lambda1", _fmt(res.optimized.lam))
    print("gradient norm", _fmt(res.closed_form.gradient_norm))
    print("equilateral", res.closed_form.equilateral)
    print("iterations", res.iterations)
    return 0


def cmd_curve(args):
    if not (0 < args.t_min <= args.t_max and np.isfinite(args.t_max) and args.samples >= 1):
        raise DomainError("curve needs 0 < --t-min <= --t-max < inf and --samples >= 1")
    ts = np.geomspace(args.t_min, args.t_max, args.samples)
    with _open_out(args.out) as fh:
        group = build_group(args.group)
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z", "lambda1", "len1", "len2", "len3"])
        for t in ts:
            s = curve_point(args.curve, float(t), group)
            writer.writerow(
                [_fmt(t), *(_fmt(w) for w in s.x), _fmt(s.lam),
                 *(_fmt(v) for v in s.class_lengths)]
            )
    print(f"wrote {args.samples} samples to {args.out}")
    return 0


def cmd_sweep(args):
    with _open_out(args.out) as fh:
        sweep = sweep_lambda1(build_group(args.group), args.grid)
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "lambda1", "mult", "len1", "len2", "len3"])
        columns = (sweep.weights, sweep.lambda1, sweep.multiplicity, sweep.class_lengths)
        for weights, lam, multiplicity, lengths in zip(*(c.tolist() for c in columns)):
            writer.writerow(
                [*(_fmt(w) for w in weights), _fmt(lam), multiplicity, *(_fmt(v) for v in lengths)]
            )
    print(f"wrote {len(sweep)} rows to {args.out}")
    return 0


def cmd_verify(args):
    report = run_suite(args.suite)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="coxspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="build a group and print its structure")
    _add_group_arg(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("spectrum", help="eigenvalue clusters at a simplex point")
    _add_group_arg(p)
    p.add_argument("--point", help="comma-separated class weights x,y,z")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("embed", help="export a spectral embedding as a mesh")
    _add_group_arg(p)
    p.add_argument("--point", help="comma-separated class weights x,y,z")
    p.add_argument("--eigenvalue", default="second",
                   help="'second' or a cluster index (0 = top)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("off", "obj"), default="off")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("minimize", help="minimize the second eigenvalue over the simplex")
    _add_group_arg(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("curve", help="sample an equal-length curve to CSV")
    _add_group_arg(p)
    p.add_argument("--curve", choices=("C1", "C2", "C3"), required=True)
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("sweep", help="grid sweep of lambda_1 to CSV")
    _add_group_arg(p)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    """Run one verb; invalid input ends with a one-line message on stderr
    and exit code 2, and a closed standard output (a reader such as
    `head` that stops early) with exit code 1 and no message."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that stops early is met here, not at the flush at exit
        sys.stdout.flush()
        return code
    except CoxspecError as exc:
        print(f"coxspec: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the SIGPIPE recipe of the Python docs: point stdout at devnull so
        # that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
