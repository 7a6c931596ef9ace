"""Benchmark of coxspec: one command, four workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 28 --trace 0

The program is imported from ``src/`` of that checkout.  An untraced run
(``--trace 0``) reports the end-to-end metrics ``setup_s``, ``pass_s`` and
``peak_rss_mib``; a traced run (``--trace 1``) wraps the public functions
of each module and reports the per-layer metrics instead.  The last line
of standard output is the result; a record of the run, with a machine-speed
reference, goes to standard error.  See README.md in this directory.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("landscape", "optimum", "orbits", "verify")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads():
    """One BLAS thread, fixed before numpy loads: a 120x120 eigh gains
    nothing from a second thread, and a second thread makes timings depend
    on what else the machine runs.  COXSPEC_THREADS stays unset so the
    sweep runs its rows serially."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("COXSPEC_THREADS", None)


def machine_reference_ms(np):
    """Median time of one 120x120 numpy eigh, a yardstick for the speed of
    the machine that calls nothing of coxspec."""
    a = np.random.default_rng(0).standard_normal((120, 120))
    a = a + a.T
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(40):
            np.linalg.eigh(a)
        samples.append((time.perf_counter() - start) / 40 * 1e3)
    return statistics.median(samples)


def _coxspec_modules():
    return {k: m for k, m in sys.modules.items() if k == "coxspec" or k.startswith("coxspec.")}


def set_up(groups):
    """Import coxspec afresh and build the groups and Cayley graphs.

    Returns the elapsed seconds, the package and the groups and graphs."""
    for key in _coxspec_modules():
        del sys.modules[key]
    start = time.perf_counter()
    importlib.import_module("coxspec.cli")
    cx = sys.modules["coxspec"]
    built = {name: cx.coxeter.build_group(name) for name in groups}
    graphs = {name: cx.coxeter.cayley_graph(group) for name, group in built.items()}
    return time.perf_counter() - start, cx, built, graphs


def timed_set_up(groups):
    """Time one more set-up, then put back the modules the tasks use, so
    imports made inside coxspec functions keep finding them."""
    kept = _coxspec_modules()
    seconds = set_up(groups)[0]
    for key in _coxspec_modules():
        del sys.modules[key]
    sys.modules.update(kept)
    gc.collect()  # the discarded modules are cycles; keep peak RSS independent of the pass count
    return seconds


def run_pass(tasks, log):
    """Run every task once; returns the number of tasks that raised and
    the number whose output failed a check."""
    raised = wrong = 0
    for task in tasks:
        try:
            problems = task.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            raised += 1
            log(f"{task.name}: {type(exc).__name__}: {exc}")
            continue
        if problems:
            wrong += 1
            log(f"{task.name}: " + "; ".join(problems))
    return raised, wrong


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coxspec", "__init__.py")):
        print(f"perfbench: no coxspec sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    import numpy as np

    import workloads
    from tracing import Tracer

    def log(message):
        print(f"perfbench: {message}", file=sys.stderr)

    machine_ms = machine_reference_ms(np)
    set_up(workloads.GROUPS)  # compiles the bytecode on a fresh checkout
    seconds, cx, groups, graphs = set_up(workloads.GROUPS)
    setup_samples = [seconds]
    if not os.path.abspath(cx.__file__).startswith(SRC + os.sep):
        log(f"coxspec was imported from {cx.__file__}, not from {SRC}")
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    try:
        ctx = workloads.Context(cx, groups, graphs, tmpdir, tracer)
        tasks = workloads.WORKLOADS[args.workload](ctx, np.random.default_rng(args.seed))
        if tracer is not None:
            tracer.install(cx)
        attempted = raised = wrong = 0

        def one_pass(pass_id):
            nonlocal attempted, raised, wrong
            if tracer is not None:
                tracer.pass_id = pass_id
            start = time.perf_counter()
            r, w = run_pass(tasks, log)
            elapsed = time.perf_counter() - start
            attempted, raised, wrong = attempted + len(tasks), raised + r, wrong + w
            if tracer is None:
                setup_samples.append(timed_set_up(workloads.GROUPS))
            return elapsed

        # Pass 0 warms caches and is not timed; then whole passes until
        # the next one would end after --seconds (at least one timed pass).
        # An untraced run also times one set-up after every pass, so that
        # setup_s, like pass_s, is a median over the whole run rather than
        # over one moment of a shared machine.
        one_pass(0)
        measure_start = time.perf_counter()
        pass_times = []
        while not pass_times or (time.perf_counter() - measure_start
                                 + statistics.median(pass_times) <= args.seconds):
            pass_times.append(one_pass(len(pass_times) + 1))
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if tracer is not None:
        metrics = tracer.metrics(range(1, len(pass_times) + 1))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(pass_times),
        "pass_s": pass_times, "pass_s_median": statistics.median(pass_times),
        "setup_s": setup_samples, "machine_ref_eigh120_ms": machine_ms,
        "nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": np.__version__,
    }
    print("perfbench record " + json.dumps(record), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": raised + wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
