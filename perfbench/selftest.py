"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The file name keeps these runs out of the repository's own test suite,
since they start the benchmark in subprocesses for about half a minute.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "pass_s", "peak_rss_mib"}


def bench(workload, trace=0, seconds=1, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_short_run_has_no_failed_operation(workload):
    out = result(bench(workload))
    assert out["correct"] is True
    assert out["attempted"] >= 2 and out["failed"] == 0
    assert set(out["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_runs_repeat_every_count():
    first, second = (result(bench("optimum", trace=1)) for _ in range(2))
    assert set(first["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
    counts = [name for name, unit, _ in tracing.PER_LAYER if unit == "count"]
    # per group: X0, the seeded points, and the certificate inside minimize
    assert first["metrics"]["solids.critical_certificate.calls"]["value"] == 3 * (
        workloads.CERT_POINTS + 2)
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("landscape", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def landscape_ctx(tmp_path_factory):
    _, cx, groups, graphs = run.set_up(workloads.GROUPS)
    return workloads.Context(cx, groups, graphs, str(tmp_path_factory.mktemp("out")))


def _sweep(ctx, name, grid):
    out = ctx.path(f"sweep-{name}.csv")
    code, _ = ctx.cli(["sweep", "--group", name, "--grid", str(grid), "--out", out], "stdout.txt")
    assert code == 0
    return out


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("name", workloads.GROUPS)
def test_sweep_check_accepts_the_program_output(landscape_ctx, name):
    path = _sweep(landscape_ctx, name, 6)
    assert workloads.check_sweep_csv(path, landscape_ctx.groups[name], name, 6) == []


@pytest.mark.parametrize("column, delta", [(3, 1e-6), (5, 1e-6), (4, 1.0)])
def test_perturbed_sweep_row_is_counted_as_failed(landscape_ctx, column, delta):
    path = _sweep(landscape_ctx, "H3", 6)

    def perturb(rows):
        rows[4][column] = repr(float(rows[4][column]) + delta)

    _rewrite(path, perturb)
    group = landscape_ctx.groups["H3"]
    task = workloads.Task("perturbed", lambda: workloads.check_sweep_csv(path, group, "H3", 6))
    assert run.run_pass([task], lambda message: None) == (0, 1)


def test_missing_sweep_row_is_counted_as_failed(landscape_ctx):
    path = _sweep(landscape_ctx, "A3", 6)
    _rewrite(path, lambda rows: rows.pop())
    assert workloads.check_sweep_csv(path, landscape_ctx.groups["A3"], "A3", 6) != []


def test_wrong_polyhedron_is_reported(landscape_ctx):
    ctx = landscape_ctx
    h3 = ctx.groups["H3"]
    point, pts, pattern = ctx.cx.solids.curve_limit("C2", h3, 0)
    assert workloads.check_orbit(ctx, "H3", "dodecahedron", point, len(pts), pattern, {1}) == []
    # the dodecahedron's orbit claimed as the icosahedron
    assert workloads.check_orbit(ctx, "H3", "wrong", point, len(pts), [1, 0, 0], {0}) != []


def test_uniform_polyhedra_table():
    table = {name: {tuple(sorted(r)): workloads.uniform_polyhedron(name, set(r))
                    for r in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2})}
             for name in workloads.GROUPS}
    assert table["H3"] == {
        (0,): (12, (3, 3, 3, 3, 3)), (1,): (20, (5, 5, 5)), (2,): (30, (3, 5, 3, 5)),
        (0, 1): (60, (3, 4, 5, 4)), (0, 2): (60, (5, 6, 6)), (1, 2): (60, (3, 10, 10)),
    }
    assert table["B3"][(1,)] == (8, (4, 4, 4)) and table["B3"][(0,)] == (6, (3, 3, 3, 3))
    assert table["A3"][(0,)] == table["A3"][(1,)] == (4, (3, 3, 3))


def test_closed_form_minimum_matches_the_h3_weights():
    x0, lam = workloads.closed_form_minimum("H3")
    assert np.allclose(x0, [0.226345021913911, 0.355547376332976, 0.418107601753113], atol=1e-14)
    assert abs(lam - 0.965417557925291) < 1e-14
