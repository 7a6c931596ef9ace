"""The names the benchmark harness in perfbench/ calls or traces.

The harness is kept apart from the package, so a renamed or removed name
would otherwise only show in its own 30 s self test.  `TARGETS` is read
from perfbench/tracing.py as a literal, without importing the harness.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from coxspec import coxeter, solids
from coxspec.randwalk import uniform_point

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS list")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert len(targets) == 35
    for metric, module, path in targets:
        owner = importlib.import_module(f"coxspec.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), metric


def test_cayley_graph_is_the_group(h3):
    assert coxeter.cayley_graph(h3) is h3


def test_certificate_ignores_the_graph(groups):
    for group in groups.values():
        for x in (solids.closed_form_minimum(group.datum)[0], uniform_point(3)):
            with_graph = solids.critical_certificate(x, group, coxeter.cayley_graph(group))
            without = solids.critical_certificate(x, group)
            assert with_graph.lam == without.lam
            assert with_graph.gradient_norm == without.gradient_norm
            assert with_graph.class_lengths == without.class_lengths
            assert with_graph.equilateral == without.equilateral
            assert np.array_equal(with_graph.x, without.x)
