"""Spans around the calls into each layer of coxspec, for the traced run.

The tracer replaces a function at every module binding through which
coxspec calls it (``coxspec.linalg.eigh_symmetric`` is also bound as
``coxspec.spectral.eigh_symmetric`` and ``coxspec.verify.eigh_symmetric``,
and the verify suites are also held in the ``_SUITES`` table).  A span is
(name, start, end, parent span, pass id); spans and counts stay in memory
until the run ends.  Nothing here is installed in an untraced run.
"""

import functools
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path) of every wrapped function
TARGETS = [
    ("coxeter.build_group", "coxeter", "build_group"),
    ("coxeter.left_action_permutation", "coxeter", "ReflectionGroup.left_action_permutation"),
    ("coxeter.element_index", "coxeter", "ReflectionGroup.element_index"),
    ("randwalk.build_operator", "randwalk", "build_operator"),
    ("randwalk.project_to_simplex", "randwalk", "project_to_simplex"),
    ("linalg.eigh_symmetric", "linalg", "eigh_symmetric"),
    ("linalg.perron_frobenius", "linalg", "perron_frobenius"),
    ("spectral.spectrum_clusters", "spectral", "spectrum_clusters"),
    ("spectral.spectral_representation", "spectral", "spectral_representation"),
    ("spectral.edge_class_lengths", "spectral", "edge_class_lengths"),
    ("spectral.lambda1", "spectral", "lambda1"),
    ("spectral.gram_invariance_check", "spectral", "gram_invariance_check"),
    ("fourier.rep_fourier", "fourier", "rep_fourier"),
    ("fourier.crosscheck_mu1", "fourier", "crosscheck_mu1"),
    ("coxmaps.orbit_points", "coxmaps", "orbit_points"),
    ("coxmaps.fundamental_vectors", "coxmaps", "fundamental_vectors"),
    ("coxmaps.psi_maps", "coxmaps", "psi_maps"),
    ("coxmaps.psi_delta_inverse", "coxmaps", "psi_delta_inverse"),
    ("coxmaps.psi_lambda_of", "coxmaps", "psi_lambda_of"),
    ("solids.sweep_lambda1", "solids", "sweep_lambda1"),
    ("solids.minimize_lambda1", "solids", "minimize_lambda1"),
    ("solids.critical_certificate", "solids", "critical_certificate"),
    ("solids.curve_point", "solids", "curve_point"),
    ("solids.curve_limit", "solids", "curve_limit"),
    ("solids.boundary_limit", "solids", "boundary_limit"),
    ("mesh.cayley_faces", "mesh", "cayley_faces"),
    ("mesh.build_orbit_mesh", "mesh", "build_orbit_mesh"),
    ("mesh.export_off", "mesh", "export_off"),
    ("mesh.parse_off", "mesh", "parse_off"),
    ("mesh.vertex_configuration", "mesh", "vertex_configuration"),
    ("verify.suite_closed_forms", "verify", "suite_closed_forms"),
    ("verify.suite_invariants", "verify", "suite_invariants"),
    ("verify.suite_theorem2", "verify", "suite_theorem2"),
    ("verify.suite_curves", "verify", "suite_curves"),
    ("cli.main", "cli", "main"),
]

# counts taken from a wrapped function's result
RESULT_COUNTS = {
    "solids.sweep_lambda1": ("solids.sweep_rows", len),
    "solids.minimize_lambda1": ("solids.minimize_lambda1.iterations", lambda r: r.iterations),
    "mesh.export_off": ("mesh.export_off.bytes", int),
    "verify.suite_closed_forms": ("verify.checks", len),
    "verify.suite_invariants": ("verify.checks", len),
    "verify.suite_theorem2": ("verify.checks", len),
    "verify.suite_curves": ("verify.checks", len),
}

# (metric, numerator span, enclosing span, base count): calls of the
# numerator made inside the enclosing function, per unit of the base
RATIOS = [
    ("linalg.eigh_symmetric.per_row", "linalg.eigh_symmetric", "solids.sweep_lambda1",
     "solids.sweep_rows"),
    ("spectral.lambda1.per_iteration", "spectral.lambda1", "solids.minimize_lambda1",
     "solids.minimize_lambda1.iterations"),
]

# every per-layer metric the benchmark reports, with its unit and direction
PER_LAYER = [
    ("coxeter.build_group.calls", "count", "lower"),
    ("coxeter.build_group.ms", "ms", "lower"),
    ("coxeter.left_action_permutation.calls", "count", "lower"),
    ("coxeter.left_action_permutation.ms", "ms", "lower"),
    ("coxeter.element_index.calls", "count", "lower"),
    ("randwalk.build_operator.calls", "count", "lower"),
    ("randwalk.build_operator.ms", "ms", "lower"),
    ("randwalk.project_to_simplex.calls", "count", "lower"),
    ("linalg.eigh_symmetric.calls", "count", "lower"),
    ("linalg.eigh_symmetric.ms", "ms", "lower"),
    ("linalg.perron_frobenius.calls", "count", "lower"),
    ("linalg.perron_frobenius.ms", "ms", "lower"),
    ("spectral.spectrum_clusters.calls", "count", "lower"),
    ("spectral.spectrum_clusters.self_ms", "ms", "lower"),
    ("spectral.spectral_representation.ms", "ms", "lower"),
    ("spectral.edge_class_lengths.ms", "ms", "lower"),
    ("spectral.lambda1.calls", "count", "lower"),
    ("spectral.lambda1.ms", "ms", "lower"),
    ("spectral.gram_invariance_check.ms", "ms", "lower"),
    ("fourier.rep_fourier.calls", "count", "lower"),
    ("fourier.crosscheck_mu1.ms", "ms", "lower"),
    ("coxmaps.orbit_points.calls", "count", "lower"),
    ("coxmaps.orbit_points.ms", "ms", "lower"),
    ("coxmaps.fundamental_vectors.calls", "count", "lower"),
    ("coxmaps.psi_maps.ms", "ms", "lower"),
    ("coxmaps.psi_delta_inverse.ms", "ms", "lower"),
    ("coxmaps.psi_lambda_of.ms", "ms", "lower"),
    ("solids.sweep_lambda1.ms", "ms", "lower"),
    ("solids.sweep_rows", "count", "higher"),
    ("solids.minimize_lambda1.ms", "ms", "lower"),
    ("solids.minimize_lambda1.iterations", "count", "lower"),
    ("solids.critical_certificate.calls", "count", "lower"),
    ("solids.critical_certificate.ms", "ms", "lower"),
    ("solids.curve_point.ms", "ms", "lower"),
    ("solids.curve_limit.ms", "ms", "lower"),
    ("solids.boundary_limit.ms", "ms", "lower"),
    ("mesh.cayley_faces.ms", "ms", "lower"),
    ("mesh.build_orbit_mesh.ms", "ms", "lower"),
    ("mesh.export_off.ms", "ms", "lower"),
    ("mesh.export_off.bytes", "bytes", "lower"),
    ("mesh.parse_off.ms", "ms", "lower"),
    ("mesh.vertex_configuration.ms", "ms", "lower"),
    ("verify.suite_closed_forms.ms", "ms", "lower"),
    ("verify.suite_invariants.ms", "ms", "lower"),
    ("verify.suite_theorem2.ms", "ms", "lower"),
    ("verify.suite_curves.ms", "ms", "lower"),
    ("verify.checks", "count", "higher"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("linalg.eigh_symmetric.per_row", "calls/row", "lower"),
    ("spectral.lambda1.per_iteration", "calls/iter", "lower"),
]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.spans = []  # [name index, start ns, end ns, parent span or -1, pass id]
        self.counts = []  # (name, value, pass id)
        self.stack = []
        self.pass_id = 0
        self.restore = []

    def count(self, name, value):
        self.counts.append((name, value, self.pass_id))

    def _wrap(self, index, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        name = self.names[index]
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else -1, self.pass_id]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        return traced

    def install(self, package):
        """Wrap every target at every binding inside `package`'s modules."""
        prefix = package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if key == prefix or key.startswith(prefix + ".")]
        for index, (_, modname, path) in enumerate(TARGETS):
            owner = sys.modules[f"{prefix}.{modname}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            self._rebind(owner, attr, original, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self.restore.append((value.__setitem__, dkey, original))

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.restore.append((functools.partial(setattr, owner), attr, original))

    def uninstall(self):
        for setter, key, original in reversed(self.restore):
            setter(key, original)
        self.restore.clear()

    def metrics(self, passes):
        """Per-pass averages over the given pass ids of every PER_LAYER metric."""
        passes = set(passes)
        calls, total, child = defaultdict(int), defaultdict(int), defaultdict(int)
        for index, start, end, parent, pid in self.spans:
            if pid in passes:
                calls[index] += 1
                total[index] += end - start
                if parent >= 0:
                    child[parent] += end - start
        self_ns = defaultdict(int)
        for sid, (index, start, end, _, pid) in enumerate(self.spans):
            if pid in passes:
                self_ns[index] += end - start - child[sid]
        values = {}
        for index, name in enumerate(self.names):
            values[f"{name}.calls"] = calls[index]
            values[f"{name}.ms"] = total[index] / 1e6
            values[f"{name}.self_ms"] = self_ns[index] / 1e6
        for name, value, pid in self.counts:
            if pid in passes:
                values[name] = values.get(name, 0) + value
        for metric, inner, outer, base in RATIOS:
            nested = self._nested_calls(self.names.index(inner), self.names.index(outer), passes)
            values[metric] = nested / values[base] if values.get(base) else 0.0
        n = len(passes)
        out = {}
        for metric, unit, _ in PER_LAYER:
            value = values.get(metric, 0)
            if not metric.endswith(("per_row", "per_iteration")):
                value = value / n
            out[metric] = {"value": value, "unit": unit}
        return out

    def _nested_calls(self, inner, outer, passes):
        count = 0
        for index, _, _, parent, pid in self.spans:
            if index != inner or pid not in passes:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent",
                                                       "pass"],
                       "spans": self.spans, "counts": self.counts}, fh)
