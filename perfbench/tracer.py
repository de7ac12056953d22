"""Span recorder that wraps bbem's public functions from outside the library.

Each public function of a layer module is replaced, in every bbem module that
holds a reference to it, by a wrapper that records one span: id, name,
start, end, parent span and the region of the run it belongs to ("setup",
"op:<i>", "check:<i>", ...).  Spans stay in memory and are written out once,
when the run ends.  Nothing under src/ is changed; uninstall() restores every
patched name.

Assembly and evaluation run chunks on a thread pool.  A span started on a
pool thread with nothing open on that thread takes the span open on the main
thread as its parent, because the main thread is blocked in that call while
the pool works for it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("geometry", "kernels", "potentials", "solvers", "semilinear",
          "harness")

# SolverWorkspace methods that build cached operators; the assembly
# functions they call are module functions and are wrapped already.
WORKSPACE_METHODS = ("__init__", "mixed_matrix", "mixed_factorization",
                     "neumann_factorization", "grid_velocity_rows")

# Trailing tensor axes of each kernel's result; the leading axes count the
# points the kernel was evaluated at.
KERNEL_TENSOR_AXES = {
    "brinkman_velocity_tensor": 2, "stokeslet": 2, "velocity_difference": 2,
    "traction_kernel": 2, "brinkman_stress_tensor": 3,
    "stress_difference_normal": 2, "stress_difference": 3,
    "pressure_vector": 1, "brinkman_pressure_tensor": 2,
}

EVAL_FUNCTIONS = ("eval_single_layer", "eval_single_layer_pressure",
                  "eval_double_layer", "eval_double_layer_pressure")


def _measure_for(module_name, name):
    """Size of a wrapped function's work, read from its result, or None."""
    if module_name == "kernels" and name in KERNEL_TENSOR_AXES:
        per_point = 3 ** KERNEL_TENSOR_AXES[name]
        return lambda result: int(result.size // per_point)
    if module_name == "potentials" and name in EVAL_FUNCTIONS:
        return lambda result: len(result)      # one row per point
    if module_name == "potentials" and (name.startswith("assemble_")
                                        or name == "adjoint_double_layer"):
        return lambda result: int(result.matrix.nbytes)
    return None


class Tracer:
    """Wraps bbem's public functions and records spans while installed."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.region = "setup"
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._patches = []
        self._wrappers = self._build_wrappers()

    # -------------------------------------------------------------- wrapping

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            region = tracer.region
            stack.append(sid)
            size = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    size = measure(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, region,
                                     size))

        return wrapper

    def _build_wrappers(self):
        """Map id(original) -> (original, wrapper) per wrapped callable."""
        import scipy.linalg
        from bbem.solvers import SolverWorkspace

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"bbem.{layer}"]
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(
                    f"{layer}.{name}", obj, _measure_for(layer, name)))
        for name in WORKSPACE_METHODS:
            obj = vars(SolverWorkspace)[name]
            wrappers[id(obj)] = (obj, self._wrap(
                f"solvers.SolverWorkspace.{name}", obj, None))
        lu = scipy.linalg.lu_factor
        wrappers[id(lu)] = (lu, self._wrap("scipy.linalg.lu_factor", lu, None))
        return wrappers

    def install(self):
        """Patch every reference to a wrapped callable in the bbem modules,
        on SolverWorkspace, and scipy.linalg.lu_factor."""
        import scipy.linalg
        from bbem.solvers import SolverWorkspace

        if self._patches:
            return
        targets = [m for n, m in sorted(sys.modules.items())
                   if n == "bbem" or n.startswith("bbem.")]
        targets += [SolverWorkspace, scipy.linalg]
        for target in targets:
            for name, obj in list(vars(target).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(target, name, entry[1])
                    self._patches.append((target, name, obj))

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches = []

    # ---------------------------------------------------------------- output

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, region, size in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id, "region": region,
                    "size": size}, separators=(",", ":")))
                out.write("\n")


# ------------------------------------------------------------- aggregation

def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the union of the intervals
    its child spans cover (children on pool threads may overlap)."""
    children = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _union_length([k for k in kids
                                                  if k[1] > k[0]])
    return out


def _region_kind(region):
    return region.split(":", 1)[0]


def layer_metrics(spans):
    """Per-layer numbers over the setup and op regions (plus the residual
    check), named <module>.<name>.  Times are self times in seconds, summed
    over threads; counts are calls or computed sizes."""
    selfs = self_times(spans)
    names = {sid: name for sid, name, *_ in spans}
    m = {key: 0.0 for key in METRIC_UNITS}
    picard_self = 0.0
    for sid, name, start, end, parent, region, size in spans:
        kind = _region_kind(region)
        own = selfs[sid]
        if kind == "check":
            # the residual's work sits in its children, so this one time
            # is inclusive: it shows work moved into the check
            if name == "semilinear.semilinear_residual":
                m["semilinear.residual_s"] += end - start
            continue
        if kind not in ("setup", "op"):
            continue
        layer, _, func = name.partition(".")
        parent_name = names.get(parent, "")
        if name == "geometry.duffy_singular_rule":
            m["geometry.duffy_rules"] += 1
            m["geometry.duffy_s"] += own
        elif name == "geometry.winding_number":
            m["geometry.winding_calls"] += 1
        elif name == "geometry.panel_quadrature":
            m["geometry.quadrature_builds"] += 1
        elif layer == "kernels":
            m["kernels.s"] += own
            if size is not None and not parent_name.startswith("kernels."):
                m[KERNEL_POINT_METRIC[func]] += size
        elif func in ("assemble_single_layer", "assemble_double_layer"):
            m[f"potentials.{func}_s"] += own
            m["potentials.matrix_bytes"] += size or 0
            m["solvers.assemblies"] += 1
        elif func == "adjoint_double_layer":
            m["potentials.matrix_bytes"] += size or 0
        elif func in EVAL_FUNCTIONS:
            m["potentials.eval_s"] += own
            m["potentials.eval_points"] += size or 0
        elif func.startswith("newtonian_"):
            m["potentials.newtonian_s"] += own
        elif name == "solvers.solve_dirichlet":
            m["solvers.dirichlet_self_s"] += own
        elif name.startswith("solvers.solve_"):
            m["solvers.solve_self_s"] += own
        elif name in ("solvers.SolverWorkspace.mixed_matrix",
                      "solvers.SolverWorkspace.mixed_factorization",
                      "solvers.SolverWorkspace.neumann_factorization"):
            m["solvers.factorization_s"] += own
        elif name == "scipy.linalg.lu_factor":
            m["solvers.factorization_s"] += own
            m["solvers.factorizations"] += 1
        elif name == "solvers.evaluate_solution":
            m["solvers.evaluate_s"] += own
        elif name == "solvers.SolverWorkspace.grid_velocity_rows":
            m["solvers.grid_rows_s"] += own
        elif name == "solvers.SolverWorkspace.__init__":
            m["solvers.workspaces"] += 1
        elif name == "semilinear.estimate_constants":
            m["semilinear.estimate_s"] += own
        elif name == "semilinear.picard_solve":
            picard_self += own
        elif name == "harness.run_config":
            m["harness.run_config_self_s"] += own
        if (parent_name.startswith("solvers.solve_")
                and (func.startswith("eval_") or func == "winding_number")):
            m["solvers.pressure_anchor_s"] += end - start
        if (name == "solvers.solve_poisson"
                and parent_name == "semilinear.picard_solve"):
            m["semilinear.iterations"] += 1
    iterations = m["semilinear.iterations"]
    m["semilinear.iteration_s"] = (picard_self / iterations if iterations
                                   else 0.0)
    return m


def op_coverage(spans, op_wall_s):
    """Share of the op regions' wall time that library self times account
    for (above 1 when pool threads overlap)."""
    selfs = self_times(spans)
    covered = sum(selfs[sid] for sid, *_, region, _ in spans
                  if _region_kind(region) == "op")
    return covered / op_wall_s if op_wall_s > 0.0 else 0.0


def assembly_seconds(spans):
    """Inclusive wall time of the dense assemblies, for the thread speed-up."""
    return sum(end - start for _, name, start, end, *_ in spans
               if name in ("potentials.assemble_single_layer",
                           "potentials.assemble_double_layer"))


KERNEL_POINT_METRIC = {
    "brinkman_velocity_tensor": "kernels.velocity_points",
    "stokeslet": "kernels.velocity_points",
    "velocity_difference": "kernels.velocity_points",
    "traction_kernel": "kernels.traction_points",
    "brinkman_stress_tensor": "kernels.traction_points",
    "stress_difference_normal": "kernels.stress_difference_points",
    "stress_difference": "kernels.stress_difference_points",
    "pressure_vector": "kernels.pressure_points",
    "brinkman_pressure_tensor": "kernels.pressure_points",
}

# Units of the span-derived metrics.
METRIC_UNITS = {
    "geometry.duffy_rules": "count",
    "geometry.duffy_s": "s",
    "geometry.winding_calls": "count",
    "geometry.quadrature_builds": "count",
    "kernels.velocity_points": "count",
    "kernels.traction_points": "count",
    "kernels.stress_difference_points": "count",
    "kernels.pressure_points": "count",
    "kernels.s": "s",
    "potentials.assemble_single_layer_s": "s",
    "potentials.assemble_double_layer_s": "s",
    "potentials.eval_s": "s",
    "potentials.eval_points": "count",
    "potentials.newtonian_s": "s",
    "potentials.matrix_bytes": "B",
    "solvers.dirichlet_self_s": "s",
    "solvers.factorization_s": "s",
    "solvers.factorizations": "count",
    "solvers.solve_self_s": "s",
    "solvers.pressure_anchor_s": "s",
    "solvers.evaluate_s": "s",
    "solvers.grid_rows_s": "s",
    "solvers.workspaces": "count",
    "solvers.assemblies": "count",
    "semilinear.estimate_s": "s",
    "semilinear.iterations": "count",
    "semilinear.iteration_s": "s",
    "semilinear.residual_s": "s",
    "harness.run_config_self_s": "s",
}
