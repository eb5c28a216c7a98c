"""Spans for the traced run, recorded from the benchmark's own code.

`Tracer.install` replaces, for the life of the run, the names that
morphplan's callers look up (`pipeline.search`, `traj_opt.clearance_batch`,
`controller.nmpc_solve`, ...) with wrappers that record a span: name, start,
end, parent span and one measured value (points queried, expansions, solver
iterations).  Spans stay in memory and are written out when the run ends.
The untraced run never builds a Tracer, so it runs the program unwrapped.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from morphplan import controller, esdf, metrics, pipeline, scenario, search, traj_opt

NAME, START, END, PARENT, VALUE = range(5)


def _points(args, kwargs, out):
    return len(np.asarray(args[1] if len(args) > 1 else kwargs["points"]).reshape(-1, 3))


def _iterations(args, kwargs, out):
    """(iterations, converged) of an optimize or nmpc_solve result."""
    return (out[1].iterations, out[1].converged)


# (module, attribute the caller looks up, span name, value to record)
TARGETS = [
    (scenario, "load_scenario", "scenario.load", None),
    (scenario, "parse_scenario", "scenario.load", None),
    (scenario, "build_grid", "esdf.build", None),
    (scenario, "compute_esdf", "esdf.build", lambda a, k, out: out.distance.size),
    (search, "query_distance_many", "esdf.query", _points),
    (esdf, "query_distance_many", "esdf.query", _points),
    (esdf, "query_gradient_many", "esdf.query", _points),
    (traj_opt, "clearance_batch", "esdf.clearance", None),
    (pipeline, "search", "search", lambda a, k, out: out.expansions),
    (pipeline, "optimize", "opt", _iterations),
    (traj_opt, "objective_and_gradient", "opt.eval", None),
    (traj_opt, "verify_trajectory", "gate", None),
    (metrics, "trajectory_energy", "energy", None),
    (controller, "nmpc_solve", "nmpc", _iterations),
    (controller, "flat_reference", "reference", None),
    (controller, "step", "sim.step", None),
    (controller, "allocate", "alloc", None),
]


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1, value]
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = perf_counter_ns()

    def wrap(self, fn, name, measure=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.spans[idx][VALUE] = measure(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module, attr, name, measure in TARGETS:
            self._patch(module, attr, self.wrap(getattr(module, attr), name, measure))
        base = traj_opt.MinJerkSystem
        traced_system = type("TracedMinJerkSystem", (base,), {
            "__init__": self.wrap(base.__init__, "minjerk.build"),
            "solve": self.wrap(base.solve, "minjerk.solve"),
            "adjoint": self.wrap(base.adjoint, "minjerk.adjoint"),
        })
        self._patch(traj_opt, "MinJerkSystem", traced_system)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics and self times from the recorded spans

def _dur(s):
    return (s[END] - s[START]) * 1e-9


def self_times(spans):
    """Seconds per span name, each span's duration minus its children's."""
    child = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += _dur(s)
    out = {}
    for i, s in enumerate(spans):
        out[s[NAME]] = out.get(s[NAME], 0.0) + _dur(s) - child[i]
    return out


def layer_metrics(spans, import_s):
    """{name: (value, unit)} of the per-layer metrics over the run's spans."""
    by = {}
    for s in spans:
        by.setdefault(s[NAME], []).append(s)

    def durs(name):
        return np.array([_dur(s) for s in by.get(name, [])])

    def mean(x):
        return float(np.mean(x)) if len(x) else 0.0

    def ratio(a, b):
        return float(a / b) if b else 0.0

    n_plan = len(by.get("plan", []))
    loads = [_dur(s) for s in by.get("scenario.load", [])
             if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "scenario.load"]
    voxel_counts = [s[VALUE] for s in by.get("esdf.build", []) if s[VALUE] is not None]
    queries = by.get("esdf.query", [])
    points = sum(s[VALUE] for s in queries)
    # a search that raised has no expansion count; per-expansion figures use
    # the searches that returned
    found = {i for i, s in enumerate(spans) if s[NAME] == "search" and s[VALUE] is not None}
    expansions = sum(spans[i][VALUE] for i in found)
    search_points = 0
    for s in queries:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != "search":
            p = spans[p][PARENT]
        if p in found:
            search_points += s[VALUE]
    opts = [s[VALUE] for s in by.get("opt", []) if s[VALUE] is not None]
    n_opt = len(by.get("opt", []))
    minjerk = sum(durs(n).sum() for n in ("minjerk.build", "minjerk.solve", "minjerk.adjoint"))
    nmpc_ms = durs("nmpc") * 1e3
    nmpc = [s[VALUE] for s in by.get("nmpc", [])]
    return {
        "import_s": (import_s, "s"),
        "scenario.load_ms": (mean(loads) * 1e3, "ms"),
        "esdf.build_ms": (ratio(durs("esdf.build").sum(), len(voxel_counts)) * 1e3, "ms"),
        "esdf.build_ns_per_voxel": (ratio(durs("esdf.build").sum(), sum(voxel_counts)) * 1e9, "ns"),
        "esdf.query_points": (ratio(points, n_plan), "count"),
        "esdf.query_ns_per_point": (ratio(sum(_dur(s) for s in queries), points) * 1e9, "ns"),
        "esdf.clearance_calls": (ratio(len(by.get("esdf.clearance", [])), n_plan), "count"),
        "search.ms": (mean(durs("search")) * 1e3, "ms"),
        "search.expansions": (ratio(expansions, len(found)), "count"),
        "search.ms_per_expansion": (ratio(sum(_dur(spans[i]) for i in found), expansions) * 1e3, "ms"),
        "search.points_per_expansion": (ratio(search_points, expansions), "count"),
        "opt.ms": (mean(durs("opt")) * 1e3, "ms"),
        "opt.evals": (ratio(len(by.get("opt.eval", [])), n_opt), "count"),
        "opt.eval_ms": (mean(durs("opt.eval")) * 1e3, "ms"),
        "opt.iterations": (mean([it for it, _ in opts]), "count"),
        "opt.solves": (ratio(len(by.get("gate", [])), n_opt), "count"),
        "opt.converged_share": (mean([float(c) for _, c in opts]), "share"),
        "gate.ms": (mean(durs("gate")) * 1e3, "ms"),
        "minjerk.us": (ratio(minjerk, len(by.get("minjerk.build", []))) * 1e6, "us"),
        "energy.ms": (mean(durs("energy")) * 1e3, "ms"),
        "nmpc.solve_ms_p50": (float(np.percentile(nmpc_ms, 50)) if len(nmpc_ms) else 0.0, "ms"),
        "nmpc.solve_ms_p95": (float(np.percentile(nmpc_ms, 95)) if len(nmpc_ms) else 0.0, "ms"),
        "nmpc.gn_iters": (mean([it for it, _ in nmpc]), "count"),
        "nmpc.converged_share": (mean([float(c) for _, c in nmpc]), "share"),
        "reference.us": (mean(durs("reference")) * 1e6, "us"),
        "reference.calls_per_step": (ratio(len(by.get("reference", [])), len(by.get("sim.step", []))),
                                     "count"),
        "sim.step_us": (mean(durs("sim.step")) * 1e6, "us"),
        "alloc.us": (mean(durs("alloc")) * 1e6, "us"),
    }
