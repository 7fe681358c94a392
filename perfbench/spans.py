"""In-memory span recorder and the per-layer metrics derived from it.

While a ``Tracer`` is installed, every call into the package's modules that
the benchmark can see from outside goes through a wrapper that records a
span: name, start, end, parent span, job id, plus a work count and a size
taken from the arguments or the result.  The wrappers replace the functions
in every ``darbouxflow`` module namespace that binds them, so calls from one
module into another are seen as well as the job's own calls.  Calls inside
one function body (the Riccati right-hand side inside ``rk4_path``, say) stay
invisible; splitting those needs spans inside the program.

A layer is a module of ``src/darbouxflow``.  A span's self time is its
duration minus the time its child spans cover; the job's root span keeps the
benchmark's own glue.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
from time import perf_counter

import numpy as np

from darbouxflow import geometry, verification
from workloads import SMALL_LIMIT

LAYERS = ("config", "darboux", "equivalence", "expressions", "geometry",
          "motion", "ode", "output", "semidiscrete", "verification")

NAME, START, END, PARENT, JOB, WORK, SIZE = range(7)


def _steps(a, k, res):
    return len(res) - 1, 0


def _rk4(a, k, res):
    return len(a[0]) - 1, np.size(a[2])


def _edge(a, k, res):
    return a[0].grid.count - 1, 0


def _nodes(a, k, res):
    return np.size(a[0]), 0


def _pair_nodes(a, k, res):
    return a[0].grid.count, 0


def _motion(a, k, res):
    return 4 * (a[3].count - 1), res.sheet.rows


def _csv(a, k, res):
    return a[1].values.size, os.path.getsize(a[0])


def _curve_points(position):
    def count(a, k, res):
        return sum(np.size(c) for c in a[position]), 0
    return count


def _read(a, k, res):
    return res[1].size, 0


#: Wrapped functions by module, each with how to count its work and size:
#: RK4 steps, edge steps, RHS stages (with the polygon's vertex count), nodes
#: differenced or tabulated, points written or read (with CSV bytes).
FUNCTIONS = {
    "geometry": {"fd_derivative": _nodes},
    "darboux": {"riccati_solve": _steps, "darboux_transform": None,
                "arclength_darboux": None, "pair_table": _pair_nodes,
                "cross_ratio_defect": None, "lemma_defects": None,
                "lambda_evolution_defects": None},
    "ode": {"rk4_path": _rk4},
    "semidiscrete": {"infinitesimal_darboux": None, "propagate_edge": _edge,
                     "arclength_flow_check": None, "sheet_cross_ratio_defect": None},
    "motion": {"integrate_motion": _motion, "mkdv_residual": None,
               "frame_compatibility_check": None, "tangential_angles": None},
    "output": {"write_csv": _csv, "write_svg": _curve_points(1), "read_csv": _read,
               "svg_text": _curve_points(0)},
    "config": {"load_scenario": None},
    "expressions": {"parse_expression": None},
    "equivalence": {"pipelines_agree": None, "iso_darboux_check": None,
                    "frameless_identity_check": None},
    "verification": {"run_suite": None, "figure_family": None},
}

ARTIFACTS = tuple(name for name, value in vars(verification.Artifacts).items()
                  if isinstance(value, functools.cached_property))


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out so untraced jobs run the unmodified package."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.job = -1
        self._patches = self._plan()

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], self.job, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if work is not None:
                record[WORK], record[SIZE] = work(args, kwargs, result)
            return result

        return traced

    def _cached(self, name, prop):
        wrapped = functools.cached_property(self._wrap(name, prop.func, None))
        wrapped.__set_name__(None, prop.attrname)
        return wrapped

    def _plan(self):
        """(owner, attribute, original, replacement) for every binding."""
        modules = [m for n, m in sys.modules.items()
                   if n == "darbouxflow" or n.startswith("darbouxflow.")]
        plan = []
        for layer, functions in FUNCTIONS.items():
            home = sys.modules[f"darbouxflow.{layer}"]
            for fname, work in functions.items():
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, work)
                plan += [(m, fname, original, wrapped) for m in modules
                         if getattr(m, fname, None) is original]
        for cls in (geometry.PolarizedCurve, geometry.Sheet):
            plan.append((cls, "__init__", cls.__init__,
                         self._wrap(f"geometry.{cls.__name__}", cls.__init__, None)))
        prop = vars(geometry.PolarizedCurve)["_stage_data"]
        plan.append((geometry.PolarizedCurve, "_stage_data", prop,
                     self._cached("geometry._stage_data", prop)))
        for name in ARTIFACTS:
            prop = vars(verification.Artifacts)[name]
            plan.append((verification.Artifacts, name, prop,
                         self._cached(f"verification.Artifacts.{name}", prop)))
        return plan

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_job(self, job_id: int, fn):
        """Run ``fn`` traced under a root span named ``job``."""
        self.job = job_id
        self.install()
        try:
            return self._wrap("job", fn, None)()
        finally:
            self.uninstall()
            self.job = -1


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[list], jobs: int) -> dict:
    """Per-layer metrics from the spans of ``jobs`` traced jobs."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    self_time = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(idx, field=None):
        return sum(dur[i] for i in idx) if field is None else sum(spans[i][field] for i in idx)

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    per_job = max(jobs, 1)
    m = {}

    riccati = named("darboux.riccati_solve")
    riccati_time = sum(dur[i] - sum(dur[c] for c in children[i]
                                    if spans[c][NAME].startswith("geometry."))
                       for i in riccati)
    m["darboux.us_per_step"] = _ratio(riccati_time, total(riccati, WORK), 1e6)
    transforms = [i for i in named("darboux.darboux_transform") + named("darboux.arclength_darboux")
                  if parent_name(i) not in ("darboux.darboux_transform",
                                            "darboux.arclength_darboux")]
    m["darboux.transform_s"] = _median([dur[i] for i in transforms])
    m["darboux.steps"] = total(riccati, WORK) / per_job

    edges = named("semidiscrete.propagate_edge")
    m["semidiscrete.us_per_edge_step"] = _ratio(total(edges), total(edges, WORK), 1e6)
    m["semidiscrete.flow_s"] = _median([dur[i] for i in named("semidiscrete.infinitesimal_darboux")])
    m["semidiscrete.edge_steps"] = total(edges, WORK) / per_job

    motions = named("motion.integrate_motion")
    for label, small in (("small", True), ("large", False)):
        stepped = [c for i in motions if (spans[i][SIZE] < SMALL_LIMIT) == small
                   for c in children[i] if spans[c][NAME] == "ode.rk4_path"]
        stages = sum(4 * spans[c][WORK] for c in stepped)
        m[f"motion.us_per_stage.{label}"] = _ratio(total(stepped), stages, 1e6)
    m["motion.integrate_s"] = _median([dur[i] for i in motions])
    m["motion.stages"] = total(motions, WORK) / per_job

    for fname in ("write_csv", "write_svg"):
        idx = named(f"output.{fname}")
        m[f"output.{fname}.ns_per_point"] = _ratio(total(idx), total(idx, WORK), 1e9)
    m["output.csv_bytes"] = total(named("output.write_csv"), SIZE) / per_job
    loads = named("config.load_scenario")
    read = sum(spans[c][WORK] for i in loads for c in children[i]
               if spans[c][NAME] == "output.read_csv")
    m["config.load_scenario_s"] = _median([dur[i] for i in loads])
    m["config.load_scenario.ns_per_point"] = _ratio(total(loads), read, 1e9)

    building = ("geometry.PolarizedCurve", "geometry._stage_data")
    curves = [i for name in building for i in named(name) if parent_name(i) not in building]
    m["geometry.curve_s"] = total(curves) / per_job
    fd = named("geometry.fd_derivative")
    m["geometry.fd_derivative.ns_per_node"] = _ratio(total(fd), total(fd, WORK), 1e9)
    pairs = named("darboux.pair_table")
    m["darboux.pair_table.ns_per_node"] = _ratio(total(pairs), total(pairs, WORK), 1e9)

    def artifact(name):
        return _median([dur[i] for i in named(f"verification.Artifacts.{name}")])

    m["equivalence.pipelines.hexagon_s"] = artifact("hexagon_pipelines")
    m["equivalence.pipelines.square_s"] = artifact("square_pipelines")
    for name in ARTIFACTS:
        if name not in ("hexagon_pipelines", "square_pipelines"):
            m[f"verification.artifact.{name}_s"] = artifact(name)
    checks = [dur[i] - sum(dur[c] for c in children[i]
                           if spans[c][NAME].startswith("verification.Artifacts."))
              for i in named("verification.run_suite")]
    m["verification.checks_s"] = _median(checks)

    for layer in LAYERS:
        m[f"self_s.{layer}"] = sum(self_time[i] for i, s in enumerate(spans)
                                   if s[NAME].split(".")[0] == layer) / per_job
    roots = named("job")
    m["trace.unaccounted_share"] = _ratio(sum(self_time[i] for i in roots), total(roots), 1.0)
    return m
