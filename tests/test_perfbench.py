"""The traced benchmark (perfbench/spans.py) binds package names by hand:
building its tracer fails at once if one of them is renamed or deleted.  The
tracer is built in a fresh interpreter that imports what perfbench/run.py
imports, so a module the package stops importing fails here even when other
test modules have imported it.  The job also calls ``pair_table`` and the
sheet and motion diagnostics, so a signature that a span counter can no
longer read (``pair_table``'s reads ``args[0].grid``) fails here too.  The motion steps its own loop, so no
``ode.rk4_path`` span appears under it."""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Run with argv = [src, perfbench]; prints the span names, the grid's step
# count and the layer metrics.
TRACED_JOB = """
import json, math, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import darbouxflow
import spans
import workloads

from darbouxflow import darboux, equivalence, geometry, motion, semidiscrete

tracer = spans.Tracer()
grid = geometry.SGrid.from_step(0.0, 1.0, 1e-2)

def job():
    curve = geometry.PolarizedCurve.from_generator(
        grid, lambda s: np.exp(1j * s), lambda s: 1j * np.exp(1j * s))
    transform = darboux.darboux_transform(curve, darboux.DarbouxParams(0.25, -1.0 + 0j))
    hexagon = motion.integrate_motion(geometry.ngon_vertices(6), -math.pi / 6.0, 0, grid)
    # a two-edge flow seeded by a sampled line through vertex 0
    seed = geometry.PolarizedCurve.from_samples(grid, grid.values() + 0j)
    base = geometry.DiscretePolarizedCurve(np.array([0, 2, 4], dtype=complex), 0.25)
    sheet = semidiscrete.infinitesimal_darboux(semidiscrete.FlowSpec(base, 1.0, 0, seed))
    # every diagnostic whose binding the tracer names, on the job's curves
    darboux.pair_table(curve, transform)
    semidiscrete.sheet_cross_ratio_defect(sheet, base.mu)
    semidiscrete.arclength_flow_check(sheet, base.mu)
    for check in (equivalence.pipelines_agree, equivalence.iso_darboux_check,
                  equivalence.frameless_identity_check, motion.mkdv_residual,
                  motion.frame_compatibility_check):
        check(hexagon)

tracer.run_job(0, job)
print(json.dumps({"names": sorted({span[spans.NAME] for span in tracer.spans}),
                  "steps": grid.count - 1, "metrics": spans.layer_metrics(tracer.spans, 1)}))
"""


def test_tracer_binds_every_traced_name():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_JOB, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert {"job", "geometry.PolarizedCurve", "geometry._stage_data",
            "darboux.darboux_transform", "darboux.riccati_solve", "darboux.pair_table",
            "motion.integrate_motion", "motion.mkdv_residual",
            "motion.frame_compatibility_check", "semidiscrete.infinitesimal_darboux",
            "semidiscrete.propagate_edge", "semidiscrete.sheet_cross_ratio_defect",
            "semidiscrete.arclength_flow_check", "equivalence.pipelines_agree",
            "equivalence.iso_darboux_check",
            "equivalence.frameless_identity_check"} <= set(report["names"])
    metrics = report["metrics"]
    # one transform, the flow's two edges and the six edges of the hexagon's flow in
    # pipelines_agree, each a Riccati solve over the grid
    assert metrics["darboux.steps"] == 9 * report["steps"]
    assert metrics["semidiscrete.edge_steps"] == 8 * report["steps"]
    assert metrics["darboux.pair_table.ns_per_node"] > 0
    assert metrics["semidiscrete.us_per_edge_step"] > 0
    assert metrics["motion.integrate_s"] > 0
    assert metrics["motion.stages"] == 4 * report["steps"]
