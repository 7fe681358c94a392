"""The traced benchmark (perfbench/spans.py) binds package names by hand:
building its tracer fails at once if one of them is renamed or deleted.  The
motion steps its own loop, so no ``ode.rk4_path`` span appears under it."""
import math
import pathlib

import numpy as np

from darbouxflow import darboux, geometry, motion

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    grid = geometry.SGrid.from_step(0.0, 1.0, 1e-2)

    def job():
        curve = geometry.PolarizedCurve.from_generator(
            grid, lambda s: np.exp(1j * s), lambda s: 1j * np.exp(1j * s))
        return (darboux.darboux_transform(curve, darboux.DarbouxParams(0.25, -1.0 + 0j)),
                motion.integrate_motion(geometry.ngon_vertices(6), -math.pi / 6.0, 0, grid))

    tracer.run_job(0, job)
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"job", "geometry.PolarizedCurve", "geometry._stage_data",
            "darboux.darboux_transform", "darboux.riccati_solve",
            "motion.integrate_motion"} <= names
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["darboux.steps"] == grid.count - 1
    assert metrics["motion.integrate_s"] > 0
    assert metrics["motion.stages"] == 4 * (grid.count - 1)
