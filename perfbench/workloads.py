"""Seeded inputs, jobs and oracles of the three workloads.

A job is a closure over inputs generated from the seed.  ``run()`` calls the
package's public functions in the order ``cli.main`` would and returns what
they produced; it is the only timed part.  ``check(out)`` then measures the
output against an oracle and returns ``{defect name: (measured, tolerance)}``.

The oracles look at positions only.  They never use the tangents the package
stores on a transform, because those come from the pair equation under test,
and they never call the package's own finite differences: ``_fd`` below is a
separate copy of the 5-point stencil.

Tolerances, with the worst defect measured at the seed commit (45 runs of
each workload at 30-40 s, plus a 16 x 12 scan of mu x seed angle for the
arc-length circle) and the margin, tolerance / worst:

    defect               tolerance  worst (where)                       margin
    darboux.distance     3e-7       4.3e-9 (transform), 2.7e-8 (export)    11x
    darboux.speed        1e-5       8.6e-10 (transform), 8.0e-8 (export)  125x
    darboux.cross_ratio  1e-8       3.9e-11                               256x
    semidiscrete.gap     1e-7       5.6e-10                               178x
    semidiscrete.speed   1e-5       1.3e-7                                 76x
    motion.edge_drift    1e-7       1.6e-9                                 63x
    output.round_trip    0          0 (bit-exact)
    verification.failed  0          0 (all 12 checks PASS)

The distance defect has a heavy tail in parameter space: most arc-length
circle transforms stay below 1e-11, but (mu, angle) = (1, 2 pi/3) gives
4.3e-9, where the partner turns fast.  One output point nudged by 1e-6
still moves a distance by at least 1e-6 (mu >= 0.25), a gap or an edge by up
to 1e-6, and a differenced speed or cross ratio by about 7e-4, so every
oracle catches it (``selfcheck.py``).  The differenced speed of a motion
vertex is not an oracle: on 48-64-vertex motions the stencil's own error
reaches 1e-5.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from darbouxflow import (config, darboux, geometry, motion, output,
                         semidiscrete, verification)

#: The step of every bundled scenario and of ``verify``.
H = 1e-3

TOL = {
    "darboux.distance": 3e-7,
    "darboux.speed": 1e-5,
    "darboux.cross_ratio": 1e-8,
    "semidiscrete.gap": 1e-7,
    "semidiscrete.speed": 1e-5,
    "motion.edge_drift": 1e-7,
    "output.round_trip": 0,
    "verification.failed": 0,
}

# --- generator ranges, and why -------------------------------------------
#
# transform
#   MU_ARC: an arc-length pair keeps |xh - x| = 1/sqrt(mu) and |xh'| = 1, so
#     it can neither collide nor blow up; any mu > 0 works.  [0.25, 4] puts
#     the partner at distance 0.5 to 2 from the unit circle.
#   A_M, MU_M: m = 1 + a sin s seeded at -1.  Smaller mu lets the pair nearly
#     collide and xh' vanish: (a, mu) = (0.2, 0.15) and (0.5, 0.2) raise
#     SingularTangentError, a correct numerical refusal.  A scan of
#     a in [0, 0.5] x mu in [0.25, 1] (11 x 16 points) had no failure, and
#     the smallest |xh'| there was 0.64 at (0.5, 0.25).
#   FLOW_*: arc-length flows (mu_n = 1/a_n^2, unit-speed seed row) keep every
#     gap and speed fixed, so any open polyline works; turns up to +-2.5 rad
#     avoid folding an edge back onto the previous one.
# export
#   MOTION_*: open polylines with turns up to +-1 rad, edges in [0.7, 1.3]
#     and w0 = c0 + c1 sin(s) with |c0|, |c1| <= 0.5.  A scan of 80 small and
#     12 large polylines over s in [0, 1] had no NonRegularError and no
#     angle jump.
#   Rows read back from the motion CSV are unit speed only to about 1e-7,
#     which misses darboux.ARC_TOL (1e-8), so the job seeds darboux_transform
#     at distance 1/sqrt(mu) itself instead of calling arclength_darboux.
MU_ARC = (0.25, 4.0)
A_M = (0.0, 0.5)
MU_M = (0.25, 1.0)
FLOW_TURN = 2.5
FLOW_EDGE = (0.5, 1.5)
MOTION_TURN = 1.0
MOTION_EDGE = (0.7, 1.3)
MOTION_W0 = 0.5
MU_EXPORT = (0.25, 4.0)

# --- job mixes -------------------------------------------------------------
#
# transform: the three circle kinds run the same 6283-step Riccati solve and
#   make up 2/3 of the jobs, so the median sits inside that class.  Half the
#   flows have 8 vertices (7 edges, about 2.3x a circle job) and they are
#   1/6 of all jobs, so the tail (the 11th-slowest job) lands inside the
#   8-vertex flow class for any run of 70 or more jobs.
# export: 3 of 4 jobs have 5-8 vertices and 1 of 4 has 48-64, so the median
#   sits in the small class and the tail in the large one.  Sizes follow a
#   fixed stratified order, so every run sees the same size mix; the seed
#   draws the shapes and parameters.
TRANSFORM_CYCLE = ("circle-arc", "flow", "circle-samples", "circle-m",
                   "flow", "circle-samples")
FLOW_SIZES = (8, 4, 8, 5, 8, 6, 8, 7)
EXPORT_CYCLE = ("small", "small", "large", "small")
SMALL_SIZES = (5, 6, 7, 8)
LARGE_SIZES = tuple(48 + (7 * k) % 17 for k in range(17))
SMALL_LIMIT = 16  # polygons below this many vertices count as small

#: Jobs generated per workload; a run that gets further cycles through them.
TRANSFORM_JOBS = 480
EXPORT_JOBS = 136


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    points: Callable[[object], int]


# --- oracles -------------------------------------------------------------

def _fd(rows: np.ndarray, h: float) -> np.ndarray:
    """d/ds at the interior nodes 2..n-3 by the central 5-point stencil."""
    return (rows[..., :-4] - 8.0 * rows[..., 1:-3]
            + 8.0 * rows[..., 3:-1] - rows[..., 4:]) / (12.0 * h)


def _max(values) -> float:
    """Largest entry; NaN (a failed comparison) counts as infinitely bad."""
    worst = float(np.max(values))
    return math.inf if math.isnan(worst) else worst


def arclength_pair_defects(x: np.ndarray, xh: np.ndarray, mu: float, h: float) -> dict:
    """An arc-length pair of a unit-speed curve keeps mu |xh - x|^2 = 1 and
    |xh'| = 1."""
    return {
        "darboux.distance": (_max(np.abs(mu * np.abs(xh - x) ** 2 - 1.0)),
                             TOL["darboux.distance"]),
        "darboux.speed": (_max(np.abs(np.abs(_fd(xh, h)) - 1.0)),
                          TOL["darboux.speed"]),
    }


def cross_ratio_defects(x: np.ndarray, xh: np.ndarray, m: np.ndarray,
                        mu: float, h: float) -> dict:
    """m x' xh' / (x - xh)^2 = mu, with both tangents differenced from positions."""
    d = (x - xh)[2:-2]
    cr = _fd(x, h) * _fd(xh, h) / (d * d)
    return {"darboux.cross_ratio": (_max(np.abs(m[2:-2] * cr - mu)) / mu,
                                    TOL["darboux.cross_ratio"])}


def flow_defects(values: np.ndarray, h: float) -> dict:
    """An arc-length flow keeps every column gap at its base edge length and
    every row at unit speed."""
    gaps = np.abs(np.diff(values, axis=0))
    return {
        "semidiscrete.gap": (_max(np.abs(gaps - gaps[:, :1])), TOL["semidiscrete.gap"]),
        "semidiscrete.speed": (_max(np.abs(np.abs(_fd(values, h)) - 1.0)),
                               TOL["semidiscrete.speed"]),
    }


def motion_defects(values: np.ndarray) -> dict:
    """An isoperimetric motion keeps every edge length."""
    edges = np.abs(np.diff(values, axis=0))
    return {"motion.edge_drift": (_max(np.abs(edges - edges[:, :1])),
                                  TOL["motion.edge_drift"])}


def read_sheet_csv(path) -> np.ndarray:
    """Rows of an n,s,x,y file, parsed here rather than by the package."""
    with open(path, newline="") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    n = np.array([int(r[0]) for r in rows])
    z = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    return z.reshape(len(np.unique(n)), -1)


# --- transform -------------------------------------------------------------

def _circle(grid, m):
    return geometry.PolarizedCurve.from_generator(
        grid, lambda s: np.exp(1j * s), lambda s: 1j * np.exp(1j * s), m)


def _polyline(rng, nv: int, max_turn: float, edge_range) -> np.ndarray:
    turns = np.concatenate([[rng.uniform(0.0, 2.0 * math.pi)],
                            rng.uniform(-max_turn, max_turn, nv - 2)])
    steps = rng.uniform(*edge_range, nv - 1) * np.exp(1j * np.cumsum(turns))
    return np.concatenate([[0j], np.cumsum(steps)])


def _arc_job(kind, grid, samples, mu, angle):
    def run():
        if samples is None:
            curve = _circle(grid, 1.0)
        else:
            curve = geometry.PolarizedCurve.from_samples(grid, samples, 1.0)
        return curve, darboux.arclength_darboux(curve, mu, angle)

    return Job(kind, run,
               lambda out: arclength_pair_defects(out[0].points, out[1].points, mu, H),
               lambda out: out[1].grid.count)


def _m_job(grid, a, mu):
    def run():
        curve = _circle(grid, lambda s: 1.0 + a * np.sin(s))
        return curve, darboux.darboux_transform(curve, darboux.DarbouxParams(mu, -1.0 + 0j))

    return Job("circle-m", run,
               lambda out: cross_ratio_defects(out[0].points, out[1].points,
                                               out[0].m, mu, H),
               lambda out: out[1].grid.count)


def _flow_job(grid, vertices):
    def run():
        base = geometry.DiscretePolarizedCurve(vertices, 1.0 / np.abs(np.diff(vertices)) ** 2)
        seed_row = geometry.PolarizedCurve.from_generator(
            grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), 1.0)
        return semidiscrete.infinitesimal_darboux(
            semidiscrete.FlowSpec(base, 1.0, 0, seed_row))

    return Job("flow", run, lambda sheet: flow_defects(sheet.values, H),
               lambda sheet: (sheet.rows - 1) * sheet.grid.count)


def transform_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    circle_grid = geometry.SGrid.from_step(0.0, 2.0 * math.pi, H)
    flow_grid = geometry.SGrid.from_step(0.0, 2.0, H)
    samples = np.exp(1j * circle_grid.values())
    jobs, flows = [], 0
    for i in range(TRANSFORM_JOBS):
        kind = TRANSFORM_CYCLE[i % len(TRANSFORM_CYCLE)]
        if kind == "flow":
            nv = FLOW_SIZES[flows % len(FLOW_SIZES)]
            flows += 1
            jobs.append(_flow_job(flow_grid, _polyline(rng, nv, FLOW_TURN, FLOW_EDGE)))
        elif kind == "circle-m":
            jobs.append(_m_job(circle_grid, rng.uniform(*A_M), rng.uniform(*MU_M)))
        else:
            jobs.append(_arc_job(kind, circle_grid,
                                 samples if kind == "circle-samples" else None,
                                 rng.uniform(*MU_ARC), rng.uniform(0.0, 2.0 * math.pi)))
    return jobs


# --- export ------------------------------------------------------------------

def _complex_text(z) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}j"


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _export_job(workdir, i, kind, vertices, w0, row, mu, angle):
    """Write the two scenario files of job i; the job loads and runs them."""
    files = {name: os.path.join(workdir, name) for name in
             ("motion.csv", "motion.svg", "darboux.csv", "darboux.svg")}
    motion_ini = os.path.join(workdir, f"motion-{i}.ini")
    darboux_ini = os.path.join(workdir, f"darboux-{i}.ini")
    grid_text = "[grid]\ns0 = 0\ns1 = 1\nh = 0.001\n"
    _write(motion_ini,
           "[run]\ncommand = motion\n"
           "[curve]\nkind = vertices\n"
           f"values = {', '.join(_complex_text(z) for z in vertices)}\n"
           f"[parameters]\nw0 = {w0[0]!r} + {w0[1]!r}*sin(s)\n" + grid_text +
           f"[output]\ncsv = {files['motion.csv']}\nsvg = {files['motion.svg']}\n")
    seed_point = vertices[row] + complex(math.cos(angle), math.sin(angle)) / math.sqrt(mu)
    _write(darboux_ini,
           "[run]\ncommand = darboux\n"
           f"[curve]\nkind = samples\ncsv = {files['motion.csv']}\nrow = {row}\n"
           f"[polarization]\nm = 1\nmu = {mu!r}\n"
           f"[parameters]\ninitial_point = {_complex_text(seed_point)}\n" + grid_text +
           f"[output]\ncsv = {files['darboux.csv']}\nsvg = {files['darboux.svg']}\n")

    def run():
        sc = config.load_scenario(motion_ini, "motion")
        result = motion.integrate_motion(sc.vertices, sc.w0, sc.n0, sc.grid)
        output.write_csv(sc.csv_path, result.sheet)
        output.write_svg(sc.svg_path, list(result.sheet.values))
        sc = config.load_scenario(darboux_ini, "darboux")
        transform = darboux.darboux_transform(
            sc.source, darboux.DarbouxParams(sc.mu, sc.initial_point))
        output.write_csv(sc.csv_path, geometry.Sheet(
            sc.grid, np.stack([sc.source.points, transform.points])))
        output.write_svg(sc.svg_path, [sc.source.points, transform.points],
                         colors=["black", "red"], markers=[transform.points[0]])
        return result, sc.source, transform

    def check(out):
        result, source, transform = out
        written = read_sheet_csv(files["darboux.csv"])
        mismatched = (int(np.count_nonzero(source.points != result.sheet.values[row]))
                      + int(np.count_nonzero(written[0] != source.points))
                      + int(np.count_nonzero(written[1] != transform.points)))
        return {**motion_defects(result.sheet.values),
                **arclength_pair_defects(source.points, transform.points, mu, H),
                "output.round_trip": (mismatched, TOL["output.round_trip"])}

    return Job(f"export-{kind}", run, check,
               lambda out: out[0].sheet.values.size + out[2].grid.count)


def export_jobs(seed: int, workdir) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    jobs, counts = [], {"small": 0, "large": 0}
    for i in range(EXPORT_JOBS):
        kind = EXPORT_CYCLE[i % len(EXPORT_CYCLE)]
        sizes = SMALL_SIZES if kind == "small" else LARGE_SIZES
        nv = sizes[counts[kind] % len(sizes)]
        counts[kind] += 1
        vertices = _polyline(rng, nv, MOTION_TURN, MOTION_EDGE)
        w0 = tuple(float(c) for c in rng.uniform(-MOTION_W0, MOTION_W0, 2))
        jobs.append(_export_job(workdir, i, kind, vertices, w0,
                                int(rng.integers(0, min(8, nv))),
                                float(rng.uniform(*MU_EXPORT)),
                                rng.uniform(0.0, 2.0 * math.pi)))
    return jobs


# --- suite -------------------------------------------------------------------

def suite_points(art) -> int:
    """Solution points the suite's artifacts hold.  The pipeline sheets are
    not counted: run_suite keeps only their reports."""
    curves = [art.circle_transform, art.circle_transform_half,
              art.circle_arclength_pair[1], art.line_pair[1],
              art.mismatched_pair[1], art.figure[1], art.figure[2]]
    sheets = [res.sheet for _, res in art.motions()]
    sheets += [art.line_flow[1], art.nonunit_flow[1]]
    return (sum(c.grid.count for c in curves)
            + sum(s.values.size for s in sheets))


def _suite_check(out) -> dict:
    art, results = out
    failed = sum(not (r.passed and r.line().startswith("PASS")) for r in results)
    defects = {"verification.failed": (failed + abs(len(results) - 12),
                                       TOL["verification.failed"])}
    for base, transform in (art.circle_arclength_pair, art.line_pair):
        for name, value in arclength_pair_defects(base.points, transform.points,
                                                  0.25, art.h).items():
            defects[name] = max(defects.get(name, value), value)
    drift = max(motion_defects(res.sheet.values)["motion.edge_drift"]
                for _, res in art.motions())
    defects["motion.edge_drift"] = drift
    return defects


def suite_jobs() -> list[Job]:
    """The suite has no inputs to draw: every job is the same verify run."""
    def run():
        art = verification.Artifacts(H)
        return art, verification.run_suite(h=H, artifacts=art)

    return [Job("suite", run, _suite_check, lambda out: suite_points(out[0]))]


def warmup_jobs(workload: str, jobs: list[Job]) -> list[Job]:
    """One job of each transform kind and one small export job.  Large export
    jobs run the same code, and the suite warms up at a coarse step because
    a full verify run is a whole job."""
    if workload == "suite":
        return [Job("suite-warmup",
                    lambda: verification.run_suite(
                        h=1e-2, artifacts=verification.Artifacts(1e-2)),
                    lambda out: {}, lambda out: 0)]
    if workload == "export":
        return jobs[:1]
    first = {}
    for job in jobs:
        first.setdefault(job.kind, job)
    return list(first.values())


def build(workload: str, seed: int, workdir) -> list[Job]:
    if workload == "transform":
        return transform_jobs(seed)
    if workload == "export":
        return export_jobs(seed, workdir)
    return suite_jobs()


WORKLOADS = ("transform", "export", "suite")
