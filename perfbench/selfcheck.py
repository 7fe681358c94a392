"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

1. Counts repeat exactly: two fresh builds of one seed, traced through the
   same jobs, give identical work counts span by span (RK4 steps, motion
   stages, edge steps, nodes, points written and read, CSV bytes) and
   identical solution points per job.
2. Every oracle can fail: a passing output of each job kind is nudged at one
   point by 1e-6, and each oracle that reads that point must then miss.

Prints one line per check and exits 1 if any fails.  Takes about 30 s.
"""
import sys
import tempfile

import run  # pins the BLAS/OpenMP threads before numpy is imported

sys.path.insert(0, str(run.PACKAGE.parent))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 12345
PREFIX = {"transform": 6, "export": 4, "suite": 1}
NUDGE = 1e-6


def counts(workload: str, workdir: str) -> dict:
    jobs = workloads.build(workload, SEED, workdir)
    tracer = spans.Tracer()
    totals = {}
    for i in range(PREFIX[workload]):
        totals[f"points[{i}]"] = jobs[i].points(tracer.run_job(i, jobs[i].run))
    for record in tracer.spans:
        work, size = totals.get(record[spans.NAME], (0, 0))
        totals[record[spans.NAME]] = (work + record[spans.WORK], size + record[spans.SIZE])
    return totals


def _unit(a, b):
    d = complex(b - a)
    return d / abs(d)


def _nudge_transform(out):
    x, xh = out[0].points, out[1].points
    k = len(xh) // 2
    xh[k] += NUDGE * _unit(x[k], xh[k])


def _nudge_flow(sheet):
    v = sheet.values
    k = v.shape[1] // 2
    v[-1, k] += NUDGE * _unit(v[-2, k], v[-1, k])


def _nudge_motion(out):
    v = out[0].sheet.values
    k = v.shape[1] // 2
    v[1, k] += NUDGE * _unit(v[0, k], v[1, k])


def _nudge_source(out):
    out[1].points[len(out[1].points) // 2] += NUDGE


def _nudge_export_transform(out):
    _nudge_transform(out[1:])


def _nudge_suite(out):
    art, _ = out
    v = art.hexagon_motion.sheet.values
    v[0, v.shape[1] // 2] += NUDGE
    return art, workloads.verification.run_suite(h=art.h, artifacts=art)


#: (workload, job kind, nudge, defects that must miss afterwards)
NUDGES = [
    ("transform", "circle-arc", _nudge_transform, {"darboux.distance", "darboux.speed"}),
    ("transform", "circle-samples", _nudge_transform, {"darboux.distance", "darboux.speed"}),
    ("transform", "circle-m", _nudge_transform, {"darboux.cross_ratio"}),
    ("transform", "flow", _nudge_flow, {"semidiscrete.gap", "semidiscrete.speed"}),
    ("export", "export-small", _nudge_motion, {"motion.edge_drift"}),
    ("export", "export-small", _nudge_source, {"output.round_trip"}),
    ("export", "export-small", _nudge_export_transform,
     {"darboux.distance", "darboux.speed", "output.round_trip"}),
    ("suite", "suite", _nudge_suite, {"verification.failed"}),
]


def missed(defects: dict) -> set:
    return {name for name, (value, tol) in defects.items() if not value <= tol}


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for workload in workloads.WORKLOADS:
            first, second = counts(workload, workdir), counts(workload, workdir)
            same = first == second
            ok &= same
            print(f"{'PASS' if same else 'FAIL'}  counts repeat: {workload}, "
                  f"{PREFIX[workload]} jobs, {len(first)} keys")
        for workload, kind, nudge, expected in NUDGES:
            job = next(j for j in workloads.build(workload, SEED, workdir) if j.kind == kind)
            out = job.run()
            before = missed(job.check(out))
            after = missed(job.check(nudge(out) or out))
            good = not before and expected <= after
            ok &= good
            print(f"{'PASS' if good else 'FAIL'}  nudge {NUDGE:g} caught: {kind} "
                  f"{nudge.__name__}: missed {sorted(after)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
