"""Closed-loop benchmark of the darbouxflow engine.

    python3 perfbench/run.py --workload {transform,export,suite} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src``.  One
client in this process runs the workload's jobs back to back for S seconds;
each job's output is checked against an oracle after its clock stops.  With
``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1`` it
runs every job twice, once plain and once under the span recorder (alternating
which goes first), and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line is one JSON object.
See README.md beside this file.
"""
import os

# One thread for every BLAS/OpenMP pool, fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "darbouxflow"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"job_s.p50": "s", "job_s.tail": "s", "points_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "share"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "us_per_" in name:
        return "us"
    if "ns_per_" in name:
        return "ns"
    if name.endswith("_s") or name.startswith("self_s."):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("steps", "stages")):
        return "count"
    return "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def attempt(job, run):
    """Time one execution and judge its output.

    Returns (kind, seconds, passed, points, defects, error); an exception or
    a missed oracle is a failed job.
    """
    start = perf_counter()
    try:
        out = run()
    except Exception as exc:  # a failing job is counted, not fatal
        return job.kind, perf_counter() - start, False, 0, {}, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    try:
        defects = job.check(out)
        points = job.points(out)
    except Exception as exc:  # so is an output the oracle cannot read
        return job.kind, seconds, False, 0, {}, f"oracle raised {type(exc).__name__}: {exc}"
    missed = [f"{name} {value:.3g} > {tol:.3g}" for name, (value, tol) in defects.items()
              if not value <= tol]
    return (job.kind, seconds, not missed, 0 if missed else points, defects,
            "; ".join(missed) or None)


def set_up(workloads, workload: str, seed: int, workdir: str):
    """Generate the inputs and warm up, SETUP_REPEATS times; returns the jobs
    and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        jobs = workloads.build(workload, seed, workdir)
        for job in workloads.warmup_jobs(workload, jobs):
            try:
                job.run()
            except Exception:  # the timed run meets and counts the same failure
                pass
        times.append(perf_counter() - start)
    return jobs, statistics.median(times)


def closed_loop(jobs, seconds: float, step):
    """Call step(i, job) for jobs 0, 1, 2, ... until ``seconds`` have passed."""
    records = []
    end = perf_counter() + seconds
    i = 0
    while True:
        records.extend(step(i, jobs[i % len(jobs)]))
        i += 1
        if perf_counter() >= end:
            return records


def tail(times):
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it.  Below 20 jobs that percentile falls under the median, so the
    maximum stands in for it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(records):
    """Print per-kind timings, the worst defects and the failures."""
    kinds = {}
    for kind, seconds, *_ in records:
        kinds.setdefault(kind, []).append(seconds)
    for kind, times in sorted(kinds.items()):
        print(f"  {kind:16s} {len(times):5d} jobs  median {statistics.median(times):.4f} s")
    worst = {}
    for *_, defects, _ in records:
        for name, (value, tol) in defects.items():
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, tol)
    for name, (value, tol) in sorted(worst.items()):
        print(f"  oracle {name:22s} worst {value:.3g}  tolerance {tol:.3g}")
    errors = [r[-1] for r in records if r[-1]]
    for error in errors[:5]:
        print(f"  FAILED: {error}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("transform", "export", "suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))

    start = perf_counter()
    import numpy as np
    import darbouxflow
    import spans
    import workloads
    import_s = perf_counter() - start
    if Path(darbouxflow.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported darbouxflow from {darbouxflow.__file__}", file=sys.stderr)
        return 2

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    print(f"# nproc {os.cpu_count()} (usable {affinity}), cpu {cpu_model()}, "
          f"python {platform.python_version()}, numpy {np.__version__}, blas threads 1")
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, closed loop, 1 client")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        jobs, setup_once = set_up(workloads, args.workload, args.seed, workdir)
        if args.trace:
            tracer = spans.Tracer()

            def step(i, job):
                if i % 2:
                    traced = attempt(job, lambda: tracer.run_job(i, job.run))
                    plain = attempt(job, job.run)
                else:
                    plain = attempt(job, job.run)
                    traced = attempt(job, lambda: tracer.run_job(i, job.run))
                return plain, traced

            records = closed_loop(jobs, args.seconds, step)
            plain_records, traced_records = records[0::2], records[1::2]
        else:
            records = closed_loop(jobs, args.seconds, lambda i, job: [attempt(job, job.run)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    worst = summarize(records)
    failed = sum(not r[2] for r in records)
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, len(traced_records))
        plain_s = sum(r[1] for r in plain_records)
        metrics["trace.overhead_share"] = sum(r[1] for r in traced_records) / plain_s - 1.0
        metrics["darboux.error_max"] = max(
            [v for name, (v, _) in worst.items() if name.startswith("darboux.")], default=0.0)
        metrics["motion.edge_drift_max"] = worst.get("motion.edge_drift", (0.0, 0))[0]
        units = {name: unit(name) for name in metrics}
        print(f"  tracing overhead {metrics['trace.overhead_share']:+.2%} of job time; "
              f"root self time {metrics['trace.unaccounted_share']:.2%} of job time")
    else:
        times = [r[1] for r in records]
        tail_s, tail_p = tail(times)
        metrics = {
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail_s,
            "points_per_s": sum(r[3] for r in records) / sum(times),
            "setup_s": import_s + setup_once,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_share": 1.0 - failed / len(records),
        }
        units = END_TO_END_UNITS
        print(f"  job_s.tail is p{tail_p:.1f} of {len(times)} jobs; "
              f"fail_share {failed / len(records):.4f}; "
              f"setup = import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups "
              f"{setup_once:.3f} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
