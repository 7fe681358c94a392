"""Command line driver: scenario in, CSV/SVG out.

    darbouxflow verify --config <path> [--h <step>] [--tol <x>]
    darbouxflow <darboux|flow|motion|figure1> --config <path> [--out <dir>] [--h <step>]

Commands: darboux (smooth transform of a polarized curve), flow (edge-wise
propagation of a discrete polarized curve), motion (isoperimetric polygon
motion), verify (run the acceptance suite), figure1 (one circle, one
parameter, two polarizations — two visibly different transforms).  A flag
the command does not take is a usage error.

Exit codes, by the failure's type: 0 success, 1 bad usage or input, 2 numerical
failure (one of NUMERICAL_FAILURES), 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import Scenario, load_scenario
from .darboux import DarbouxParams, arclength_darboux, darboux_transform
from .errors import (BlowupError, CoincidentPointsError, ConfigError, CurveError,
                     NonRegularError, SingularTangentError)
from .geometry import Sheet
from .motion import integrate_motion
from .output import write_csv, write_svg
from .semidiscrete import FlowSpec, infinitesimal_darboux
from .verification import FIGURE_MU, FIGURE_POINT, figure_family, run_suite

__all__ = ["main"]

#: A solution that blew up or left the regular regime: exit code 2.
NUMERICAL_FAILURES = (BlowupError, CoincidentPointsError, SingularTangentError,
                      NonRegularError)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of exiting with argparse's code 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _positive(text: str) -> float:
    """argparse type of --h and --tol: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="darbouxflow",
        description="Darboux transforms, discrete curve flows, and their "
                    "equivalence checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _RUNNERS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.add_argument("--config", required=True, help="scenario file (INI sections)")
        verify = name == "verify"
        p.add_argument("--h", type=_positive, default=1e-3 if verify else None,
                       help="grid step of the checks' curves" if verify else
                            "override the grid step from the scenario")
        if verify:
            p.add_argument("--tol", type=_positive, default=1.0,
                           help="loosen every named verification bound by this factor "
                                "(upper bounds multiplied, lower bounds divided); "
                                "fixed bounds do not move")
        else:
            p.add_argument("--out", default=None, help="directory for output files")
    return parser


def _write_outputs(sc: Scenario, outdir, stem: str, sheet: Sheet, svg_first=False,
                   **style) -> int:
    """Write ``sheet`` as CSV and its rows as SVG polylines (``style`` goes to
    write_svg), at the scenario's [output] paths or ``stem``.csv/.svg, under
    --out.  The first file (the CSV, or the SVG with ``svg_first``) is always
    written, the second only when the scenario names it.  Prints the paths
    written, in that order, once both are written; returns exit code 0."""
    outputs = [(sc.csv_path, ".csv", lambda path: write_csv(path, sheet)),
               (sc.svg_path, ".svg", lambda path: write_svg(path, list(sheet.values), **style))]
    if svg_first:
        outputs.reverse()
    files = []
    for k, (path, ext, write) in enumerate(outputs):
        if path is None and k:
            continue
        path = os.path.join(outdir or "", stem + ext if path is None else path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        write(path)
        files.append(path)
    for path in files:
        print(path)
    return 0


def _run_darboux(sc: Scenario, args) -> int:
    """transform one smooth polarized curve"""
    if sc.offset_angle is not None:
        transform = arclength_darboux(sc.source, sc.mu, sc.offset_angle)
    else:
        transform = darboux_transform(sc.source, DarbouxParams(sc.mu, sc.initial_point))
    sheet = Sheet(sc.grid, np.stack([sc.source.points, transform.points]))
    return _write_outputs(sc, args.out, "darboux", sheet, colors=["black", "red"],
                          markers=[transform.points[0]])


def _run_flow(sc: Scenario, args) -> int:
    """propagate a discrete polarized curve into a sheet"""
    sheet = infinitesimal_darboux(FlowSpec(sc.base, sc.initial.m, sc.n0, sc.initial))
    return _write_outputs(sc, args.out, "flow", sheet)


def _run_motion(sc: Scenario, args) -> int:
    """integrate an isoperimetric polygon motion"""
    result = integrate_motion(sc.vertices, sc.w0, sc.n0, sc.grid)
    return _write_outputs(sc, args.out, "motion", result.sheet)


def _run_figure(sc: Scenario, args) -> int:
    """emit the two-polarizations demonstration figure"""
    mu = sc.mu if sc.mu is not None else FIGURE_MU
    point = sc.initial_point if sc.initial_point is not None else FIGURE_POINT
    base, t1, t2, _ = figure_family(sc.grid, mu, point)
    sheet = Sheet(sc.grid, np.stack([base.points, t1.points, t2.points]))
    return _write_outputs(sc, args.out, "figure1", sheet, svg_first=True,
                          colors=["black", "red", "blue"], markers=[point])


def _run_verify(sc: Scenario, args) -> int:
    """run the acceptance checks and report pass/fail"""
    results = run_suite(h=args.h, tol_multiplier=args.tol, overrides=sc.tolerances)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


#: Every command, in config.COMMANDS order: (scenario, parsed flags) -> exit code.
_RUNNERS = {"darboux": _run_darboux, "flow": _run_flow, "motion": _run_motion,
            "verify": _run_verify, "figure1": _run_figure}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        sc = load_scenario(args.config, args.command, args.h)
        return _RUNNERS[sc.command](sc, args)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CurveError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
