"""Scenario files: flat key-value sections in INI syntax.

A scenario describes one run of the command line tool: the curve, its
polarization, transform/flow/motion parameters, the s grid, and output
paths.  Example::

    [run]
    command = darboux

    [curve]
    kind = circle
    radius = 1.0

    [polarization]
    m = 1
    mu = 0.25

    [parameters]
    initial_point = -1+0j

    [grid]
    s0 = 0
    s1 = 6.2832
    h = 1e-3

    [output]
    csv = darboux.csv

Curve kinds: ``circle`` (radius), ``line`` (x(s) = s), ``ngon`` (n, radius —
closed, so n+1 vertices), ``vertices`` (comma-separated complex values or
(x, y) pairs), ``samples`` (csv = a previously emitted n,s,x,y file, row =
which n to use for a smooth curve).  m and w0 accept closed-form expressions
in s; mu is a number, a comma-separated per-edge list, or ``arclength``.
"""

from __future__ import annotations

import cmath
import configparser
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveError
from .expressions import ExpressionError, parse_expression
from .geometry import DiscretePolarizedCurve, PolarizedCurve, SGrid, _resolve_m, ngon_vertices
from .ode import stage_abscissas
from .output import read_csv

__all__ = ["ConfigError", "Scenario", "load_scenario", "COMMANDS"]

COMMANDS = ("darboux", "flow", "motion", "verify", "figure1")


class ConfigError(ValueError):
    """A scenario file problem; the message names the section and key."""


@dataclass
class Scenario:
    """A parsed, validated scenario ready for dispatch."""

    command: str
    grid: SGrid | None
    csv_path: str | None = None
    svg_path: str | None = None
    # darboux
    source: PolarizedCurve | None = None
    mu: float | None = None
    initial_point: complex | None = None
    offset_angle: float | None = None
    # flow
    base: DiscretePolarizedCurve | None = None
    initial: PolarizedCurve | None = None
    n0: int = 0
    # motion
    vertices: np.ndarray | None = None
    w0: object = None
    # verify
    tolerances: dict = field(default_factory=dict)


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}] {key}: {message}")


def _get(cp, section, key, default=None, required=False):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if required:
        _fail(section, key, "missing required key")
    return default


def _finite(raw: str, section, key) -> float:
    """``raw`` as a finite float, else a ConfigError naming the key."""
    try:
        value = float(raw)
    except ValueError:
        _fail(section, key, f"not a number: {raw!r}")
    if not math.isfinite(value):
        _fail(section, key, f"must be a finite number, got {value!r}")
    return value


def _get_float(cp, section, key, default=None, required=False):
    raw = _get(cp, section, key, required=required)
    return default if raw is None else _finite(raw, section, key)


def _radius(cp, section) -> float:
    """``[section] radius`` of a circle or an ngon: finite and positive."""
    radius = _get_float(cp, section, "radius", default=1.0)
    if radius <= 0:
        _fail(section, "radius", f"must be positive, got {radius!r}")
    return radius


def _get_int(cp, section, key, default=None, required=False):
    raw = _get(cp, section, key, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"not an integer: {raw!r}")


def _parse_point(raw: str, section: str, key: str) -> complex:
    """A finite plane point: either a complex literal like -1+0.5j or a pair (x, y)."""
    text = raw.strip()
    if text.startswith("(") and text.endswith(")") and "," in text:
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            _fail(section, key, f"expected (x, y), got {raw!r}")
        try:
            point = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            _fail(section, key, f"expected (x, y) with numeric entries, got {raw!r}")
    else:
        try:
            point = complex(text.replace(" ", ""))
        except ValueError:
            _fail(section, key, f"not a plane point: {raw!r}")
    if not cmath.isfinite(point):
        _fail(section, key, f"must be a finite plane point, got {raw!r}")
    return point


def _parse_points(raw: str, section: str, key: str) -> np.ndarray:
    """Comma-separated plane points; a comma inside (x, y) does not separate."""
    vals = [v for v in re.split(r",(?![^()]*\))", raw) if v.strip()]
    if len(vals) < 2:
        _fail(section, key, "need at least two comma-separated vertices")
    return np.array([_parse_point(v, section, key) for v in vals], dtype=complex)


def _parse_expr(raw: str, section: str, key: str):
    try:
        return parse_expression(raw)
    except ExpressionError as exc:
        _fail(section, key, str(exc))


def _load_grid(cp) -> SGrid | None:
    if not cp.has_section("grid"):
        return None
    s0 = _get_float(cp, "grid", "s0", required=True)
    s1 = _get_float(cp, "grid", "s1", required=True)
    h = _get_float(cp, "grid", "h", required=True)
    try:
        return SGrid.from_step(s0, s1, h)
    except CurveError as exc:
        _fail("grid", "s0/s1/h", str(exc))


def _expression(cp, section: str, key: str, grid: SGrid | None = None, default=None):
    """``[section] key``: a constant as its value, else an Expression of s,
    refused under the key if a pole or overflow shows at ``grid``'s stages."""
    raw = _get(cp, section, key, default=default, required=default is None)
    expr = _parse_expr(raw, section, key)
    if not expr.is_constant and grid is None:
        return expr
    # Where the motion calls w0: its midpoints can sit an ulp off refined_values().
    s = 0.0 if expr.is_constant else stage_abscissas(grid.values())
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = expr(s)
    except ZeroDivisionError:
        values = np.full(np.shape(s), math.inf)
    bad = ~np.isfinite(values)
    if bad.any():
        where = f" at s = {float(s[np.argmax(bad)])!r}" if np.ndim(s) else ""
        _fail(section, key, f"{raw!r} is not finite{where}")
    return values if expr.is_constant else expr


def _smooth_curve(cp, section: str, grid: SGrid, m) -> PolarizedCurve:
    """Build the smooth curve a section describes on ``grid`` with polarization m."""
    if grid is None:
        _fail("grid", "s0", "this command needs a [grid] section")
    try:
        m = _resolve_m(m, grid)
    except (CurveError, ZeroDivisionError) as exc:
        _fail("polarization", "m", str(exc))
    kind = _get(cp, section, "kind", required=True).lower()
    try:
        if kind == "circle":
            radius = _radius(cp, section)
            return PolarizedCurve.from_generator(
                grid, lambda s: radius * np.exp(1j * s),
                lambda s: 1j * radius * np.exp(1j * s), m)
        if kind == "line":
            return PolarizedCurve.from_generator(
                grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), m)
        if kind == "samples":
            path = _get(cp, section, "csv", required=True)
            if not os.path.exists(path):
                _fail(section, "csv", f"no such file: {path}")
            try:
                svals, values = read_csv(path)
            except CurveError as exc:
                _fail(section, "csv", str(exc))
            row = _get_int(cp, section, "row", default=0)
            if not 0 <= row < len(values):
                _fail(section, "row", f"file has rows 0..{len(values) - 1}")
            if len(svals) != grid.count or abs(svals[0] - grid.s0) > 1e-12 or (
                    len(svals) > 1 and abs(svals[-1] - grid.s1) > 1e-9):
                _fail(section, "csv", "sample grid does not match the [grid] section")
            return PolarizedCurve.from_samples(grid, values[row], m)
    except CurveError as exc:
        _fail(section, "kind", str(exc))
    _fail(section, "kind", f"unknown smooth curve kind {kind!r} "
                           "(expected circle, line, or samples)")


def _discrete_vertices(cp, section: str) -> np.ndarray:
    kind = _get(cp, section, "kind", required=True).lower()
    if kind == "ngon":
        n = _get_int(cp, section, "n", required=True)
        radius = _radius(cp, section)
        try:
            return ngon_vertices(n, radius)
        except CurveError as exc:
            _fail(section, "n", str(exc))
    if kind == "vertices":
        return _parse_points(_get(cp, section, "values", required=True),
                             section, "values")
    _fail(section, "kind", f"unknown discrete curve kind {kind!r} "
                           "(expected ngon or vertices)")


def _mu_edges(cp, vertices: np.ndarray, section="polarization"):
    """Per-edge mu for a discrete base: scalar, list, or 'arclength'."""
    raw = _get(cp, section, "mu", required=True)
    if raw.lower() == "arclength":
        # A zero edge gives inf; DiscretePolarizedCurve then names its vertices.
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(np.diff(vertices)) ** 2
    vals = np.array([_finite(p, section, "mu") for p in raw.split(",") if p.strip()])
    if len(vals) == 1:
        return float(vals[0])
    if len(vals) != len(vertices) - 1:
        _fail(section, "mu", f"need one value per edge "
                             f"({len(vertices) - 1}), got {len(vals)}")
    return vals


def _scalar_mu(cp) -> float | None:
    section = "polarization"
    if _get(cp, section, "mu") is None:
        section = "parameters"
    elif _get(cp, "parameters", "mu") is not None:
        _fail("parameters", "mu", "mu given in both [polarization] and [parameters]")
    return _get_float(cp, section, "mu")


def load_scenario(path, command: str | None = None,
                  h_override: float | None = None) -> Scenario:
    """Read and validate a scenario file.

    ``command`` (from the command line) wins over the file's [run] command;
    ``h_override`` rebuilds the grid with a different step.
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry the line number in their message.
        raise ConfigError(f"{path}: {exc}") from exc

    file_cmd = _get(cp, "run", "command") if cp.has_section("run") else None
    cmd = (command or file_cmd or "").lower()
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown or missing command {cmd!r}; "
                          f"expected one of {', '.join(COMMANDS)}")
    if command and file_cmd and command.lower() != file_cmd.lower():
        raise ConfigError(f"config requests {file_cmd!r} but the command "
                          f"line says {command!r}")

    grid = _load_grid(cp)
    if h_override is not None:
        if not (math.isfinite(h_override) and h_override > 0):
            raise ConfigError(f"--h must be a finite positive number, got {h_override!r}")
        if grid is not None:
            grid = SGrid.from_step(grid.s0, grid.s1, h_override)
        elif cmd not in ("figure1", "verify"):
            # figure1 and verify supply their own spans, so a bare --h is
            # fine there; everything else needs [grid] to know the span.
            raise ConfigError("--h given but the scenario has no [grid] section")

    sc = Scenario(command=cmd, grid=grid)
    if cp.has_section("output"):
        sc.csv_path = _get(cp, "output", "csv")
        sc.svg_path = _get(cp, "output", "svg")
    if cp.has_section("verify"):
        for key, raw in cp.items("verify"):
            value = _get_float(cp, "verify", key)
            if value <= 0:
                _fail("verify", key, f"must be a finite positive number, got {raw!r}")
            sc.tolerances[key] = value

    m = _expression(cp, "polarization", "m", default="1")
    if cmd == "darboux":
        sc.source = _smooth_curve(cp, "curve", grid, m)
        sc.mu = _scalar_mu(cp)
        if sc.mu is None:
            _fail("polarization", "mu", "darboux needs a numeric mu")
        raw_pt = _get(cp, "parameters", "initial_point")
        raw_off = _get(cp, "parameters", "offset_angle")
        if raw_pt is not None and raw_off is not None:
            _fail("parameters", "initial_point",
                  "give initial_point or offset_angle, not both")
        if raw_pt is not None:
            sc.initial_point = _parse_point(raw_pt, "parameters", "initial_point")
        elif raw_off is not None:
            sc.offset_angle = _get_float(cp, "parameters", "offset_angle")
        else:
            _fail("parameters", "initial_point",
                  "darboux needs initial_point or offset_angle")
    elif cmd == "flow":
        vertices = _discrete_vertices(cp, "curve")
        mu = _mu_edges(cp, vertices)
        try:
            sc.base = DiscretePolarizedCurve(vertices, mu)
        except CurveError as exc:
            _fail("curve", "values", str(exc))
        sc.n0 = _get_int(cp, "parameters", "n0", default=0)
        if not cp.has_section("initial"):
            raise ConfigError("flow needs an [initial] section for the seeded row")
        sc.initial = _smooth_curve(cp, "initial", grid, m)
    elif cmd == "motion":
        sc.vertices = _discrete_vertices(cp, "curve")
        sc.n0 = _get_int(cp, "parameters", "n0", default=0)
        if grid is None:
            raise ConfigError("motion needs a [grid] section")
        sc.w0 = _expression(cp, "parameters", "w0", grid)
    elif cmd == "figure1":
        # Optional overrides; defaults are supplied by the figure pipeline.
        sc.mu = _scalar_mu(cp)
        raw_pt = _get(cp, "parameters", "initial_point")
        if raw_pt is not None:
            sc.initial_point = _parse_point(raw_pt, "parameters", "initial_point")
    return sc
