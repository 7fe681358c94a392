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
(x, y) pairs), ``samples`` (csv = an n,s,x,y file whose s column sits on the
[grid] nodes, row = the n of the row to use).  m and w0 accept closed-form
expressions in s, each evaluated once, on the grid's RK4 stage abscissas
``grid.refined_values()``: a motion's ``Scenario.w0`` holds those values.
mu is a number, a comma-separated per-edge list, or ``arclength``.  A
value the library refuses raises the library's own error (exit code by type),
prefixed with the ``[section] key`` it came from; ConfigError covers the text.
"""

from __future__ import annotations

import cmath
import configparser
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, labeled
from .expressions import ExpressionError, parse_expression
from .geometry import (DiscretePolarizedCurve, PolarizedCurve, SGrid, _circle, _line,
                       _on_stages, _polygon, _resolve_m, ngon_vertices)
from .output import read_csv

__all__ = ["ConfigError", "Scenario", "load_scenario", "COMMANDS"]

COMMANDS = ("darboux", "flow", "motion", "verify", "figure1")

#: How far an s of a samples CSV may sit from its [grid] node, over the span.
SPACING_RTOL = 1e-9


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
    # motion; w0 on grid.refined_values()
    vertices: np.ndarray | None = None
    w0: np.ndarray | None = None
    # verify
    tolerances: dict = field(default_factory=dict)


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}] {key}: {message}")


def _get(cp, section, key, default=None, required=False, parse=None):
    """``[section] key`` as stripped text, or ``parse(text, section, key)``; ``default``
    when the key is absent."""
    cp.read_keys.add((section, key))
    if cp.has_option(section, key):
        raw = cp.get(section, key).strip()
        return raw if parse is None else parse(raw, section, key)
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


def _radius(cp, section) -> float:
    """``[section] radius`` of a circle or an ngon: finite and positive."""
    radius = _get(cp, section, "radius", default=1.0, parse=_finite)
    if radius <= 0:
        _fail(section, "radius", f"must be positive, got {radius!r}")
    return radius


def _integer(raw: str, section, key) -> int:
    """``raw`` as an int, else a ConfigError naming the key."""
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


def _load_grid(cp) -> SGrid | None:
    if not cp.has_section("grid"):
        return None
    s0 = _get(cp, "grid", "s0", required=True, parse=_finite)
    s1 = _get(cp, "grid", "s1", required=True, parse=_finite)
    h = _get(cp, "grid", "h", required=True, parse=_finite)
    with labeled("[grid] s0/s1/h"):
        return SGrid.from_step(s0, s1, h)


def _expression(raw: str, section, key):
    """``raw`` as a function of s, else a ConfigError naming the key; it is
    evaluated on the grid's RK4 stages where it is resolved."""
    try:
        return parse_expression(raw)
    except ExpressionError as exc:
        _fail(section, key, str(exc))


def _smooth_curve(cp, section: str, grid: SGrid, m) -> PolarizedCurve:
    """Build the smooth curve a section describes on ``grid`` with polarization m."""
    with labeled("[polarization] m"):
        m = _resolve_m(m, grid)
    kind = _get(cp, section, "kind", required=True).lower()
    if kind == "circle":
        radius = _radius(cp, section)
        with labeled(f"[{section}] radius"):
            return _circle(grid, radius, m)
    if kind == "line":
        return _line(grid, m)
    if kind == "samples":
        path = _get(cp, section, "csv", required=True)
        if not os.path.exists(path):
            _fail(section, "csv", f"no such file: {path}")
        with labeled(f"[{section}] csv"):
            s, values, labels = read_csv(path)
            row = _get(cp, section, "row", default=0, parse=_integer)
            if row not in labels:
                _fail(section, "row", f"no n = {row} in {path}; its n are "
                                      f"{', '.join(map(str, labels))}")
            if len(s) != grid.count:
                _fail(section, "csv", f"{path}: {len(s)} s values for {grid.count} [grid] nodes")
            nodes = grid.values()
            # The slack adds a few float spacings of s; an s too far to subtract is off.
            with np.errstate(over="ignore"):
                off = abs(s - nodes) > SPACING_RTOL * (grid.s1 - grid.s0) + 4 * np.spacing(abs(s))
            if off.any():
                i = int(np.argmax(off))
                _fail(section, "csv", f"{path}: s = {float(s[i])!r} is off its [grid] node "
                                      f"{float(nodes[i])!r}")
            return PolarizedCurve.from_samples(grid, values[labels.index(row)], m)
    _fail(section, "kind", f"unknown smooth curve kind {kind!r} "
                           "(expected circle, line, or samples)")


def _discrete_vertices(cp, section: str) -> np.ndarray:
    """The checked vertices a section describes; an error in them names the
    key that sets where they lie."""
    kind = _get(cp, section, "kind", required=True).lower()
    if kind == "ngon":
        n = _get(cp, section, "n", required=True, parse=_integer)
        radius = _radius(cp, section)
        with labeled(f"[{section}] n"):
            vertices = ngon_vertices(n, radius)
        key = "radius"
    elif kind == "vertices":
        vertices = _get(cp, section, "values", required=True, parse=_parse_points)
        key = "values"
    else:
        _fail(section, "kind", f"unknown discrete curve kind {kind!r} "
                               "(expected ngon or vertices)")
    with labeled(f"[{section}] {key}"):
        return _polygon(vertices)


def _discrete_base(cp, vertices: np.ndarray) -> DiscretePolarizedCurve:
    """The flow's base, its per-edge mu a scalar, a list, or 'arclength'."""
    raw = _get(cp, "polarization", "mu", required=True)
    if raw.lower() == "arclength":
        return DiscretePolarizedCurve.arclength(vertices)
    vals = np.array([_finite(p, "polarization", "mu") for p in raw.split(",") if p.strip()])
    if len(vals) not in (1, len(vertices) - 1):
        _fail("polarization", "mu", f"need one value per edge "
                                    f"({len(vertices) - 1}), got {len(vals)}")
    return DiscretePolarizedCurve(vertices, float(vals[0]) if len(vals) == 1 else vals)


def load_scenario(path, command: str | None = None,
                  h_override: float | None = None) -> Scenario:
    """Read and validate a scenario file.

    ``command`` (from the command line) wins over the file's [run] command;
    ``h_override`` rebuilds the grid with a different step (SGrid.from_step
    refuses a bad one).  A key the command does not read is refused, so a
    misplaced or misspelt setting cannot be dropped silently.
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
    cp.read_keys = set()

    file_cmd = _get(cp, "run", "command") if cp.has_section("run") else None
    cmd = (command or file_cmd or "").lower()
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown or missing command {cmd!r}; "
                          f"expected one of {', '.join(COMMANDS)}")
    if command and file_cmd and command.lower() != file_cmd.lower():
        raise ConfigError(f"config requests {file_cmd!r} but the command "
                          f"line says {command!r}")

    grid = _load_grid(cp) if cmd != "verify" else None
    if grid is None and cmd not in ("figure1", "verify"):
        # figure1 and verify supply their own spans; the others need [grid].
        raise ConfigError(f"{cmd} needs a [grid] section")
    if h_override is not None and grid is not None:
        grid = SGrid.from_step(grid.s0, grid.s1, h_override)
    if cmd == "figure1" and grid is None:
        # The figure's own span: one turn of its circle.
        grid = SGrid.from_step(0.0, 2.0 * math.pi, 1e-3 if h_override is None else h_override)

    sc = Scenario(command=cmd, grid=grid)
    if cmd != "verify":
        sc.csv_path = _get(cp, "output", "csv")
        sc.svg_path = _get(cp, "output", "svg")
    elif cp.has_section("verify"):
        for key, raw in cp.items("verify"):
            value = _get(cp, "verify", key, parse=_finite)
            if value <= 0:
                _fail("verify", key, f"must be a finite positive number, got {raw!r}")
            sc.tolerances[key] = value

    if cmd in ("darboux", "flow"):
        m = _get(cp, "polarization", "m", default=1.0, parse=_expression)
    if cmd == "darboux":
        sc.source = _smooth_curve(cp, "curve", grid, m)
        sc.mu = _get(cp, "polarization", "mu", required=True, parse=_finite)
        sc.initial_point = _get(cp, "parameters", "initial_point", parse=_parse_point)
        sc.offset_angle = _get(cp, "parameters", "offset_angle", parse=_finite)
        if sc.initial_point is None and sc.offset_angle is None:
            _fail("parameters", "initial_point", "darboux needs initial_point or offset_angle")
        if sc.initial_point is not None and sc.offset_angle is not None:
            _fail("parameters", "initial_point", "give initial_point or offset_angle, not both")
    elif cmd == "flow":
        vertices = _discrete_vertices(cp, "curve")
        with labeled("[polarization] mu"):
            sc.base = _discrete_base(cp, vertices)
        sc.n0 = _get(cp, "parameters", "n0", default=0, parse=_integer)
        if not cp.has_section("initial"):
            raise ConfigError("flow needs an [initial] section for the seeded row")
        sc.initial = _smooth_curve(cp, "initial", grid, m)
    elif cmd == "motion":
        sc.vertices = _discrete_vertices(cp, "curve")
        sc.n0 = _get(cp, "parameters", "n0", default=0, parse=_integer)
        raw = _get(cp, "parameters", "w0", required=True)
        with labeled("[parameters] w0"):
            sc.w0 = _on_stages(_expression(raw, "parameters", "w0"), grid, repr(raw))
    elif cmd == "figure1":
        # Optional overrides; defaults are supplied by the figure pipeline.
        sc.mu = _get(cp, "polarization", "mu", parse=_finite)
        sc.initial_point = _get(cp, "parameters", "initial_point", parse=_parse_point)
    # A [DEFAULT] key shows up in every section; it counts as read if any
    # section reads it.
    defaults = cp.defaults()
    asked = {key for _, key in cp.read_keys}
    unread = [f"[{cp.default_section}] {key}" for key in defaults if key not in asked]
    unread += [f"[{section}] {key}" for section in cp.sections() for key in cp.options(section)
               if key not in defaults and (section, key) not in cp.read_keys]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by the {cmd} command")
    return sc
