"""Delimited and SVG output for sheets and curve families.

CSV layout is one row per (n, s_i) with columns n, s, x, y; floats are
printed with 17 significant digits so a re-parsed file reproduces the
original doubles bit for bit.  SVG output is a static, deterministic
collection of polylines (version 1.1) with an auto-computed viewBox.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CurveError
from .geometry import SGrid, Sheet

__all__ = ["write_csv", "read_csv", "sheet_from_csv", "svg_text", "write_svg"]

_COLORS = ("red", "blue", "black")

#: Relative slack on each s step of a CSV grid.  Values printed with 17
#: significant digits come back within about 1e-13 h of an even grid.
SPACING_RTOL = 1e-9


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, sheet: Sheet) -> None:
    """Write a sheet as n,s,x,y rows (LF line endings, 17 significant digits)."""
    svals = sheet.grid.values()
    lines = ["n,s,x,y"]
    for n in range(sheet.rows):
        row = sheet.values[n]
        lines.extend(
            f"{n},{_fmt(svals[i])},{_fmt(row[i].real)},{_fmt(row[i].imag)}"
            for i in range(sheet.grid.count)
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse an n,s,x,y file back into (s values, complex value array by row).

    Rows must form a complete rectangular sheet: every n present on the same
    evenly spaced s grid, in file order.
    """
    with open(path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != "n,s,x,y":
        raise CurveError(f"{path}: expected an 'n,s,x,y' header")
    ns, ss, zs = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise CurveError(f"{path}: malformed row {ln!r}")
        ns.append(int(parts[0]))
        ss.append(float(parts[1]))
        zs.append(complex(float(parts[2]), float(parts[3])))
    ns = np.asarray(ns)
    ss = np.asarray(ss)
    zs = np.asarray(zs, dtype=complex)
    labels = np.unique(ns)
    counts = {int(n): int((ns == n).sum()) for n in labels}
    count = counts[int(labels[0])]
    if any(c != count for c in counts.values()):
        raise CurveError(f"{path}: rows have differing grid lengths")
    svals = ss[ns == labels[0]]
    if len(svals) > 2:
        h = (svals[-1] - svals[0]) / (len(svals) - 1)
        steps = np.diff(svals)
        off = np.abs(steps - h) > SPACING_RTOL * abs(h)
        if off.any():
            i = int(np.argmax(off))
            raise CurveError(
                f"{path}: s values are not evenly spaced: row n={int(labels[0])}, "
                f"s={float(svals[i + 1])!r} follows a step of {float(steps[i])!r}, "
                f"expected {float(h)!r}")
    values = np.empty((len(labels), count), dtype=complex)
    for k, n in enumerate(labels):
        mask = ns == n
        if not np.array_equal(ss[mask], svals):
            raise CurveError(f"{path}: row {int(n)} uses a different s grid")
        values[k] = zs[mask]
    return svals, values


def sheet_from_csv(path) -> Sheet:
    """Reconstruct a Sheet from a file produced by write_csv."""
    svals, values = read_csv(path)
    if len(svals) == 1:
        grid = SGrid(float(svals[0]), float(svals[0]), 1.0, 1)
    else:
        h = (float(svals[-1]) - float(svals[0])) / (len(svals) - 1)
        grid = SGrid(float(svals[0]), float(svals[-1]), h, len(svals))
    return Sheet(grid, values)


def _fmt_svg(value: float) -> str:
    return format(float(value), ".8g")


def svg_text(curves, colors=None, markers=(), size: float = 480.0) -> str:
    """Deterministic SVG document: one polyline per curve.

    ``curves`` is an iterable of 1-D complex arrays; ``colors`` optionally
    overrides the default red/blue/black cycle; ``markers`` is an iterable of
    complex points drawn as small dots.  The viewBox is the data bounding box
    with a 5% margin, and the y axis is flipped so the picture matches the
    mathematical orientation.
    """
    curves = [np.asarray(c, dtype=complex).ravel() for c in curves]
    if not curves or any(c.size == 0 for c in curves):
        raise CurveError("svg output needs at least one non-empty curve")
    markers = [complex(m) for m in markers]
    clouds = list(curves)
    if markers:
        clouds.append(np.asarray(markers, dtype=complex))
    allpts = np.concatenate(clouds)
    xmin, xmax = float(allpts.real.min()), float(allpts.real.max())
    ymin, ymax = float(allpts.imag.min()), float(allpts.imag.max())
    margin = 0.05 * max(xmax - xmin, ymax - ymin, 1e-30)
    xmin -= margin
    xmax += margin
    ymin -= margin
    ymax += margin
    width = xmax - xmin
    height = ymax - ymin
    stroke = max(width, height) / 240.0
    if colors is None:
        colors = [_COLORS[i % len(_COLORS)] for i in range(len(curves))]
    elif len(colors) < len(curves):
        raise CurveError("fewer colors than curves")
    # Flip y: a point x + iy is drawn at (x, ymin + ymax - y).
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt_svg(size)}" height="{_fmt_svg(size * height / width)}" '
        f'viewBox="{_fmt_svg(xmin)} {_fmt_svg(ymin)} '
        f'{_fmt_svg(width)} {_fmt_svg(height)}">'
    ]
    for curve, color in zip(curves, colors):
        pts = " ".join(
            f"{_fmt_svg(z.real)},{_fmt_svg(ymin + ymax - z.imag)}" for z in curve
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt_svg(stroke)}" points="{pts}"/>'
        )
    for m in markers:
        parts.append(
            f'<circle cx="{_fmt_svg(m.real)}" cy="{_fmt_svg(ymin + ymax - m.imag)}" '
            f'r="{_fmt_svg(2.5 * stroke)}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, curves, colors=None, markers=(), size: float = 480.0) -> None:
    """Write svg_text(...) to ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(svg_text(curves, colors=colors, markers=markers, size=size))


def ensure_dir(path) -> None:
    """Create the directory for ``path`` if needed (no-op for bare names)."""
    d = os.path.dirname(os.fspath(path))
    if d:
        os.makedirs(d, exist_ok=True)
