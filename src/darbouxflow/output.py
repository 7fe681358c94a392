"""Delimited and SVG output for sheets and curve families.

CSV layout is one row per (n, s_i) with columns n, s, x, y; floats are
printed with 17 significant digits so a re-parsed file reproduces the
original doubles bit for bit.  SVG output is a static, deterministic
collection of polylines (version 1.1) with an auto-computed viewBox.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .errors import CurveError
from .geometry import SGrid, Sheet

__all__ = ["write_csv", "read_csv", "sheet_from_csv", "svg_text", "write_svg"]

_COLORS = ("red", "blue", "black")

#: Width of an SVG picture in user units; the height keeps the aspect ratio.
SVG_WIDTH = 480.0

#: Relative slack on each s step of a CSV grid.  Values printed with 17
#: significant digits come back within about 1e-13 h of an even grid.
SPACING_RTOL = 1e-9


def write_csv(path, sheet: Sheet) -> None:
    """Write a sheet as n,s,x,y rows (LF line endings, 17 significant digits),
    one block of rows per curve; the s column is formatted once."""
    s_text = [f"{s:.17g}" for s in sheet.grid.values().tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("n,s,x,y\n")
        for n, row in enumerate(sheet.values):
            fh.write("".join([f"{n},{s},{x:.17g},{y:.17g}\n" for s, x, y in
                              zip(s_text, row.real.tolist(), row.imag.tolist())]))


def read_csv(path):
    """Parse an n,s,x,y file back into (s values, complex value array by row).

    n must be an integer.  Rows must form a complete rectangular sheet:
    every n present on the same evenly spaced s grid, each in file order.
    Any malformed or non-finite row raises CurveError naming the file.
    """
    with open(path, newline="") as fh:
        lines = (ln for ln in fh if ln.strip())
        if next(lines, "").strip().lower().replace(" ", "") != "n,s,x,y":
            raise CurveError(f"{path}: expected an 'n,s,x,y' header")
        first = next(lines, None)
        if first is None:
            raise CurveError(f"{path}: no data rows after the header")
        try:
            table = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                               comments=None, ndmin=2)
        except ValueError as exc:
            raise CurveError(f"{path}: malformed data: {exc}") from None
    if table.shape[1] != 4:
        raise CurveError(f"{path}: rows have {table.shape[1]} fields, expected n,s,x,y")
    ns = table[:, 0]
    bad = ~np.isfinite(ns) | (ns != np.round(ns))
    if bad.any():
        raise CurveError(f"{path}: n must be an integer, got {float(ns[np.argmax(bad)])!r}")
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise CurveError(f"{path}: data row {int(np.argmax(bad)) + 1} has a non-finite field")
    # A stable sort groups the rows by n and keeps each row in file order.
    table = table[np.argsort(ns, kind="stable")]
    labels, counts = np.unique(table[:, 0], return_counts=True)
    count = int(counts[0])
    if (counts != count).any():
        raise CurveError(f"{path}: rows have differing grid lengths")
    ss = table[:, 1].reshape(len(labels), count)
    svals = ss[0].copy()
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
    moved = (ss != svals).any(axis=1)
    if moved.any():
        raise CurveError(f"{path}: row {int(labels[np.argmax(moved)])} uses a different s grid")
    return svals, table[:, 2:].copy().view(complex).reshape(len(labels), count)


def sheet_from_csv(path) -> Sheet:
    """Reconstruct a Sheet from a file produced by write_csv."""
    svals, values = read_csv(path)
    if len(svals) == 1:
        grid = SGrid(float(svals[0]), float(svals[0]), 1.0, 1)
    else:
        h = (float(svals[-1]) - float(svals[0])) / (len(svals) - 1)
        grid = SGrid(float(svals[0]), float(svals[-1]), h, len(svals))
    return Sheet(grid, values)


def svg_text(curves, colors=None, markers=()) -> str:
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
    flip = ymin + ymax
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH:.8g}" height="{SVG_WIDTH * height / width:.8g}" '
        f'viewBox="{xmin:.8g} {ymin:.8g} '
        f'{width:.8g} {height:.8g}">'
    ]
    for curve, color in zip(curves, colors):
        pts = " ".join([f"{x:.8g},{flip - y:.8g}"
                        for x, y in zip(curve.real.tolist(), curve.imag.tolist())])
        parts.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{stroke:.8g}" points="{pts}"/>'
        )
    for m in markers:
        parts.append(
            f'<circle cx="{m.real:.8g}" cy="{flip - m.imag:.8g}" '
            f'r="{2.5 * stroke:.8g}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, curves, colors=None, markers=()) -> None:
    """Write svg_text(...) to ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(svg_text(curves, colors=colors, markers=markers))


def ensure_dir(path) -> None:
    """Create the directory for ``path`` if needed (no-op for bare names)."""
    d = os.path.dirname(os.fspath(path))
    if d:
        os.makedirs(d, exist_ok=True)
