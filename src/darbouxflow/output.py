"""Delimited and SVG output for sheets and curve families.

CSV layout is one row per (n, s_i) with columns n, s, x, y; floats are
printed with 17 significant digits so a re-parsed file reproduces the
original doubles bit for bit.  ``read_csv`` checks a file's structure; a
samples scenario holds its s column to the [grid] (see ``config``).  SVG
output is a static, deterministic collection of polylines (version 1.1)
with an auto-computed viewBox; an extent that overflows a float is refused.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .errors import CurveError
from .geometry import Sheet

__all__ = ["write_csv", "read_csv", "svg_text", "write_svg"]

_COLORS = ("red", "blue", "black")

#: Width of an SVG picture in user units; the height keeps the aspect ratio.
SVG_WIDTH = 480.0


def write_csv(path, sheet: Sheet) -> None:
    """Write a sheet as n,s,x,y rows (LF line endings, 17 significant digits).

    Each curve's block is one ``%`` over a per-row template, with the s column
    formatted once; ``%.17g`` and ``format(x, ".17g")`` share one formatter,
    so the bytes are those of a point-by-point f-string."""
    count = sheet.grid.count
    fields = [None] * (3 * count)
    fields[::3] = [f"{s:.17g}" for s in sheet.grid.values().tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("n,s,x,y\n")
        for n, row in enumerate(sheet.values):
            fields[1::3] = row.real.tolist()
            fields[2::3] = row.imag.tolist()
            fh.write(f"{n},%s,%.17g,%.17g\n" * count % tuple(fields))


def read_csv(path):
    """Parse an n,s,x,y file into (s column, complex values by row, n labels),
    the rows sorted by n.  n must be an integer, every field finite, and every
    n present on the same s column, each in file order; which grid that column
    is on is the caller's to check.  Else CurveError names the file."""
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
    moved = (ss != ss[0]).any(axis=1)
    if moved.any():
        raise CurveError(f"{path}: row {int(labels[np.argmax(moved)])} uses a different s grid")
    return (ss[0].copy(), table[:, 2:].copy().view(complex).reshape(len(labels), count),
            [int(n) for n in labels.tolist()])


def svg_text(curves, colors=None, markers=()) -> str:
    """Deterministic SVG document: one polyline per curve.

    ``curves`` is an iterable of 1-D complex arrays; ``colors`` optionally
    overrides the default red/blue/black cycle; ``markers`` is an iterable of
    complex points drawn as small dots.  The viewBox is the data bounding box
    with a 5% margin (one float spacing at least), and the y axis is flipped
    so the picture matches the mathematical orientation.  Each polyline's
    points are one ``%.8g`` template; numpy's float64 flip rounds as Python's
    does, so the bytes are those of a point-by-point f-string.  A picture
    whose padded extent overflows a float is refused.
    """
    curves = [np.asarray(c, dtype=complex).ravel() for c in curves]
    if not curves or any(c.size == 0 for c in curves):
        raise CurveError("svg output needs at least one non-empty curve")
    markers = [complex(m) for m in markers]
    allpts = np.concatenate(curves + [np.asarray(markers, dtype=complex)])
    xmin, xmax = float(allpts.real.min()), float(allpts.real.max())
    ymin, ymax = float(allpts.imag.min()), float(allpts.imag.max())
    # At least one spacing of the largest coordinate, so padding is never absorbed.
    margin = max(0.05 * max(xmax - xmin, ymax - ymin, 1e-30),
                 float(np.spacing(max(-xmin, xmax, -ymin, ymax))))
    xmin, xmax, ymin, ymax = xmin - margin, xmax + margin, ymin - margin, ymax + margin
    # Flip y: a point x + iy is drawn at (x, ymin + ymax - y).
    width, height, flip = xmax - xmin, ymax - ymin, ymin + ymax
    if not all(map(math.isfinite, (width, height, flip))):
        raise CurveError("svg picture spans more than a float holds")
    stroke = max(width, height) / 240.0
    if colors is None:
        colors = [_COLORS[i % len(_COLORS)] for i in range(len(curves))]
    elif len(colors) < len(curves):
        raise CurveError("fewer colors than curves")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH:.8g}" height="{SVG_WIDTH * height / width:.8g}" '
        f'viewBox="{xmin:.8g} {ymin:.8g} '
        f'{width:.8g} {height:.8g}">'
    ]
    for curve, color in zip(curves, colors):
        xy = [None] * (2 * curve.size)
        xy[::2] = curve.real.tolist()
        xy[1::2] = (flip - curve.imag).tolist()
        pts = ("%.8g,%.8g " * curve.size % tuple(xy))[:-1]
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
    """Write svg_text(...) to ``path``, built before the file is opened, so a
    picture svg_text refuses leaves any file at ``path`` as it was."""
    Path(path).write_text(svg_text(curves, colors=colors, markers=markers), newline="")
