"""Infinitesimal Darboux transformations: smooth motions of discrete curves.

A sheet x_n(s) is built row by row from one seeded smooth curve: each edge
(n, n+1) carries a parameter mu and the neighbor row solves the same Riccati
equation as a smooth Darboux transform, so every edge keeps its tangential
cross ratio pinned at mu/m for all s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .darboux import _transform_row
from .errors import CurveError
from .geometry import DiscretePolarizedCurve, PolarizedCurve, Sheet, _as_m_array

#: How closely the seeded curve must pass through its base vertex.
SEED_TOL = 1e-10

#: How closely the seeded curve's polarization must match the flow's m.
M_MATCH_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FlowSpec:
    """Data for one flow: discrete base curve, smooth polarization m(s), the
    seeded row index n0, and the smooth curve occupying that row.  The seed
    row passes through vertex n0 at the grid start s0, where every edge is
    seeded."""

    base: DiscretePolarizedCurve
    m: object
    n0: int
    initial_curve: PolarizedCurve

    def __post_init__(self):
        n = len(self.base.vertices)
        if not 0 <= self.n0 < n:
            raise CurveError(f"seed row {self.n0} outside 0..{n - 1}")
        object.__setattr__(self, "m", _as_m_array(self.m, self.initial_curve.grid))
        gap = np.abs(self.initial_curve.m - self.m).max()
        if gap > M_MATCH_TOL:
            raise CurveError(
                f"initial curve polarization differs from the flow's m by {gap:.3e}"
            )
        seed_gap = abs(self.initial_curve.points[0] - self.base.vertices[self.n0])
        if seed_gap > SEED_TOL:
            raise CurveError(
                f"initial curve misses base vertex {self.n0} by {seed_gap:.3e} at the grid start"
            )


def propagate_edge(source: PolarizedCurve, mu_edge: float, initial_point: complex) -> PolarizedCurve:
    """Solve one edge of a flow: the neighbor row seeded at ``initial_point``
    at the grid start.

    The edge relation is symmetric in the pair, so the neighbor n+1 and the
    neighbor n-1 solve the same equation.
    """
    if not (math.isfinite(mu_edge) and mu_edge != 0.0):
        raise CurveError(f"edge parameter mu must be a nonzero finite real, got {mu_edge!r}")
    return _transform_row(source, mu_edge, initial_point)


def infinitesimal_darboux(spec: FlowSpec) -> Sheet:
    """Build the whole sheet from the seeded row, propagating edges outward."""
    n_rows = len(spec.base.vertices)
    grid = spec.initial_curve.grid
    rows: list = [None] * n_rows
    rows[spec.n0] = spec.initial_curve
    for n in range(spec.n0, n_rows - 1):
        try:
            rows[n + 1] = propagate_edge(rows[n], spec.base.mu[n], spec.base.vertices[n + 1])
        except Exception as exc:
            raise type(exc)(f"edge ({n}, {n + 1}): {exc}") from exc
    for n in range(spec.n0, 0, -1):
        try:
            rows[n - 1] = propagate_edge(rows[n], spec.base.mu[n - 1], spec.base.vertices[n - 1])
        except Exception as exc:
            raise type(exc)(f"edge ({n}, {n - 1}): {exc}") from exc
    return Sheet(grid, np.vstack([row.points for row in rows]),
                 tangents=np.vstack([row.derivatives for row in rows]))


def is_discrete_arclength(curve: DiscretePolarizedCurve) -> float:
    """max_n |1/mu_n - |x_{n+1} - x_n|^2| — zero iff discretely arc-length polarized."""
    if len(curve.vertices) < 2:
        return 0.0
    return float(np.abs(1.0 / curve.mu - curve.edge_lengths**2).max())


@dataclass(frozen=True, eq=False)
class ArclengthFlowReport:
    """Arc-length diagnostics of a sheet: per-column discrete deviations and
    their max, plus the max smooth-speed deviation of the rows."""

    discrete_deviation: float
    smooth_deviation: float
    column_deviations: np.ndarray


def arclength_flow_check(sheet: Sheet, mu, m) -> ArclengthFlowReport:
    """Check both halves of the arc-length correspondence on a sheet.

    (a) each column n -> |x_n(s_i) - x_{n+1}(s_i)|^2 should equal 1/mu_n;
    (b) each row should have |x_n'(s_i)|^2 = 1/m(s_i). Columns stay discretely
    arc-length polarized exactly when the rows are smoothly arc-length
    polarized, so the two deviations are small (or large) together.
    """
    mu_arr = np.asarray(mu, dtype=float).reshape(-1, 1)
    gaps2 = np.abs(np.diff(sheet.values, axis=0)) ** 2
    col_dev = np.abs(1.0 / mu_arr - gaps2).max(axis=0) if len(mu_arr) else np.zeros(sheet.grid.count)
    m_arr = _as_m_array(m, sheet.grid)
    speed2 = np.abs(sheet.row_derivatives) ** 2
    smooth = float(np.abs(1.0 / m_arr - speed2).max())
    return ArclengthFlowReport(float(col_dev.max()), smooth, col_dev)


def sheet_cross_ratio_defect(sheet: Sheet, mu, m=1.0):
    """Edge cross-ratio diagnostics of a sheet against per-edge parameters mu.

    Returns (max_n,i |m cr - mu_n|, max_n,i |Im cr|).
    """
    mu_arr = np.asarray(mu, dtype=float).reshape(-1, 1)
    m_arr = _as_m_array(m, sheet.grid)
    d = sheet.values[:-1] - sheet.values[1:]
    cr = sheet.row_derivatives[:-1] * sheet.row_derivatives[1:] / (d * d)
    return (
        float(np.abs(m_arr * cr - mu_arr).max()),
        float(np.abs(cr.imag).max()),
    )
