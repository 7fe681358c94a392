"""Infinitesimal Darboux transformations: smooth motions of discrete curves.

A sheet x_n(s) is built row by row from one seeded smooth curve: each edge
(n, n+1) carries a parameter mu and the neighbor row is the smooth Darboux
transform of its row with that mu, so every edge keeps its tangential cross
ratio pinned at mu/m for all s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .darboux import DarbouxParams, PairTable, darboux_transform
from .errors import CurveError, labeled
from .geometry import DiscretePolarizedCurve, PolarizedCurve, Sheet

#: How closely the seeded curve must pass through its base vertex.
SEED_TOL = 1e-10

#: How closely the seeded curve's polarization must match the flow's m.
M_MATCH_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FlowSpec:
    """Data for one flow: discrete base curve, the flow's polarization m, the
    seeded row index n0, and the smooth curve occupying that row.  The seed
    row passes through vertex n0 at the grid start s0, where every edge is
    seeded.

    ``m`` is a number or samples at the grid nodes.  It is compared with the
    seed row's m, which every row of the flow shares, and nothing is
    evaluated: a callable is refused."""

    base: DiscretePolarizedCurve
    m: object
    n0: int
    initial_curve: PolarizedCurve

    def __post_init__(self):
        n = len(self.base.vertices)
        if not 0 <= self.n0 < n:
            raise CurveError(f"seed row {self.n0} outside 0..{n - 1}")
        seed_m = self.initial_curve.m
        if callable(self.m) or np.ndim(self.m) and np.shape(self.m) != seed_m.shape:
            raise CurveError(f"the flow's m must be a number or {len(seed_m)} node samples")
        gap = np.abs(seed_m - np.asarray(self.m, dtype=float)).max()
        if not gap <= M_MATCH_TOL:
            raise CurveError(
                f"initial curve polarization differs from the flow's m by {gap:.3e}"
            )
        seed_gap = abs(self.initial_curve.points[0] - self.base.vertices[self.n0])
        if seed_gap > SEED_TOL:
            raise CurveError(
                f"initial curve misses base vertex {self.n0} by {seed_gap:.3e} at the grid start"
            )


def propagate_edge(source: PolarizedCurve, mu_edge: float, initial_point: complex) -> PolarizedCurve:
    """Solve one edge of a flow: the neighbor row is the Darboux transform of
    ``source`` with parameter ``mu_edge``, seeded at ``initial_point`` at the
    grid start.

    The edge relation is symmetric in the pair, so the neighbor n+1 and the
    neighbor n-1 solve the same equation.
    """
    return darboux_transform(source, DarbouxParams(mu_edge, initial_point))


def infinitesimal_darboux(spec: FlowSpec) -> Sheet:
    """Build the whole sheet from the seeded row, propagating edges outward."""
    n_rows = len(spec.base.vertices)
    grid = spec.initial_curve.grid
    rows: list = [None] * n_rows
    rows[spec.n0] = spec.initial_curve
    edges = [(n, n + 1) for n in range(spec.n0, n_rows - 1)]
    edges += [(n, n - 1) for n in range(spec.n0, 0, -1)]
    for n, k in edges:
        with labeled(f"edge ({n}, {k})"):
            rows[k] = propagate_edge(rows[n], spec.base.mu[min(n, k)], spec.base.vertices[k])
    return Sheet(grid, np.vstack([row.points for row in rows]),
                 tangents=np.vstack([row.derivatives for row in rows]))


def _edge_table(sheet: Sheet) -> PairTable:
    """The pair table of every edge (n, n+1) of a sheet, one row per edge."""
    xp = sheet.row_derivatives
    return PairTable.from_arrays(sheet.values[:-1], xp[:-1], sheet.values[1:], xp[1:])


def arclength_flow_check(sheet: Sheet, mu):
    """Check both halves of the arc-length correspondence on a sheet with m = 1.

    (a) each column n -> |x_n(s_i) - x_{n+1}(s_i)|^2 should equal 1/mu_n;
    (b) each row should have |x_n'(s_i)|^2 = 1. Columns stay discretely
    arc-length polarized exactly when the rows are smoothly arc-length
    polarized, so the two deviations are small (or large) together.

    Returns (column_deviations, smooth_deviation): max_n |1/mu_n - lam_n| at
    every node (0 without an edge), and max |1 - |x_n'|^2|.
    """
    mu_arr = np.asarray(mu, dtype=float).reshape(-1, 1)
    columns = np.abs(1.0 / mu_arr - _edge_table(sheet).lam).max(axis=0, initial=0.0)
    smooth = float(np.abs(1.0 - np.abs(sheet.row_derivatives) ** 2).max())
    return columns, smooth


def sheet_cross_ratio_defect(sheet: Sheet, mu):
    """Edge cross-ratio diagnostics of a sheet with m = 1 against per-edge
    parameters mu.

    Returns (max_n,i |cr - mu_n|, max_n,i |Im cr|), both 0 without an edge.
    """
    cr = _edge_table(sheet).cr
    mu_arr = np.asarray(mu, dtype=float).reshape(-1, 1)
    return (float(np.abs(cr - mu_arr).max(initial=0.0)),
            float(np.abs(cr.imag).max(initial=0.0)))
