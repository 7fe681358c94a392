"""Darboux transformations of polarized plane curves.

A transform xh of a curve x with polarization ds^2/m and parameter mu solves
the Riccati equation xh' = (mu/m) (x - xh)^2 / x', which keeps the tangential
cross ratio x' xh' / (x - xh)^2 pinned at mu/m along the pair.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPointsError,
    CurveError,
    NotArclengthPolarizedError,
    SingularTangentError,
)
from .geometry import EPS_REG, PolarizedCurve, dot, fd_derivative
from .ode import rk4_path

#: Tolerance on |1/m - |x'|^2| below which a curve counts as arc-length polarized.
ARC_TOL = 1e-8


@dataclass(frozen=True)
class DarbouxParams:
    """Transform parameter mu (real, nonzero) and the seed point xh(s0)."""

    mu: float
    initial_point: complex

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu != 0.0):
            raise CurveError(f"mu must be a nonzero finite real, got {self.mu!r}")
        if not cmath.isfinite(self.initial_point):
            raise CurveError("initial point must be finite")


def riccati_solve(source: PolarizedCurve, mu: float, y0: complex) -> np.ndarray:
    """Integrate the Riccati equation against ``source`` over its whole grid.

    The initial value y0 is imposed at the first grid node; integration runs
    forward with classic RK4, evaluating the source curve on the refined
    (node + midpoint) grid.
    """
    grid = source.grid
    if grid.count == 1:
        return np.array([y0], dtype=complex)
    xs, xps, ms = source._stage_data
    speeds = np.abs(xps)
    if speeds.min() <= source.eps_reg:
        raise SingularTangentError(
            f"source tangent vanishes on the refined grid (|x'| = {speeds.min():.3e})"
        )
    coef = mu / ms
    s_start, h = grid.s0, grid.h

    def rhs(s, y):
        k = int(round(2.0 * (s - s_start) / h))
        d = xs[k] - y
        return coef[k] * d * d / xps[k]

    return rk4_path(grid.values(), rhs, complex(y0))


def _transform_row(curve: PolarizedCurve, mu: float, initial_point: complex) -> PolarizedCurve:
    """The body of darboux_transform, shared with flow edges
    (semidiscrete.propagate_edge), which validate mu themselves."""
    if abs(initial_point - curve.points[0]) <= curve.eps_reg:
        raise CoincidentPointsError("initial point coincides with the curve start")
    vals = riccati_solve(curve, mu, initial_point)
    sep = np.abs(vals - curve.points)
    if sep.min() <= curve.eps_reg:
        i = int(np.argmin(sep))
        raise CoincidentPointsError(f"transform collides with the curve at node {i}")
    # The pair equation gives the transform's tangent pointwise from the two
    # position rows, so store it instead of re-differencing the samples.
    d = vals - curve.points
    xhp = (mu / curve.m) * d * d / curve.derivatives
    return PolarizedCurve(curve.grid, vals, curve.m, m_fn=curve.m_fn,
                          eps_reg=curve.eps_reg, xp_samples=xhp)


def darboux_transform(curve: PolarizedCurve, params: DarbouxParams) -> PolarizedCurve:
    """Darboux transform of ``curve`` seeded at the grid start.

    The result shares the grid and polarization of ``curve``; a collision
    between the pair anywhere on the grid raises CoincidentPointsError.
    """
    return _transform_row(curve, params.mu, params.initial_point)


def arclength_darboux(curve: PolarizedCurve, mu: float, offset_angle: float) -> PolarizedCurve:
    """Arc-length-preserving Darboux transform of an arc-length polarized curve.

    Requires mu > 0 and 1/m = |x'|^2; the seed point sits at distance 1/sqrt(mu)
    from the curve start, in the direction ``offset_angle``. Any choice of
    (mu, offset_angle) keeps |xh - x| = 1/sqrt(mu) along the whole pair.
    """
    if not mu > 0:
        raise CurveError(f"arc-length transforms need mu > 0, got {mu!r}")
    dev = curve.arclength_deviation()
    if dev > ARC_TOL:
        raise NotArclengthPolarizedError(
            f"curve is not arc-length polarized: max |1/m - |x'|^2| = {dev:.3e}"
        )
    seed = curve.points[0] + cmath.exp(1j * offset_angle) / math.sqrt(mu)
    return darboux_transform(curve, DarbouxParams(mu, seed))


@dataclass(frozen=True, eq=False)
class PairTable:
    """Pointwise data of a curve pair (x, xh) with tangents attached.

    cr is the tangential cross ratio x' xh' / (x - xh)^2; r and rhat are the
    inverse distances from x and xh to the common circle center
    y = x + x'/r = xh + xh'/rhat, and lam = |xh - x|^2.  y is NaN where r
    vanishes; ``degenerate`` marks the nodes where r or rhat does.
    """

    s: np.ndarray
    cr: np.ndarray
    r: np.ndarray
    rhat: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    degenerate: np.ndarray


def pair_table(base: PolarizedCurve, transform: PolarizedCurve,
               eps_reg: float = EPS_REG) -> PairTable:
    """Pointwise pair diagnostics along two curves sharing a grid."""
    if transform.grid != base.grid:
        raise CurveError("pair curves must share one grid")
    x, xh = base.points, transform.points
    xp, xhp = base.derivatives, transform.derivatives
    d = xh - x
    lam = np.abs(d) ** 2
    if lam.min() <= eps_reg**2:
        raise CoincidentPointsError(
            f"pair collides at node {int(np.argmin(lam))}"
        )
    cr = xp * xhp / (d * d)
    r = 2.0 * dot(d, xp) / lam
    rhat = 2.0 * dot(-d, xhp) / lam
    degenerate = (np.abs(r) <= eps_reg) | (np.abs(rhat) <= eps_reg)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(np.abs(r) > eps_reg, x + xp / np.where(r == 0.0, np.nan, r), np.nan)
    return PairTable(s=base.grid.values(), cr=cr, r=r, rhat=rhat, y=y,
                     lam=lam, degenerate=degenerate)


def cross_ratio_defect(base: PolarizedCurve, transform: PolarizedCurve, mu: float) -> float:
    """max_i |m(s_i) cr(s_i) - mu| — zero exactly on a Darboux pair."""
    table = pair_table(base, transform)
    return float(np.abs(base.m * table.cr - mu).max())


def lemma_defects(base: PolarizedCurve, transform: PolarizedCurve, mu: float):
    """Relative residuals of the pair identities at non-degenerate nodes.

    Returns (center_defect, ratio_defect): agreement of the common circle
    center computed from either curve, and the residual of
    rhat/r = -(lam/|x'|^2)(mu/m). Degenerate nodes are skipped.
    """
    table = pair_table(base, transform)
    keep = ~table.degenerate
    if not keep.any():
        return 0.0, 0.0
    y1 = base.points[keep] + base.derivatives[keep] / table.r[keep]
    y2 = transform.points[keep] + transform.derivatives[keep] / table.rhat[keep]
    center = np.abs(y1 - y2) / (1.0 + np.abs(y1))
    ratio = table.rhat[keep] / table.r[keep]
    target = -(table.lam[keep] / np.abs(base.derivatives[keep]) ** 2) * (mu / base.m[keep])
    rdef = np.abs(ratio - target) / (1.0 + np.abs(ratio))
    return float(center.max()), float(rdef.max())


def lambda_evolution_defects(base: PolarizedCurve, transform: PolarizedCurve, mu: float):
    """Residuals of the two closed forms for d(lam)/ds along a Darboux pair.

    lam' = (-rhat - r) lam and lam' = r ((mu lam)/(m |x'|^2) - 1) lam, with the
    left side taken by 4th-order finite differences of lam.
    """
    table = pair_table(base, transform)
    lam_prime = fd_derivative(table.lam, base.grid.h)
    pair_form = (-table.rhat - table.r) * table.lam
    single_form = table.r * ((mu * table.lam) / (base.m * np.abs(base.derivatives) ** 2) - 1.0) * table.lam
    return (
        float(np.abs(lam_prime - pair_form).max()),
        float(np.abs(lam_prime - single_form).max()),
    )
