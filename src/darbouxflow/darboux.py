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

from .errors import CoincidentPointsError, CurveError, NotArclengthPolarizedError
from .geometry import (EPS_REG, PolarizedCurve, _at_stage, _finite_at, _finite_steps, _regular,
                       dot, fd_derivative)

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

    Classic RK4 from y0 at the first node, on the refined (node + midpoint)
    stage data, with a Kahan-compensated update.  A numpy table scales each
    stage's a = (mu/m)/x' by the step fraction its slope enters with (p =
    (h/2)a at the node, q = (h/2)a and r = h a at the midpoint, t = (h/6)a at
    the next node), so the step runs over Python lists in built-in complex
    arithmetic.  It divides by 3.0, as fl(1/3) would bias every increment;
    the tests hold its round-off to a long-double run of ``ode.rk4_path``'s
    map.  SingularTangentError names the first stage s where |x'| <= EPS_REG,
    BlowupError the first non-finite node.
    """
    grid = source.grid
    if grid.count == 1:
        return np.array([y0], dtype=complex)
    xs, xps, ms = source._stage_data
    _regular(xps, _at_stage(grid))
    a = (mu / ms) / xps
    h = np.diff(grid.values())
    mid = 0.5 * h * a[1::2]
    nodes = xs[0::2].tolist()
    y, comp = complex(y0), 0j
    out = [y]
    # Built-in complex arithmetic yields inf/nan at a pole without raising,
    # and a non-finite state stays non-finite, so one check on the finished
    # row finds the node where the solution left the grid's window.
    for x0, xm, x1, p, q, r, t in zip(
            nodes, xs[1::2].tolist(), nodes[1:], (0.5 * h * a[0:-1:2]).tolist(),
            mid.tolist(), (2.0 * mid).tolist(), (h / 6.0 * a[2::2]).tolist()):
        d = x0 - y
        k1 = p * d * d
        g = xm - y
        d = g - k1
        k2 = q * d * d
        d = g - k2
        k3 = r * d * d
        d = x1 - y - k3
        d = ((k1 + 2.0 * k2 + k3) / 3.0 + t * d * d) - comp
        z = y + d
        comp = (z - y) - d
        y = z
        out.append(y)
    vals = np.asarray(out)
    _finite_steps(np.isfinite(vals), grid)
    return vals


def darboux_transform(curve: PolarizedCurve, params: DarbouxParams) -> PolarizedCurve:
    """Darboux transform of ``curve`` seeded at the grid start.

    The result shares the grid and polarization of ``curve``; a collision
    between the pair anywhere on the grid raises CoincidentPointsError.
    A flow edge (``semidiscrete.propagate_edge``) is one such transform.
    """
    mu, y0 = params.mu, params.initial_point
    if abs(y0 - curve.points[0]) <= EPS_REG:
        raise CoincidentPointsError("initial point coincides with the curve start")
    vals = riccati_solve(curve, mu, y0)
    d = vals - curve.points
    sep = np.abs(d)
    if sep.min() <= EPS_REG:
        i = int(np.argmin(sep))
        raise CoincidentPointsError(f"transform collides with the curve at node {i}")
    # The pair equation gives the transform's tangent pointwise from the two
    # position rows, so store it instead of re-differencing the samples.
    with np.errstate(over="ignore", invalid="ignore"):
        xhp = (mu / curve.m) * d * d / curve.derivatives
    _finite_at(xhp, "the transform's tangent xh'", _at_stage(curve.grid, 2))
    # The row shares the source's refined m, so m is never evaluated again
    # down a flow.
    return PolarizedCurve(curve.grid, vals, curve._refined_m, xhp)


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
    y = x + x'/r = xh + xh'/rhat, and lam = |xh - x|^2.
    """

    cr: np.ndarray
    r: np.ndarray
    rhat: np.ndarray
    lam: np.ndarray

    @classmethod
    def from_arrays(cls, x, xp, xh, xhp) -> "PairTable":
        """The table of one pair along a grid, or of a sheet's edges (n, n+1)
        one per row; a collision raises CoincidentPointsError at its node."""
        d = xh - x
        lam = np.abs(d) ** 2
        if lam.size and lam.min() <= EPS_REG**2:
            *edge, i = np.unravel_index(np.argmin(lam), lam.shape)
            where = f"edge ({edge[0]}, {edge[0] + 1})" if edge else "pair"
            raise CoincidentPointsError(f"{where} collides at node {i}")
        return cls(cr=xp * xhp / (d * d), r=2.0 * dot(d, xp) / lam,
                   rhat=2.0 * dot(-d, xhp) / lam, lam=lam)


def pair_table(base: PolarizedCurve, transform: PolarizedCurve) -> PairTable:
    """Pointwise pair diagnostics along two curves sharing a grid."""
    if transform.grid != base.grid:
        raise CurveError("pair curves must share one grid")
    return PairTable.from_arrays(base.points, base.derivatives,
                                 transform.points, transform.derivatives)


def cross_ratio_defect(base: PolarizedCurve, transform: PolarizedCurve, mu: float) -> float:
    """max_i |m(s_i) cr(s_i) - mu| — zero exactly on a Darboux pair."""
    table = pair_table(base, transform)
    return float(np.abs(base.m * table.cr - mu).max())


def lemma_defects(base: PolarizedCurve, transform: PolarizedCurve, mu: float):
    """Residuals of the pair identities, multiplied through by their divisors
    so that every node counts, r or rhat zero included.

    Returns (center_defect, ratio_defect): max |r rhat (x - xh) + rhat x' - r xh'|,
    the common circle center y = x + x'/r = xh + xh'/rhat, and
    max |rhat |x'|^2 m + r lam mu|, the ratio rhat/r = -(lam/|x'|^2)(mu/m).
    """
    table = pair_table(base, transform)
    r, rhat, xp = table.r, table.rhat, base.derivatives
    center = (r * rhat * (base.points - transform.points) + rhat * xp
              - r * transform.derivatives)
    ratio = rhat * np.abs(xp) ** 2 * base.m + r * table.lam * mu
    return float(np.abs(center).max()), float(np.abs(ratio).max())


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
