"""Plane-curve geometry: grids, polarized curves, discrete curves and sheets.

Points of the plane are complex numbers (re, im) = x + iy, so rotations are
unit-modulus multiplications and the tangential cross ratio is a ratio of
complex products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    CoincidentPointsError,
    CurveError,
    GridTooShortError,
    SingularTangentError,
)

#: Default regularity constant; every near-zero guard funnels through it.
EPS_REG = 1e-9

#: Relative slack allowed in the grid consistency identity s1 - s0 = (count-1) h.
GRID_RTOL = 1e-12


def rotate(p: complex, angle: float) -> complex:
    """Rotate the plane point p counterclockwise by angle (radians)."""
    if not math.isfinite(angle):
        raise CurveError(f"rotation angle must be finite, got {angle!r}")
    return p * complex(math.cos(angle), math.sin(angle))


def dot(a, b):
    """Euclidean inner product of plane points written as complex numbers."""
    return (np.conj(a) * b).real


def cross(a, b):
    """Scalar cross product det(a, b) of plane points written as complex numbers."""
    return (np.conj(a) * b).imag


@dataclass(frozen=True)
class SGrid:
    """Uniform parameter grid s_i = s0 + i*h, i = 0..count-1."""

    s0: float
    s1: float
    h: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.s0) and math.isfinite(self.s1)):
            raise CurveError("grid endpoints must be finite")
        if not (math.isfinite(self.h) and self.h > 0):
            raise CurveError(f"grid step must be a finite positive real, got {self.h!r}")
        if self.count < 1:
            raise CurveError(f"grid needs at least one node, got count={self.count}")
        span = (self.count - 1) * self.h
        scale = max(abs(self.s1 - self.s0), abs(span), 1.0)
        if abs((self.s1 - self.s0) - span) > GRID_RTOL * scale:
            raise CurveError(
                f"inconsistent grid: s1-s0={self.s1 - self.s0!r} but (count-1)*h={span!r}"
            )

    @classmethod
    def from_step(cls, s0: float, s1: float, h: float) -> "SGrid":
        """Grid from endpoints and step; the node count is rounded to fit and
        s1 is snapped to s0 + (count-1)*h so the step stays exact."""
        if h <= 0:
            raise CurveError(f"grid step must be positive, got {h!r}")
        intervals = int(round((s1 - s0) / h))
        if intervals < 0:
            raise CurveError(f"grid endpoints reversed: {s0!r} > {s1!r}")
        return cls(s0, s0 + intervals * h, h, intervals + 1)

    @classmethod
    def from_count(cls, s0: float, h: float, count: int) -> "SGrid":
        return cls(s0, s0 + (count - 1) * h, h, count)

    def values(self) -> np.ndarray:
        return self.s0 + self.h * np.arange(self.count)

    def refined_values(self) -> np.ndarray:
        """Nodes plus midpoints: s0 + k*(h/2), k = 0..2*count-2."""
        return self.s0 + 0.5 * self.h * np.arange(2 * self.count - 1)

    def halved(self) -> "SGrid":
        """Same span, half the step (for convergence studies)."""
        return SGrid(self.s0, self.s1, 0.5 * self.h, 2 * self.count - 1)


# 4th-order one-sided stencil rows (units of 1/(12h)) for the first two and
# last two nodes; the interior uses the symmetric 5-point stencil.
_FD_EDGE_HEAD = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])
_FD_EDGE_TAIL = np.array([[-1.0, 6.0, -18.0, 10.0, 3.0], [3.0, -16.0, 36.0, -48.0, 25.0]])


def fd_derivative(values: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """4th-order finite-difference d/ds along ``axis`` of uniformly sampled data.

    Central 5-point stencil inside, one-sided 4th-order stencils on the two
    boundary bands; exact for polynomials of degree <= 4.
    """
    v = np.moveaxis(np.asarray(values), axis, -1)
    n = v.shape[-1]
    if n < 5:
        raise GridTooShortError(f"need at least 5 nodes for the 4th-order stencil, got {n}")
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    out[..., 2:-2] = v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]
    out[..., 0:2] = v[..., 0:5] @ _FD_EDGE_HEAD.T
    out[..., -2:] = v[..., -5:] @ _FD_EDGE_TAIL.T
    out /= 12.0 * h
    return np.moveaxis(out, -1, axis)


def _lagrange_weights(window: int, t: float) -> np.ndarray:
    """Interpolation weights at position t (node units) over nodes 0..window-1."""
    w = np.empty(window)
    for j in range(window):
        p = 1.0
        for k in range(window):
            if k != j:
                p *= (t - k) / (j - k)
        w[j] = p
    return w


def _lagrange_deriv_weights(window: int, t: float) -> np.ndarray:
    """Derivative weights (units of node spacing) at t over nodes 0..window-1."""
    w = np.empty(window)
    for j in range(window):
        denom = 1.0
        for k in range(window):
            if k != j:
                denom *= j - k
        total = 0.0
        for i in range(window):
            if i == j:
                continue
            p = 1.0
            for k in range(window):
                if k != j and k != i:
                    p *= t - k
            total += p
        w[j] = total / denom
    return w


def _midpoint_interp(samples: np.ndarray, derivative: bool = False) -> np.ndarray:
    """Values (or d/dt in node units) at the count-1 midpoints of a uniform
    sample sequence, via local Lagrange windows of up to 6 nodes."""
    n = len(samples)
    if n < 5:
        raise GridTooShortError(f"need at least 5 samples to interpolate midpoints, got {n}")
    window = min(6, n)
    weights = _lagrange_deriv_weights if derivative else _lagrange_weights
    mids = np.empty(n - 1, dtype=samples.dtype)
    if n == window:
        for i in range(n - 1):
            mids[i] = weights(window, i + 0.5) @ samples
        return mids
    inner = np.lib.stride_tricks.sliding_window_view(samples, window)
    mids[2 : n - 3] = inner @ weights(window, 2.5)
    for i in (0, 1):
        mids[i] = weights(window, i + 0.5) @ samples[:window]
    for i in (n - 3, n - 2):
        mids[i] = weights(window, i + 0.5 - (n - window)) @ samples[-window:]
    return mids


def _interleave(nodes: np.ndarray, mids: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(nodes) - 1, dtype=np.result_type(nodes.dtype, mids.dtype))
    out[0::2] = nodes
    out[1::2] = mids
    return out


def _as_m_array(m, grid: SGrid):
    """Coerce a polarization given as scalar, callable or array to grid samples."""
    if callable(m):
        return np.asarray(m(grid.values()), dtype=float).reshape(-1) + np.zeros(grid.count)
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.count, float(arr))
    if arr.shape != (grid.count,):
        raise CurveError(f"polarization samples have shape {arr.shape}, expected ({grid.count},)")
    return arr


def _validate_m(m: np.ndarray):
    if not np.all(np.isfinite(m)):
        raise CurveError("polarization must be finite")
    if np.any(m == 0.0) or (m.max() > 0 > m.min()):
        raise CurveError("polarization must be nonvanishing and of constant sign")


@dataclass(frozen=True, eq=False)
class PolarizedCurve:
    """Smooth plane curve x(s) with polarization ds^2/m, sampled on a grid.

    ``x_fn``/``xp_fn`` hold an analytic generator when one is known, and
    ``xp_samples`` holds per-node tangents when a construction supplies them
    (a transform's tangents follow pointwise from its pair equation);
    otherwise derivatives come from 4th-order finite differences of the
    samples.
    """

    grid: SGrid
    points: np.ndarray
    m: np.ndarray
    x_fn: Callable | None = None
    xp_fn: Callable | None = None
    m_fn: Callable | None = None
    eps_reg: float = EPS_REG
    xp_samples: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if pts.shape != (self.grid.count,):
            raise CurveError(f"points have shape {pts.shape}, expected ({self.grid.count},)")
        if not np.all(np.isfinite(pts)):
            raise CurveError("curve points must be finite")
        object.__setattr__(self, "m", _as_m_array(self.m, self.grid))
        _validate_m(self.m)
        speeds = None
        if self.xp_samples is not None:
            if self.xp_fn is not None:
                raise CurveError("give xp_fn or xp_samples, not both")
            xp = np.asarray(self.xp_samples, dtype=complex)
            object.__setattr__(self, "xp_samples", xp)
            if xp.shape != pts.shape:
                raise CurveError(
                    f"tangent samples have shape {xp.shape}, expected {pts.shape}")
            if not np.all(np.isfinite(xp)):
                raise CurveError("curve tangents must be finite")
            self.__dict__["derivatives"] = xp
            speeds = np.abs(xp)
        elif self.xp_fn is not None:
            speeds = np.abs(np.asarray(self.xp_fn(self.grid.values()), dtype=complex))
        elif self.grid.count >= 5:
            d = fd_derivative(pts, self.grid.h)
            self.__dict__["derivatives"] = d
            speeds = np.abs(d)
        if speeds is not None and speeds.min() <= self.eps_reg:
            i = int(np.argmin(speeds))
            raise SingularTangentError(
                f"curve is not regular: |x'| = {speeds.min():.3e} at node {i}"
            )

    @classmethod
    def from_generator(cls, grid: SGrid, x, xp, m=1.0, eps_reg: float = EPS_REG):
        s = grid.values()
        m_fn = m if callable(m) else None
        return cls(grid, np.asarray(x(s), dtype=complex) + np.zeros(grid.count, dtype=complex),
                   _as_m_array(m, grid), x_fn=x, xp_fn=xp, m_fn=m_fn, eps_reg=eps_reg)

    @classmethod
    def from_samples(cls, grid: SGrid, points, m=1.0, eps_reg: float = EPS_REG):
        return cls(grid, np.asarray(points, dtype=complex), _as_m_array(m, grid),
                   eps_reg=eps_reg)

    @cached_property
    def derivatives(self) -> np.ndarray:
        """x'(s_i) at every node: analytic when available, else finite differences."""
        if self.xp_fn is not None:
            return np.asarray(self.xp_fn(self.grid.values()), dtype=complex)
        return fd_derivative(self.points, self.grid.h)

    @cached_property
    def _stage_data(self):
        """(x, x', mu/m-ready m) on the refined grid (nodes + midpoints), for
        Riccati stepping; sampled curves are refined with local Lagrange windows."""
        if self.x_fn is not None and self.xp_fn is not None:
            r = self.grid.refined_values()
            xs = np.asarray(self.x_fn(r), dtype=complex) + np.zeros(len(r), dtype=complex)
            xps = np.asarray(self.xp_fn(r), dtype=complex) + np.zeros(len(r), dtype=complex)
        else:
            if self.grid.count == 1:
                xs = self.points.copy()
                xps = np.full(1, np.nan, dtype=complex)
            else:
                xs = _interleave(self.points, _midpoint_interp(self.points))
                xps = _interleave(
                    self.derivatives, _midpoint_interp(self.points, derivative=True) / self.grid.h
                )
        if self.m_fn is not None:
            ms = np.asarray(self.m_fn(self.grid.refined_values()), dtype=float) + np.zeros(
                2 * self.grid.count - 1
            )
        elif np.ptp(self.m) == 0.0:
            ms = np.full(2 * self.grid.count - 1, self.m[0])
        elif self.grid.count >= 5:
            ms = _interleave(self.m, _midpoint_interp(self.m))
        else:
            ms = _interleave(self.m, 0.5 * (self.m[:-1] + self.m[1:]))
        # The node samples passed this check already; the midpoints must too,
        # or the Riccati coefficient mu/m is infinite or flips sign mid-step.
        try:
            _validate_m(ms)
        except CurveError as exc:
            raise CurveError(f"{exc} between grid nodes") from None
        return xs, xps, ms

    def arclength_deviation(self) -> float:
        """max_i |1/m(s_i) - |x'(s_i)|^2| — zero iff arc-length polarized."""
        return float(np.abs(1.0 / self.m - np.abs(self.derivatives) ** 2).max())


@dataclass(frozen=True, eq=False)
class DiscretePolarizedCurve:
    """Discrete plane curve: vertices x_n with one polarization weight mu per edge."""

    vertices: np.ndarray
    mu: np.ndarray
    eps_reg: float = EPS_REG

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=complex)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 1 or len(v) < 1:
            raise CurveError("vertices must be a nonempty 1-D sequence of plane points")
        if not np.all(np.isfinite(v)):
            raise CurveError("vertices must be finite")
        edges = np.diff(v)
        if len(edges) and np.abs(edges).min() <= self.eps_reg:
            n = int(np.argmin(np.abs(edges)))
            raise CoincidentPointsError(f"consecutive vertices {n} and {n + 1} coincide")
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim == 0:
            mu = np.full(max(len(v) - 1, 0), float(mu))
        object.__setattr__(self, "mu", mu)
        if mu.shape != (len(v) - 1,):
            raise CurveError(f"mu has shape {mu.shape}, expected ({len(v) - 1},)")
        if len(mu):
            _validate_m(mu)

    @property
    def edge_lengths(self) -> np.ndarray:
        return np.abs(np.diff(self.vertices))


def ngon_vertices(n: int, radius: float = 1.0) -> np.ndarray:
    """Closed regular n-gon on the circle of the given radius: n+1 vertices,
    the last repeating the first so all n edges are present."""
    if n < 3:
        raise CurveError(f"an ngon needs at least 3 sides, got {n}")
    if not radius > 0:
        raise CurveError(f"ngon radius must be positive, got {radius!r}")
    k = np.arange(n + 1)
    return radius * np.exp(2j * math.pi * k / n)


@dataclass(frozen=True, eq=False)
class Sheet:
    """Family x_n(s_i): one row per discrete index n, one column per grid node.

    ``tangents`` holds d/ds of every row when the builder knows them exactly
    (flows and motions do); sheets rebuilt from bare samples leave it None.
    """

    grid: SGrid
    values: np.ndarray
    tangents: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[1] != self.grid.count or v.shape[0] < 1:
            raise CurveError(
                f"sheet values have shape {v.shape}, expected (rows, {self.grid.count})"
            )
        if not np.all(np.isfinite(v)):
            raise CurveError("sheet values must be finite")
        if self.tangents is not None:
            t = np.asarray(self.tangents, dtype=complex)
            object.__setattr__(self, "tangents", t)
            if t.shape != v.shape:
                raise CurveError(
                    f"sheet tangents have shape {t.shape}, expected {v.shape}")
            if not np.all(np.isfinite(t)):
                raise CurveError("sheet tangents must be finite")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    def row_curve(self, n: int, m=1.0) -> PolarizedCurve:
        xp = None if self.tangents is None else self.tangents[n]
        return PolarizedCurve(self.grid, self.values[n], _as_m_array(m, self.grid),
                              xp_samples=xp)

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    @cached_property
    def row_derivatives(self) -> np.ndarray:
        """d/ds of every row: recorded tangents when available, else 4th-order
        finite differences of the values."""
        if self.tangents is not None:
            return self.tangents
        return fd_derivative(self.values, self.grid.h, axis=1)

