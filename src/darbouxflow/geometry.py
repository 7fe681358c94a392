"""Plane-curve geometry: grids, polarized curves, discrete curves and sheets.

Points of the plane are complex numbers (re, im) = x + iy, so rotations are
unit-modulus multiplications and the tangential cross ratio is a ratio of
complex products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    CoincidentPointsError,
    CurveError,
    GridTooShortError,
    SingularTangentError,
)
from .ode import _interleave

#: Regularity constant; every near-zero guard funnels through it.
EPS_REG = 1e-9


def dot(a, b):
    """Euclidean inner product of plane points written as complex numbers."""
    return (np.conj(a) * b).real


@dataclass(frozen=True)
class SGrid:
    """Uniform parameter grid s_i = s0 + i*h, i = 0..count-1, ending at s1."""

    s0: float
    h: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise CurveError(f"grid step must be a finite positive real, got {self.h!r}")
        if not isinstance(self.count, (int, np.integer)) or self.count < 1:
            raise CurveError(f"grid needs a whole count of at least one node, got {self.count}")
        if (2 * int(self.count) - 1) * 16 > np.iinfo(np.intp).max:
            # numpy could not size the complex RK4 stage arrays
            raise CurveError("grid node count is too large to allocate")
        if not (math.isfinite(self.s0) and math.isfinite(self.s1)):
            raise CurveError("grid endpoints must be finite")

    @property
    def s1(self) -> float:
        """The last node, s0 + (count-1)*h."""
        return self.s0 + (self.count - 1) * self.h

    @classmethod
    def from_step(cls, s0: float, s1: float, h: float) -> "SGrid":
        """Grid from endpoints and step; the node count is rounded to fit, so
        the grid's own s1 is s0 + (count-1)*h and the step stays exact."""
        if not (math.isfinite(s0) and math.isfinite(s1)):
            raise CurveError("grid endpoints must be finite")
        if not (math.isfinite(h) and h > 0):
            raise CurveError(f"grid step must be a finite positive real, got {h!r}")
        if s1 < s0:
            raise CurveError(f"grid endpoints reversed: {s0!r} > {s1!r}")
        ratio = (s1 - s0) / h
        if not math.isfinite(ratio):
            raise CurveError(f"grid node count overflows: (s1 - s0)/h = {ratio!r}")
        return cls(s0, h, int(round(ratio)) + 1)

    def values(self) -> np.ndarray:
        return self.s0 + self.h * np.arange(self.count)

    def refined_values(self) -> np.ndarray:
        """The RK4 stage abscissas, nodes plus midpoints: s0 + k*(h/2),
        k = 0..2*count-2, in the ``ode._interleave`` layout."""
        return self.s0 + 0.5 * self.h * np.arange(2 * self.count - 1)


# 4th-order one-sided stencil rows (units of 1/(12h)) for the first two and
# last two nodes; the interior uses the symmetric 5-point stencil.
_FD_EDGE_HEAD = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])
_FD_EDGE_TAIL = np.array([[-1.0, 6.0, -18.0, 10.0, 3.0], [3.0, -16.0, 36.0, -48.0, 25.0]])


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order finite-difference d/ds along the last axis of uniformly sampled data.

    Central 5-point stencil inside, one-sided 4th-order stencils on the two
    boundary bands; exact for polynomials of degree <= 4.
    """
    v = np.asarray(values)
    n = v.shape[-1]
    if n < 5:
        raise GridTooShortError(f"need at least 5 nodes for the 4th-order stencil, got {n}")
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    out[..., 2:-2] = v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]
    out[..., 0:2] = v[..., 0:5] @ _FD_EDGE_HEAD.T
    out[..., -2:] = v[..., -5:] @ _FD_EDGE_TAIL.T
    out /= 12.0 * h
    return out


@cache
def _lagrange_weights(window: int, t: float) -> np.ndarray:
    """Interpolation weights at position t (node units) over nodes 0..window-1;
    computed once per (window, t) and shared read-only."""
    w = np.array([math.prod((t - k) / (j - k) for k in range(window) if k != j)
                  for j in range(window)])
    w.flags.writeable = False
    return w


@cache
def _lagrange_deriv_weights(window: int, t: float) -> np.ndarray:
    """Derivative weights (units of node spacing) at t over nodes 0..window-1;
    computed once per (window, t) and shared read-only."""
    w = np.empty(window)
    for j in range(window):
        total = 0.0
        for i in range(window):
            if i != j:
                total += math.prod(t - k for k in range(window) if k != j and k != i)
        w[j] = total / math.prod(j - k for k in range(window) if k != j)
    w.flags.writeable = False
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
    inner = np.lib.stride_tricks.sliding_window_view(samples, window)
    mids[2 : n - 3] = inner @ weights(window, 2.5)
    for i in (0, 1):
        mids[i] = weights(window, i + 0.5) @ samples[:window]
    for i in (n - 3, n - 2):
        mids[i] = weights(window, i + 0.5 - (n - window)) @ samples[-window:]
    return mids


def _at_stage(grid: SGrid, step: int = 1):
    """The ``where`` of RK4 stage k (``step`` 1) or node k (``step`` 2): ``s = <s>``."""
    return lambda k: f"s = {float(grid.s0 + 0.5 * grid.h * (step * k))!r}"


def _finite_at(values: np.ndarray, name: str, where, shape=None, note="") -> np.ndarray:
    """``values`` if it has ``shape`` (when given) and is finite throughout, else a
    CurveError naming the shape or ``<name> is not finite at <where(*index)>``
    of the first entry that is not; ``where`` runs only to word a refusal."""
    if shape is not None and values.shape != shape:
        raise CurveError(f"{name} samples have shape {values.shape}, expected {shape}{note}")
    finite = np.isfinite(values)
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), values.shape)
        raise CurveError(f"{name} is not finite at {where(*index)}")
    return values


def _one_signed(values: np.ndarray, where) -> np.ndarray:
    """Finite polarization ``values`` if none vanishes and all share one sign, else
    a CurveError naming ``where(k)`` of the first that vanishes or differs in sign."""
    if values.size and not (values.min() > 0.0 or values.max() < 0.0):
        k = int(np.argmax(np.sign(values) * np.sign(values[0]) <= 0.0))
        what = "vanishes" if values[k] == 0.0 else "changes sign"
        raise CurveError(f"polarization {what} at {where(k)}")
    return values


def _regular(xp: np.ndarray, where):
    """SingularTangentError unless every tangent in ``xp`` is longer than
    EPS_REG, naming |x'| and ``where(k)`` of the shortest."""
    speeds = np.abs(xp)
    if speeds.min() <= EPS_REG:
        k = int(np.argmin(speeds))
        raise SingularTangentError(f"curve is not regular: |x'| = {speeds[k]:.3e} at {where(k)}")


def _on_stages(f, grid: SGrid, name: str, dtype=float) -> np.ndarray:
    """``f`` on the RK4 stage abscissas ``grid.refined_values()``: a constant,
    a callable, called once with the whole array, or samples there.  A value
    that is not finite is a CurveError ``<name> is not finite at s = <s>``
    naming the first such stage; a call that divides by zero or overflows
    fails at every stage, so at s0."""
    s = grid.refined_values()
    if callable(f):
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                f = f(s)
        except (ZeroDivisionError, OverflowError):
            f = math.nan
    values = np.asarray(f, dtype=dtype)
    values = np.full(len(s), values) if values.ndim == 0 else values
    return _finite_at(values, name, _at_stage(grid), s.shape, " on the refined grid")


def _resolve_m(m, grid: SGrid) -> np.ndarray:
    """The polarization on ``grid.refined_values()`` (see ``_on_stages``), refused
    at the first stage s, node or midpoint, where it vanishes or changes sign
    (the Riccati coefficient mu/m would be infinite or flip sign mid-step)."""
    return _one_signed(_on_stages(m, grid, "polarization"), _at_stage(grid))


def _polygon(vertices) -> np.ndarray:
    """``vertices`` as a nonempty 1-D complex array of finite plane points,
    consecutive ones more than EPS_REG and less than a float's range apart."""
    v = np.asarray(vertices, dtype=complex)
    if v.ndim != 1 or len(v) < 1:
        raise CurveError("vertices must be a nonempty 1-D sequence of plane points")
    _finite_at(v, "x", lambda n: f"vertex {n}")
    with np.errstate(over="ignore"):
        gaps = _finite_at(np.abs(np.diff(v)), "edge length", lambda n: f"edge ({n}, {n + 1})")
    if len(gaps) and gaps.min() <= EPS_REG:
        n = int(np.argmin(gaps))
        raise CoincidentPointsError(f"consecutive vertices {n} and {n + 1} coincide")
    return v


@dataclass(frozen=True, eq=False)
class PolarizedCurve:
    """Smooth plane curve x(s) with polarization ds^2/m, sampled on a grid.

    ``m`` is a constant, a callable, which is called once with the refined
    grid (``grid.refined_values()``: the nodes and the RK4 midpoints), or
    samples on that refined grid; node-length samples are refused.  Every
    value must be finite, nonzero and of one sign, midpoints included;
    afterwards ``m`` holds the node samples.  ``derivatives`` holds x' at
    every node: the tangents a construction supplies (an analytic
    generator, or a transform's pair equation), else 4th-order finite
    differences of the points, taken once by the constructor, which refuses
    a curve of fewer than 5 nodes without given tangents.  Points and
    tangents must be finite and |x'| > EPS_REG (else SingularTangentError);
    each refusal names the first s where its rule fails.

    The Riccati stages need x, x' and m on the refined grid.  Curves from
    ``from_generator`` keep the exact x and x' there, checked finite at
    every stage as m is; for other curves they are interpolated from the
    nodes with local Lagrange windows.
    """

    grid: SGrid
    points: np.ndarray
    m: object
    derivatives: np.ndarray | None = None

    # Exact refined-grid x and x', or None where _stage_data interpolates.
    _refined_x = None

    def __post_init__(self):
        grid = self.grid
        at_node = _at_stage(grid, 2)
        pts = _finite_at(np.asarray(self.points, dtype=complex), "x", at_node, (grid.count,))
        object.__setattr__(self, "points", pts)
        refined = _resolve_m(self.m, grid)
        object.__setattr__(self, "_refined_m", refined)
        object.__setattr__(self, "m", refined[::2])
        xp = self.derivatives
        if xp is None:  # differences that overflow leave a tangent refused below
            with np.errstate(over="ignore", invalid="ignore"):
                xp = fd_derivative(pts, grid.h)
        xp = _finite_at(np.asarray(xp, dtype=complex), "x'", at_node, pts.shape)
        object.__setattr__(self, "derivatives", xp)
        _regular(xp, at_node)

    @classmethod
    def from_generator(cls, grid: SGrid, x, xp, m=1.0):
        """Curve from x(s) and x'(s), each called once with the refined grid."""
        xs = _on_stages(x, grid, "x", complex)
        xps = _on_stages(xp, grid, "x'", complex)
        curve = cls(grid, xs[::2], m, xps[::2])
        object.__setattr__(curve, "_refined_x", (xs, xps))
        return curve

    @classmethod
    def from_samples(cls, grid: SGrid, points, m=1.0):
        """Curve from node samples; x and x' reach the midpoints by interpolation."""
        return cls(grid, points, m)

    @cached_property
    def _stage_data(self):
        """(x, x', m) on the refined grid (nodes + midpoints), for Riccati
        stepping."""
        if self._refined_x is not None:
            xs, xps = self._refined_x
        else:
            xs = _interleave(self.points, _midpoint_interp(self.points))
            xps = _interleave(
                self.derivatives, _midpoint_interp(self.points, derivative=True) / self.grid.h
            )
        return xs, xps, self._refined_m

    def arclength_deviation(self) -> float:
        """max_i |1/m(s_i) - |x'(s_i)|^2| — zero iff arc-length polarized, inf if |x'|^2 overflows."""
        with np.errstate(over="ignore"):
            return float(np.abs(1.0 / self.m - np.abs(self.derivatives) ** 2).max())


def _circle(grid: SGrid, radius: float = 1.0, m=1.0) -> PolarizedCurve:
    """The circle radius e^{is} with its exact tangent."""
    return PolarizedCurve.from_generator(
        grid, lambda s: radius * np.exp(1j * s), lambda s: 1j * radius * np.exp(1j * s), m)


def _line(grid: SGrid, m=1.0) -> PolarizedCurve:
    """The unit-speed line x(s) = s with its exact tangent."""
    return PolarizedCurve.from_generator(
        grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), m)


@dataclass(frozen=True, eq=False)
class DiscretePolarizedCurve:
    """Discrete plane curve: vertices x_n with one polarization weight mu per edge.

    Vertices and mu must be finite and mu nonvanishing and of one sign; a
    refusal names the first vertex or edge (n, n+1) that fails."""

    vertices: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        v = _polygon(self.vertices)
        object.__setattr__(self, "vertices", v)
        mu = np.asarray(self.mu, dtype=float)
        mu = np.full(len(v) - 1, mu) if mu.ndim == 0 else mu
        edge = lambda n: f"edge ({n}, {n + 1})"
        object.__setattr__(self, "mu", _one_signed(_finite_at(mu, "mu", edge, (len(v) - 1,)), edge))

    @classmethod
    def arclength(cls, vertices) -> "DiscretePolarizedCurve":
        """The polygon with its arc-length polarization mu_n = 1/a_n^2,
        a_n = |x_{n+1} - x_n|."""
        v = _polygon(vertices)
        # An edge too long to square reads mu = 0, which is refused by name.
        with np.errstate(over="ignore"):
            return cls(v, 1.0 / np.abs(np.diff(v)) ** 2)


def ngon_vertices(n: int, radius: float = 1.0) -> np.ndarray:
    """Closed regular n-gon on the circle of the given radius: n+1 vertices,
    the last repeating the first so all n edges are present."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise CurveError(f"an ngon needs a whole number of sides, at least 3, got {n}")
    if not radius > 0:
        raise CurveError(f"ngon radius must be positive, got {radius!r}")
    k = np.arange(n + 1)
    return radius * np.exp(2j * math.pi * k / n)


@dataclass(frozen=True, eq=False)
class Sheet:
    """Family x_n(s_i): one row per discrete index n, one column per grid node.

    ``tangents`` holds d/ds of every row when the builder knows them exactly
    (flows and motions do); sheets rebuilt from bare samples leave it None.
    Both must be finite; a refusal names the first row and s that is not.
    """

    grid: SGrid
    values: np.ndarray
    tangents: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[1] != self.grid.count or v.shape[0] < 1:
            raise CurveError(f"sheet values have shape {v.shape}, "
                             f"expected (rows, {self.grid.count})")
        at_node = _at_stage(self.grid, 2)
        where = lambda n, i: f"row {n}, {at_node(i)}"
        _finite_at(v, "x", where)
        if self.tangents is not None:
            t = _finite_at(np.asarray(self.tangents, dtype=complex), "x'", where, v.shape)
            object.__setattr__(self, "tangents", t)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @cached_property
    def row_derivatives(self) -> np.ndarray:
        """d/ds of every row: recorded tangents when available, else 4th-order
        finite differences of the values."""
        if self.tangents is not None:
            return self.tangents
        return fd_derivative(self.values, self.grid.h)

