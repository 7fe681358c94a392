"""Isoperimetric motions of discrete plane curves: x_n' = e^{i(psi_n + w_n)}.

The deformation angles w obey w_{n+1} + kappa_{n+1} = -w_n, which makes every
edge length a_n a conserved quantity; the recorded potential theta (the
tangential angle of each vertex trajectory) then satisfies the semi-discrete
potential mKdV equation (theta_{n+1}+theta_n)'/2 = (2/a_n) sin((theta_{n+1}-theta_n)/2).

With t_n = e^{i psi_n} the unit tangent of edge n and psi_{n+1} = psi_n + kappa_{n+1}:

    theta_n     = psi_n + w_n
    theta_{n+1} = psi_{n+1} + w_{n+1} = psi_n - w_n
    v_{n+1}     = e^{i theta_{n+1}} = t_n^2 conj(v_n)

so the velocities at the two ends of an edge are mirror images across it, and
Re(conj(t_n) (v_{n+1} - v_n)) = 0 keeps its length fixed.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub, truediv

import numpy as np

from .errors import BlowupError, CoincidentPointsError, CurveError, NonRegularError
from .geometry import EPS_REG, SGrid, Sheet, fd_derivative
from .ode import rk4_path, stage_abscissas

#: Largest per-step angle change the recorder accepts before declaring the
#: step size too coarse to track branches.
MAX_ANGLE_JUMP = 0.5 * math.pi


def _angles(vertices: np.ndarray, w0, n0: int) -> np.ndarray:
    """Velocity angles theta_n of a polygon (shape (V,)) or of a stack of them
    (shape (N, V), with ``w0`` a scalar or one value per polygon).

    theta_n = psi_n + w_n, where psi_n are the unwrapped edge angles, kappa_n
    the turning angles (psi_{n+1} = psi_n + kappa_n), and the deformation
    angles follow the isoperimetric recursion w_{n+1} = -w_n - kappa_n seeded
    with w_{n0} = w0 and run outward in both directions.  The final vertex,
    which has no outgoing edge, gets theta = psi - w of the last edge: that is
    where the recursion would continue, and it keeps the last edge length
    conserved.

    Raises CoincidentPointsError at a vanishing edge and NonRegularError at a
    vertex whose adjacent edges fold back on each other (turning angle at
    +-pi), in the first polygon of the stack that has one.  A zero turning
    angle is fine: the recursion stays well defined, and several motions pass
    through collinear configurations.
    """
    edges = np.diff(vertices, axis=-1)
    a = np.abs(edges)
    short = a <= EPS_REG
    if short.any():
        row = a[np.unravel_index(np.argmax(short), a.shape)[:-1]]
        n = int(np.argmin(row))
        raise CoincidentPointsError(f"edge ({n}, {n + 1}) has length {row.min():.3e}")
    t = edges / a
    # A stack holds every grid node at once: free what is no longer needed.
    del edges, a
    turn = np.angle(t[..., 1:] / t[..., :-1])
    # Turning bound |kappa| < pi: adjacent edges must not be anti-parallel.
    bad = math.pi - np.abs(turn) <= EPS_REG
    if bad.any():
        n = int(np.unravel_index(np.argmax(bad), bad.shape)[-1]) + 1
        raise NonRegularError(
            f"vertex {n} is not regular (adjacent edges anti-parallel)", vertex=n)
    psi = np.empty(t.shape)
    psi[..., 0] = np.angle(t[..., 0])
    psi[..., 1:] = psi[..., :1] + np.cumsum(turn, axis=-1)
    # The recursion runs one vertex column at a time with the stack as the
    # trailing axis; a closed-form alternating sum would round differently.
    kappa = turn.T
    w = np.empty(psi.T.shape)
    w[n0] = w0
    for k in range(n0, len(w) - 1):
        w[k + 1] = -w[k] - kappa[k]
    for k in range(n0, 0, -1):
        w[k - 1] = -w[k] - kappa[k - 1]
    w = w.T
    theta = np.empty(vertices.shape)
    theta[..., :-1] = psi + w
    theta[..., -1] = psi[..., -1] - w[..., -1]
    return theta


def _velocities(x: np.ndarray, w0: float, n0: int) -> np.ndarray:
    """``np.exp(1j * _angles(x, w0, n0))`` for one polygon, by edge reflection
    in Python ``complex`` arithmetic: one ``cmath.exp`` per call.

    v_{n0} = t_{n0} e^{i w0}, and v_{k+1} = t_k^2 conj(v_k) (or v_k = t_k^2
    conj(v_{k+1})) walks outward from n0 in both directions.  Same guards and
    messages as ``_angles``; the two agree to round-off.
    """
    v = x.tolist()
    edges = list(map(sub, v[1:], v))
    a = list(map(abs, edges))
    shortest = min(a)
    if shortest <= EPS_REG:
        n = a.index(shortest)
        raise CoincidentPointsError(f"edge ({n}, {n + 1}) has length {shortest:.3e}")
    t = list(map(truediv, edges, a))
    # |t_n + t_{n-1}| = 2 cos(kappa/2) <= pi - |kappa|, so only a polygon
    # with a vertex under this screen can fail the turning bound.
    if min(map(abs, map(add, t[1:], t)), default=math.inf) <= 2.0 * EPS_REG:
        for n in range(1, len(t)):
            if math.pi - abs(cmath.phase(t[n] / t[n - 1])) <= EPS_REG:
                raise NonRegularError(
                    f"vertex {n} is not regular (adjacent edges anti-parallel)", vertex=n)
    ahead = behind = t[n0] * cmath.exp(1j * w0)
    vel = [ahead]
    for tk in t[n0:]:
        ahead = tk * tk * ahead.conjugate()
        vel.append(ahead)
    for tk in t[n0 - 1::-1] if n0 else ():
        behind = tk * tk * behind.conjugate()
        vel.insert(0, behind)
    return np.array(vel, dtype=complex)


@dataclass(frozen=True, eq=False)
class MotionResult:
    """Sheet of vertex trajectories plus the recorded angles theta_n(s_i)."""

    sheet: Sheet
    theta: np.ndarray

    @property
    def psi(self) -> np.ndarray:
        return 0.5 * (self.theta[1:] + self.theta[:-1])

    @property
    def w(self) -> np.ndarray:
        return -0.5 * (self.theta[1:] - self.theta[:-1])

    @cached_property
    def a(self) -> np.ndarray:
        """Edge lengths a_n(s_i); conserved along s up to solver error."""
        return np.abs(np.diff(self.sheet.values, axis=0))


def integrate_motion(vertices, w0, n0: int, grid: SGrid) -> MotionResult:
    """RK4-step all ``vertices`` of a polygon under the isoperimetric motion.

    ``w0`` may be a constant or a function of s, called once per stage
    abscissa (``stage_abscissas``); the w-recursion is re-run from (w0, n0)
    against the current turning angles at every RK4 stage, so the constraint
    holds exactly rather than drifting. Recorded theta rows are unwrapped
    along s by nearest-branch selection.  A w0 that is not finite, or whose
    call divides by zero or overflows, raises CurveError at the first such s.
    """
    v0 = np.asarray(vertices, dtype=complex)
    if v0.ndim != 1 or len(v0) < 2:
        raise CurveError("a motion needs a 1-D sequence of at least two vertices")
    if not 0 <= n0 < len(v0) - 1:
        raise CurveError(f"seed edge {n0} outside 0..{len(v0) - 2}")
    svals = grid.values()
    stages = stage_abscissas(svals).tolist()
    if callable(w0):
        # Scalar calls, as a callable applied to a whole array can round differently.
        w = []
        try:
            for s in stages:
                w.append(w0(s))
        except (ZeroDivisionError, OverflowError):
            w.append(math.nan)
    else:
        w = [w0]
    bad = np.flatnonzero(~np.isfinite(np.array(w, dtype=float)))
    if bad.size:
        raise CurveError(f"w0 is not finite at s = {stages[bad[0]]!r}")
    if not callable(w0):
        w *= len(stages)

    def rhs(k, x):
        return _velocities(x, w[k], n0)

    states = rk4_path(svals, rhs, v0)
    theta = _angles(states, np.array(w[::2], dtype=float), n0)
    # Row i moves by the row i-1 shift plus its own nearest-branch step.
    turns = np.round((theta[:-1] - theta[1:]) / (2.0 * math.pi))
    theta[1:] += 2.0 * math.pi * np.cumsum(turns, axis=0)
    jumps = np.abs(np.diff(theta, axis=0)).max(axis=1)
    bad = np.flatnonzero(jumps >= MAX_ANGLE_JUMP)
    if bad.size:
        i = int(bad[0]) + 1
        raise BlowupError(
            f"angle jump {jumps[i - 1]:.3f} at grid index {i}: step too coarse to "
            f"track branches", index=i)
    th = theta.T.copy()
    return MotionResult(sheet=Sheet(grid, states.T.copy(), tangents=np.exp(1j * th)),
                        theta=th)


def tangential_angles(sheet: Sheet, reference: np.ndarray) -> np.ndarray:
    """theta_n(s_i) recovered from a sheet alone: the argument of each row's
    derivative, unwrapped along s.

    Each row carries a free 2*pi offset, which is pinned to the branch nearest
    the ``reference`` theta array (of the sheet's shape) at the first node.
    """
    th = np.unwrap(np.angle(sheet.row_derivatives), axis=1)
    ref = np.asarray(reference, dtype=float)
    if ref.shape != th.shape:
        raise CurveError(f"reference must have the sheet's shape {th.shape}, got {ref.shape}")
    return th + 2.0 * math.pi * np.round((ref[:, :1] - th[:, :1]) / (2.0 * math.pi))


def mkdv_residual(theta: np.ndarray, a, grid: SGrid) -> float:
    """Max residual of the semi-discrete potential mKdV equation.

    |d/ds[(theta_{n+1}+theta_n)/2] - (2/a_n) sin((theta_{n+1}-theta_n)/2)| over
    every edge and interior grid node (central-stencil region), with the s
    derivative taken by 4th-order finite differences.
    """
    theta = np.asarray(theta, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim == 1:
        a_arr = a_arr[:, None]
    if np.any(a_arr <= 0):
        raise CurveError("edge lengths must be positive")
    lhs = fd_derivative(0.5 * (theta[1:] + theta[:-1]), grid.h, axis=1)
    rhs = (2.0 / a_arr) * np.sin(0.5 * (theta[1:] - theta[:-1]))
    res = np.abs(lhs - rhs)
    inner = res[:, 2:-2] if grid.count >= 5 else res
    return float(inner.max()) if inner.size else 0.0


def frame_compatibility_check(result: MotionResult) -> float:
    """Max residual of the frame compatibility law L_n' = L_n M_{n+1} - M_n L_n.

    L_n = R(kappa_{n+1}) and M_n = (2 sin w_n / a_n) [[0, 1], [-1, 0]] are built
    at every node from the recorded angles; L is finite-differenced in s.  The
    defect is vacuously 0 without an interior vertex.  The scalar law
    psi_n' + (2/a_n) sin w_n = 0 is ``mkdv_residual``.
    """
    psi, w, a = result.psi, result.w, result.a
    if len(psi) < 2:
        return 0.0
    h = result.sheet.grid.h
    alpha = 2.0 * np.sin(w) / a
    kappa = psi[1:] - psi[:-1]
    c, s = np.cos(kappa), np.sin(kappa)
    diff = alpha[1:] - alpha[:-1]
    e1 = fd_derivative(c, h, axis=1) - diff * s
    e2 = fd_derivative(s, h, axis=1) + diff * c
    return float(np.maximum(np.abs(e1).max(), np.abs(e2).max()))
