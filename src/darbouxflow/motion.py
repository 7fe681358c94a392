"""Isoperimetric motions of discrete plane curves: x_n' = e^{i(psi_n + w_n)}.

The deformation angles w obey w_{n+1} + kappa_{n+1} = -w_n, which makes every
edge length a_n a conserved quantity; the recorded potential theta (the
tangential angle of each vertex trajectory) then satisfies the semi-discrete
potential mKdV equation (theta_{n+1}+theta_n)'/2 = (2/a_n) sin((theta_{n+1}-theta_n)/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowupError, CoincidentPointsError, CurveError, NonRegularError
from .geometry import EPS_REG, DiscretePolarizedCurve, SGrid, Sheet, cross, fd_derivative
from .ode import rk4_path

#: Largest per-step angle change the recorder accepts before declaring the
#: step size too coarse to track branches.
MAX_ANGLE_JUMP = 0.5 * math.pi


def _angles(vertices: np.ndarray, w0, n0: int, eps_reg: float) -> np.ndarray:
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
    short = a <= eps_reg
    if short.any():
        row = a[np.unravel_index(np.argmax(short), a.shape)[:-1]]
        n = int(np.argmin(row))
        raise CoincidentPointsError(f"edge ({n}, {n + 1}) has length {row.min():.3e}")
    t = edges / a
    # A stack holds every grid node at once: free what is no longer needed.
    del edges, a
    turn = np.angle(t[..., 1:] / t[..., :-1])
    # Turning bound |kappa| < pi: adjacent edges must not be anti-parallel.
    bad = math.pi - np.abs(turn) <= eps_reg
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


def integrate_motion(curve0, w0, n0: int, grid: SGrid,
                     eps_reg: float = EPS_REG) -> MotionResult:
    """RK4-step all vertices of ``curve0`` under the isoperimetric motion.

    ``w0`` may be a constant or a function of s; the w-recursion is re-run from
    (w0(s), n0) against the current turning angles at every RK4 stage, so the
    constraint holds exactly rather than drifting. Recorded theta rows are
    unwrapped along s by nearest-branch selection.
    """
    if isinstance(curve0, DiscretePolarizedCurve):
        curve0 = curve0.vertices
    v0 = np.asarray(curve0, dtype=complex)
    if v0.ndim != 1 or len(v0) < 2:
        raise CurveError("a motion needs a 1-D sequence of at least two vertices")
    if not 0 <= n0 < len(v0) - 1:
        raise CurveError(f"seed edge {n0} outside 0..{len(v0) - 2}")
    w_fn = w0 if callable(w0) else (lambda s: w0)

    def rhs(s, x):
        return np.exp(1j * _angles(x, w_fn(s), n0, eps_reg))

    svals = grid.values()
    states = rk4_path(svals, rhs, v0)
    # w0 is evaluated node by node, as the stages see it: evaluating a callable
    # on the whole array at once can round differently.
    theta = _angles(states, np.array([w_fn(s) for s in svals], dtype=float), n0, eps_reg)
    for i in range(1, grid.count):
        theta[i] += 2.0 * math.pi * np.round((theta[i - 1] - theta[i]) / (2.0 * math.pi))
        jump = np.abs(theta[i] - theta[i - 1]).max()
        if jump >= MAX_ANGLE_JUMP:
            raise BlowupError(
                f"angle jump {jump:.3f} at grid index {i}: step too coarse to "
                f"track branches", index=i)
    th = theta.T.copy()
    return MotionResult(sheet=Sheet(grid, states.T.copy(), tangents=np.exp(1j * th)),
                        theta=th)


def tangential_angles(sheet: Sheet, reference: np.ndarray | None = None) -> np.ndarray:
    """theta_n(s_i) recovered from a sheet alone: the argument of each row's
    derivative, unwrapped along s.

    Each row carries a free 2*pi offset.  Without ``reference`` the offsets are
    chained so consecutive rows differ by less than pi at the first node, which
    is ambiguous when the true jump is pi or larger (e.g. velocity reversals
    between neighbouring vertices).  Passing a ``reference`` theta array (same
    shape, or one value per row) pins each row's branch to the one nearest the
    reference instead.
    """
    th = np.unwrap(np.angle(sheet.row_derivatives), axis=1)
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        anchors = ref[:, 0] if ref.ndim == 2 else ref
        if anchors.shape[0] != sheet.rows:
            raise CurveError("reference must provide one angle per sheet row")
        for n in range(sheet.rows):
            th[n] += 2.0 * math.pi * round((anchors[n] - th[n, 0]) / (2.0 * math.pi))
    else:
        for n in range(1, sheet.rows):
            th[n] += 2.0 * math.pi * round((th[n - 1, 0] - th[n, 0]) / (2.0 * math.pi))
    return th


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


def frame_compatibility_check(result: MotionResult):
    """Residuals of the frame compatibility law L_n' = L_n M_{n+1} - M_n L_n.

    L_n = R(kappa_{n+1}) and M_n = (2 sin w_n / a_n) [[0, 1], [-1, 0]] are built
    at every node from the recorded angles; L is finite-differenced in s.
    Returns (matrix_defect, scalar_defect) where the scalar part checks
    psi_n' + (2/a_n) sin w_n = 0; the matrix part is vacuously 0 without an
    interior vertex.
    """
    psi, w, a = result.psi, result.w, result.a
    h = result.sheet.grid.h
    alpha = 2.0 * np.sin(w) / a
    scalar = float(np.abs(fd_derivative(psi, h, axis=1) + alpha).max())
    if len(psi) < 2:
        return 0.0, scalar
    kappa = psi[1:] - psi[:-1]
    c, s = np.cos(kappa), np.sin(kappa)
    diff = alpha[1:] - alpha[:-1]
    e1 = fd_derivative(c, h, axis=1) - diff * s
    e2 = fd_derivative(s, h, axis=1) + diff * c
    matrix = float(max(np.abs(e1).max(), np.abs(e2).max()))
    return matrix, scalar


def smooth_curvature(sheet: Sheet) -> np.ndarray:
    """Curvature k_n(s_i) of each row, from x'' = i k x' (finite differences)."""
    xp = sheet.row_derivatives
    xpp = fd_derivative(xp, sheet.grid.h, axis=1)
    return cross(xp, xpp) / np.abs(xp) ** 3
