"""Isoperimetric motions of discrete plane curves, integrated in angle form.

The state is the edge angles psi_n (x_{n+1} - x_n = a_n e^{i psi_n}) and the
vertex x_0, evolved by the semi-discrete potential mKdV equation

    psi_n' = -(2/a_n) sin w_n,    x_0' = e^{i(psi_0 + w_0)}

(Inoguchi, Kajiwara, Matsuura & Ohta, Kyushu J. Math. 66, 2012), with the
deformation angles from w_{n0} = w0(s) and w_{k+1} = -w_k - (psi_{k+1} - psi_k).
The a_n never change, so every edge length is conserved exactly.  Vertex n
moves at unit speed along theta_n = psi_n + w_n, and theta_{n+1} = psi_n - w_n,
so theta_n + theta_{n+1} = 2 psi_n: the velocities at the two ends of an edge
are mirror images across it, and the recorded potential satisfies
(theta_{n+1}+theta_n)'/2 = (2/a_n) sin((theta_{n+1}-theta_n)/2).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from math import sin

import numpy as np

from .errors import BlowupError, CurveError, NonRegularError
from .geometry import (EPS_REG, DiscretePolarizedCurve, SGrid, Sheet, _on_stages, _polygon,
                       fd_derivative)

#: Largest per-step angle change the recorder accepts before declaring the
#: step size too coarse to track branches.
MAX_ANGLE_JUMP = 0.5 * math.pi


@dataclass(frozen=True, eq=False)
class MotionResult:
    """Sheet of vertex trajectories plus the recorded angles theta_n(s_i)."""

    sheet: Sheet
    theta: np.ndarray

    @cached_property
    def base(self) -> DiscretePolarizedCurve:
        """The start polygon with its arc-length polarization mu_n = 1/a_n^2:
        the base of the Darboux flow the motion is equivalent to."""
        return DiscretePolarizedCurve.arclength(self.sheet.values[:, 0])


def integrate_motion(vertices, w0, n0: int, grid: SGrid) -> MotionResult:
    """RK4-step the edge angles and x_0 of a polygon under the isoperimetric
    motion, then build the vertices by one cumulative sum of the edges.

    ``w0`` is a constant, samples on the RK4 stage abscissas
    ``grid.refined_values()`` (where the Riccati solve takes m), or a
    function of s, called once with that whole array, so it must accept
    one.  Every stage walks theta outward from theta_{n0} = psi_{n0} + w0
    by theta_n + theta_{n+1} = 2 psi_n, which is the w-recursion.  The step
    runs over Python floats one edge at a time through all four stages, as
    stage j of an edge needs only stage j of the edges nearer n0, with
    Kahan-compensated updates.  A vertex that is not finite raises
    CurveError naming it, consecutive ones that coincide
    CoincidentPointsError, and a w0 that is not finite CurveError at the
    first such s (at s0 if its call divides by zero or overflows); edges
    folding back on each other at a grid node raise NonRegularError, and
    an angle jump of MAX_ANGLE_JUMP in one step BlowupError.
    """
    v0 = _polygon(vertices)
    if len(v0) < 2:
        raise CurveError("a motion needs at least two vertices")
    if not 0 <= n0 < len(v0) - 1:
        raise CurveError(f"seed edge {n0} outside 0..{len(v0) - 2}")
    edges = np.diff(v0)
    a = np.abs(edges)
    w = _on_stages(w0, grid, "w0")

    # The state runs in walk order, edges n0..E-1 then n0-1..0.  Walking
    # towards vertex 0, w_n = psi_n - theta_{n+1}, so those rates flip sign.
    E = len(edges)
    order = np.r_[n0:E, n0 - 1:-1:-1]
    # Turning angles; an edge quotient that overflows is taken over the unit edges.
    with np.errstate(over="ignore"):
        turns = edges[1:] / edges[:-1]
    far = ~np.isfinite(turns)
    turns[far] = (edges[1:] / a[1:])[far] / (edges[:-1] / a[:-1])[far]
    psi = np.angle(edges[0]) + np.r_[0.0, np.cumsum(np.angle(turns))]
    coef = -2.0 / a[order]
    coef[E - n0:] *= -1.0
    coef, y, comp = coef.tolist(), psi[order].tolist(), [0.0] * E
    x, xcomp = complex(v0[0]), 0j
    rows, xs = [y], [x]
    h = np.diff(grid.values())
    for wa, wb, wc, step, half, sixth in zip(
            w[0::2].tolist(), w[1::2].tolist(), w[2::2].tolist(),
            h.tolist(), (0.5 * h).tolist(), (h / 6.0).tolist()):
        # theta_{n0} at each stage, from the seed edge's stages as computed below
        p, c = y[0], coef[0]
        t1 = p + wa
        p2 = p + half * (c * sin(t1 - p))
        t2 = p2 + wb
        p3 = p + half * (c * sin(t2 - p2))
        t3 = p3 + wb
        seeds = t1, t2, t3, p + step * (c * sin(t3 - p3)) + wc
        new, carry = [], []
        for part in (slice(0, E - n0), slice(E - n0, E)):
            t1, t2, t3, t4 = seeds
            for c, p, e in zip(coef[part], y[part], comp[part]):
                d = t1 - p
                q1 = c * sin(d)
                t1 = p - d
                p2 = p + half * q1
                d = t2 - p2
                q2 = c * sin(d)
                t2 = p2 - d
                p3 = p + half * q2
                d = t3 - p3
                q3 = c * sin(d)
                t3 = p3 - d
                p4 = p + step * q3
                d = t4 - p4
                q4 = c * sin(d)
                t4 = p4 - d
                d = sixth * (q1 + 2.0 * (q2 + q3) + q4) - e
                t = p + d
                carry.append((t - p) - d)
                new.append(t)
        # t1..t4 end at theta_0 of each stage, the direction x_0 moves in.
        y, comp = new, carry
        d = sixth * (cmath.exp(1j * t1) + 2.0 * (cmath.exp(1j * t2) + cmath.exp(1j * t3))
                     + cmath.exp(1j * t4)) - xcomp
        t = x + d
        xcomp = (t - x) - d
        x = t
        rows.append(y)
        xs.append(x)

    psi = np.empty((E, grid.count))
    psi[order] = np.array(rows).T
    x0 = np.array(xs)
    finite = np.isfinite(psi).all(axis=0) & np.isfinite(x0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise BlowupError(f"integration blew up at grid index {i}", index=i,
                          s=grid.s0 + i * grid.h)
    # Adjacent edges must not be anti-parallel; collinear ones are fine.
    bad = (math.pi - np.abs(np.diff(psi, axis=0)) <= EPS_REG).T
    if bad.any():
        n = int(np.unravel_index(np.argmax(bad), bad.shape)[-1]) + 1
        raise NonRegularError(
            f"vertex {n} is not regular (adjacent edges anti-parallel)", vertex=n)
    theta = np.empty((E + 1, grid.count))
    theta[n0] = psi[n0] + w[0::2]
    for k in range(n0, E):
        theta[k + 1] = psi[k] - (theta[k] - psi[k])
    for k in range(n0 - 1, -1, -1):
        theta[k] = psi[k] - (theta[k + 1] - psi[k])
    jumps = np.abs(np.diff(theta, axis=1)).max(axis=0)
    bad = np.flatnonzero(jumps >= MAX_ANGLE_JUMP)
    if bad.size:
        i = int(bad[0]) + 1
        raise BlowupError(
            f"angle jump {jumps[i - 1]:.3f} at grid index {i}: step too coarse to "
            f"track branches", index=i, s=grid.s0 + i * grid.h)
    values = np.empty(theta.shape, dtype=complex)
    values[0] = x0
    with np.errstate(over="ignore"):  # Sheet refuses a vertex the sum overflows
        values[1:] = x0 + np.cumsum(a[:, None] * np.exp(1j * psi), axis=0)
    return MotionResult(sheet=Sheet(grid, values, tangents=np.exp(1j * theta)), theta=theta)


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


def mkdv_residual(motion: MotionResult) -> float:
    """Max residual of the semi-discrete potential mKdV equation.

    |d/ds[(theta_{n+1}+theta_n)/2] - (2/a_n) sin((theta_{n+1}-theta_n)/2)| over
    every edge and interior grid node (central-stencil region), with the s
    derivative taken by 4th-order finite differences and a_n the edge
    lengths of ``motion.base``.
    """
    theta, a = motion.theta, np.abs(np.diff(motion.base.vertices))[:, None]
    lhs = fd_derivative(0.5 * (theta[1:] + theta[:-1]), motion.sheet.grid.h)
    rhs = (2.0 / a) * np.sin(0.5 * (theta[1:] - theta[:-1]))
    return float(np.abs(lhs - rhs)[:, 2:-2].max(initial=0.0))


def frame_compatibility_check(motion: MotionResult) -> float:
    """Max residual of the frame compatibility law L_n' = L_n M_{n+1} - M_n L_n.

    L_n = R(kappa_{n+1}) and M_n = (2 sin w_n / a_n) [[0, 1], [-1, 0]] are built
    at every node from the recorded angles and the edge lengths a_n of
    ``motion.base``; L is finite-differenced in s.  The defect is vacuously 0
    without an interior vertex.  The scalar law psi_n' + (2/a_n) sin w_n = 0
    is ``mkdv_residual``.
    """
    theta, a = motion.theta, np.abs(np.diff(motion.base.vertices))[:, None]
    psi = 0.5 * (theta[1:] + theta[:-1])
    w = -0.5 * (theta[1:] - theta[:-1])
    if len(psi) < 2:
        return 0.0
    h = motion.sheet.grid.h
    alpha = 2.0 * np.sin(w) / a
    kappa = psi[1:] - psi[:-1]
    c, s = np.cos(kappa), np.sin(kappa)
    diff = alpha[1:] - alpha[:-1]
    e1 = fd_derivative(c, h) - diff * s
    e2 = fd_derivative(s, h) + diff * c
    return float(np.maximum(np.abs(e1).max(), np.abs(e2).max()))
