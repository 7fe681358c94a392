"""Fixed-step classic Runge-Kutta integration on shared parameter grids.

The state may be a complex scalar or any numpy array (curves move a whole
vertex vector at once); the right-hand side is evaluated at the grid nodes and
midpoints only, so deterministic refined-grid lookups stay exact.
"""
from __future__ import annotations

import cmath

import numpy as np

from .errors import BlowupError


def _all_finite(y) -> bool:
    return np.isfinite(y).all()


def rk4_path(s_values, rhs, y0):
    """Classic RK4 along an ordered sequence of s values (either direction).

    ``rhs(s, y)`` receives s as a Python float, at the nodes and midpoints of
    ``s_values``.  The state update uses compensated (Kahan) summation so that
    round-off from thousands of tiny increments does not swamp the O(h^4)
    truncation error.  Returns the states at every entry of ``s_values``;
    raises BlowupError (carrying the index reached) as soon as a state goes
    non-finite.
    """
    s_list = np.asarray(s_values, dtype=float).tolist()
    finite = cmath.isfinite if np.ndim(y0) == 0 else _all_finite
    y = y0
    comp = 0.0 * y0
    out = [y0]
    # Riccati right-hand sides have movable poles; overflow in a stage just
    # means the solution left the grid's window, which the finite check below
    # turns into a BlowupError.  Silence the intermediate warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = s_list[0]
        for i, s_next in enumerate(s_list[1:], 1):
            h = s_next - s
            half = 0.5 * h
            s_mid = s + half
            k1 = rhs(s, y)
            k2 = rhs(s_mid, y + half * k1)
            k3 = rhs(s_mid, y + half * k2)
            k4 = rhs(s + h, y + h * k3)
            d = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4) - comp
            t = y + d
            comp = (t - y) - d
            y = t
            if not finite(y):
                raise BlowupError(f"integration blew up at grid index {i}", index=i)
            out.append(y)
            s = s_next
    return np.asarray(out)
