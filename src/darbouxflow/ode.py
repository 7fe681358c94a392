"""Fixed-step classic Runge-Kutta integration on shared parameter grids.

The RK4 stages of a step from node i to node i+1 sit at the two nodes and
the step midpoint.  ``_interleave`` lays node and midpoint data out in that
stage order (node i at 2i, the midpoint at 2i+1); ``SGrid.refined_values``
is the one source of the stage abscissas in that layout.  ``rk4_path`` is
the generic driver: the state may be a scalar or any numpy array, and
right-hand sides are addressed by stage index, so tabulated coefficients
need no s arithmetic.  The package's solvers write their steps out inline
and do not come through here.  The tests hold ``darboux.riccati_solve``,
whose coefficient table rounds differently, to this map run in long double.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowupError


def _interleave(nodes: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Node and step-midpoint data in RK4 stage order: node i at 2i, midpoint at 2i+1."""
    out = np.empty(2 * len(nodes) - 1, dtype=np.result_type(nodes.dtype, mids.dtype))
    out[0::2] = nodes
    out[1::2] = mids
    return out


def rk4_path(s_values, rhs, y0):
    """Classic RK4 along an ordered sequence of s values (either direction).

    ``rhs(k, y)`` gets the stage index k along ``s_values`` as given: step i
    calls it at k = 2i, 2i+1, 2i+1, 2i+2 (the ``_interleave`` layout), and
    s only sets the step h.  Compensated (Kahan) summation of the updates
    keeps round-off from swamping the O(h^4) truncation error.  Returns the states
    at every entry of ``s_values``; raises BlowupError (carrying the index
    reached) as soon as a state goes non-finite.
    """
    s_list = np.asarray(s_values, dtype=float).tolist()
    y = y0
    comp = 0.0 * y0
    out = [y0]
    # Riccati right-hand sides have movable poles; overflow in a stage just
    # means the solution left the grid's window, which the finite check below
    # turns into a BlowupError.  Silence the intermediate warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, j = s_list[0], 0
        for i, s_next in enumerate(s_list[1:], 1):
            h = s_next - s
            half = 0.5 * h
            k1 = rhs(j, y)
            k2 = rhs(j + 1, y + half * k1)
            k3 = rhs(j + 1, y + half * k2)
            j += 2
            k4 = rhs(j, y + h * k3)
            d = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4) - comp
            t = y + d
            comp = (t - y) - d
            y = t
            if not np.isfinite(y).all():
                raise BlowupError(f"integration blew up at grid index {i}", index=i)
            out.append(y)
            s = s_next
    return np.asarray(out)
