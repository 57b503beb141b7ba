"""Multi-start Nelder-Mead for generic objectives of one qubit state.

The search runs over the closed Bloch ball (3 coordinates, radial projection
onto the ball). Starts are deterministic: 6 axis poles plus 26
low-discrepancy interior points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from .linalg import MacrofieldError
from .states import _bloch_entries


class OptimizerFailed(MacrofieldError):
    pass


XATOL = 1e-8          # simplex diameter at convergence
FATOL = 1e-12
MAXITER = 2000        # Nelder-Mead iterations per start, twice that in evaluations
N_STARTS = 32


def ball_starts() -> np.ndarray:
    """The 32 deterministic Bloch-ball start points."""
    pts = [
        (1.0, 0, 0), (-1.0, 0, 0),
        (0, 1.0, 0), (0, -1.0, 0),
        (0, 0, 1.0), (0, 0, -1.0),
    ]
    golden = math.pi * (3.0 - math.sqrt(5.0))
    count = N_STARTS - len(pts)
    for i in range(count):
        t = (i + 0.5) / count
        z = 1.0 - 2.0 * t
        r_xy = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        radius = t ** (1.0 / 3.0)
        pts.append((radius * r_xy * math.cos(phi), radius * r_xy * math.sin(phi), radius * z))
    return np.array(pts, dtype=float)


def project_ball(v: np.ndarray) -> np.ndarray:
    r = float(np.linalg.norm(v))
    return v / r if r > 1.0 else v


def rho_from_ball(v: np.ndarray) -> np.ndarray:
    return _bloch_entries(*project_ball(v))


def maximize_over_states(fn):
    """Maximize fn(rho_entries) over qubit states by multi-start Nelder-Mead
    to XATOL and FATOL.

    Returns (best value, best rho entries).  Raises OptimizerFailed when no
    start converges; the reported value is the max over all starts.
    """
    best_val = -math.inf
    best_rho = None
    converged = 0
    for x0 in ball_starts():
        res = minimize(
            lambda p: -fn(rho_from_ball(p)),
            x0,
            method="Nelder-Mead",
            options=dict(xatol=XATOL, fatol=FATOL, maxiter=MAXITER, maxfev=2 * MAXITER),
        )
        if res.success:
            converged += 1
        val = -float(res.fun)
        if val > best_val:
            best_val = val
            best_rho = rho_from_ball(res.x)
    if converged == 0:
        raise OptimizerFailed("no Nelder-Mead start converged")
    return best_val, best_rho
