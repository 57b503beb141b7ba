"""Multi-start Nelder-Mead for generic objectives of one-site states, d <= 4.

d = 2 runs over the closed Bloch ball (3 coordinates, radial projection onto
the ball); d = 3, 4 run over purification coordinates W with rho = WW*/tr(WW*).
Starts are deterministic: 6 axis poles plus 26 low-discrepancy interior points
for the ball, fixed-seed Gaussian matrices for purifications.
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


def rho_from_purification(params: np.ndarray, d: int) -> np.ndarray:
    w = params[: d * d].reshape(d, d) + 1j * params[d * d :].reshape(d, d)
    g = w @ w.conj().T
    tr = float(g.trace().real)
    if tr <= 0.0:
        return np.eye(d, dtype=np.complex128) / d
    return g / tr


def _purification_starts(d: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(0xA11CE))
    return rng.standard_normal((N_STARTS, 2 * d * d))


def maximize_over_states(fn, d: int):
    """Maximize fn(rho_entries) over one-site states, d <= 4, by multi-start
    Nelder-Mead to XATOL and FATOL.

    Returns (best value, best rho entries).  Raises OptimizerFailed when no
    start converges; the reported value is the max over all starts.
    """
    if d == 2:
        starts = ball_starts()
        chart = rho_from_ball
    elif d in (3, 4):
        starts = _purification_starts(d)
        chart = lambda p: rho_from_purification(p, d)  # noqa: E731
    else:
        raise OptimizerFailed(f"no state chart for d={d} (need d <= 4)")

    best_val = -math.inf
    best_rho = None
    converged = 0
    for x0 in starts:
        res = minimize(
            lambda p: -fn(chart(p)),
            x0,
            method="Nelder-Mead",
            options=dict(xatol=XATOL, fatol=FATOL, maxiter=MAXITER, maxfev=2 * MAXITER),
        )
        if res.success:
            converged += 1
        val = -float(res.fun)
        if val > best_val:
            best_val = val
            best_rho = chart(res.x)
    if converged == 0:
        raise OptimizerFailed("no Nelder-Mead start converged")
    return best_val, best_rho
