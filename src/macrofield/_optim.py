"""Batched projected gradient ascent over the closed Bloch ball.

One oracle maximizes a smooth function of one qubit state. The function is
given batched: a (B, 3) array of Bloch points to their values and Bloch
gradients. All starts move at once; they are deterministic, 6 axis poles
plus 26 low-discrepancy interior points.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import MacrofieldError


class OptimizerFailed(MacrofieldError):
    pass


N_STARTS = 32
# steps of the batched ascent; a start stops once its step is below the tolerance
VERTEX_ITERS = 500
VERTEX_STEP_TOL = 1e-7


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


def maximize_on_ball(fn) -> tuple[np.ndarray, float]:
    """The best Bloch point for fn and its value, where fn maps a (B, 3)
    array of points to (values, (B, 3) gradients).

    Projected gradient ascent from all of ball_starts() at once. Each start
    moves by its own step along its normalized gradient, less its outward
    part on the sphere, which would stall it there. The step doubles when
    the move gains and halves when not, down to VERTEX_STEP_TOL.
    """
    blochs = ball_starts()
    vals, grads = fn(blochs)
    # a quarter of the ball's radius
    steps = np.full(len(blochs), 0.25)
    for _ in range(VERTEX_ITERS):
        live = np.flatnonzero(steps >= VERTEX_STEP_TOL)
        if not live.size:
            break
        b, g = blochs[live], grads[live]
        outward = np.maximum((b * g).sum(axis=1, keepdims=True), 0.0)
        g = g - outward * b * (np.linalg.norm(b, axis=1, keepdims=True) >= 1.0 - 1e-12)
        lengths = np.linalg.norm(g, axis=1, keepdims=True)
        cand = b + steps[live, None] * g / np.maximum(lengths, 1e-300)
        cand /= np.maximum(np.linalg.norm(cand, axis=1, keepdims=True), 1.0)
        c_vals, c_grads = fn(cand)
        gain = c_vals > vals[live]
        moved = live[gain]
        blochs[moved], vals[moved], grads[moved] = cand[gain], c_vals[gain], c_grads[gain]
        steps[live] *= np.where(gain, 2.0, 0.5)
    best = int(np.argmax(vals))
    return blochs[best], float(vals[best])
