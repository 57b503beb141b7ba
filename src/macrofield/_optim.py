"""Batched projected gradient ascent over the closed Bloch ball, and the
multiset chart whose polynomials it maximizes.

One oracle maximizes a smooth function of one qubit state. The function is
given batched: a (B, 3) array of Bloch points to their values and Bloch
gradients. All starts move at once; they are deterministic, 6 axis poles
plus 26 low-discrepancy interior points.

The chart stores a permutation-invariant n-site qubit operator once per
multiset of Pauli labels. In the orthonormal Pauli product basis, sigma_a/
sqrt(2) on each site, such an operator gives the same coefficient to every
string with the same counts beta of I, X, Y and Z; it is stored once per
count vector, times sqrt(n!/beta!), the root of the number of such strings:
C(n+3, 3) coordinates, whose dot product is the Frobenius inner product.
The product power of the qubit state at Bloch point b has coordinates
sqrt(n!/beta!) u^beta with u = (1, b)/sqrt(2), so tr(C rho(b)^(x)n) is a
degree-n polynomial in b, which _correlate hands to the ascent batched.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .linalg import DimensionOverflow

N_STARTS = 32
# steps of the batched ascent; a start stops once its step is below the tolerance
VERTEX_ITERS = 5000
VERTEX_STEP_TOL = 1e-7
# site cap of the multiset chart; a fit of three atoms there takes about 0.35 s
# from the start and 1.5 s in the greedy rounds
MAX_CHART_SITES = 32


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


def project_ball(points: np.ndarray) -> np.ndarray:
    """The rows of a (B, 3) array, those outside the unit ball moved radially onto it."""
    return points / np.maximum(np.linalg.norm(points, axis=1, keepdims=True), 1.0)


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
        cand = project_ball(b + steps[live, None] * g / np.maximum(lengths, 1e-300))
        c_vals, c_grads = fn(cand)
        gain = c_vals > vals[live]
        moved = live[gain]
        blochs[moved], vals[moved], grads[moved] = cand[gain], c_vals[gain], c_grads[gain]
        steps[live] *= np.where(gain, 2.0, 0.5)
    best = int(np.argmax(vals))
    return blochs[best], float(vals[best])


class _Classes(NamedTuple):
    # (K, n) sorted site labels, 0..3 for I, X, Y, Z
    labels: np.ndarray
    # (K, 4) label counts beta
    beta: np.ndarray
    # (K,) sqrt(n! / beta!), the root of the number of strings in the class
    mult: np.ndarray
    # (K, 4) index of beta - e_a among the classes of n - 1 labels; 0 where beta_a = 0
    down: np.ndarray


@functools.cache
def _classes(n: int) -> _Classes:
    """The C(n+3, 3) multisets of n Pauli labels, in the order of
    combinations_with_replacement; n may not exceed MAX_CHART_SITES."""
    if n > MAX_CHART_SITES:
        raise DimensionOverflow(f"n = {n} exceeds the chart cap {MAX_CHART_SITES}")
    rows = list(combinations_with_replacement(range(4), n))
    labels = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    beta = np.stack([(labels == a).sum(axis=1) for a in range(4)], axis=1)
    mult = np.sqrt([float(math.factorial(n) // math.prod(map(math.factorial, b))) for b in beta])
    down = np.zeros((len(rows), 4), dtype=np.intp)
    if n:
        lower = {row: i for i, row in enumerate(combinations_with_replacement(range(4), n - 1))}
        for i, row in enumerate(rows):
            for a in set(row):
                j = row.index(a)
                down[i, a] = lower[row[:j] + row[j + 1 :]]
    for arr in (labels, beta, mult, down):
        arr.flags.writeable = False
    return _Classes(labels, beta, mult, down)


def _coords(arr: np.ndarray, n: int) -> np.ndarray:
    """The C(n+3, 3) coordinates of a permutation-invariant Hermitian n-site
    matrix A. One Pauli string per class is read, so the result means
    nothing for a matrix that is not permutation-invariant.

    tr(A P) = i^#Y sum_x A[x, x ^ flip] (-1)^popcount(x & signed), where
    X and Y flip a site's bit and Y and Z sign it; site 1 is the leading bit.
    """
    cls = _classes(n)
    site_bits = 1 << np.arange(n - 1, -1, -1)
    flip = np.isin(cls.labels, (1, 2)) @ site_bits
    signed = (cls.labels >= 2) @ site_bits
    x = np.arange(1 << n)
    # bitwise_count returns uint8, where 1 - 2 * parity would wrap
    parity = np.bitwise_count(x & signed[:, None]).astype(np.intp) & 1
    sums = (arr[x, x ^ flip[:, None]] * (1 - 2 * parity)).sum(axis=1)
    traces = np.array([1, 1j, -1, -1j])[cls.beta[:, 2] % 4] * sums
    return cls.mult * traces.real / 2.0 ** (n / 2)


def _powers(blochs: np.ndarray, n: int) -> np.ndarray:
    """One row per Bloch point b: the coordinates of rho(b)^(x)n, whose Pauli
    coefficient on a string with label counts beta is u^beta, u = (1, b)/sqrt(2)."""
    u = np.column_stack([np.ones(len(blochs)), blochs]) / math.sqrt(2.0)
    cls = _classes(n)
    # column-major, as np.prod of the gather returned: BLAS products round by layout
    out = np.ones((len(blochs), len(cls.mult)), order="F")
    for col in cls.labels.T:
        out *= u[:, col]
    return out * cls.mult


def _power_grads(blochs: np.ndarray, n: int) -> np.ndarray:
    """(B, 3, K) derivatives of _powers(blochs, n) along the Bloch axes.

    As sqrt(n!/beta!) beta_a = sqrt(n beta_a) sqrt((n-1)!/(beta - e_a)!), the
    u_a derivative of coordinate beta is sqrt(n beta_a) times coordinate
    beta - e_a of degree n - 1; u_a moves with b_(a-1) at rate 1/sqrt(2).
    """
    cls = _classes(n)
    return _powers(blochs, n - 1)[:, cls.down[:, 1:].T] * np.sqrt(n * cls.beta[:, 1:].T / 2.0)


def _correlate(c: np.ndarray, blochs: np.ndarray, n: int):
    """Values and Bloch gradients of f(b) = tr(C rho(b)^(x)n) for the rows b
    of a (B, 3) array, C permutation-invariant with coordinates c.

    f is a homogeneous polynomial of degree n in u = (1, b)/sqrt(2). Its u
    gradient is c scattered into a table over the coordinates of degree
    n - 1, as in _power_grads, and evaluated at all points by one matrix
    product. The value follows by Euler's identity f = u . grad_u f / n, and
    the Bloch gradient is the b part of grad_u f over sqrt(2).
    """
    cls = _classes(n)
    hit = cls.beta > 0
    table = np.zeros((math.comb(n + 2, 3), 4))
    table[cls.down[hit], np.nonzero(hit)[1]] = (c[:, None] * np.sqrt(n * cls.beta))[hit]
    grad_u = _powers(blochs, n - 1) @ table
    vals = (grad_u[:, 0] + (grad_u[:, 1:] * blochs).sum(axis=1)) / (n * math.sqrt(2.0))
    return vals, grad_u[:, 1:] / math.sqrt(2.0)
