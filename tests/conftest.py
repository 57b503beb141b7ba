"""Shared test helpers.

Oracles here are deliberately independent of the library internals: naive
Kronecker chains, explicit permutation matrices built by basis-index loops,
closed-form binomials via math.comb, in floats or exact rationals, a
scalar Nelder-Mead search over qubit states for the batched ball oracle, and
an event probability summed one bit assignment at a time.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from macrofield.stochastics import And, Leaf, Not, Or, involved_sites

# relative tolerance of spectral decompositions and of identities built on them
TOL_EIG = 1e-10

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def kron_chain(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def naive_embed(b: np.ndarray, k: int, n: int) -> np.ndarray:
    d = b.shape[0]
    mats = [np.eye(d, dtype=complex)] * n
    mats[k - 1] = b
    return kron_chain(*mats)


def naive_perm_matrix(d: int, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """U with U|i_1..i_n> = |j>, j having digit i_k at site perm[k-1].

    Built by an explicit loop over basis indices; independent of the axis
    transpose of permute_sites.
    """
    dim = d**n
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        digits = []
        rest = col
        for _ in range(n):
            digits.append(rest % d)
            rest //= d
        digits.reverse()  # digits[k-1] is the site-k digit, site 1 leftmost
        new_digits = [0] * n
        for k in range(1, n + 1):
            new_digits[perm[k - 1] - 1] = digits[k - 1]
        row = 0
        for g in new_digits:
            row = row * d + g
        u[row, col] = 1.0
    return u


def naive_symmetrize(a: np.ndarray, d: int, n: int) -> np.ndarray:
    out = np.zeros_like(a)
    for perm in itertools.permutations(range(1, n + 1)):
        u = naive_perm_matrix(d, n, perm)
        out += u @ a @ u.conj().T
    return out / math.factorial(n)


def spin_blocks_oracle(seed: np.ndarray, n: int) -> list[np.ndarray]:
    """The n-site average of a qubit seed of order 1 or 2 on the total-spin
    irreps J = n/2, n/2 - 1, ..., one (2J+1)-square block each, m = J..-J.

    Each one-site sum is written out as a tridiagonal matrix; an order-2
    seed is swap-averaged, split into operator-Schmidt terms L (x) M by an
    SVD, and summed over ordered pairs as S(L) S(M) - S(LM) with matrix
    products, over n(n - 1).
    """

    def one_site_sum(b: np.ndarray, two_j: int) -> np.ndarray:
        j = two_j / 2
        m = j - np.arange(two_j + 1)
        ladder = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1))
        return (np.diag(b[0, 0] * (n / 2 + m) + b[1, 1] * (n / 2 - m))
                + np.diag(b[0, 1] * ladder, 1) + np.diag(b[1, 0] * ladder, -1))

    two_js = range(n, -1, -2)
    if seed.shape == (2, 2):
        return [one_site_sum(seed, t) / n for t in two_js]
    swap = naive_perm_matrix(2, 2, (2, 1))
    sym = (seed + swap @ seed @ swap) / 2
    u, sig, vh = np.linalg.svd(sym.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4))
    terms = [(np.sqrt(s) * u[:, r].reshape(2, 2), np.sqrt(s) * vh[r].reshape(2, 2))
             for r, s in enumerate(sig) if s > 1e-14 * max(1.0, sig[0])]
    blocks = []
    for t in two_js:
        acc = np.zeros((t + 1, t + 1), dtype=complex)
        for left, right in terms:
            acc += one_site_sum(left, t) @ one_site_sum(right, t) - one_site_sum(left @ right, t)
        blocks.append(acc / (n * (n - 1)))
    return blocks


def rand_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def haar_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _uniform_ball(count: int, seed: int) -> np.ndarray:
    """count seeded points drawn uniformly from the unit ball."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(size=(count, 1)) ** (1 / 3)


# starts of the Nelder-Mead oracle, drawn apart from the library's own starts
NELDER_MEAD_STARTS = _uniform_ball(32, seed=20260)


def nelder_mead_sup(fn) -> float:
    """Max of fn(rho) over qubit density matrices rho: one Nelder-Mead run
    from each of NELDER_MEAD_STARTS, points outside the ball projected
    radially onto it."""

    def rho(p: np.ndarray) -> np.ndarray:
        x, y, z = p / max(1.0, float(np.linalg.norm(p)))
        return 0.5 * (I2 + x * SX + y * SY + z * SZ)

    best, converged = -math.inf, 0
    for x0 in NELDER_MEAD_STARTS:
        res = minimize(
            lambda p: -fn(rho(p)),
            x0,
            method="Nelder-Mead",
            options=dict(xatol=1e-8, fatol=1e-12, maxiter=2000, maxfev=4000),
        )
        converged += bool(res.success)
        best = max(best, -float(res.fun))
    assert converged, "no Nelder-Mead start converged"
    return best


def _holds(expr, assignment: dict[int, int]) -> bool:
    if isinstance(expr, Leaf):
        return all(assignment[k] == bit for k, bit in expr.event.constraints)
    if isinstance(expr, Not):
        return not _holds(expr.inner, assignment)
    if isinstance(expr, And):
        return _holds(expr.left, assignment) and _holds(expr.right, assignment)
    if isinstance(expr, Or):
        return _holds(expr.left, assignment) or _holds(expr.right, assignment)
    raise TypeError(f"not a boolean expression node: {expr!r}")


def naive_event_probability(p: float, expr) -> float:
    """Bernoulli(p) probability of a boolean expression: every bit assignment
    of its involved sites is tried in turn, and the weight of each one that
    satisfies the expression is multiplied out bit by bit and added."""
    sites = involved_sites(expr)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(sites)):
        if _holds(expr, dict(zip(sites, bits))):
            weight = 1.0
            for b in bits:
                weight *= p if b else 1.0 - p
            total += weight
    return total


def binom_window_mass(n: int, p: float, eps: float) -> float:
    """Closed-form mass of {k : |k/n - p| <= eps} under Binomial(n, p)."""
    total = 0.0
    for k in range(n + 1):
        if abs(k / n - p) <= eps + 1e-12:
            total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


def exact_binom_window_mass(n: int, p: Fraction, eps: Fraction) -> float:
    """The same mass in exact rationals, for n where p**k underflows."""
    a, b = p.numerator, p.denominator
    total = sum(
        math.comb(n, k) * a**k * (b - a) ** (n - k)
        for k in range(n + 1)
        if abs(Fraction(k, n) - p) <= eps
    )
    return float(Fraction(total, b**n))


def src_env() -> dict:
    """The environment with the source tree first on PYTHONPATH, so that a
    subprocess imports this checkout's package without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


# ru_maxrss survives exec, so an interpreter started from the test process
# would report that process's peak; the body runs in a child forked from this
# small one
_FORK = """
import os, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def run_forked(body: str) -> dict:
    """Run a script body in a fresh interpreter's forked child, so that its
    ru_maxrss is the body's own peak, and return the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", _FORK + body],
        capture_output=True,
        text=True,
        timeout=600,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_raises_before_allocating(exc, fn, *args) -> None:
    """fn(*args) raises exc at once, with at most 64 KiB traced at the peak.

    numpy reports its array buffers to tracemalloc, so an array of the
    refused size, or a sweep run up to it, would show here.
    """
    started = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(exc):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 16, f"{peak} bytes traced before {exc.__name__}"
    assert time.perf_counter() - started < 1.0
