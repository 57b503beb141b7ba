"""Finite-atom decompositions of permutation-invariant qubit states.

fit_mixture works in one representation: the real coefficients of an
operator in the orthonormal Pauli product basis, sigma_a/sqrt(2) on each
site, where the Frobenius inner product is the Euclidean dot product. The
target is converted once; the product power of the qubit state at Bloch
point b is the Kronecker power of (1, b)/sqrt(2), and atoms are Bloch
points until the result is built.

The fit is a conditional-gradient loop: each step adds the product power
best correlated with the current residual, found by projected gradient
ascent of that degree-n polynomial in b from 32 starts at once, re-solves
the weights on the probability simplex, refines all atoms jointly by least
squares, and merges atoms that collide. Low-weight atoms are retried
without at the end; among numerically exact fits the one with fewer atoms
wins.
field_of_states_check verifies that mixture expectations of symmetric
sections do not move with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from ._optim import ball_starts, project_ball
from .linalg import PAULI, MacrofieldError, SiteSpace, SpaceMismatch, kron_power
from .sections import BadOrder, SymmetricSection
from .states import (
    DensityMatrix,
    NSiteState,
    _bloch_entries,
    a_infinity,
    expect,
    is_permutation_invariant,
    trace_distance,
)

__all__ = [
    "MERGE_DELTA",
    "NotSymmetric",
    "DiscreteMixture",
    "FitResult",
    "mixture_state",
    "fit_mixture",
    "field_of_states_check",
]

# atoms closer than this in trace distance are considered one atom
MERGE_DELTA = 1e-2
# a round ends the fit if it gains less than this or leaves a residual below this
IMPROVEMENT_TOL = 1e-9
# projected-gradient steps of the simplex weight solve
WEIGHT_ITERS = 500
# steps of the batched vertex search; a start stops once its step is below the tolerance
VERTEX_ITERS = 500
VERTEX_STEP_TOL = 1e-7


class NotSymmetric(MacrofieldError):
    pass


@dataclass(frozen=True)
class DiscreteMixture:
    """Weighted atoms (w_i, rho_i), weights on the open simplex, atoms
    pairwise at least MERGE_DELTA apart in trace distance."""

    atoms: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("mixture needs at least one atom")
        object.__setattr__(self, "atoms", tuple((float(w), rho) for w, rho in self.atoms))
        ds = {rho.d for _, rho in self.atoms}
        if len(ds) != 1:
            raise SpaceMismatch(f"atoms live on different local dimensions: {sorted(ds)}")
        if not all(math.isfinite(w) and w > 0.0 for w, _ in self.atoms):
            raise ValueError("atom weights must be positive and finite")
        total = sum(w for w, _ in self.atoms)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total!r}, not 1")
        for i in range(len(self.atoms)):
            for j in range(i + 1, len(self.atoms)):
                dist = trace_distance(self.atoms[i][1], self.atoms[j][1])
                if dist < MERGE_DELTA:
                    raise ValueError(
                        f"atoms {i} and {j} are {dist:.2e} apart, below {MERGE_DELTA}"
                    )

    @property
    def d(self) -> int:
        return self.atoms[0][1].d


@dataclass(frozen=True)
class FitResult:
    mixture: DiscreteMixture
    residual: float
    iterations: int
    budget_exhausted: bool
    history: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.residual < 0.0:
            raise ValueError("residual must be nonnegative")
        for a, b in zip(self.history, self.history[1:]):
            if b > a + 1e-15:
                raise ValueError("recorded residuals must be nonincreasing")


# one-site basis I/2, X/2, Y/2, Z/2; rho = [1, x, y, z] against this basis
_HALF_BASIS = 0.5 * np.stack([PAULI[k].entries for k in "IXYZ"])
# column alpha holds h_alpha[j, i] at flat row index i*2 + j
_MOMENT_MAT = np.stack([_HALF_BASIS[a].T.reshape(4) for a in range(4)], axis=1)


def _pauli_tensor(arr: np.ndarray, n: int) -> np.ndarray:
    """Real tensor c with tr(arr . rho_1 x ... x rho_n) = c contracted with
    the per-site moment vectors (1, x_k, y_k, z_k). Hermitian input only."""
    cur = arr.reshape((2,) * (2 * n))
    order = []
    for k in range(n):
        order += [k, k + n]
    cur = cur.transpose(order).reshape((4,) * n)
    for _ in range(n):
        cur = np.tensordot(cur, _MOMENT_MAT, axes=([0], [0]))
    return np.ascontiguousarray(cur.real)


def mixture_state(mix: DiscreteMixture, n: int) -> NSiteState:
    """The n-site state sum_i w_i rho_i^(x)n; permutation-invariant by
    construction, so validation is skipped."""
    if n < 1:
        raise SpaceMismatch(f"need n >= 1, got {n}")
    space = SiteSpace(mix.d, n)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for w, rho in mix.atoms:
        out += w * kron_power(rho.entries, n)
    return NSiteState(space, out, is_symmetric=True, validate=False)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    holds = np.nonzero(u * idx > css - 1.0)[0]
    r = holds[-1] + 1
    theta = (css[r - 1] - 1.0) / r
    return np.maximum(v - theta, 0.0)


# d u / d b for u = (1, b)/sqrt(2): row c is the basis vector e_(1+c)/sqrt(2)
_DU = np.eye(4)[1:] / math.sqrt(2.0)


def _coords(arr: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of a Hermitian n-site matrix in the orthonormal Pauli
    product basis; tr(AB) is the dot product of the coefficients."""
    return 2.0 ** (n / 2) * _pauli_tensor(arr, n).ravel()


def _powers(blochs: np.ndarray, n: int) -> np.ndarray:
    """One row per Bloch point b: the coefficients of rho(b)^(x)n, formed for
    all rows at once by kron_power's chain of products of (1, b)/sqrt(2)."""
    u = np.column_stack([np.ones(len(blochs)), blochs]) / math.sqrt(2.0)
    rows = np.ones((len(u), 1))
    for _ in range(n):
        rows = (rows[:, :, None] * u[:, None, :]).reshape(len(u), -1)
    return rows


def _correlate(c: np.ndarray, blochs: np.ndarray, n: int):
    """Values and Bloch gradients of tr(C rho(b)^(x)n) for the rows b of a
    (B, 3) array, C permutation-invariant with coefficients c.

    All slots but the first are contracted with u = (1, b)/sqrt(2), the
    trailing half by one matrix product whose output is no larger than c.
    The first slot stands for any of the n, so the gradient is n times the
    b part of what is left, over sqrt(2).
    """
    half = n // 2
    part = c.reshape(-1, 4**half) @ _powers(blochs, half).T
    part = np.einsum("ijb,bj->ib", part.reshape(4, -1, len(blochs)), _powers(blochs, n - half - 1))
    u = _powers(blochs, 1)
    return (part * u.T).sum(axis=0), n * part[1:].T / math.sqrt(2.0)


def _best_vertex(c: np.ndarray, n: int) -> np.ndarray:
    """The Bloch point whose product power correlates best with c.

    Projected gradient ascent from all of ball_starts() at once. Each start
    moves by its own step along its normalized gradient, less its outward
    part on the sphere, which would stall it there. The step doubles when
    the move gains and halves when not, down to VERTEX_STEP_TOL.
    """
    blochs = ball_starts()
    vals, grads = _correlate(c, blochs, n)
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
        c_vals, c_grads = _correlate(c, cand, n)
        gain = c_vals > vals[live]
        moved = live[gain]
        blochs[moved], vals[moved], grads[moved] = cand[gain], c_vals[gain], c_grads[gain]
        steps[live] *= np.where(gain, 2.0, 0.5)
    return blochs[np.argmax(vals)]


def _solve_weights(t: np.ndarray, powers: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """min ||t - w @ powers|| over the simplex by projected gradient, from
    the projection of w0 onto the simplex."""
    k = len(powers)
    if k == 1:
        return np.array([1.0])
    g_mat = powers @ powers.T
    c_vec = powers @ t

    def cost(w: np.ndarray) -> float:
        return float(w @ g_mat @ w - 2.0 * c_vec @ w)

    w = _project_simplex(np.asarray(w0, dtype=float))
    # 1 / Lipschitz constant of the gradient
    step = 0.5 / max(float(np.linalg.eigvalsh(g_mat)[-1]), 1e-30)
    fw = cost(w)
    for _ in range(WEIGHT_ITERS):
        grad = 2.0 * (g_mat @ w - c_vec)
        s = step
        w_new, f_new = w, fw
        for _ in range(30):
            cand = _project_simplex(w - s * grad)
            f_cand = cost(cand)
            if f_cand <= fw:
                w_new, f_new = cand, f_cand
                break
            s *= 0.5
        if f_new >= fw - 1e-18 and np.abs(w_new - w).max() < 1e-14:
            w, fw = w_new, f_new
            break
        w, fw = w_new, f_new
    return w


def _merge_atoms(blochs: np.ndarray, weights: np.ndarray):
    """Collapse pairs closer than MERGE_DELTA into their weighted average;
    the trace distance of two qubit states is half their Bloch distance."""
    blochs = np.array(blochs, dtype=float)
    weights = np.array(weights, dtype=float)
    while len(blochs) > 1:
        gap = 0.5 * np.linalg.norm(blochs[:, None] - blochs[None, :], axis=-1)
        close = np.argwhere(np.triu(gap < MERGE_DELTA, 1))
        if not close.size:
            break
        i, j = close[0]
        tot = weights[i] + weights[j]
        pair_w = weights[[i, j]] / tot if tot > 0.0 else np.full(2, 0.5)
        blochs = np.vstack([np.delete(blochs, (i, j), axis=0), pair_w @ blochs[[i, j]]])
        weights = np.append(np.delete(weights, (i, j)), tot)
    return blochs, weights


def _refine(t: np.ndarray, n: int, blochs: np.ndarray, weights: np.ndarray):
    """Joint least-squares refinement of atoms and weights.

    Minimizes ||t - sum_i x_i u_i^(x)n|| with u_i = (1, b_i)/sqrt(2) over the
    weights x and the Bloch points b together: the Frobenius residual that
    the weight solve minimizes over x alone. Parameters run unconstrained
    inside the solver. The atoms are projected back to the Bloch ball; the
    raw weights only start the caller's simplex solve, and the caller
    recomputes the residual before accepting anything.
    """
    k = len(blochs)
    x0 = np.concatenate([np.asarray(weights, dtype=float), np.ravel(blochs)])

    def _fun(x: np.ndarray) -> np.ndarray:
        return x[:k] @ _powers(x[k:].reshape(k, 3), n) - t

    def _jac(x: np.ndarray) -> np.ndarray:
        jac = np.empty((t.size, 4 * k))
        for i, b in enumerate(x[k:].reshape(k, 3)):
            u = np.append(1.0, b) / math.sqrt(2.0)
            jac[:, i] = kron_power(u, n)
            # product rule: d u^(x)n / d b puts d u / d b in each site slot in turn
            rest = kron_power(u, n - 1)
            slots = (rest.reshape(1, 4**s, 1, -1) * _DU[:, None, :, None] for s in range(n))
            jac[:, k + 3 * i : k + 3 * i + 3] = x[i] * sum(g.reshape(3, -1) for g in slots).T
        return jac

    # MINPACK's lm needs at least as many residuals as parameters
    method = "lm" if t.size >= 4 * k else "trf"
    res = least_squares(
        _fun,
        x0,
        jac=_jac,
        method=method,
        ftol=1e-14,
        xtol=1e-14,
        gtol=1e-14,
        max_nfev=120 * k,
    )
    return np.array([project_ball(b) for b in res.x[k:].reshape(k, 3)]), res.x[:k]


def _settle(t: np.ndarray, n: int, blochs: np.ndarray, w0: np.ndarray):
    """Simplex weights of the atoms and the residual coefficients they leave."""
    powers = _powers(blochs, n)
    w = _solve_weights(t, powers, w0)
    return w, t - w @ powers


def _round(t: np.ndarray, n: int, blochs: np.ndarray, w0: np.ndarray):
    """One fit round on the given atoms: solve the weights, refine all atoms
    jointly when affordable and keep the refinement only if it is not
    worse, then merge colliding atoms and re-solve. Returns the atoms, the
    weights and the residual coefficients."""
    w, r = _settle(t, n, blochs, w0)
    # the refinement jacobian holds 4^n * 4k reals; cap the footprint
    if len(blochs) <= 8 and t.size * 4 * len(blochs) <= (1 << 23):
        r_blochs, r_w = _refine(t, n, blochs, w)
        r_w, r_r = _settle(t, n, r_blochs, r_w)
        if np.linalg.norm(r_r) <= np.linalg.norm(r):
            blochs, w, r = r_blochs, r_w, r_r
    merged, w = _merge_atoms(blochs, w)
    if len(merged) < len(blochs):
        w, r = _settle(t, n, merged, w)
    return merged, w, r


def fit_mixture(target: NSiteState, k_max: int) -> FitResult:
    """Conditional-gradient fit of a permutation-invariant qubit state by a
    small mixture of product powers.

    Each round adds the state whose product power correlates best with the
    current residual (batched projected gradient ascent over the Bloch
    ball), re-solves the weights, refines all atoms jointly by least
    squares, and merges colliding atoms. The first round is kept even when
    zero lies closer to the target; a later one that fails to improve is
    discarded, so recorded residuals never increase. A final prune pass
    retries the fit without each low-weight atom and keeps any retry that
    loses no ground.
    The residual is the Frobenius distance between the target and the fit.
    """
    if target.space.d != 2:
        raise SpaceMismatch(f"fit supports qubit sites only, got d={target.space.d}")
    if k_max < 1:
        raise ValueError(f"atom budget must be >= 1, got {k_max}")
    if not is_permutation_invariant(target):
        raise NotSymmetric("target state is not permutation-invariant")

    n = target.space.n
    t = _coords(np.asarray(target.rho), n)
    atoms = np.zeros((0, 3))
    weights = np.zeros(0)
    r = t
    history: list[float] = []
    prev = math.inf
    ran_out = True
    for _ in range(k_max):
        grown = np.vstack([atoms, _best_vertex(r, n)])
        cand, cand_w, cand_r = _round(t, n, grown, np.append(weights, 0.0))
        resid = float(np.linalg.norm(cand_r))
        if len(atoms) and resid >= prev:
            # the round cannot improve; stop with the accepted state
            ran_out = False
            break
        atoms, weights, r = cand, cand_w, cand_r
        history.append(resid)
        improvement = prev - resid
        prev = resid
        if improvement < IMPROVEMENT_TOL or resid < IMPROVEMENT_TOL:
            ran_out = False
            break
    iterations = len(history)

    # a dead atom cannot affect the state; drop it before pruning
    live = weights > 1e-12
    if len(atoms) > 1 and live.any() and not live.all():
        atoms = atoms[live]
        weights, r = _settle(t, n, atoms, weights[live])
        prev = min(prev, float(np.linalg.norm(r)))

    # prune: a spurious atom left by the greedy rounds distorts the weights,
    # so retry without each atom, lightest first, and keep any retry that
    # loses no ground; the floor treats numerically exact fits as ties, and
    # the history cap keeps the recorded residuals nonincreasing
    while len(atoms) > 1:
        floor = min(max(prev, 1e-9), history[-1])
        for idx in np.argsort(weights):
            a2, w2, r2 = _round(t, n, np.delete(atoms, idx, axis=0), np.delete(weights, idx))
            if np.linalg.norm(r2) <= floor:
                atoms, weights, prev = a2, w2, float(np.linalg.norm(r2))
                break
        else:
            break

    weights = weights / weights.sum()
    final = min(float(np.linalg.norm(t - weights @ _powers(atoms, n))), prev)
    history.append(final)
    # exhausted means stopped by the budget while still making progress
    budget_exhausted = ran_out and final > IMPROVEMENT_TOL

    # an exactly zero weight can survive the simplex solve; dropping it
    # leaves the mixture and the residual untouched
    live = weights > 0.0
    atoms, weights = atoms[live], weights[live] / weights[live].sum()

    order = np.argsort(-weights)
    pairs = tuple((float(weights[i]), DensityMatrix(2, _bloch_entries(*atoms[i]))) for i in order)
    return FitResult(DiscreteMixture(pairs), final, iterations, budget_exhausted, tuple(history))


def field_of_states_check(
    mix: DiscreteMixture, section: SymmetricSection, n_list
) -> list[tuple[int, float, float]]:
    """Per n: (n, mixture expectation of the materialized section, the
    n-independent mixture average of the limit values). The two agree to
    1e-9 for every n at or above the seed order."""
    if not isinstance(section, SymmetricSection):
        raise BadOrder("field check needs a symmetric section")
    if mix.d != section.d:
        raise SpaceMismatch(f"mixture d={mix.d} does not match section d={section.d}")
    rhs = sum(w * a_infinity(section, rho) for w, rho in mix.atoms)
    out = []
    for n in sorted(set(int(n) for n in n_list)):
        if n < section.m:
            raise BadOrder(f"n={n} below the seed order {section.m}")
        lhs = expect(mixture_state(mix, n), section.materialize(n))
        out.append((n, lhs, rhs))
    return out
