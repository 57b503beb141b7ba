"""Finite-atom decompositions of permutation-invariant qubit states.

fit_mixture runs a conditional-gradient loop: each step adds the product
power best correlated with the current residual, re-solves the weights on
the probability simplex, refines all atoms jointly by least squares, and
merges atoms that collide. Low-weight atoms are retried without at the end;
among numerically exact fits the one with fewer atoms wins.
field_of_states_check verifies that mixture expectations of symmetric
sections do not move with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from ._optim import maximize_over_states, project_ball, rho_from_ball
from .linalg import PAULI, MacrofieldError, SiteSpace, SpaceMismatch, kron_power
from .sections import BadOrder, SymmetricSection
from .states import (
    DensityMatrix,
    NSiteState,
    _bloch_coords,
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
        if any(w <= 0.0 for w, _ in self.atoms):
            raise ValueError("atom weights must be positive")
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


def _moment_eval(coeffs: np.ndarray, v: np.ndarray) -> float:
    """Contract every axis of the coefficient tensor with one moment vector."""
    cur = coeffs.reshape(-1, 4) @ v
    while cur.size > 1:
        cur = cur.reshape(-1, 4) @ v
    return float(cur[0])


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


def _solve_weights(t_arr: np.ndarray, blocks: list[np.ndarray], iters: int, w0=None) -> np.ndarray:
    """min ||T - sum w_i B_i||_F over the simplex by projected gradient."""
    k = len(blocks)
    if k == 1:
        return np.array([1.0])
    g_mat = np.empty((k, k))
    c_vec = np.empty(k)
    for i in range(k):
        c_vec[i] = float(np.einsum("ij,ji->", t_arr, blocks[i]).real)
        for j in range(i, k):
            g_mat[i, j] = g_mat[j, i] = float(np.einsum("ij,ji->", blocks[i], blocks[j]).real)

    def cost(w: np.ndarray) -> float:
        return float(w @ g_mat @ w - 2.0 * c_vec @ w)

    w = _project_simplex(np.asarray(w0, dtype=float) if w0 is not None else np.full(k, 1.0 / k))
    lipschitz = 2.0 * max(float(np.linalg.eigvalsh(g_mat)[-1]), 1e-30)
    step = 1.0 / lipschitz
    fw = cost(w)
    for _ in range(iters):
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


def _merge_atoms(atoms: list[np.ndarray], weights: np.ndarray, delta: float):
    """Collapse pairs closer than delta into their weighted average."""
    atoms = list(atoms)
    weights = np.asarray(weights, dtype=float)
    merged = True
    while merged and len(atoms) > 1:
        merged = False
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                dist = 0.5 * float(np.abs(np.linalg.eigvalsh(atoms[i] - atoms[j])).sum())
                if dist < delta:
                    wi, wj = weights[i], weights[j]
                    tot = wi + wj
                    if tot > 0.0:
                        combined = (wi * atoms[i] + wj * atoms[j]) / tot
                    else:
                        combined = 0.5 * (atoms[i] + atoms[j])
                    atoms = [a for t, a in enumerate(atoms) if t not in (i, j)] + [combined]
                    weights = np.append(np.delete(weights, (i, j)), tot)
                    merged = True
                    break
            if merged:
                break
    return atoms, weights


def _residual_from_blocks(t_arr: np.ndarray, blocks: list[np.ndarray], weights) -> float:
    mix = np.zeros_like(t_arr)
    for w, b in zip(weights, blocks):
        mix += w * b
    return float(np.linalg.norm(t_arr - mix))


def _refine(t_vec: np.ndarray, n: int, blochs, weights):
    """Joint least-squares refinement of atoms and weights in moment space.

    The l2 distance between moment tensors equals the Frobenius distance up
    to a fixed 2^(-n/2) factor, so this minimizes the same objective as the
    literal residual. Parameters run unconstrained inside the solver; the
    result is projected back to the Bloch ball and the simplex, and the
    caller recomputes the literal residual before accepting anything.
    """
    k = len(blochs)
    x0 = np.concatenate([np.asarray(weights, dtype=float), np.concatenate(blochs)])

    def _fun(x: np.ndarray) -> np.ndarray:
        out = -t_vec
        for i in range(k):
            v = np.concatenate(([1.0], x[k + 3 * i : k + 3 * i + 3]))
            out = out + x[i] * kron_power(v, n)
        return out

    def _jac(x: np.ndarray) -> np.ndarray:
        jac = np.empty((t_vec.size, 4 * k))
        for i in range(k):
            v = np.concatenate(([1.0], x[k + 3 * i : k + 3 * i + 3]))
            pw = [np.ones(1)] + [kron_power(v, p) for p in range(1, n + 1)]
            jac[:, i] = pw[n]
            for c in range(3):
                acc = np.zeros(t_vec.size)
                for s in range(n):
                    right = pw[n - 1 - s]
                    blk = np.zeros(4 * right.size)
                    blk[(1 + c) * right.size : (2 + c) * right.size] = right
                    acc += (pw[s][:, None] * blk[None, :]).ravel()
                jac[:, k + 3 * i + c] = x[i] * acc
        return jac

    # MINPACK's lm needs at least as many residuals as parameters
    method = "lm" if t_vec.size >= 4 * k else "trf"
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
    w = np.maximum(res.x[:k], 0.0)
    total = w.sum()
    w = w / total if total > 0 else np.full(k, 1.0 / k)
    atoms = [rho_from_ball(project_ball(res.x[k + 3 * i : k + 3 * i + 3])) for i in range(k)]
    return atoms, w


def fit_mixture(
    target: NSiteState,
    k_max: int,
    *,
    merge_delta: float = MERGE_DELTA,
    improvement_tol: float = 1e-9,
    weight_iters: int = 500,
    polish: bool = True,
) -> FitResult:
    """Conditional-gradient fit of a permutation-invariant qubit state by a
    small mixture of product powers.

    Each round adds the state whose product power correlates best with the
    current residual (multi-start Nelder-Mead over the Bloch ball), re-solves
    the weights, refines all atoms jointly by least squares, and merges
    colliding atoms. Recorded residuals never increase; a candidate round
    that fails to improve is discarded. A final prune pass retries the fit
    without each low-weight atom and keeps any retry that loses no ground.
    """
    if target.space.d != 2:
        raise SpaceMismatch(f"fit supports qubit sites only, got d={target.space.d}")
    if k_max < 1:
        raise ValueError(f"atom budget must be >= 1, got {k_max}")
    if merge_delta < MERGE_DELTA:
        raise ValueError(f"merge_delta below the mixture separation floor {MERGE_DELTA}")
    if not is_permutation_invariant(target):
        raise NotSymmetric("target state is not permutation-invariant")

    n = target.space.n
    t_arr = np.asarray(target.rho)
    t_norm2 = float(np.vdot(t_arr, t_arr).real)
    # moment tensors need 4^n reals; past n = 10 fall back to literal algebra
    t_tensor = _pauli_tensor(t_arr, n) if n <= 10 else None
    t_vec = t_tensor.reshape(-1) if t_tensor is not None else None

    def _can_refine(count: int) -> bool:
        # the refinement jacobian holds 4^n * 4k reals; cap the footprint
        return (
            polish
            and t_vec is not None
            and count <= 8
            and t_vec.size * 4 * count <= (1 << 23)
        )

    atoms: list[np.ndarray] = []
    blocks: list[np.ndarray] = []
    weights = np.zeros(0)
    history: list[float] = []
    prev = math.sqrt(max(t_norm2, 0.0))
    ran_out = True
    for _ in range(k_max):
        resid_arr = t_arr.copy()
        for w, b in zip(weights, blocks):
            resid_arr -= w * b

        if t_tensor is not None:
            r_tensor = _pauli_tensor(resid_arr, n)

            def correlation(entries: np.ndarray, c=r_tensor) -> float:
                return _moment_eval(c, np.array([1.0, *_bloch_coords(entries)]))

        else:

            def correlation(entries: np.ndarray, r=resid_arr) -> float:
                return float(np.einsum("ij,ji->", r, kron_power(entries, n)).real)

        # a loose vertex suffices: weights and refinement fix everything later
        _, vertex = maximize_over_states(correlation, 2, xatol=1e-5, fatol=1e-10)
        cand_atoms = atoms + [vertex]
        cand_blocks = blocks + [kron_power(vertex, n)]
        w0 = np.append(weights, 0.0) if atoms else None
        cand_w = _solve_weights(t_arr, cand_blocks, weight_iters, w0=w0)
        if _can_refine(len(cand_atoms)):
            r_atoms, r_w = _refine(t_vec, n, [_bloch_coords(a) for a in cand_atoms], cand_w)
            r_blocks = [kron_power(a, n) for a in r_atoms]
            r_w = _solve_weights(t_arr, r_blocks, weight_iters, w0=r_w)
            if _residual_from_blocks(t_arr, r_blocks, r_w) <= _residual_from_blocks(
                t_arr, cand_blocks, cand_w
            ):
                cand_atoms, cand_blocks, cand_w = r_atoms, r_blocks, r_w
        merged_atoms, cand_w = _merge_atoms(cand_atoms, cand_w, merge_delta)
        if len(merged_atoms) < len(cand_atoms):
            cand_blocks = [kron_power(a, n) for a in merged_atoms]
            cand_w = _solve_weights(t_arr, cand_blocks, weight_iters, w0=cand_w)
        cand_atoms = merged_atoms
        resid = _residual_from_blocks(t_arr, cand_blocks, cand_w)
        if atoms and resid >= prev:
            # the round cannot improve; stop with the accepted state
            ran_out = False
            break
        atoms, blocks, weights = cand_atoms, cand_blocks, cand_w
        history.append(resid)
        improvement = prev - resid
        prev = resid
        if improvement < improvement_tol:
            ran_out = False
            break
    iterations = len(history)

    # a dead atom cannot affect the state; drop it before pruning
    live = weights > 1e-12
    if len(atoms) > 1 and live.any() and not live.all():
        atoms = [a for a, keep in zip(atoms, live) if keep]
        blocks = [b for b, keep in zip(blocks, live) if keep]
        weights = weights[live]
        weights = _solve_weights(t_arr, blocks, weight_iters, w0=weights / weights.sum())
        prev = min(prev, _residual_from_blocks(t_arr, blocks, weights))

    def _without(idx: int):
        a2 = [a for t, a in enumerate(atoms) if t != idx]
        b2 = [b for t, b in enumerate(blocks) if t != idx]
        w2 = np.delete(weights, idx)
        total = w2.sum()
        w2 = _solve_weights(t_arr, b2, weight_iters, w0=w2 / total if total > 0 else None)
        if _can_refine(len(a2)):
            a2, w2 = _refine(t_vec, n, [_bloch_coords(a) for a in a2], w2)
            b2 = [kron_power(a, n) for a in a2]
            w2 = _solve_weights(t_arr, b2, weight_iters, w0=w2)
        merged, w2 = _merge_atoms(a2, w2, merge_delta)
        if len(merged) < len(a2):
            b2 = [kron_power(a, n) for a in merged]
            w2 = _solve_weights(t_arr, b2, weight_iters, w0=w2)
        return merged, b2, w2, _residual_from_blocks(t_arr, b2, w2)

    # prune: a spurious atom left by the greedy rounds distorts the weights,
    # so retry without each atom, lightest first, and keep any retry that
    # loses no ground; the floor treats numerically exact fits as ties, and
    # the history cap keeps the recorded residuals nonincreasing
    while len(atoms) > 1:
        floor = min(max(prev, 1e-9), history[-1])
        pruned = False
        for idx in np.argsort(weights):
            a2, b2, w2, r2 = _without(int(idx))
            if r2 <= floor:
                atoms, blocks, weights, prev = a2, b2, w2, r2
                pruned = True
                break
        if not pruned:
            break

    weights = weights / weights.sum()
    final = _residual_from_blocks(t_arr, blocks, weights)
    final = min(final, prev)
    history.append(final)
    # exhausted means stopped by the budget while still making progress
    budget_exhausted = ran_out and final > improvement_tol

    # an exactly zero weight can survive the simplex solve; dropping it
    # leaves the mixture and the residual untouched
    live = weights > 0.0
    if not live.all():
        atoms = [a for a, keep in zip(atoms, live) if keep]
        weights = weights[live]
        weights = weights / weights.sum()

    order = np.argsort(-weights)
    pairs = tuple((float(weights[i]), DensityMatrix(2, atoms[i])) for i in order)
    result_mix = DiscreteMixture(pairs)
    return FitResult(result_mix, final, iterations, budget_exhausted, tuple(history))


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
