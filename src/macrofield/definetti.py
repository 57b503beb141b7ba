"""Finite-atom decompositions of permutation-invariant qubit states.

The fit works in one representation of permutation-invariant operators.
In the orthonormal Pauli product basis, sigma_a/sqrt(2) on each site, such
an operator gives the same coefficient to every string with the same counts
beta of I, X, Y and Z. It is stored once per count vector, times
sqrt(n!/beta!), the root of the number of such strings: C(n+3, 3)
coordinates, whose dot product is the Frobenius inner product. A dense
target is converted once (fit_mixture), a known mixture's state is formed
there (recover_mixture); the product power of the qubit state at Bloch point
b has coordinates sqrt(n!/beta!) u^beta with u = (1, b)/sqrt(2), and atoms
are Bloch points until the result is built.

The fit is a conditional-gradient loop: each step adds the product power
best correlated with the current residual, found by projected gradient
ascent of that degree-n polynomial in b from 32 starts at once, re-solves
the weights on the probability simplex, refines all atoms jointly by
projected Gauss-Newton steps on the exact Jacobian of the coordinates, and
merges atoms that collide. Low-weight atoms are retried without at the end;
among numerically exact fits the one with fewer atoms wins.
field_of_states_check verifies that mixture expectations of symmetric
sections do not move with n, on total-spin blocks where there are some.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from ._optim import maximize_on_ball, project_ball
from .linalg import MacrofieldError, Operator, SiteSpace, SpaceMismatch, kron_power
from .sections import BadOrder, SymmetricSection, spin_blocks
from .states import (
    DensityMatrix,
    NSiteState,
    _bloch_coords,
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
    "recover_mixture",
    "field_of_states_check",
]

# atoms closer than this in trace distance are considered one atom
MERGE_DELTA = 1e-2
# a round ends the fit if it gains less than this or leaves a residual below this
IMPROVEMENT_TOL = 1e-9
# projected-gradient steps of the simplex weight solve
WEIGHT_ITERS = 500


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


def mixture_state(mix: DiscreteMixture, n: int) -> NSiteState:
    """The n-site state sum_i w_i rho_i^(x)n; permutation-invariant by
    construction, so validation is skipped."""
    if n < 1:
        raise SpaceMismatch(f"need n >= 1, got {n}")
    space = SiteSpace(mix.d, n)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for w, rho in mix.atoms:
        out += w * kron_power(rho.entries, n)
    return NSiteState(space, out, validate=False)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    holds = np.nonzero(u * idx > css - 1.0)[0]
    r = holds[-1] + 1
    theta = (css[r - 1] - 1.0) / r
    return np.maximum(v - theta, 0.0)


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
    combinations_with_replacement."""
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
    return np.prod(u[:, cls.labels], axis=2) * cls.mult


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


def _best_vertex(c: np.ndarray, n: int) -> np.ndarray:
    """The Bloch point whose product power correlates best with c."""
    best, _ = maximize_on_ball(lambda blochs: _correlate(c, blochs, n))
    return best


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
    weights x and the Bloch points b together, unconstrained: the Frobenius
    residual that the weight solve minimizes over x alone. Each Gauss-Newton
    step is the least-squares (minimum-norm if underdetermined) solution of
    the linearized residual, halved until the squared residual falls at its
    Bloch points projected to the ball (projected Gauss-Newton); the loop
    ends when no halving helps, when a step gains at most 1e-14 of it, or
    after 120 steps per atom. The raw weights only start the caller's simplex
    solve, and the caller recomputes the residual before accepting anything.
    """
    k = len(blochs)
    x = np.concatenate([np.asarray(weights, dtype=float), np.ravel(blochs)])

    def _fun(x: np.ndarray) -> np.ndarray:
        return x[:k] @ _powers(x[k:].reshape(k, 3), n) - t

    r = _fun(x)
    for _ in range(120 * k):
        b = x[k:].reshape(k, 3)
        grads = x[:k, None, None] * _power_grads(b, n)
        jac = np.vstack([_powers(b, n), grads.reshape(3 * k, -1)]).T
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        cost = r @ r
        for _ in range(30):
            trial = x + step
            trial[k:] = project_ball(trial[k:].reshape(k, 3)).ravel()
            c_r = _fun(trial)
            if c_r @ c_r < cost:
                break
            step *= 0.5
        else:
            break
        x, r = trial, c_r
        if cost - r @ r <= 1e-14 * cost:
            break
    return x[k:].reshape(k, 3), x[:k]


def _settle(t: np.ndarray, n: int, blochs: np.ndarray, w0: np.ndarray):
    """Simplex weights of the atoms and the residual coordinates they leave."""
    powers = _powers(blochs, n)
    w = _solve_weights(t, powers, w0)
    return w, t - w @ powers


def _round(t: np.ndarray, n: int, blochs: np.ndarray, w0: np.ndarray):
    """One fit round on the given atoms: solve the weights, refine up to 8
    atoms jointly and keep the refinement only if it is not worse, then
    merge colliding atoms and re-solve. Returns the atoms, the weights and
    the residual coordinates."""
    w, r = _settle(t, n, blochs, w0)
    if len(blochs) <= 8:
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
    return _fit(_coords(np.asarray(target.rho), n), n, k_max)


def recover_mixture(mix: DiscreteMixture, n: int, k_max: int) -> FitResult:
    """fit_mixture(mixture_state(mix, n), k_max) for qubit atoms, with the
    state formed in chart coordinates, sum_i w_i _powers(b_i, n), not densely."""
    if mix.d != 2 or n < 1:
        raise SpaceMismatch(f"fit needs qubit sites and n >= 1, got d={mix.d}, n={n}")
    if k_max < 1:
        raise ValueError(f"atom budget must be >= 1, got {k_max}")
    blochs = np.array([_bloch_coords(rho.entries) for _, rho in mix.atoms])
    return _fit(np.array([w for w, _ in mix.atoms]) @ _powers(blochs, n), n, k_max)


def _fit(t: np.ndarray, n: int, k_max: int) -> FitResult:
    """The fit of fit_mixture on the chart coordinates t of an n-site target."""
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


def _block_expect(mix: DiscreteMixture, section: SymmetricSection, n: int) -> float | None:
    """tr(A_n sum_i w_i rho_i^(x)n) from the spin_blocks of the seed turned
    into each rho's eigenbasis, or None where there are none: there rho^(x)n
    is diagonal, l0^(n/2+m) l1^(n/2-m) at J_z = m on each of the
    C(n, k) - C(n, k - 1) copies of the irrep J = n/2 - k, with 0^0 = 1."""
    total = 0.0
    for w, rho in mix.atoms:
        lam, u = np.linalg.eigh(rho.entries)
        lam, uu = np.maximum(lam, 0.0), kron_power(u, section.m)
        seed = Operator(section.seed.space, uu.conj().T @ section.seed.entries @ uu)
        blocks = spin_blocks(SymmetricSection(section.d, section.m, seed), n)
        if blocks is None:
            return None
        for k, block in enumerate(blocks):
            # weights in log space: e factors l0 >= 0, n - e factors l1 >= 1/2
            e = n - k - np.arange(len(block))
            with np.errstate(divide="ignore"):
                log_w = e * np.log(np.where(e > 0, lam[0], 1.0)) + (n - e) * np.log(lam[1])
            mult = math.comb(n, k) * (n - 2 * k + 1) // (n - k + 1)
            total += w * float(np.exp(log_w + math.log(mult)) @ block.diagonal().real)
    return total


def field_of_states_check(
    mix: DiscreteMixture, section: SymmetricSection, n_list
) -> list[tuple[int, float, float]]:
    """Per n: (n, mixture expectation of the section, on total-spin blocks
    where spin_blocks has them and densely otherwise, the n-independent mixture
    average of the limit values). They agree to 1e-9 for n >= the seed order."""
    if not isinstance(section, SymmetricSection):
        raise BadOrder("field check needs a symmetric section")
    if mix.d != section.d:
        raise SpaceMismatch(f"mixture d={mix.d} does not match section d={section.d}")
    rhs = sum(w * a_infinity(section, rho) for w, rho in mix.atoms)
    out = []
    for n in sorted(set(int(n) for n in n_list)):
        if n < section.m:
            raise BadOrder(f"n={n} below the seed order {section.m}")
        lhs = _block_expect(mix, section, n)
        if lhs is None:
            lhs = expect(mixture_state(mix, n), section.materialize(n))
        out.append((n, lhs, rhs))
    return out
