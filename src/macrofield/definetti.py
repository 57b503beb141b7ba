"""Finite-atom decompositions of permutation-invariant qubit states.

The fit works in the multiset chart of _optim: C(n+3, 3) coordinates per
permutation-invariant operator, whose dot product is the Frobenius inner
product. A dense target is converted once (fit_mixture), a known mixture's
state is formed there (recover_mixture), and atoms are Bloch points until
the result is built.

The fit first reads the atoms off the chart (_start): the symmetric
flattenings of the coordinates share their eigenvectors when the target is
a mixture, whose rank the first flattening certifies (Jennrich's
simultaneous diagonalization). A start that is not an exact mixture of at
most k_max atoms with positive weights is refused, and a conditional-gradient
loop runs instead: each step adds the product power best correlated with
the current residual, found by projected gradient ascent of that degree-n
polynomial from 32 starts at once, solves the weights on the probability
simplex exactly, refines all atoms jointly by projected Gauss-Newton steps
on the exact Jacobian of the coordinates, and merges atoms that collide.
Low-weight atoms are retried without at the end; among numerically exact
fits the one with fewer atoms wins.
field_of_states_check verifies that mixture expectations of symmetric
sections do not move with n, on total-spin block diagonals where there are some.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import (
    _classes,
    _coords,
    _correlate,
    _power_grads,
    _powers,
    maximize_on_ball,
    project_ball,
)
from .linalg import (
    DimensionOverflow, EigFailed, MacrofieldError, SiteSpace, SpaceMismatch, _rebuild, kron_power
)
from .sections import BadOrder, SymmetricSection, _irreps, _sweep, _unit_bands
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

# atoms closer than this in trace distance are considered one atom
MERGE_DELTA = 1e-2
# atom cap of a mixture and of a fit's budget: at _optim.MAX_CHART_SITES the start
# recovers that many atoms in about 0.6 s, the greedy rounds with a budget one
# short of them take about 30 s; a field check of them up to 256 sites 3 s
MAX_ATOMS = 32
# a round ends the fit if it gains less than this or leaves a residual below this
IMPROVEMENT_TOL = 1e-9


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
        if len(self.atoms) > MAX_ATOMS:
            raise DimensionOverflow(f"{len(self.atoms)} atoms exceed the cap {MAX_ATOMS}")
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
        power = kron_power(rho.entries, n)  # fresh, but at n = 1 the frozen atom
        out += np.multiply(power, w, out=power if n > 1 else None)
        del power  # before the next one is built
    return _rebuild(NSiteState, space, out)


def _best_vertex(c: np.ndarray, n: int) -> np.ndarray:
    """The Bloch point whose product power correlates best with c."""
    best, _ = maximize_on_ball(lambda blochs: _correlate(c, blochs, n))
    return best


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
    after 120 steps per atom. Only the atoms are returned; the caller solves
    their weights on the simplex and recomputes the residual.
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
    return x[k:].reshape(k, 3)


def _settle(t: np.ndarray, n: int, blochs: np.ndarray):
    """The simplex weights w minimizing ||t - w @ _powers(blochs, n)||, and
    the residual coordinates they leave.

    A primal active-set solve (Lawson and Hanson, Solving Least Squares
    Problems, ch. 23) from the best single atom: each pass solves the KKT
    system, only the sum constrained, on the support by lstsq (a singular
    Gram serves). A weight that would go negative stops the move at the
    first zero and leaves; otherwise the atom with the most negative
    multiplier joins, until none is. The pass cap guards against cycling.
    """
    powers = _powers(blochs, n)
    gram, corr = powers @ powers.T, powers @ t
    k = len(gram)
    # a multiplier below this is rounding of the products that form it
    tol = 1e-13 * math.sqrt(gram.diagonal().max()) * float(np.linalg.norm(t))
    w = np.zeros(k)
    on = [int(np.argmin(gram.diagonal() - 2.0 * corr))]
    w[on] = 1.0
    for _ in range(4 * k + 4):
        kkt = np.pad(gram[np.ix_(on, on)], (0, 1), constant_values=1.0)
        kkt[-1, -1] = 0.0
        z = np.linalg.lstsq(kkt, np.append(corr[on], 1.0), rcond=None)[0][:-1]
        if (z <= 0.0).any():
            old = w[on]
            i = min(np.flatnonzero(z <= 0.0), key=lambda i: old[i] / (old[i] - z[i]))
            w[on] = np.maximum(old + old[i] / (old[i] - z[i]) * (z - old), 0.0)
            w[on.pop(i)] = 0.0
            continue
        w[on] = z
        # minus the multipliers: P_j . r above its common value on the support
        gain = corr - gram @ w
        gain -= w @ gain
        gain[on] = 0.0
        j = int(np.argmax(gain))
        if gain[j] <= tol:
            return w, t - w @ powers
        on.append(j)
    raise EigFailed(f"simplex weight solve of {k} atoms cycled")


def _round(t: np.ndarray, n: int, blochs: np.ndarray):
    """One fit round on the given atoms: solve the weights, refine up to 8
    atoms jointly and keep the refinement only if it is not worse, then
    merge colliding atoms and re-solve. Returns the atoms, the weights and
    the residual coordinates."""
    w, r = _settle(t, n, blochs)
    if len(blochs) <= 8:
        r_blochs = _refine(t, n, blochs, w)
        r_w, r_r = _settle(t, n, r_blochs)
        if np.linalg.norm(r_r) <= np.linalg.norm(r):
            blochs, w, r = r_blochs, r_w, r_r
    merged, w = _merge_atoms(blochs, w)
    if len(merged) < len(blochs):
        w, r = _settle(t, n, merged)
    return merged, w, r


def _check_budget(k_max: int) -> None:
    if k_max < 1:
        raise ValueError(f"atom budget must be >= 1, got {k_max}")
    if k_max > MAX_ATOMS:
        raise DimensionOverflow(f"atom budget {k_max} exceeds the cap {MAX_ATOMS}")


def fit_mixture(target: NSiteState, k_max: int) -> FitResult:
    """Fit of a permutation-invariant qubit state by a small mixture of
    product powers.

    The fit first tries the start: for n >= 3 it reads at most k_max atoms
    off the chart's flattenings and solves their weights, and it keeps them,
    as one iteration, only if they fit exactly with positive weights.
    Otherwise conditional-gradient rounds run. Each adds the state whose product power
    correlates best with the current residual (batched projected gradient
    ascent over the Bloch ball), re-solves the weights, refines all atoms
    jointly by least squares, and merges colliding atoms. The first round
    is kept even when zero lies closer to the target; a later one that fails
    to improve is discarded, so recorded residuals never increase. A final
    prune pass retries the fit without each low-weight atom and keeps any
    retry that loses no ground.
    The residual is the Frobenius distance between the target and the fit.
    """
    if target.space.d != 2:
        raise SpaceMismatch(f"fit supports qubit sites only, got d={target.space.d}")
    _check_budget(k_max)
    if not is_permutation_invariant(target):
        raise NotSymmetric("target state is not permutation-invariant")
    n = target.space.n
    return _fit(_coords(target.entries, n), n, k_max)


def recover_mixture(mix: DiscreteMixture, n: int, k_max: int) -> FitResult:
    """fit_mixture(mixture_state(mix, n), k_max) for qubit atoms, with the
    state formed in chart coordinates, sum_i w_i _powers(b_i, n), not densely."""
    if mix.d != 2 or n < 1:
        raise SpaceMismatch(f"fit needs qubit sites and n >= 1, got d={mix.d}, n={n}")
    _check_budget(k_max)
    blochs = np.array([_bloch_coords(rho.entries) for _, rho in mix.atoms])
    return _fit(np.array([w for w, _ in mix.atoms]) @ _powers(blochs, n), n, k_max)


def _whitened_flattenings(t: np.ndarray, n: int, k_max: int):
    """The chart's flattenings T_1..T_3 whitened by M_0, or None when M_0 is
    refused: for n < 3, when it is not PSD, or when its rank exceeds k_max.

    c = t / mult holds c_beta = sum_i w_i u_i^beta with u_i = (1, b_i)/sqrt(2).
    Over the multisets alpha and gamma of h = (n-1)//2 labels, the flattening
    M_l[alpha, gamma] = c at alpha + gamma + (n-2h-1) e_0 + e_l, rows and
    columns scaled by their mult, is sum_i w_i u_i0^(n-2h-1) u_il v_i v_i^T
    with v_i the coordinates of rho(b_i)^(x)h. So M_0 is PSD of rank k, and
    whitened by it, T_l = Q diag(b_il) Q^T for l = 1..3 with one orthogonal Q.
    """
    if n < 3:
        return None
    h = (n - 1) // 2
    cls, half = _classes(n), _classes(h)
    # a multiset's key is linear in its X, Y and Z counts, so the key of
    # alpha + gamma + e_l is key(alpha) + key(gamma) + radix[l - 1]
    radix = (n + 1) ** np.arange(2, -1, -1)
    c = np.zeros((n + 1) ** 3)
    c[cls.beta[:, 1:] @ radix] = t / cls.mult
    key = half.beta[:, 1:] @ radix
    base = key[:, None] + key

    def flattening(offset: int) -> np.ndarray:
        m = c[base + offset]
        m *= half.mult[:, None]
        m *= half.mult
        return m

    # a state's M_0 holds c at n e_0, a positive entry, so lam[-1] > 0
    lam, vec = np.linalg.eigh(flattening(0))
    if lam[0] < -1e-9 * lam[-1]:
        return None
    keep = lam > 1e-9 * lam[-1]
    if keep.sum() > k_max:
        return None
    white = vec[:, keep] / np.sqrt(lam[keep])
    return [white.T @ flattening(offset) @ white for offset in radix]


def _start(t: np.ndarray, n: int, k_max: int):
    """Atoms, weights and residual read off the chart by simultaneous
    diagonalization, or None when the start is refused.

    One eigh of a fixed combination of the whitened flattenings gives their
    shared eigenvectors, and the atoms' Bloch coordinates are the diagonals
    of the flattenings in that basis. The weights solve the Gram system of
    the atoms' product powers. The start is refused where the flattenings
    are, for atoms that collide, and unless every weight is positive and
    the residual is at most IMPROVEMENT_TOL.
    """
    ts = _whitened_flattenings(t, n, k_max)
    if ts is None:
        return None
    # atoms share an eigenvalue only where (1, sqrt 2, sqrt 3) . (b_i - b_j) = 0;
    # their eigenvectors then mix, and the residual test refuses the start
    _, rot = np.linalg.eigh(ts[0] + math.sqrt(2.0) * ts[1] + math.sqrt(3.0) * ts[2])
    blochs = project_ball(np.column_stack([((tl @ rot) * rot).sum(axis=0) for tl in ts]))
    gap = 0.5 * np.linalg.norm(blochs[:, None] - blochs, axis=-1)
    if (gap[np.triu_indices(len(blochs), 1)] < MERGE_DELTA).any():
        return None
    powers = _powers(blochs, n)
    g, q = np.linalg.eigh(powers @ powers.T)
    weights = q @ ((q.T @ (powers @ t)) / g)
    resid = float(np.linalg.norm(t - weights @ powers))
    if not ((weights > 0.0).all() and resid <= IMPROVEMENT_TOL):
        return None
    return blochs, weights, resid


def _fit(t: np.ndarray, n: int, k_max: int) -> FitResult:
    """The fit of fit_mixture on the chart coordinates t of an n-site target."""
    start = _start(t, n, k_max)
    if start is not None:
        atoms, weights, prev = start
        return _result(t, n, atoms, weights, prev, [prev], False)
    atoms = np.zeros((0, 3))
    weights = np.zeros(0)
    r = t
    history: list[float] = []
    prev = math.inf
    ran_out = True
    for _ in range(k_max):
        grown = np.vstack([atoms, _best_vertex(r, n)])
        cand, cand_w, cand_r = _round(t, n, grown)
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

    # prune: a spurious atom left by the greedy rounds distorts the weights,
    # so retry without each atom, lightest first, and keep any retry that
    # loses no ground; the floor treats numerically exact fits as ties, and
    # the history cap keeps the recorded residuals nonincreasing
    while len(atoms) > 1:
        floor = min(max(prev, 1e-9), history[-1])
        for idx in np.argsort(weights):
            a2, w2, r2 = _round(t, n, np.delete(atoms, idx, axis=0))
            if np.linalg.norm(r2) <= floor:
                atoms, weights, prev = a2, w2, float(np.linalg.norm(r2))
                break
        else:
            break
    return _result(t, n, atoms, weights, prev, history, ran_out)


def _result(
    t: np.ndarray, n: int, atoms: np.ndarray, weights: np.ndarray, prev: float,
    history: list[float], ran_out: bool,
) -> FitResult:
    """The FitResult of atoms and simplex weights whose rounds recorded history;
    prev is the residual of the last accepted round."""
    iterations = len(history)
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


def _block_expect(mix: DiscreteMixture, section: SymmetricSection, n: int) -> float:
    """tr(A_n sum_i w_i rho_i^(x)n) for a qubit symmetric section.
    In rho's eigenbasis rho^(x)n is l0^e l1^f (0^0 = 1) at J_z = m, e = n/2 + m,
    f = n/2 - m, on each of the C(n, k) - C(n, k - 1) copies of J = n/2 - k, and
    the diagonal of A_n there is the turned seed against the band-0 table of
    _unit_bands; only real parts enter, so the table is never copied to complex."""
    sizes, _, m = _irreps(n)
    table = _unit_bands(section.m, n, 0)
    e, f = n / 2 + m, n / 2 - m
    # logs of the exact multiplicities: as floats they overflow past n ~ 1030
    mult = [math.comb(n, k) * size // (n - k + 1) for k, size in enumerate(sizes.tolist())]
    log_mult = np.repeat(list(map(math.log, mult)), sizes)
    total = 0.0
    for w, rho in mix.atoms:
        lam, u = np.linalg.eigh(rho.entries)
        lam, uu = np.maximum(lam, 0.0), kron_power(u, section.m)
        diag = (uu.conj().T @ section.seed.entries @ uu).ravel().real @ table
        # weights in log space: e factors l0 >= 0, f factors l1 >= 1/2
        with np.errstate(divide="ignore"):
            p = np.exp(e * np.log(np.where(e > 0, lam[0], 1.0)) + f * np.log(lam[1]) + log_mult)
        cuts = range(8192, diag.size, 8192)  # OpenBLAS splits longer dots over threads
        total += w * float(sum(map(np.dot, np.split(p, cuts), np.split(diag, cuts))))
    return total


def field_of_states_check(
    mix: DiscreteMixture, section: SymmetricSection, n_list
) -> list[tuple[int, float, float]]:
    """Per n: (n, mixture expectation of the section, on total-spin block diagonals
    where _sweep takes the block route and densely otherwise, the n-independent mixture
    average of the limit values). They agree to 1e-9 for n >= the seed order."""
    if not isinstance(section, SymmetricSection):
        raise BadOrder("field check needs a symmetric section")
    if mix.d != section.d:
        raise SpaceMismatch(f"mixture d={mix.d} does not match section d={section.d}")
    ns, blocks = _sweep(n_list, section)
    rhs = sum(w * a_infinity(section, rho) for w, rho in mix.atoms)
    out = []
    for n in ns:
        if blocks:
            lhs = _block_expect(mix, section, n)
        else:
            lhs = expect(mixture_state(mix, n), section.materialize(n))
        out.append((n, lhs, rhs))
    return out
