"""Symmetrization calculus on multi-site operators.

A "section" is a rule n |-> A_n built from a fixed m-site seed: the seed is
padded with identities to n sites and averaged over all site permutations.
`symmetrize` averages over S_m from m(m - 1)/2 transpositions, so only the
dense cap d^n <= 4096 bounds m.  A one-site seed then extends as a site sum
over n, and a longer one by the composition law j_{k+1,m} = j_{k+1,k} o
j_{k,m}, each step the average over the k + 1 places of a new identity site.
The tests check all three routes against direct permutation averaging, for
qubits and qutrits.  Qubit sections also have a block form on the total-spin
irreps, without a dense matrix: band k of each block is the seed's entries
against one table (`_unit_bands`, one recursion for every order), which
`spin_blocks` assembles and the field check reads the diagonal of.  Sweeps
enter through `_sweep`: one route for all n, and the whole n list checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DimensionOverflow, MacrofieldError, Operator, SiteSpace, SpaceMismatch, TOL_HERM, _rebuild,
    hermiticity_defect, site_sum, spectral_norm,
)


class BadOrder(MacrofieldError):
    pass


class DecayBoundViolated(MacrofieldError):
    pass


# block route site cap, halved per seed order past 2: a sweep to a cap takes under
# 30 s for the command line's Pauli seeds, and 43-46 s for a random complex order-2 pair
MAX_BLOCK_SITES = 256


def _swap_average(t: np.ndarray, k: int) -> np.ndarray:
    # t and its transposes that swap site k with each later site, on the row
    # and the column legs alike, averaged
    m = t.ndim // 2
    out = t.copy()
    for j in range(k + 1, m):
        axes = list(range(2 * m))
        axes[j], axes[k], axes[m + j], axes[m + k] = k, j, m + k, m + j
        out += t.transpose(axes)
    out /= m - k
    return out


def symmetrize(a: Operator) -> Operator:
    """Average a over all n! site permutations, from n(n - 1)/2 transpositions.

    Jucys' identity sum_{sigma in S_n} sigma = prod_{k<n} (1 + sum_{j>k} (k j))
    (Rep. Math. Phys. 5, 107 (1974)) has commuting factors: the k = 1 factor
    reads a into the result, and the rest run in place on site 1's d^2 blocks.
    """
    n, d = a.space.n, a.space.d
    t = _swap_average(a.entries.reshape((d,) * (2 * n)), 0)
    for row, col in itertools.product(range(d), repeat=2):
        block = t[(row,) + (slice(None),) * (n - 1) + (col,)]
        for k in range(n - 2):
            block[...] = _swap_average(block, k)
    return _rebuild(Operator, a.space, t.reshape(a.dim, a.dim))


def _insert_identities(seed_sym: np.ndarray, d: int, m: int, n: int) -> np.ndarray:
    # the composition law one site at a time: j_{k+1,m} is the average over the
    # k + 1 places of j_{k,m} with an identity site inserted at that place
    acc = seed_sym
    for k in range(m, n):
        out = np.zeros((d ** (k + 1),) * 2, dtype=np.complex128)
        for place in range(k + 1):
            left, right = d**place, d ** (k - place)
            y = out.reshape(left, d, right, left, d, right)
            for i in range(d):
                y[:, i, :, :, i, :] += acc.reshape(left, right, left, right)
        out /= k + 1
        acc = out
    return acc


def j_nm(n: int, m: int, a_m: Operator) -> Operator:
    """Extend an m-site seed to the permutation-averaged n-site operator.

    Equals the n-site symmetrization of a_m padded with identities.  Unital,
    positive, and norm-nonincreasing; j_nm(n, n, a) is plain symmetrization.
    """
    if m < 1 or n < m:
        raise BadOrder(f"need n >= m >= 1, got n={n}, m={m}")
    if a_m.space.n != m:
        raise SpaceMismatch(f"seed lives on {a_m.space.n} sites, expected {m}")
    if m == 1:
        return site_sum(_rebuild(Operator, a_m.space, a_m.entries / n), n)
    space = SiteSpace(a_m.space.d, n)
    return _rebuild(Operator, space, _insert_identities(symmetrize(a_m).entries, space.d, m, n))


@dataclass(frozen=True)
class SymmetricSection:
    """Constant-tail section: n |-> j_nm(n, m, seed) for every n >= m."""

    d: int
    m: int
    seed: Operator

    def __post_init__(self) -> None:
        if self.seed.space != SiteSpace(self.d, self.m):
            raise SpaceMismatch(
                f"seed space {self.seed.space} does not match (d={self.d}, m={self.m})"
            )

    def materialize(self, n: int) -> Operator:
        return j_nm(n, self.m, self.seed)


@dataclass(frozen=True)
class PerturbedSection:
    """A symmetric section plus a caller-declared decaying perturbation.

    The caller promises spectral_norm(perturbation(n)) <= c * n**(-gamma);
    the bound is verified at every materialized n, never inferred.
    """

    base: SymmetricSection
    perturbation: Callable[[int], Operator]
    c: float
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise BadOrder(f"decay exponent must be positive, got {self.gamma}")

    # the base's site dimension and seed order, read-only
    d = property(lambda self: self.base.d)
    m = property(lambda self: self.base.m)

    def materialize(self, n: int) -> Operator:
        body = self.base.materialize(n)
        pert = self.perturbation(n)
        if pert.space != body.space:
            raise SpaceMismatch("perturbation space does not match the base section")
        bound = self.c * n ** (-self.gamma)
        norm = spectral_norm(pert)
        if norm > bound + 1e-12:
            raise DecayBoundViolated(
                f"perturbation norm {norm:.3e} exceeds declared bound {bound:.3e} at n={n}"
            )
        return _rebuild(Operator, body.space, body.entries + pert.entries)


def materialize(section: SymmetricSection | PerturbedSection, n: int) -> Operator:
    return section.materialize(n)


def _irreps(n: int, order: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The total-spin irreps J = n/2, n/2 - 1, ... of n qubits end to end, for a
    seed of the given order, m = J..-J in each: sizes 2J + 1, and J and m per entry."""
    if n > (cap := MAX_BLOCK_SITES >> max(0, order - 2)):
        raise DimensionOverflow(f"n = {n} exceeds the block cap {cap} of seed order {order}")
    sizes = np.arange(n + 1, 0, -2)
    jj = np.repeat((sizes - 1) / 2, sizes)
    return sizes, jj, jj - (np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes))


def _unit_bands(m: int, n: int, k: int) -> np.ndarray:
    """Band k of the order-m qubit section of each seed matrix unit |a..><c..|,
    one row per unit in seed.ravel() order: entry p is <p| A_n |p + k> on the
    irreps of _irreps, 0 where p + k leaves p's irrep.

    S(E00) = n/2 + J_z, S(E11) = n/2 - J_z, S(E01) = J_+ and S(E10) = J_-, and the
    sum D(w) of a word w = E_a1c1 ... E_amcm over distinct sites is S(E_a1c1) D(w[1:])
    less D(w[1:] with E_ajcj set to E_a1cj) for each j with aj = c1, where two sites
    meet; over n(n - 1)...(n - m + 1), so the seed need not be symmetric.
    """
    _, jj, mz = _irreps(n, m)
    # ladders vanish at an irrep's edge, so a row shifted past it reads 0
    up, down = (np.sqrt(jj * (jj + 1) - mz * (mz + s)) for s in (-1, 1))
    one = {(0, 0): n / 2 + mz, (1, 1): n / 2 - mz, (0, 1): up, (1, 0): down}
    memo = {(letter,): row for letter, row in one.items()}

    def dsum(w):
        if w not in memo:
            (a, c), v = w[0], w[1:]
            meets = (v[:j] + ((a, e),) + v[j + 1 :] for j, (b, e) in enumerate(v) if b == c)
            memo[w] = one[a, c] * np.roll(dsum(v), a - c) - sum(map(dsum, meets))
        return memo[w]

    *_, falling = itertools.accumulate(range(n, n - m, -1), int.__mul__)  # n(n-1)...(n-m+1)
    table = np.zeros((4**m, mz.size))
    for unit, bits in enumerate(itertools.product((0, 1), repeat=2 * m)):
        if sum(bits[m:]) - sum(bits[:m]) == k:
            table[unit] = dsum(tuple(zip(bits[:m], bits[m:]))) / falling
    return table


def spin_blocks(section: SymmetricSection, n: int) -> list[np.ndarray]:
    """A_n on the total-spin irreps J = n/2, n/2 - 1, ..., one (2J+1)-square
    block per J, for a qubit symmetric section and n up to its block cap (_irreps).

    A permutation-averaged qubit operator is block diagonal over J
    (Schur-Weyl duality) and acts alike on every copy of an irrep, so these
    blocks carry its norms and commutators; multiplicities are not needed for
    those.  Band k of the blocks is the seed's entries against _unit_bands.
    """
    m, sizes = section.m, _irreps(n, section.m)[0].tolist()
    bands = {k: section.seed.entries.ravel() @ _unit_bands(m, n, k) for k in range(-m, m + 1)}
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sum(
            np.diag(band[start + max(0, -k) : start + size - max(0, k)], k)
            for k, band in bands.items() if abs(k) < size
        ))
        start += size
    return blocks


def _sweep(n_list, *sections: SymmetricSection | PerturbedSection) -> tuple[list[int], bool]:
    """The distinct n of a sweep in ascending order, and whether total-spin
    blocks serve every section (each a qubit SymmetricSection) rather than
    dense matrices.  The least n is checked against the seed orders and the
    largest against the route's cap before any n is built."""
    ns = sorted(set(int(n) for n in n_list))
    blocks = all(isinstance(s, SymmetricSection) and s.d == 2 for s in sections)
    lo = max(s.m for s in sections)
    if ns and ns[0] < lo:
        raise BadOrder(f"n={ns[0]} below the seed order {lo}")
    if ns and blocks:
        _irreps(ns[-1], lo)
    elif ns:
        SiteSpace(max(s.d for s in sections), ns[-1])
    return ns, blocks


@dataclass(frozen=True)
class FrequencySpec:
    """One-site projector whose n-site average counts outcome frequency."""

    d: int
    projector: Operator

    def __post_init__(self) -> None:
        p = self.projector
        if p.space != SiteSpace(self.d, 1):
            raise SpaceMismatch(f"projector must live on one site of dimension {self.d}")
        if hermiticity_defect(p) > TOL_HERM:
            raise SpaceMismatch("projector is not Hermitian")
        defect = np.abs(p.entries @ p.entries - p.entries).max()
        if defect > 100 * TOL_HERM:
            raise SpaceMismatch(f"projector is not idempotent (defect {defect:.2e})")


def frequency_operator(spec: FrequencySpec, n: int) -> Operator:
    """Site average of the outcome projector: eigenvalues k/n, k = 0..n."""
    return j_nm(n, 1, spec.projector)


def frequency_section(spec: FrequencySpec) -> SymmetricSection:
    """The frequency operator as an order-1 symmetric section."""
    return SymmetricSection(spec.d, 1, spec.projector)
