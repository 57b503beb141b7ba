"""Large-n limit experiments: commutator decay, norm convergence against the
product-state supremum, frequency concentration in spectral windows, and the
constancy of frequency expectations on product states.

Every limit claim is probed by a finite-n sweep; closed forms live in the
tests, never here, so the two routes stay independent.  Commutator and norm
sweeps take their route from `sections._sweep`, which checks the n list whole:
total-spin blocks for qubit symmetric sections (`sections.spin_blocks`, up to a
site cap set by the seed order), dense matrices up to the dense cap otherwise.
Frequency statistics run on the n + 1 outcome-count weights (MAX_COUNT_SITES).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._optim import _coords, _correlate, maximize_on_ball
from .linalg import (
    DimensionOverflow, MacrofieldError, Operator, SiteSpace, SpaceMismatch, _commute, _matmul,
    _norm, _rebuild, commutator, kron_power, spectral_norm,
)
from .sections import (
    BadOrder,
    FrequencySpec,
    PerturbedSection,
    SymmetricSection,
    _sweep,
    materialize,
    spin_blocks,
    symmetrize,
)

if TYPE_CHECKING:
    from .states import PureState

# site cap of the count route; a sweep up to it takes about 8 s
MAX_COUNT_SITES = 50_000


class BadWindow(MacrofieldError):
    pass


@dataclass(frozen=True)
class DecayRecord:
    n: int
    value: float
    scaled: float


@dataclass(frozen=True)
class NormGapRecord:
    n: int
    exact_norm: float
    product_sup: float
    gap: float


@dataclass(frozen=True)
class WindowMassRecord:
    n: int
    epsilon: float
    mass: float


def commutator_decay(
    s1: SymmetricSection | PerturbedSection,
    s2: SymmetricSection | PerturbedSection,
    n_list,
) -> list[DecayRecord]:
    """Norms of [A_n, B_n] for two sections, with the n-scaled value alongside.

    Qubit symmetric sections are commuted block by block on their
    total-spin blocks; any other pair goes through dense matrices.
    """
    ns, blocks = _sweep(n_list, s1, s2)
    records = []
    for n in ns:
        if blocks:
            pairs = zip(spin_blocks(s1, n), spin_blocks(s2, n))
            value = max(_norm(_commute(x, y)) for x, y in pairs)
        else:
            # one expression, so no dense matrix outlives its n
            value = spectral_norm(commutator(materialize(s1, n), materialize(s2, n)))
        records.append(DecayRecord(n, value, value * n))
    return records


def fit_decay_exponent(records: list[DecayRecord]) -> float:
    """Power-law exponent from least squares on log value vs log n.

    Uses the five records of largest n with a positive value; nan when fewer
    than two remain (e.g. identical sections, all norms zero).
    """
    usable = [(r.n, r.value) for r in sorted(records, key=lambda r: r.n) if r.value > 1e-300]
    usable = usable[-5:]
    if len(usable) < 2:
        return float("nan")
    ns = np.log([n for n, _ in usable])
    vs = np.log([v for _, v in usable])
    slope = np.polyfit(ns, vs, 1)[0]
    return float(-slope)


def product_state_sup(section: SymmetricSection, n: int) -> float:
    """sup over product states of |<omega^(x)n, A_n>| for a qubit section.

    Product-state expectations of a symmetric section do not depend on n, so
    the search runs on the m-site seed S; n is validated and recorded only.
    S = H + iK with H and K Hermitian, and tr(rho^(x)m S) does not change
    when S is averaged over site permutations, so both parts are symmetrized
    and read in the multiset chart of _optim. The modulus |f| = hypot(f_H,
    f_K) and its Bloch gradient go to the batched ball oracle.
    """
    if not isinstance(section, SymmetricSection):
        raise BadOrder("product-state supremum is defined for symmetric sections")
    if n < section.m:
        raise BadOrder(f"n={n} below the seed order {section.m}")
    if section.d != 2:
        raise SpaceMismatch(f"no state chart for d={section.d} (qubits only)")
    m = section.m
    seed = symmetrize(section.seed).entries
    h = _coords((seed + seed.conj().T) / 2, m)
    k = _coords((seed - seed.conj().T) / 2j, m)

    def modulus(blochs: np.ndarray):
        fh, gh = _correlate(h, blochs, m)
        fk, gk = _correlate(k, blochs, m)
        val = np.hypot(fh, fk)
        # where |f| = 0 both parts vanish, so the gradient is 0 for any divisor
        grad = (fh[:, None] * gh + fk[:, None] * gk) / np.where(val > 0.0, val, 1.0)[:, None]
        return val, grad

    _, value = maximize_on_ball(modulus)
    return value


def norm_gap(section: SymmetricSection, n_list) -> list[NormGapRecord]:
    """Exact operator norm vs the product-state supremum, per n.

    The exact norm is the largest norm of the section's total-spin blocks:
    product_state_sup admits qubit symmetric sections only.
    """
    ns, _ = _sweep(n_list, section)
    sup = product_state_sup(section, section.m)
    records = []
    for n in ns:
        exact = max(map(_norm, spin_blocks(section, n)))
        records.append(NormGapRecord(n, exact, sup, exact - sup))
    return records


def _count_laws(psi: PureState, spec: FrequencySpec, n_list):
    """(n, q, law of the outcome count k = 0..n in psi^(x)n) for each distinct n
    of the list, ascending, none past MAX_COUNT_SITES; q = <psi| P |psi> is the
    one-site probability of the outcome, clamped to [0, 1] against rounding."""
    if psi.d != spec.d:
        raise BadWindow(f"state dimension {psi.d} does not match spec {spec.d}")
    ns = sorted(set(int(n) for n in n_list))
    if ns and ns[0] < 1:
        raise BadOrder(f"need n >= 1, got {ns[0]}")
    if ns and ns[-1] > MAX_COUNT_SITES:
        raise DimensionOverflow(f"n = {ns[-1]} exceeds the count cap {MAX_COUNT_SITES}")
    q = float(complex(np.vdot(psi.amplitudes, spec.projector.entries @ psi.amplitudes)).real)
    q = min(max(q, 0.0), 1.0)
    w = np.ones(1)
    for n in ns:
        for _ in range(n + 1 - w.size):
            w = np.convolve(w, (1.0 - q, q))
            # subnormal tails cost several times a normal weight per step
            w[w < np.finfo(float).tiny] = 0.0
        yield n, q, w


def _window_mask(freq: np.ndarray, p: float, epsilon: float) -> np.ndarray:
    """Frequencies in [p - eps, p + eps], edges widened by 1e-12."""
    if not 0.0 <= p <= 1.0:
        raise BadWindow(f"target mean {p} outside [0, 1]")
    if not 0.0 < epsilon < np.inf:
        raise BadWindow(f"window half-width must be positive and finite, got {epsilon}")
    return (freq >= p - epsilon - 1e-12) & (freq <= p + epsilon + 1e-12)


def window_projection(spec: FrequencySpec, n: int, p: float, epsilon: float) -> Operator:
    """Spectral projection of the frequency operator onto [p - eps, p + eps].

    The window is closed; eigenvalues within 1e-12 of an edge are included.
    This is the dense image; window_mass works on the outcome count.
    """
    if n < 1:
        raise BadOrder(f"need n >= 1, got {n}")
    space = SiteSpace(spec.d, n)  # raises DimensionOverflow beyond the dense cap
    w, u = np.linalg.eigh(spec.projector.entries)
    freq = w
    for _ in range(n - 1):
        freq = np.add.outer(freq, w).reshape(-1)
    cols = kron_power(u, n)[:, _window_mask(freq / n, p, epsilon)]
    return _rebuild(Operator, space, _matmul(cols, cols.conj().T))


def window_mass(
    psi: PureState, spec: FrequencySpec, n_list, epsilon: float
) -> list[WindowMassRecord]:
    """Weight of the product state psi^(x)n inside the frequency window around
    its own mean p = <psi| P |psi>, for each n; one walk of the count law."""
    records = []
    for n, p, w in _count_laws(psi, spec, n_list):
        mass = float(w[_window_mask(np.arange(n + 1) / n, p, epsilon)].sum())
        records.append(WindowMassRecord(n, float(epsilon), mass))
    return records


def born_curve(psi: PureState, spec: FrequencySpec, n_list) -> list[tuple[int, float]]:
    """Frequency-operator expectation on psi^(x)n for each n; constant in n."""
    return [(n, float(w @ np.arange(n + 1)) / n) for n, _, w in _count_laws(psi, spec, n_list)]


def deviation_norm(psi: PureState, spec: FrequencySpec, n: int) -> float:
    """Euclidean norm of (f_n - p) psi^(x)n with p the state's own mean."""
    [(_, p, w)] = _count_laws(psi, spec, [n])
    return float(np.sqrt(w @ (np.arange(n + 1) / n - p) ** 2))
