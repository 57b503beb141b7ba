"""Classical Bernoulli sequence space next to its qubit image.

Finite cylinder events and their AND/OR/NOT combinations map onto commuting
diagonal projections on n qubit sites. One post-order walk of the tree, on an
explicit stack so that no depth is too deep (`_postorder`), lists its leaves
and reads an event as the 0/1 eigenvalues of its projection image on the 2**k
bit assignments of the k sites it involves, whatever n: Born weights summed
against them give its expectation, and, since the values are exactly 0.0 and
1.0, they are also its truth values, which select the Bernoulli weights (the
k-fold Kronecker power of (1 - p, p)) that sum to its probability. The
strong-law check draws binomial counts from a counter-based generator, so
every run is reproducible bit for bit from a 64-bit seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    DimensionOverflow, MacrofieldError, Operator, SiteSpace, SpaceMismatch, _rebuild, kron_power
)

if TYPE_CHECKING:
    from .states import PureState

# cap on constraints per event and on the enumeration footprint (2^16 atoms)
MAX_CONSTRAINTS = 16
MAX_ENUM_SITES = 16
# cap on strong-law trials: 10**7 of them take about 1 s and 240 MB
MAX_TRIALS = 10**7
# cap on leaves per random expression: quantum_classical_agreement on one of
# 256 leaves over 16 sites takes about 0.2 s (2-core x86-64 VM, numpy 2.4.6)
MAX_LEAVES = 256


class SiteBeyondHorizon(MacrofieldError):
    pass


class TooManySites(MacrofieldError):
    pass


@dataclass(frozen=True)
class BernoulliSpec:
    """Coin bias for i.i.d. binary sequences."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bias must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class CylinderEvent:
    """Finitely many fixed bits: site index k >= 1 mapped to a bit in {0, 1}."""

    constraints: tuple[tuple[int, int], ...]

    def __init__(self, constraints) -> None:
        items = dict(constraints)
        if len(items) > MAX_CONSTRAINTS:
            raise ValueError(f"at most {MAX_CONSTRAINTS} constraints, got {len(items)}")
        norm = []
        for k, bit in sorted(items.items()):
            if not (isinstance(k, int) and k >= 1):
                raise ValueError(f"site index must be a positive integer, got {k!r}")
            if bit not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
            norm.append((k, int(bit)))
        object.__setattr__(self, "constraints", tuple(norm))


class BooleanExpr:
    """Finite AND/OR/NOT tree over cylinder-event leaves; an inner node's
    `_fold` maps its operands' 0/1 values to its own."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(BooleanExpr):
    event: CylinderEvent


@dataclass(frozen=True)
class And(BooleanExpr):
    left: BooleanExpr
    right: BooleanExpr
    _fold = staticmethod(lambda a, b: a * b)


@dataclass(frozen=True)
class Or(BooleanExpr):
    left: BooleanExpr
    right: BooleanExpr
    _fold = staticmethod(lambda a, b: a + b - a * b)


@dataclass(frozen=True)
class Not(BooleanExpr):
    inner: BooleanExpr
    _fold = staticmethod(lambda a: 1.0 - a)


def cylinder(site: int, bit: int) -> Leaf:
    """The one-bit event 'sequence has `bit` at `site`'."""
    return Leaf(CylinderEvent({site: bit}))


def _postorder(expr: BooleanExpr) -> Iterator[tuple[BooleanExpr, int]]:
    """Every node of the tree with its operand count, each after its operands
    and left before right; an explicit stack, so no tree is too deep."""
    stack: list[tuple[BooleanExpr, int | None]] = [(expr, None)]
    while stack:
        node, arity = stack.pop()
        if arity is not None:
            yield node, arity
        elif isinstance(node, Leaf):
            yield node, 0
        elif isinstance(node, Not):
            stack += ((node, 1), (node.inner, None))
        elif isinstance(node, (And, Or)):
            stack += ((node, 2), (node.right, None), (node.left, None))
        else:
            raise TypeError(f"not a boolean expression node: {node!r}")


def leaves(expr: BooleanExpr) -> Iterator[Leaf]:
    """Every leaf of the expression tree, repeats included, left to right."""
    return (node for node, arity in _postorder(expr) if not arity)


def involved_sites(expr: BooleanExpr) -> tuple[int, ...]:
    return tuple(sorted({k for leaf in leaves(expr) for k, _ in leaf.event.constraints}))


def random_expression(rng: np.random.Generator, horizon: int, max_leaves: int) -> BooleanExpr:
    """Seeded random expression with 1..max_leaves one-bit leaves, sites <= horizon;
    max_leaves may not exceed MAX_LEAVES, checked before any draw."""
    if horizon < 1 or max_leaves < 1:
        raise ValueError("horizon and max_leaves must be >= 1")
    if max_leaves > MAX_LEAVES:
        raise DimensionOverflow(f"{max_leaves} leaves exceed the cap {MAX_LEAVES}")
    count = int(rng.integers(1, max_leaves + 1))
    nodes: list[BooleanExpr] = [
        cylinder(int(rng.integers(1, horizon + 1)), int(rng.integers(0, 2)))
        for _ in range(count)
    ]
    while len(nodes) > 1:
        a = nodes.pop(int(rng.integers(len(nodes))))
        b = nodes.pop(int(rng.integers(len(nodes))))
        joined: BooleanExpr = And(a, b) if rng.integers(2) else Or(a, b)
        if rng.integers(4) == 0:
            joined = Not(joined)
        nodes.append(joined)
    expr = nodes[0]
    if rng.integers(4) == 0:
        expr = Not(expr)
    return expr


@dataclass(frozen=True)
class SllnReport:
    p: float
    n: int
    trials: int
    delta: float
    hit_fraction: float
    hoeffding_bound: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hit_fraction <= 1.0:
            raise ValueError(f"hit_fraction must lie in [0, 1], got {self.hit_fraction}")
        expected = hoeffding_bound(self.n, self.delta)
        if not math.isclose(self.hoeffding_bound, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise ValueError("hoeffding_bound does not match 2 exp(-2 n delta^2)")


def hoeffding_bound(n: int, delta: float) -> float:
    return 2.0 * math.exp(-2.0 * n * delta * delta)


def slln_check(spec: BernoulliSpec, n: int, trials: int, delta: float, seed: int) -> SllnReport:
    """Fraction of trials whose sample mean lands within delta of p.

    Each trial's count K of ones among n i.i.d. Bernoulli(p) bits is drawn
    directly from its Binomial(n, p) law, and its sample mean is K / n. This
    is exact in law, p = 0 and p = 1 stay exact, and a trial costs one
    variate, not n bits. The horizon must fit in int64, the sampler's range.
    """
    if not math.isfinite(delta):
        raise ValueError(f"tolerance must be finite, got {delta}")
    if delta <= 0.0:
        raise ValueError(f"tolerance must be positive, got {delta}")
    if n < 1 or trials < 1:
        raise ValueError(f"need n >= 1 and trials >= 1, got n={n}, trials={trials}")
    if n > np.iinfo(np.int64).max:
        raise ValueError(f"horizon {n} exceeds the int64 range of the binomial sampler")
    if trials > MAX_TRIALS:
        raise DimensionOverflow(f"{trials} trials exceed the cap {MAX_TRIALS}")
    counts = np.random.Generator(np.random.Philox(seed)).binomial(n, spec.p, size=trials)
    hits = int(np.count_nonzero(np.abs(counts / n - spec.p) <= delta))
    return SllnReport(spec.p, n, trials, delta, hits / trials, hoeffding_bound(n, delta))


def _indicator(expr: BooleanExpr, sites: tuple[int, ...]) -> np.ndarray:
    """0/1 values of the expression on the bit assignments of `sites`, the
    first site the leading bit, each node folding its operands' values on one
    stack.  Products and sums of 0.0 and 1.0 are exact, so these are also its
    truth values."""
    idx = np.arange(1 << len(sites))
    values: list[np.ndarray] = []
    for node, arity in _postorder(expr):
        if arity:
            values[-arity:] = [node._fold(*values[-arity:])]
            continue
        acc = np.ones(idx.size)
        for site, bit in node.event.constraints:
            acc *= ((idx >> (len(sites) - 1 - sites.index(site))) & 1) == bit
        values.append(acc)
    return values.pop()


def cylinder_to_projection(expr: BooleanExpr, n: int) -> Operator:
    """Boolean-to-projection map: AND is the product, OR is A + B - AB, NOT
    is 1 - A. All images are commuting diagonal 0/1 projections; this is the
    dense image of the indicator over the basis sequences of sites 1..n."""
    space = SiteSpace(2, n)
    if max(involved_sites(expr), default=0) > n:
        raise SiteBeyondHorizon(f"the expression fixes a site beyond the horizon {n}")
    return _rebuild(Operator, space, np.diag(_indicator(expr, tuple(range(1, n + 1)))))


def classical_probability(spec: BernoulliSpec, expr: BooleanExpr) -> float:
    """Exact mu_p probability of the expression.

    The indicator of the expression on the bit assignments of its involved
    sites selects their Bernoulli weights, the Kronecker power of (1 - p, p),
    which are summed one by one in assignment order.
    """
    sites = involved_sites(expr)
    if len(sites) > MAX_ENUM_SITES:
        raise TooManySites(f"{len(sites)} involved sites exceed the cap {MAX_ENUM_SITES}")
    weights = kron_power(np.array([1.0 - spec.p, spec.p]), len(sites))
    return sum(weights[_indicator(expr, sites) == 1.0].tolist(), 0.0)


def quantum_classical_agreement(
    psi: PureState, expr: BooleanExpr, n: int
) -> tuple[float, float]:
    """Expectation of the projection image on psi^(x)n, on the involved sites
    only, next to the exact mu_p probability with p = |<1|psi>|^2 (within 1e-10)."""
    if psi.d != 2:
        raise SpaceMismatch(f"binary sequence space needs qubit sites, got d={psi.d}")
    sites = involved_sites(expr)
    if max(sites, default=0) > n:
        raise SiteBeyondHorizon(f"the expression fixes a site beyond the horizon {n}")
    p = min(max(abs(psi.amplitudes[1]) ** 2, 0.0), 1.0)
    classical = classical_probability(BernoulliSpec(p), expr)  # caps the site count
    weights = kron_power(np.abs(psi.amplitudes) ** 2, len(sites))
    quantum = float(weights @ _indicator(expr, sites))
    return quantum, classical
