"""The Bernoulli spec, the strong-law check, and the Boolean-to-projection map.

Classical reference probabilities come from hand arithmetic (p, p^2, 1 - p),
from the Hoeffding bound computed inline, and from summing event weights one
bit assignment at a time (conftest); projection oracles are explicit
Kronecker diagonals, and the involved-site route is checked against the
indicator over all 2**n basis sequences.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macrofield.stochastics as stochastics
from conftest import haar_qubit, naive_event_probability
from macrofield.linalg import (
    PROJ_0,
    PROJ_1,
    DimensionOverflow,
    SpaceMismatch,
    embed_at_site,
    spectral_norm,
)
from macrofield.states import PureState, power_vector
from macrofield.stochastics import (
    MAX_ENUM_SITES,
    MAX_LEAVES,
    And,
    BernoulliSpec,
    CylinderEvent,
    Leaf,
    Not,
    Or,
    SiteBeyondHorizon,
    SllnReport,
    TooManySites,
    classical_probability,
    cylinder,
    cylinder_to_projection,
    hoeffding_bound,
    involved_sites,
    leaves,
    quantum_classical_agreement,
    random_expression,
    slln_check,
)


# ------------------------------------------------------------ Bernoulli spec


def test_sample_validation():
    with pytest.raises(ValueError):
        BernoulliSpec(1.2)


# ---------------------------------------------------------------- strong law


def test_slln_hit_fraction_high():
    report = slln_check(BernoulliSpec(0.3), 10_000, 1000, 0.02, seed=11)
    assert report.hit_fraction >= 0.99
    assert abs(report.hoeffding_bound - 2.0 * math.exp(-8.0)) <= 1e-18


def test_slln_trivial_cases():
    assert slln_check(BernoulliSpec(0.3), 50, 200, 1.0, seed=2).hit_fraction == 1.0
    assert slln_check(BernoulliSpec(0.0), 50, 200, 0.01, seed=2).hit_fraction == 1.0
    assert slln_check(BernoulliSpec(1.0), 50, 200, 0.01, seed=2).hit_fraction == 1.0
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            slln_check(BernoulliSpec(0.3), 50, 200, delta, seed=2)
    # both guards fire before any draw
    with pytest.raises(ValueError):
        slln_check(BernoulliSpec(0.3), 2**63, 200, 0.1, seed=2)
    with pytest.raises(DimensionOverflow):
        slln_check(BernoulliSpec(0.3), 50, stochastics.MAX_TRIALS + 1, 0.1, seed=2)


def test_slln_count_route_matches_exact_mass_and_bit_route():
    # the count route and the bit-matrix route both estimate the Binomial(100, 0.3)
    # mass of |k/n - p| <= 0.05; 5 sigma of a 20,000-trial fraction is 0.015
    n, p, delta, trials = 100, 0.3, 0.05, 20_000
    exact = sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k)
        for k in range(n + 1)
        if abs(k / n - p) <= delta
    )
    assert abs(exact - 0.7704) <= 1e-4
    by_counts = slln_check(BernoulliSpec(p), n, trials, delta, seed=3).hit_fraction
    sums = (np.random.Generator(np.random.Philox(3)).random((trials, n)) < p).sum(axis=1)
    by_bits = np.count_nonzero(np.abs(sums / n - p) <= delta) / trials
    assert abs(by_counts - exact) <= 0.015
    assert abs(by_bits - exact) <= 0.015


def test_slln_reproducible_in_seed():
    args = (BernoulliSpec(0.3), 100, 20_000, 0.05)
    first = slln_check(*args, seed=3)
    assert slln_check(*args, seed=3) == first
    assert slln_check(*args, seed=4).hit_fraction != first.hit_fraction


def test_report_invariants():
    with pytest.raises(ValueError):
        SllnReport(0.3, 10, 10, 0.1, 1.5, hoeffding_bound(10, 0.1))
    with pytest.raises(ValueError):
        SllnReport(0.3, 10, 10, 0.1, 0.9, 0.123)


# ---------------------------------------------------------------- projections


def test_single_leaf_projection_matches_kron_oracle():
    proj = cylinder_to_projection(cylinder(1, 1), 2)
    assert np.allclose(proj.entries, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-15)
    proj2 = cylinder_to_projection(cylinder(2, 0), 2)
    assert np.allclose(proj2.entries, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-15)


def test_complement_and_partition_laws():
    e = Or(And(cylinder(1, 1), cylinder(2, 0)), cylinder(3, 1))
    p_and = cylinder_to_projection(And(e, Not(e)), 3)
    assert np.count_nonzero(p_and.entries) == 0
    p_or = cylinder_to_projection(Or(cylinder(1, 0), cylinder(1, 1)), 2)
    assert np.allclose(p_or.entries, np.eye(4), atol=1e-15)


def test_multi_constraint_leaf_equals_and_of_bits():
    leaf = Leaf(CylinderEvent({1: 1, 3: 0}))
    split = And(cylinder(1, 1), cylinder(3, 0))
    a = cylinder_to_projection(leaf, 3).entries
    b = cylinder_to_projection(split, 3).entries
    assert np.array_equal(a, b)


def test_projection_lattice_identities_random():
    rng = np.random.default_rng(4096)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        x = random_expression(rng, n, 4)
        y = random_expression(rng, n, 4)
        px = cylinder_to_projection(x, n)
        py = cylinder_to_projection(y, n)
        # idempotent, De Morgan, absorption; everything commutes and is 0/1 diagonal
        assert np.allclose(px.entries @ px.entries, px.entries, atol=1e-12)
        demorgan_l = cylinder_to_projection(Not(And(x, y)), n).entries
        demorgan_r = cylinder_to_projection(Or(Not(x), Not(y)), n).entries
        assert np.allclose(demorgan_l, demorgan_r, atol=1e-12)
        absorb = cylinder_to_projection(Or(x, And(x, y)), n).entries
        assert np.allclose(absorb, px.entries, atol=1e-12)
        assert spectral_norm(px) <= 1.0 + 1e-12


def _dense_image(expr, n: int) -> np.ndarray:
    # the boolean homomorphism spelled out on dense matrices
    if isinstance(expr, Leaf):
        acc = np.eye(2**n, dtype=complex)
        for k, bit in expr.event.constraints:
            acc = acc @ embed_at_site(PROJ_1 if bit else PROJ_0, k, n).entries
        return acc
    if isinstance(expr, Not):
        return np.eye(2**n) - _dense_image(expr.inner, n)
    a, b = _dense_image(expr.left, n), _dense_image(expr.right, n)
    return a @ b if isinstance(expr, And) else a + b - a @ b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_projection_equals_dense_homomorphism_image(seed, n):
    expr = random_expression(np.random.default_rng(seed), n, 4)
    got = cylinder_to_projection(expr, n).entries
    assert np.array_equal(got, _dense_image(expr, n))


def test_site_beyond_horizon():
    with pytest.raises(SiteBeyondHorizon):
        cylinder_to_projection(cylinder(3, 1), 2)


def test_event_validation():
    with pytest.raises(ValueError):
        CylinderEvent({0: 1})
    with pytest.raises(ValueError):
        CylinderEvent({1: 2})
    with pytest.raises(ValueError):
        CylinderEvent({k: 0 for k in range(1, 18)})


# ---------------------------------------------------------------- agreement


def test_agreement_hand_cases():
    psi = PureState(2, np.array([0.8, 0.6]))
    p = 0.36
    q1, c1 = quantum_classical_agreement(psi, cylinder(1, 1), 3)
    assert abs(q1 - p) <= 1e-12 and abs(c1 - p) <= 1e-15
    q2, c2 = quantum_classical_agreement(psi, And(cylinder(1, 1), cylinder(2, 1)), 3)
    assert abs(q2 - p * p) <= 1e-12 and abs(c2 - p * p) <= 1e-15
    q3, c3 = quantum_classical_agreement(psi, Not(cylinder(3, 1)), 3)
    assert abs(q3 - (1 - p)) <= 1e-12 and abs(c3 - (1 - p)) <= 1e-15


def test_agreement_random_instances():
    rng = np.random.default_rng(31337)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        psi = PureState(2, haar_qubit(rng))
        expr = random_expression(rng, n, 4)
        quantum, classical = quantum_classical_agreement(psi, expr, n)
        assert abs(quantum - classical) <= 1e-10


def test_agreement_rejects_non_qubit():
    psi = PureState(3, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(SpaceMismatch):
        quantum_classical_agreement(psi, cylinder(1, 1), 2)


def test_classical_probability_site_cap():
    wide = Leaf(CylinderEvent({k: 1 for k in range(1, 17)}))
    extra = Or(wide, cylinder(17, 0))
    assert len(involved_sites(extra)) == 17
    with pytest.raises(TooManySites):
        classical_probability(BernoulliSpec(0.5), extra)


# twelve scattered sites, so that involved sites are not a contiguous range
EVENT_SITES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1000, 10**6)
_leaf = st.dictionaries(st.sampled_from(EVENT_SITES), st.integers(0, 1), max_size=4).map(
    lambda constraints: Leaf(CylinderEvent(constraints))
)
expressions = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(And, kids, kids), st.builds(Or, kids, kids), st.builds(Not, kids)
    ),
    max_leaves=12,
)
biases = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(expressions, biases)
def test_classical_probability_matches_the_enumeration_oracle(expr, p):
    got = classical_probability(BernoulliSpec(p), expr)
    assert abs(got - naive_event_probability(p, expr)) <= 1e-12


def test_classical_probability_matches_the_oracle_at_the_site_cap():
    rng = np.random.default_rng(16)
    wide = Leaf(CylinderEvent({k: int(rng.integers(2)) for k in range(1, MAX_ENUM_SITES + 1)}))
    expr = Or(random_expression(rng, MAX_ENUM_SITES, 24), Not(wide))
    assert len(involved_sites(expr)) == MAX_ENUM_SITES
    p = float(rng.random())
    got = classical_probability(BernoulliSpec(p), expr)
    assert abs(got - naive_event_probability(p, expr)) <= 1e-12


# ---------------------------------------------------------------- involved sites


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6))
def test_involved_site_route_matches_the_full_indicator(seed, n, max_leaves):
    rng = np.random.default_rng(seed)
    expr = random_expression(rng, n, max_leaves)
    psi = PureState(2, haar_qubit(rng))
    full = stochastics._indicator(expr, tuple(range(1, n + 1)))
    want = np.abs(power_vector(psi, n)) ** 2 @ full
    quantum, _ = quantum_classical_agreement(psi, expr, n)
    assert abs(quantum - want) <= 1e-12


def test_agreement_past_the_dense_cap():
    rng = np.random.default_rng(2024)
    n = 10**6
    for _ in range(10):
        psi = PureState(2, haar_qubit(rng))
        expr = random_expression(rng, n, 6)
        quantum, classical = quantum_classical_agreement(psi, expr, n)
        assert abs(quantum - classical) <= 1e-12


def test_leaves_past_the_cap_are_refused_before_any_draw():
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    with pytest.raises(DimensionOverflow):
        random_expression(rng, 6, MAX_LEAVES + 1)
    assert rng.bit_generator.state == state


def test_deepest_expression_at_the_leaf_cap_is_walked():
    # a chain with a NOT over every join is the deepest tree of MAX_LEAVES
    # leaves that random_expression can make; the walk must take it
    expr = cylinder(1, 1)
    for k in range(1, MAX_LEAVES):
        leaf = cylinder(k % 4 + 1, k % 3 % 2)
        expr = Not(And(expr, leaf) if k % 2 else Or(expr, leaf))
    expr = Not(expr)
    assert sum(1 for _ in leaves(expr)) == MAX_LEAVES
    psi = PureState(2, np.array([0.8, 0.6]))
    quantum, classical = quantum_classical_agreement(psi, expr, 4)
    assert abs(quantum - classical) <= 1e-12
    assert abs(classical - naive_event_probability(0.36, expr)) <= 1e-12


def _not_chain(depth: int):
    expr = cylinder(1, 1)
    for _ in range(depth):
        expr = Not(expr)
    return expr


def _left_deep_and(count: int):
    expr = cylinder(1, 1)
    for k in range(1, count):
        expr = And(expr, cylinder(k % 3 + 1, 1))
    return expr


@pytest.mark.parametrize(
    "expr, amplitudes, want",
    [
        # an even number of NOTs leaves P(bit 1 at site 1) = 0.8^2
        (_not_chain(1200), (0.6, 0.8), 0.64),
        # 1,100 ANDed leaves fix bit 1 at sites 1..3: 0.5^3
        (_left_deep_and(1100), (math.sqrt(0.5), math.sqrt(0.5)), 0.125),
    ],
    ids=["not-chain-1200", "left-deep-and-1100"],
)
def test_trees_deeper_than_the_recursion_limit_are_walked(expr, amplitudes, want):
    psi = PureState(2, np.array(amplitudes))
    p = abs(psi.amplitudes[1]) ** 2
    quantum, classical = quantum_classical_agreement(psi, expr, 3)
    assert abs(quantum - want) <= 1e-12
    assert abs(classical - want) <= 1e-12
    assert abs(classical_probability(BernoulliSpec(p), expr) - want) <= 1e-12


@pytest.mark.parametrize("bad", [And(cylinder(1, 1), "x"), Not(3), CylinderEvent({1: 1})])
def test_walk_refuses_a_node_that_is_not_an_expression(bad):
    with pytest.raises(TypeError, match="not a boolean expression node"):
        involved_sites(bad)
    with pytest.raises(TypeError, match="not a boolean expression node"):
        stochastics._indicator(bad, (1,))


def test_agreement_checks_sites_before_allocating(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the quantum side allocated before the site checks")

    monkeypatch.setattr(stochastics, "kron_power", must_not_run)
    monkeypatch.setattr(stochastics, "_indicator", must_not_run)
    psi = PureState(2, np.array([0.8, 0.6]))
    wide = Or(Leaf(CylinderEvent({k: 1 for k in range(1, 17)})), cylinder(10**6, 0))
    with pytest.raises(TooManySites):
        quantum_classical_agreement(psi, wide, 10**6)
    with pytest.raises(SiteBeyondHorizon):
        quantum_classical_agreement(psi, And(cylinder(2, 1), cylinder(5, 0)), 4)


def test_agreement_on_a_leaf_without_constraints():
    psi = PureState(2, np.array([0.8, 0.6]))
    sure = Leaf(CylinderEvent({}))
    assert quantum_classical_agreement(psi, sure, 3) == (1.0, 1.0)
    assert quantum_classical_agreement(psi, Not(sure), 3) == (0.0, 0.0)
