"""Mixture fits: validation, round-trips against known atoms, field check.

The round-trip oracles are exact by construction: targets are assembled from
known atoms and weights, so the fit has a unique answer to recover. The
fit's one representation, one coordinate per class of Pauli strings with the
same label counts, is defined on permutation-invariant operators; on those
it is checked against literal traces, Frobenius inner products and dense
product powers.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    I2,
    P0,
    P1,
    SX,
    SY,
    SZ,
    assert_raises_before_allocating,
    kron_chain,
    naive_symmetrize,
    nelder_mead_sup,
    rand_hermitian,
    spin_blocks_oracle,
)
from macrofield import _optim, definetti
from macrofield._optim import MAX_CHART_SITES, _coords, _correlate, _powers
from macrofield.cli import _LETTERS, _parse_section
from macrofield.definetti import (
    MAX_ATOMS,
    MERGE_DELTA,
    DiscreteMixture,
    FitResult,
    NotSymmetric,
    _best_vertex,
    _block_expect,
    _merge_atoms,
    _refine,
    _settle,
    field_of_states_check,
    fit_mixture,
    mixture_state,
    recover_mixture,
)
from macrofield.linalg import DimensionOverflow, Operator, SiteSpace, SpaceMismatch, kron_power
from macrofield.sections import (
    MAX_BLOCK_SITES,
    BadOrder,
    PerturbedSection,
    SymmetricSection,
    _sweep,
)
from macrofield.states import (
    BlochVector,
    DensityMatrix,
    NSiteState,
    PureState,
    a_infinity,
    bloch_to_density,
    density_to_bloch,
    expect,
    is_permutation_invariant,
    product_power,
    trace_distance,
)


def bloch_atom(x: float, y: float, z: float) -> DensityMatrix:
    return DensityMatrix(2, 0.5 * (I2 + x * SX + y * SY + z * SZ))


def avg_section(arr: np.ndarray) -> SymmetricSection:
    return SymmetricSection(2, 1, Operator(SiteSpace(2, 1), np.asarray(arr, dtype=complex)))


def random_pure_atom(rng: np.random.Generator) -> DensityMatrix:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return DensityMatrix(2, np.outer(v, v.conj()))


def separated_pure_pair(rng: np.random.Generator, sep: float = 0.3):
    while True:
        a, b = random_pure_atom(rng), random_pure_atom(rng)
        if trace_distance(a, b) >= sep:
            return a, b


ZERO = PureState(2, np.array([1.0, 0.0])).as_density()
ONE = PureState(2, np.array([0.0, 1.0])).as_density()
PLUS = PureState(2, np.array([1.0, 1.0]) / np.sqrt(2.0)).as_density()


# ---------------------------------------------------------------- mixtures


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteMixture(((0.5, ZERO), (0.4, ONE)))
    with pytest.raises(ValueError):
        DiscreteMixture(((1.2, ZERO), (-0.2, ONE)))
    with pytest.raises(ValueError):
        DiscreteMixture(())


def test_mixture_rejects_colliding_atoms():
    close = bloch_atom(0.0, 0.0, 1.0 - 1.5 * MERGE_DELTA)
    with pytest.raises(ValueError):
        DiscreteMixture(((0.5, ZERO), (0.5, close)))
    # at exactly the floor the pair is allowed
    apart = bloch_atom(0.0, 0.0, 1.0 - 2.0 * MERGE_DELTA - 1e-6)
    DiscreteMixture(((0.5, ZERO), (0.5, apart)))


def test_mixture_rejects_mixed_dimensions():
    qutrit = DensityMatrix(3, np.eye(3) / 3.0)
    with pytest.raises(SpaceMismatch):
        DiscreteMixture(((0.5, ZERO), (0.5, qutrit)))


def test_mixture_state_single_atom_is_product_power():
    rho = bloch_atom(0.2, -0.4, 0.1)
    mix = DiscreteMixture(((1.0, rho),))
    got = mixture_state(mix, 4)
    want = product_power(rho, 4)
    assert got.space == want.space
    np.testing.assert_allclose(got.rho, want.rho, atol=1e-14)


def test_mixture_state_two_point_oracle():
    mix = DiscreteMixture(((0.5, ZERO), (0.5, ONE)))
    got = mixture_state(mix, 2).rho
    want = 0.5 * kron_chain(P0, P0) + 0.5 * kron_chain(P1, P1)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_mixture_state_is_linear_in_the_atoms():
    rng = np.random.default_rng(41)
    atoms = [random_pure_atom(rng) for _ in range(3)]
    w = np.array([0.2, 0.3, 0.5])
    mix = DiscreteMixture(tuple(zip(w, atoms)))
    n = 3
    sec = avg_section(SZ)
    lhs = expect(mixture_state(mix, n), sec.materialize(n))
    rhs = sum(wi * expect(product_power(a, n), sec.materialize(n)) for wi, a in zip(w, atoms))
    assert abs(lhs - rhs) < 1e-12


def test_mixture_state_permutation_invariant():
    rng = np.random.default_rng(42)
    a, b = separated_pure_pair(rng)
    mix = DiscreteMixture(((0.3, a), (0.7, b)))
    state = mixture_state(mix, 4)
    assert is_permutation_invariant(state)
    assert abs(np.trace(state.rho) - 1.0) < 1e-12
    np.testing.assert_allclose(state.rho, state.rho.conj().T, atol=1e-14)


def test_mixture_state_rejects_bad_site_count():
    mix = DiscreteMixture(((1.0, ZERO),))
    with pytest.raises(SpaceMismatch):
        mixture_state(mix, 0)


# ---------------------------------------------- Pauli coefficient oracles


def test_moment_tensor_matches_literal_traces():
    # the chart reads one Pauli string per class, so the input must be invariant
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        a = naive_symmetrize(rand_hermitian(rng, 2**n), 2, n)
        coeffs = _coords(a, n)
        for _ in range(4):
            b = rng.standard_normal(3)
            r = np.linalg.norm(b)
            if r > 1.0:
                b /= r * 1.0001
            rho = 0.5 * (I2 + b[0] * SX + b[1] * SY + b[2] * SZ)
            literal = np.trace(a @ kron_chain(*([rho] * n))).real
            [fast], _ = _correlate(coeffs, b[None, :], n)
            assert abs(fast - literal) < 1e-10


def ball_point(rng: np.random.Generator, pure: bool) -> np.ndarray:
    b = rng.standard_normal(3)
    b /= np.linalg.norm(b)
    return b if pure else b * rng.uniform() ** (1.0 / 3.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
def test_coordinates_are_an_orthonormal_chart(seed, n, pure):
    rng = np.random.default_rng(seed)
    a, b = (naive_symmetrize(rand_hermitian(rng, 2**n), 2, n) for _ in range(2))
    want = np.trace(a @ b).real
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    assert abs(_coords(a, n) @ _coords(b, n) - want) <= 1e-12 * scale
    # the fit's product-power row is the chart of the dense product power
    bloch = ball_point(rng, pure)
    rho = bloch_to_density(BlochVector(*bloch))
    [row] = _powers(bloch[None, :], n)
    np.testing.assert_allclose(row, _coords(product_power(rho, n).rho, n), rtol=0, atol=1e-14)


def test_chart_has_one_coordinate_per_label_multiset():
    rng = np.random.default_rng(8)
    for n in range(1, 25):
        size = math.comb(n + 3, 3)
        assert _powers(ball_point(rng, False)[None, :], n).shape == (1, size)
        if n <= 5:
            a = naive_symmetrize(rand_hermitian(rng, 2**n), 2, n)
            assert _coords(a, n).size == size


@pytest.mark.parametrize("n", [36, 40])
def test_chart_norm_matches_the_closed_form_past_35_sites(n, monkeypatch):
    # from n = 36 on, n!/beta! passes 2**64; the Frobenius norm of rho(b)^(x)n
    # is tr(rho^2)^(n/2), with tr(rho^2) = (1 + |b|^2)/2. The arithmetic does
    # not depend on the chart's site cap, which is lifted here, and the classes
    # built past it leave the cache afterwards
    monkeypatch.setattr(_optim, "MAX_CHART_SITES", n)
    rng = np.random.default_rng(n)
    blochs = np.array([ball_point(rng, pure) for pure in (True, False, False)])
    try:
        got = (_powers(blochs, n) ** 2).sum(axis=1)
    finally:
        _optim._classes.cache_clear()
    want = ((1.0 + (blochs**2).sum(axis=1)) / 2.0) ** n
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_correlation_oracle_matches_dense_routes(seed, n):
    rng = np.random.default_rng(seed)
    big = naive_symmetrize(rand_hermitian(rng, 2**n), 2, n)
    c = _coords(big, n)
    scale = np.linalg.norm(big)
    blochs = np.array([ball_point(rng, pure) for pure in (True, False, False, True)])
    vals, grads = _correlate(c, blochs, n)
    for b, val in zip(blochs, vals):
        dense = np.trace(big @ kron_power(bloch_to_density(BlochVector(*b)).entries, n)).real
        assert abs(val - dense) <= 1e-12 * scale
    # the gradient is a polynomial's; central differences of step h err by O(h^2)
    h = 1e-5
    for axis in range(3):
        shift = h * np.eye(3)[axis]
        diff = (_correlate(c, blochs + shift, n)[0] - _correlate(c, blochs - shift, n)[0]) / (2 * h)
        np.testing.assert_allclose(grads[:, axis], diff, rtol=0, atol=1e-7 * scale)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_best_vertex_is_at_least_the_nelder_mead_maximum(seed, n):
    rng = np.random.default_rng(seed)
    big = naive_symmetrize(rand_hermitian(rng, 2**n), 2, n)
    c = _coords(big, n)
    best = _best_vertex(c, n)
    assert np.linalg.norm(best) <= 1.0 + 1e-15
    [got], _ = _correlate(c, best[None, :], n)
    want = nelder_mead_sup(lambda rho: np.trace(big @ kron_power(rho, n)).real)
    assert got >= want - 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 4.0 * MERGE_DELTA))
def test_merge_criterion_is_the_trace_distance(seed, pure, gap):
    rng = np.random.default_rng(seed)
    b1 = ball_point(rng, pure)
    # a second point about gap away in trace distance, kept in the ball
    b2 = b1 + 2.0 * gap * ball_point(rng, True)
    b2 /= max(1.0, np.linalg.norm(b2))
    dist = trace_distance(bloch_to_density(BlochVector(*b1)), bloch_to_density(BlochVector(*b2)))
    assert abs(0.5 * np.linalg.norm(b1 - b2) - dist) <= 1e-14
    merged, weights = _merge_atoms(np.array([b1, b2]), np.array([0.25, 0.75]))
    if abs(dist - MERGE_DELTA) > 1e-14:
        assert len(merged) == (1 if dist < MERGE_DELTA else 2)
    assert abs(weights.sum() - 1.0) <= 1e-15


def test_fit_builds_no_n_site_matrix(monkeypatch):
    target = mixture_state(DiscreteMixture(((0.4, ZERO), (0.6, PLUS))), 4)
    real_kron_power = definetti.kron_power

    def vectors_only(arr, n):
        assert arr.ndim == 1, "the fit formed a Kronecker power of a matrix"
        return real_kron_power(arr, n)

    monkeypatch.setattr(definetti, "kron_power", vectors_only)
    res = fit_mixture(target, 4)
    assert len(res.mixture.atoms) == 2
    assert res.residual <= 1e-6
    for w_true, atom_true in ((0.4, ZERO), (0.6, PLUS)):
        dist, w_got = min((trace_distance(atom_true, atom), w) for w, atom in res.mixture.atoms)
        assert dist <= 1e-3
        assert abs(w_got - w_true) <= 1e-3


# -------------------------------------------------------------------- fits


def test_fit_recovers_single_mixed_atom():
    rho = DensityMatrix(2, np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
    res = fit_mixture(product_power(rho, 5), 4)
    assert len(res.mixture.atoms) == 1
    assert res.residual <= 1e-8
    w, atom = res.mixture.atoms[0]
    assert abs(w - 1.0) < 1e-9
    assert trace_distance(atom, rho) <= 1e-6
    assert not res.budget_exhausted
    assert len(res.history) == res.iterations + 1
    assert all(b <= a + 1e-15 for a, b in zip(res.history, res.history[1:]))


def test_fit_recovers_two_pure_atoms():
    mix = DiscreteMixture(((0.5, ZERO), (0.5, PLUS)))
    res = fit_mixture(mixture_state(mix, 6), 6)
    assert len(res.mixture.atoms) == 2
    assert res.residual <= 1e-6
    for w, _ in res.mixture.atoms:
        assert abs(w - 0.5) <= 1e-3
    for _, atom in res.mixture.atoms:
        assert min(trace_distance(atom, ZERO), trace_distance(atom, PLUS)) <= 1e-3


def test_fit_maximally_mixed_within_loose_budget():
    space = SiteSpace(2, 4)
    target = NSiteState(space, np.eye(space.dim) / space.dim)
    res = fit_mixture(target, 20)
    assert res.residual <= 0.05
    assert not res.budget_exhausted


def test_fit_round_trips_random_two_atom_mixtures():
    rng = np.random.default_rng(91)
    for _ in range(5):
        a, b = separated_pure_pair(rng)
        w1 = float(rng.uniform(0.3, 0.7))
        mix = DiscreteMixture(((w1, a), (1.0 - w1, b)))
        target = mixture_state(mix, 6)
        res = fit_mixture(target, 6)
        assert len(res.mixture.atoms) == 2
        assert res.residual <= 1e-6
        for w_true, atom_true in mix.atoms:
            dist, w_got = min(
                (trace_distance(atom_true, atom), w)
                for w, atom in res.mixture.atoms
            )
            assert dist <= 1e-3
            assert abs(w_got - w_true) <= 1e-3
        # the reported residual matches the returned mixture
        back = mixture_state(res.mixture, 6)
        literal = float(np.linalg.norm(np.asarray(target.rho) - np.asarray(back.rho)))
        assert abs(literal - res.residual) <= 1e-9


def test_fit_round_trips_interior_atoms():
    # atoms strictly inside the Bloch ball, not just pure ones
    a = bloch_atom(0.5, 0.1, -0.3)
    b = bloch_atom(-0.2, -0.4, 0.1)
    mix = DiscreteMixture(((0.35, a), (0.65, b)))
    res = fit_mixture(mixture_state(mix, 6), 6)
    assert len(res.mixture.atoms) == 2
    assert res.residual <= 1e-6
    for w_true, atom_true in mix.atoms:
        dist, w_got = min(
            (trace_distance(atom_true, atom), w) for w, atom in res.mixture.atoms
        )
        assert dist <= 1e-3
        assert abs(w_got - w_true) <= 1e-3


def test_fit_reports_budget_exhaustion():
    mix = DiscreteMixture(((0.4, ZERO), (0.3, ONE), (0.3, PLUS)))
    res = fit_mixture(mixture_state(mix, 4), 1)
    assert len(res.mixture.atoms) == 1
    assert res.budget_exhausted
    assert res.residual > 1e-9


def bloch_mixture(spec) -> DiscreteMixture:
    return DiscreteMixture(tuple((w, bloch_to_density(BlochVector(*b))) for w, b in spec))


def unit_bloch(rng: np.random.Generator) -> np.ndarray:
    b = rng.standard_normal(3)
    return b / np.linalg.norm(b)


def assert_recovered(mix: DiscreteMixture, res: FitResult) -> None:
    assert len(res.mixture.atoms) == len(mix.atoms)
    assert res.residual <= 1e-6
    for w_true, atom_true in mix.atoms:
        dist, w_got = min((trace_distance(atom_true, atom), w) for w, atom in res.mixture.atoms)
        assert dist <= 1e-3
        assert abs(w_got - w_true) <= 1e-3


@pytest.mark.parametrize(
    "spec",
    [
        ((0.4, (0, 0, 1)), (0.3, (0, 0, -1)), (0.3, (1, 0, 0))),
        (
            (0.4034, (0.776856, 0.626757, 0.060564)),
            (0.2801, (0.58688, -0.790561, -0.174879)),
            (0.3165, (-0.626269, 0.777896, 0.051598)),
        ),
    ],
)
def test_fit_continues_past_a_first_atom_worse_than_zero(spec):
    # the best single product power lies farther from the target than the
    # zero operator does, so the first round must not be measured against zero
    mix = bloch_mixture(spec)
    target = mixture_state(mix, 6)
    res = fit_mixture(target, 6)
    assert res.history[0] > np.linalg.norm(target.rho)
    assert_recovered(mix, res)
    assert not res.budget_exhausted
    assert all(b <= a + 1e-15 for a, b in zip(res.history, res.history[1:]))


@pytest.mark.parametrize(
    "spec, n",
    [
        (((0.4, (0, 0, 1)), (0.3, (0, 0, -1)), (0.3, (1, 0, 0))), 10),
        (((0.5, (0, 0, 1)), (0.5, (1, 0, 0))), 11),
    ],
)
def test_fit_recovers_exact_mixtures_past_ten_sites(spec, n):
    # the joint refinement must run at every n; without it the greedy rounds
    # leave spurious low-weight atoms and a residual far above 1e-6
    mix = bloch_mixture(spec)
    res = fit_mixture(mixture_state(mix, n), 6)
    assert_recovered(mix, res)
    assert not res.budget_exhausted


def test_fit_recovers_seeded_three_atom_mixtures():
    rng = np.random.default_rng(5)
    for _ in range(8):
        while True:
            blochs = [unit_bloch(rng) for _ in range(3)]
            gaps = [0.5 * np.linalg.norm(a - b) for i, a in enumerate(blochs) for b in blochs[i + 1 :]]
            if min(gaps) >= 0.3:
                break
        weights = rng.dirichlet((3.0, 3.0, 3.0))
        mix = bloch_mixture(zip(weights, blochs))
        assert_recovered(mix, fit_mixture(mixture_state(mix, 6), 6))


def spread_blochs(rng: np.random.Generator, k: int) -> np.ndarray:
    # radii in [0.3, 0.9]; a draw closer than 0.6 to an earlier atom is redrawn
    out: list[np.ndarray] = []
    while len(out) < k:
        b = unit_bloch(rng) * rng.uniform(0.3, 0.9)
        if all(np.linalg.norm(b - a) >= 0.6 for a in out):
            out.append(b)
    return np.array(out)


@pytest.mark.parametrize(
    "n, k",
    # fewer coordinates, C(n+3, 3), than the 4k parameters ...
    [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 6), (3, 7), (3, 8)]
    # ... and more, as a control
    + [(4, 2), (6, 3)],
)
def test_refinement_converges_near_exact_mixtures(n, k):
    # one Gauss-Newton path serves every count of residuals and parameters;
    # the minimum-norm step reaches an exact fit from nearby starts either way
    rng = np.random.default_rng(1000 * n + k)
    for _ in range(20):
        blochs = spread_blochs(rng, k)
        weights = rng.dirichlet(np.full(k, 3.0))
        t = weights @ _powers(blochs, n)
        start = blochs + 0.02 * rng.standard_normal(blochs.shape)
        r_blochs, r_w = _refine(t, n, start, weights + 0.02 * rng.standard_normal(k))
        _, r = _settle(t, n, r_blochs, r_w)
        assert np.linalg.norm(r) <= 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        ((0.5, (0, 0, 1)), (0.5, (1, 0, 0))),
        ((0.3, (0, 0, 1)), (0.7, (0, 1, 0))),
        ((0.4, (0, 0, 1)), (0.3, (0, 0, -1)), (0.3, (1, 0, 0))),
    ],
)
def test_fit_converges_at_two_sites(spec):
    # Gauss-Newton steps that left the ball stalled these fits with the budget
    # spent; at n = 2 the atoms are not unique, so only the fit is checked
    res = recover_mixture(bloch_mixture(spec), 2, 6)
    assert res.residual <= 1e-10
    assert not res.budget_exhausted


def ghz_state(n: int) -> NSiteState:
    v = np.zeros(2**n)
    v[[0, -1]] = 2**-0.5
    return NSiteState(SiteSpace(2, n), np.outer(v, v))


def w_state(n: int) -> NSiteState:
    v = np.zeros(2**n)
    v[1 << np.arange(n)] = n**-0.5
    return NSiteState(SiteSpace(2, n), np.outer(v, v))


def record_safeguards(monkeypatch) -> dict:
    """Wrap the fit's helpers so that the returned record notes its greedy
    rounds, the atom counts its prune retries start from, rounds past the
    8-atom refinement gate, and merges. A round is greedy when a vertex
    search starts it; the prune retries start without one."""
    hits = {"greedy": 0, "retry_sizes": set(), "gate": 0, "merge": 0}
    real = {f: getattr(definetti, f) for f in ("_best_vertex", "_round", "_merge_atoms")}
    state = {"vertex": False}

    def best_vertex(c, n):
        state["vertex"] = True
        return real["_best_vertex"](c, n)

    def round_(t, n, blochs, w0):
        if state["vertex"]:
            hits["greedy"] += 1
        else:
            hits["retry_sizes"].add(len(blochs))
        hits["gate"] += len(blochs) > 8
        state["vertex"] = False
        return real["_round"](t, n, blochs, w0)

    def merge_atoms(blochs, weights):
        merged, w = real["_merge_atoms"](blochs, weights)
        hits["merge"] += len(merged) < len(blochs)
        return merged, w

    for f, wrapper in zip(real, (best_vertex, round_, merge_atoms)):
        monkeypatch.setattr(definetti, f, wrapper)
    return hits


@pytest.mark.parametrize(
    "target, k_max, safeguards",
    [
        # entangled targets, which no mixture of product powers reaches, and
        # the safeguards that each drives the fit through
        (ghz_state(2), 6, ()),
        (ghz_state(3), 6, ("merge",)),
        (w_state(3), 10, ("kept prune retry", "gate")),
        (ghz_state(4), 10, ("merge", "no-gain stop")),
    ],
    ids=["ghz2", "ghz3", "w3", "ghz4"],
)
def test_fit_safeguards_return_a_valid_mixture(monkeypatch, target, k_max, safeguards):
    hits = record_safeguards(monkeypatch)
    res = fit_mixture(target, k_max)
    reached = {
        "merge": hits["merge"] > 0,
        # a pass of retries starts each from one atom fewer than it holds,
        # so retries of two sizes mean that a pass kept one
        "kept prune retry": len(hits["retry_sizes"]) > 1,
        "gate": hits["gate"] > 0,
        # only a rejected greedy round adds no residual to the history
        "no-gain stop": hits["greedy"] > res.iterations,
    }
    assert [s for s in safeguards if not reached[s]] == []
    weights = np.array([w for w, _ in res.mixture.atoms])
    assert (weights > 0.0).all()
    assert abs(weights.sum() - 1.0) <= 1e-12
    for _, rho in res.mixture.atoms:
        b = density_to_bloch(rho)
        assert math.hypot(b.x, b.y, b.z) <= 1.0 + 1e-12
    # the reported residual is the distance of the returned mixture, which the
    # orthonormal chart gives as the Frobenius distance of the dense states
    dense = np.linalg.norm(target.rho - mixture_state(res.mixture, target.space.n).rho)
    assert abs(res.residual - dense) <= 1e-12
    assert res.residual == res.history[-1]


def test_fit_rejects_bad_inputs():
    qutrit = DensityMatrix(3, np.eye(3) / 3.0)
    with pytest.raises(SpaceMismatch):
        fit_mixture(product_power(qutrit, 2), 2)
    # recover_mixture refuses qutrit atoms and an empty site count alike
    with pytest.raises(SpaceMismatch):
        recover_mixture(DiscreteMixture(((1.0, qutrit),)), 2, 2)
    with pytest.raises(SpaceMismatch):
        recover_mixture(DiscreteMixture(((1.0, ZERO),)), 0, 2)
    target = product_power(ZERO, 3)
    with pytest.raises(ValueError):
        fit_mixture(target, 0)
    skew = NSiteState(SiteSpace(2, 2), np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(NotSymmetric):
        fit_mixture(skew, 2)


def test_chart_refuses_one_past_its_cap():
    mix = DiscreteMixture(((0.5, ZERO), (0.5, bloch_atom(1.0, 0.0, 0.0))))
    n = MAX_CHART_SITES + 1
    assert_raises_before_allocating(DimensionOverflow, recover_mixture, mix, n, 2)
    assert_raises_before_allocating(DimensionOverflow, _powers, np.zeros((1, 3)), n)


def test_atoms_and_atom_budget_refuse_one_past_their_cap():
    # the count is checked before the pairwise distances, so equal atoms do
    k = MAX_ATOMS + 1
    assert_raises_before_allocating(DimensionOverflow, DiscreteMixture, ((1.0 / k, ZERO),) * k)
    mix = DiscreteMixture(((0.5, ZERO), (0.5, PLUS)))
    assert_raises_before_allocating(DimensionOverflow, recover_mixture, mix, MAX_CHART_SITES, k)
    target = product_power(ZERO, 3)
    assert_raises_before_allocating(DimensionOverflow, fit_mixture, target, k)


def test_fit_result_invariants_are_enforced():
    mix = DiscreteMixture(((1.0, ZERO),))
    with pytest.raises(ValueError):
        FitResult(mix, -1e-3, 1, False, (0.1,))
    with pytest.raises(ValueError):
        FitResult(mix, 0.2, 2, False, (0.1, 0.2))


# ------------------------------------------------------------- field check


def test_field_check_single_atom_average():
    rho = bloch_atom(0.1, 0.2, 0.3)
    mix = DiscreteMixture(((1.0, rho),))
    sec = avg_section(SZ)
    rows = field_of_states_check(mix, sec, range(1, 7))
    assert [n for n, _, _ in rows] == list(range(1, 7))
    for _, lhs, rhs in rows:
        assert abs(rhs - 0.3) < 1e-12
        assert abs(lhs - rhs) <= 1e-9


def test_field_check_two_atom_average_oracle():
    a = bloch_atom(0.0, 0.0, 0.8)
    b = bloch_atom(0.3, 0.0, -0.5)
    mix = DiscreteMixture(((0.25, a), (0.75, b)))
    want = 0.25 * 0.8 + 0.75 * (-0.5)
    rows = field_of_states_check(mix, avg_section(SZ), range(1, 9))
    for _, lhs, rhs in rows:
        assert abs(rhs - want) < 1e-12
        assert abs(lhs - rhs) <= 1e-9


def test_field_check_identity_seed_gives_one():
    rng = np.random.default_rng(5)
    a, b = separated_pure_pair(rng)
    mix = DiscreteMixture(((0.6, a), (0.4, b)))
    for _, lhs, rhs in field_of_states_check(mix, avg_section(I2), [1, 3, 5]):
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 1.0) < 1e-12


def test_field_check_order_two_section():
    rng = np.random.default_rng(17)
    atoms = []
    while len(atoms) < 3:
        cand = random_pure_atom(rng)
        if all(trace_distance(cand, kept) >= 0.2 for kept in atoms):
            atoms.append(cand)
    mix = DiscreteMixture(((0.2, atoms[0]), (0.5, atoms[1]), (0.3, atoms[2])))
    seed = 0.5 * (kron_chain(SX, SZ) + kron_chain(SZ, SX))
    sec = SymmetricSection(2, 2, Operator(SiteSpace(2, 2), seed))
    rows = field_of_states_check(mix, sec, [5, 3, 3, 7, 2])
    assert [n for n, _, _ in rows] == [2, 3, 5, 7]
    rhs0 = rows[0][2]
    for _, lhs, rhs in rows:
        assert rhs == rhs0
        assert abs(lhs - rhs) <= 1e-9
    # the shared limit value agrees with the per-atom pullback
    want = sum(w * a_infinity(sec, rho) for w, rho in mix.atoms)
    assert abs(rhs0 - want) < 1e-12


# every descriptor of the command-line grammar
_DESCRIPTORS = (
    [f"avg({a})" for a in _LETTERS]
    + [f"sym2({a},{b})" for i, a in enumerate(_LETTERS) for b in _LETTERS[i:]]
    + ["freq(0)", "freq(1)"]
)

_ATOM = st.tuples(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.05, 1.0),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_ATOM, min_size=1, max_size=3), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_block_and_chart_routes_match_the_dense_oracle(atoms, n, seed):
    # the field check's block expectation and the fit's chart target against
    # the dense mixture state, for pure and mixed atoms; besides the grammar's
    # descriptors, random Hermitian seeds of order 1 and 2, the second not
    # symmetric under the swap of its two sites
    total = sum(w for _, _, w in atoms)
    spec = [(w / total, np.asarray(v) / np.linalg.norm(v) * r) for v, r, w in atoms]
    # trace distance, half the Bloch distance, clear of the merge threshold
    gaps = [0.5 * np.linalg.norm(a - b) for i, (_, a) in enumerate(spec) for _, b in spec[:i]]
    assume(min(gaps, default=1.0) >= 2 * MERGE_DELTA)
    mix = bloch_mixture(spec)
    state = mixture_state(mix, n)
    rng = np.random.default_rng(seed)
    cases = [_parse_section(text)[0] for text in _DESCRIPTORS] + [
        SymmetricSection(2, m, Operator(SiteSpace(2, m), rand_hermitian(rng, 2**m)))
        for m in (1, 2)
    ]
    seed2 = cases[-1].seed.entries
    assert not np.allclose(seed2, seed2.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4))
    for section in cases:
        want = expect(state, section.materialize(n))
        assert abs(_block_expect(mix, section, n) - want) <= 1e-12 * max(1.0, abs(want))
    # the target that recover_mixture hands the fit
    with mock.patch.object(definetti, "_fit", lambda t, n, k_max: t):
        chart = recover_mixture(mix, n, 1)
    np.testing.assert_allclose(chart, _coords(state.rho, n), rtol=0, atol=1e-13)


def _spin_block_expect(mix: DiscreteMixture, section: SymmetricSection, n: int) -> float:
    """The mixture expectation from the full blocks of spin_blocks_oracle for
    the seed turned into each atom's eigenbasis: their diagonals weighted by
    l0^e l1^(n-e) on each of the C(n, k) - C(n, k - 1) copies of the irrep
    J = n/2 - k."""
    total = 0.0
    for w, rho in mix.atoms:
        lam, u = np.linalg.eigh(rho.entries)
        lam, uu = np.maximum(lam, 0.0), kron_power(u, section.m)
        seed = uu.conj().T @ section.seed.entries @ uu
        for k, block in enumerate(spin_blocks_oracle(seed, n)):
            e = n - k - np.arange(len(block))
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            with np.errstate(divide="ignore"):
                log_w = e * np.log(np.where(e > 0, lam[0], 1.0)) + (n - e) * np.log(lam[1])
            total += w * float(np.exp(log_w + math.log(mult)) @ block.diagonal().real)
    return total


@pytest.mark.parametrize("n", [64, MAX_BLOCK_SITES])
def test_block_expectation_matches_the_full_spin_blocks(n):
    # the band table's diagonals against those of the oracle's multiplied blocks,
    # on pure and mixed atoms, for seeds neither Hermitian nor swap-symmetric,
    # whose expectations both routes give the real part of
    rng = np.random.default_rng(n)
    mix = bloch_mixture([(0.5, (0.0, 0.0, 1.0)), (0.3, (0.6, -0.2, 0.1)), (0.2, (-0.3, 0.4, 0.5))])
    for m in (1, 2):
        seed = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
        section = SymmetricSection(2, m, Operator(SiteSpace(2, m), seed))
        want = _spin_block_expect(mix, section, n)
        assert abs(_block_expect(mix, section, n) - want) <= 1e-12 * max(1.0, abs(want))


def test_field_check_refuses_one_past_the_block_cap():
    mix = DiscreteMixture(((0.5, ZERO), (0.5, PLUS)))
    pair = SymmetricSection(2, 2, Operator(SiteSpace(2, 2), kron_chain(SX, SZ)))
    # the list is checked whole: n = MAX_BLOCK_SITES does not run first
    for section in (avg_section(SX), pair):
        for past in ([MAX_BLOCK_SITES + 1], [MAX_BLOCK_SITES, MAX_BLOCK_SITES + 1]):
            assert_raises_before_allocating(
                DimensionOverflow, field_of_states_check, mix, section, past
            )


def test_field_check_without_blocks_stays_dense():
    # qutrit sites and order-3 seeds have no spin_blocks, so the sweep helper
    # sends them dense; their line is the dense expectation, and the limit
    # still holds
    rng = np.random.default_rng(11)
    h = rand_hermitian(rng, 3)
    qutrits = DiscreteMixture(((0.5, DensityMatrix(3, np.eye(3) / 3.0)),
                               (0.5, DensityMatrix(3, np.diag([1.0, 0.0, 0.0])))))
    three = SymmetricSection(2, 3, Operator(SiteSpace(2, 3), kron_chain(SX, SZ, SX)))
    qubits = DiscreteMixture(((0.4, ZERO), (0.6, PLUS)))
    for mix, section, ns in (
        (qutrits, SymmetricSection(3, 1, Operator(SiteSpace(3, 1), h)), [1, 2, 4]),
        (qubits, three, [3, 5, 7]),
    ):
        for n, lhs, rhs in field_of_states_check(mix, section, ns):
            assert not _sweep([n], section)[1]
            assert abs(lhs - expect(mixture_state(mix, n), section.materialize(n))) <= 1e-12
            assert abs(lhs - rhs) <= 1e-9


def test_field_check_rejects_bad_inputs():
    mix = DiscreteMixture(((1.0, ZERO),))
    sec = avg_section(SZ)
    with pytest.raises(BadOrder):
        field_of_states_check(mix, sec, [0, 2])
    two = SymmetricSection(2, 2, Operator(SiteSpace(2, 2), kron_chain(SX, SX)))
    with pytest.raises(BadOrder):
        field_of_states_check(mix, two, [1])
    pert = PerturbedSection(sec, lambda n: Operator(SiteSpace(2, n), np.zeros((2**n, 2**n))), 1.0, 1.0)
    with pytest.raises(BadOrder):
        field_of_states_check(mix, pert, [2])
    qutrit = DiscreteMixture(((1.0, DensityMatrix(3, np.eye(3) / 3.0)),))
    with pytest.raises(SpaceMismatch):
        field_of_states_check(qutrit, sec, [2])
