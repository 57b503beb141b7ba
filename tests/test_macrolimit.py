"""Limit-experiment checks.

Oracles are computed from scratch here: the 2/n commutator law for one-site
Pauli averages, binomial window masses, a dense Bloch-sphere grid for the
product-state supremum, and closed-form frequency spectra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macrofield.macrolimit as macrolimit
from conftest import (
    I2,
    P1,
    SX,
    SY,
    SZ,
    assert_raises_before_allocating,
    binom_window_mass,
    exact_binom_window_mass,
    haar_qubit,
    kron_chain,
    nelder_mead_sup,
    rand_hermitian,
)
from macrofield.definetti import DiscreteMixture, field_of_states_check
from macrofield.linalg import (
    DimensionOverflow,
    Operator,
    SiteSpace,
    SpaceMismatch,
    commutator,
    identity,
    site_sum,
    spectral_norm,
)
from macrofield.macrolimit import (
    MAX_COUNT_SITES,
    BadWindow,
    DecayRecord,
    born_curve,
    commutator_decay,
    deviation_norm,
    fit_decay_exponent,
    norm_gap,
    product_state_sup,
    window_mass,
    window_projection,
)
from macrofield.sections import (
    MAX_BLOCK_SITES,
    BadOrder,
    FrequencySpec,
    PerturbedSection,
    SymmetricSection,
    frequency_operator,
    materialize,
)
from macrofield.states import DensityMatrix, PureState, expect, pure_power


def op1(arr) -> Operator:
    return Operator(SiteSpace(2, 1), np.asarray(arr, dtype=complex))


def avg_section(arr) -> SymmetricSection:
    return SymmetricSection(2, 1, op1(arr))


def sym2_section(a, b) -> SymmetricSection:
    seed = (np.kron(a, b) + np.kron(b, a)) / 2
    return SymmetricSection(2, 2, Operator(SiteSpace(2, 2), seed))


P1_SPEC = FrequencySpec(2, op1(P1))


# ---------------------------------------------------------------- decay


def test_decay_identical_sections_vanishes():
    s = avg_section(SZ)
    records = commutator_decay(s, s, [2, 3, 4])
    assert all(r.value <= 1e-14 for r in records)
    assert math.isnan(fit_decay_exponent(records))


def test_decay_x_z_follows_two_over_n():
    # [avg(X), avg(Z)] = -(2i/n) avg(Y), so the norm is exactly 2/n
    records = commutator_decay(avg_section(SX), avg_section(SZ), range(2, 9))
    for r in records:
        assert abs(r.value - 2.0 / r.n) <= 1e-10
        assert abs(r.scaled - 2.0) <= 1e-8


def test_decay_order_two_sections():
    xx = sym2_section(SX, SX)
    zz = sym2_section(SZ, SZ)
    records = commutator_decay(xx, zz, [3, 4, 5, 6, 7, 8])
    values = [r.value for r in records]
    assert all(v > 0 for v in values)
    # n = 3 and n = 4 tie at 4 / (3 sqrt 3); from n = 4 on the norm falls strictly
    tie = 4 / (3 * math.sqrt(3))
    assert all(abs(v - tie) <= 1e-14 * tie for v in values[:2])
    assert all(a > b for a, b in zip(values[1:], values[2:]))
    assert fit_decay_exponent(records) >= 0.7


def test_decay_rejects_n_below_seed_order():
    with pytest.raises(BadOrder):
        commutator_decay(sym2_section(SX, SX), avg_section(SZ), [1, 4])


def test_decay_with_perturbed_section():
    base = avg_section(SX)

    def pert(n: int) -> Operator:
        arr = site_sum(op1(SY), n).entries / n
        return Operator(SiteSpace(2, n), 0.5 * arr / n)

    psec = PerturbedSection(base, pert, 0.5, 1.0)
    records = commutator_decay(psec, avg_section(SZ), [2, 3, 4, 6])
    for r in records:
        # triangle inequality around the unperturbed 2/n law
        assert 2.0 / r.n - 1.0 / r.n**2 - 1e-10 <= r.value <= 2.0 / r.n + 1.0 / r.n**2 + 1e-10


def test_fit_exponent_synthetic():
    one_over_n = [DecayRecord(n, 3.7 / n, 3.7) for n in range(2, 11)]
    assert abs(fit_decay_exponent(one_over_n) - 1.0) <= 1e-10
    quadratic = [DecayRecord(n, 5.0 / n**2, 5.0 / n) for n in range(2, 11)]
    assert abs(fit_decay_exponent(quadratic) - 2.0) <= 1e-10
    assert math.isnan(fit_decay_exponent([DecayRecord(3, 1.0, 3.0)]))


# ---------------------------------------------------------------- product-state sup


def test_sup_projector_and_pauli_reach_one():
    assert abs(product_state_sup(SymmetricSection(2, 1, op1(P1)), 5) - 1.0) <= 1e-6
    assert abs(product_state_sup(avg_section(SZ), 3) - 1.0) <= 1e-6


def test_sup_sym2_xz_matches_bloch_grid():
    section = sym2_section(SX, SZ)
    lib = product_state_sup(section, 2)

    theta = np.linspace(0.0, np.pi, 1000)
    phi = np.linspace(0.0, 2.0 * np.pi, 1000)
    tt, pp = np.meshgrid(theta, phi)
    xs = (np.sin(tt) * np.cos(pp)).ravel()
    ys = (np.sin(tt) * np.sin(pp)).ravel()
    zs = np.cos(tt).ravel()
    rhos = 0.5 * (
        I2[None, :, :]
        + xs[:, None, None] * SX
        + ys[:, None, None] * SY
        + zs[:, None, None] * SZ
    )
    s4 = section.seed.entries.reshape(2, 2, 2, 2)
    best = 0.0
    for chunk in np.array_split(rhos, 16):
        vals = np.abs(np.einsum("nac,nbd,cdab->n", chunk, chunk, s4))
        best = max(best, float(vals.max()))
    assert abs(lib - best) <= 1e-4
    assert abs(lib - 0.5) <= 1e-6


def test_sup_validations(monkeypatch):
    with pytest.raises(BadOrder):
        product_state_sup(sym2_section(SX, SX), 1)
    big = SymmetricSection(5, 1, Operator(SiteSpace(5, 1), np.eye(5, dtype=complex)))
    with pytest.raises(SpaceMismatch):
        product_state_sup(big, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the optimizer ran on a section that is not a qubit's")

    # only the Bloch ball has a state chart; d = 3, 4 must fail before any search
    monkeypatch.setattr(macrolimit, "maximize_on_ball", refuse)
    for d in (3, 4):
        seed = np.diag([1.0, 0.0, -2.0, 0.0][:d]).astype(complex)
        with pytest.raises(SpaceMismatch):
            product_state_sup(SymmetricSection(d, 1, Operator(SiteSpace(d, 1), seed)), 2)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_sup_matches_the_nelder_mead_oracle(seed, m, hermitian):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
    if hermitian:
        a = (a + a.conj().T) / 2
    got = product_state_sup(SymmetricSection(2, m, Operator(SiteSpace(2, m), a)), m)
    want = nelder_mead_sup(lambda rho: abs(np.trace(kron_chain(*[rho] * m) @ a)))
    assert abs(got - want) <= 1e-9


def test_sup_of_an_antisymmetric_seed_is_zero():
    # x z - z x vanishes on every product state
    seed = np.kron(SX, SZ) - np.kron(SZ, SX)
    assert product_state_sup(SymmetricSection(2, 2, Operator(SiteSpace(2, 2), seed)), 2) == 0.0


# ---------------------------------------------------------------- norm gap


def test_norm_gap_pauli_average_closes():
    records = norm_gap(avg_section(SZ), [1, 2, 4, 6])
    for r in records:
        assert abs(r.exact_norm - 1.0) <= 1e-10
        assert abs(r.product_sup - 1.0) <= 1e-6
        assert abs(r.gap) <= 1e-6


def test_norm_gap_xx_norm_is_one():
    # the order-2 XX section equals ((sum X)^2 - n) / (n(n-1)); its largest
    # eigenvalue is ((n)^2 - n)/(n(n-1)) = 1 at the all-aligned vector
    records = norm_gap(sym2_section(SX, SX), [2, 3, 4, 5])
    for r in records:
        assert abs(r.exact_norm - 1.0) <= 1e-9
        assert abs(r.gap) <= 1e-6


def test_norm_gap_sym2_xz_shrinks():
    records = norm_gap(sym2_section(SX, SZ), [2, 3, 4, 6, 8])
    gaps = {r.n: r.gap for r in records}
    sups = {r.n: r.product_sup for r in records}
    norms = {r.n: r.exact_norm for r in records}
    assert abs(norms[2] - 1.0) <= 1e-9  # seed squares to (I + YxY)/2
    assert abs(sups[2] - 0.5) <= 1e-6
    assert all(g >= -1e-8 for g in gaps.values())
    assert gaps[8] < gaps[2]


def test_norm_gap_checks_n_before_the_optimizer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the optimizer ran before the n list was checked")

    monkeypatch.setattr(macrolimit, "maximize_on_ball", refuse)
    with pytest.raises(BadOrder):
        norm_gap(sym2_section(SX, SZ), [1, 4])
    # a perturbed section has no product-state supremum
    perturbed = PerturbedSection(avg_section(SZ), lambda n: identity(SiteSpace(2, n)), 1.0, 1.0)
    with pytest.raises(BadOrder):
        norm_gap(perturbed, [2, 4])
    # one n past the block cap refuses the list before the ascent
    with pytest.raises(DimensionOverflow):
        norm_gap(sym2_section(SX, SZ), [2, MAX_BLOCK_SITES + 1])


# ---------------------------------------------------------------- total-spin blocks


def _random_section(rng: np.random.Generator, m: int, hermitian: bool) -> SymmetricSection:
    dim = 2**m
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        a = (a + a.conj().T) / 2
    return SymmetricSection(2, m, Operator(SiteSpace(2, m), a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
def test_block_routes_match_dense_oracle(seed, m1, m2, hermitian, data):
    n = data.draw(st.integers(max(m1, m2), 8))
    rng = np.random.default_rng(seed)
    s1, s2 = _random_section(rng, m1, hermitian), _random_section(rng, m2, hermitian)

    [rec] = commutator_decay(s1, s2, [n])
    want = spectral_norm(commutator(materialize(s1, n), materialize(s2, n)))
    assert abs(rec.value - want) <= 1e-12 * max(1.0, want)
    # the supremum is not under test here; skip its optimizer
    with mock.patch.object(macrolimit, "maximize_on_ball", lambda fn: (np.zeros(3), 0.0)):
        for s in (s1, s2):
            [rec] = norm_gap(s, [n])
            want = spectral_norm(materialize(s, n))
            assert abs(rec.exact_norm - want) <= 1e-12 * max(1.0, want)


def test_norm_gap_of_a_section_of_order_three_matches_the_dense_norm(monkeypatch):
    # an order-3 section takes the total-spin blocks, never a dense matrix;
    # the dense matrix is the oracle
    def refuse(*args, **kwargs):
        raise AssertionError("norm_gap materialized an order-3 section")

    s = _random_section(np.random.default_rng(3), 3, hermitian=True)
    wants = {n: np.linalg.norm(materialize(s, n).entries, 2) for n in range(3, 7)}
    monkeypatch.setattr(macrolimit, "materialize", refuse)
    monkeypatch.setattr(macrolimit, "spectral_norm", refuse)
    records = norm_gap(s, range(3, 7))
    assert [r.n for r in records] == [3, 4, 5, 6]
    for r in records:
        want = wants[r.n]
        assert abs(r.exact_norm - want) <= 1e-12 * max(1.0, want)
        assert r.gap == r.exact_norm - r.product_sup
    assert len({r.product_sup for r in records}) == 1


def test_block_route_reaches_past_the_dense_cap():
    # spaces of dimension 2^16 to 2^64; the closed forms are 2/n and 1
    for r in commutator_decay(avg_section(SX), avg_section(SZ), [16, 32, 64]):
        assert abs(r.scaled - 2.0) <= 1e-8
    for r in norm_gap(sym2_section(SX, SX), [16, 32, 64]):
        assert abs(r.exact_norm - 1.0) <= 1e-9
    [rec] = norm_gap(avg_section(SZ), [64])
    assert abs(rec.exact_norm - 1.0) <= 1e-12
    # X (x) X (x) X on distinct sites: |+>^(x)n reaches 1, and no state more
    xxx = SymmetricSection(2, 3, Operator(SiteSpace(2, 3), kron_chain(SX, SX, SX)))
    for r in norm_gap(xxx, [16, 32, 64]):
        assert abs(r.exact_norm - 1.0) <= 1e-9


# ---------------------------------------------------------------- windows


def test_window_full_width_is_identity():
    proj = window_projection(P1_SPEC, 3, 0.5, 1.0)
    assert np.allclose(proj.entries, np.eye(8), atol=1e-12)


def test_window_two_sites_half_mean():
    proj = window_projection(P1_SPEC, 2, 0.5, 0.1)
    assert np.allclose(proj.entries, np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-12)


def test_window_can_be_empty():
    proj = window_projection(P1_SPEC, 2, 0.25, 0.1)
    assert np.count_nonzero(proj.entries) == 0


def test_window_closed_edges_count_multiplicities():
    # window [0.25, 0.75] at n=4 catches k = 1, 2, 3 including both edges
    proj = window_projection(P1_SPEC, 4, 0.5, 0.25)
    expected_rank = math.comb(4, 1) + math.comb(4, 2) + math.comb(4, 3)
    assert abs(np.trace(proj.entries).real - expected_rank) <= 1e-9


def test_window_tilted_projector_properties():
    v = np.array([math.cos(0.7), math.sin(0.7)], dtype=complex)
    spec = FrequencySpec(2, op1(np.outer(v, v.conj())))
    proj = window_projection(spec, 4, 0.5, 0.3)
    p = proj.entries
    assert np.linalg.norm(p - p.conj().T) <= 1e-12
    assert np.linalg.norm(p @ p - p) <= 1e-10
    f = frequency_operator(spec, 4)
    assert spectral_norm(commutator(proj, f)) <= 1e-10


def test_window_bad_arguments():
    with pytest.raises(BadWindow):
        window_projection(P1_SPEC, 2, 1.5, 0.1)
    with pytest.raises(BadWindow):
        window_projection(P1_SPEC, 2, 0.5, 0.0)
    with pytest.raises(BadWindow):
        window_projection(P1_SPEC, 2, 0.5, -0.2)
    # NaN fails every comparison, so a bare "epsilon <= 0" check lets it through
    psi = PureState(2, np.array([0.8, 0.6]))
    for eps in (math.nan, math.inf):
        with pytest.raises(BadWindow):
            window_mass(psi, P1_SPEC, [2], eps)
        with pytest.raises(BadWindow):
            window_projection(P1_SPEC, 2, 0.5, eps)
    psi3 = PureState(3, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(BadWindow):
        window_mass(psi3, P1_SPEC, [2], 0.1)
    with pytest.raises(BadWindow):
        born_curve(psi3, P1_SPEC, [2])
    with pytest.raises(BadWindow):
        deviation_norm(psi3, P1_SPEC, 2)


# ---------------------------------------------------------------- window mass


def test_mass_matches_binomial_closed_form():
    psi = PureState(2, np.array([math.sqrt(0.7), math.sqrt(0.3)]))
    for n in range(1, 9):
        [rec] = window_mass(psi, P1_SPEC, [n], 0.15)
        assert abs(rec.mass - binom_window_mass(n, 0.3, 0.15)) <= 1e-12


def test_mass_pinned_value_n12():
    psi = PureState(2, np.array([1.0, 1.0]) / math.sqrt(2.0))
    [rec] = window_mass(psi, P1_SPEC, [12], 0.15)
    assert abs(rec.mass - 0.6123046875) <= 1e-12


def test_mass_equals_literal_expectation():
    rng = np.random.default_rng(77)
    v = haar_qubit(rng)
    spec = FrequencySpec(2, op1(np.outer(v, v.conj())))
    psi = PureState(2, haar_qubit(rng))
    n = 5
    p = float(np.vdot(psi.amplitudes, spec.projector.entries @ psi.amplitudes).real)
    proj = window_projection(spec, n, p, 0.2)
    [rec] = window_mass(psi, spec, [n], 0.2)
    literal = expect(pure_power(psi, n), proj)
    assert abs(rec.mass - literal) <= 1e-12


def test_mass_concentrates_with_n():
    psi = PureState(2, np.array([1.0, 1.0]) / math.sqrt(2.0))
    [small] = window_mass(psi, P1_SPEC, [2], 0.15)
    [large] = window_mass(psi, P1_SPEC, [12], 0.15)
    assert large.mass > small.mass


# ---------------------------------------------------------------- born curve, deviation


def test_born_curve_is_constant_in_n():
    rng = np.random.default_rng(1234)
    for _ in range(3):
        psi = PureState(2, haar_qubit(rng))
        p = abs(psi.amplitudes[1]) ** 2
        for n, value in born_curve(psi, P1_SPEC, range(1, 9)):
            assert abs(value - p) <= 1e-12


def test_deviation_norm_variance_law():
    psi = PureState(2, np.array([0.8, 0.6]))
    p = 0.36
    for n in range(1, 11):
        got = deviation_norm(psi, P1_SPEC, n)
        assert abs(got - math.sqrt(p * (1 - p) / n)) <= 1e-12


def test_deviation_norm_reads_the_clamped_mean():
    # <psi|P0|psi> rounds past 1 here; the count law is a point mass at k = n,
    # so f_n equals the mean and the deviation is exactly zero
    psi = PureState(2, np.array([1 + 4e-13, 0.0]))
    assert deviation_norm(psi, FrequencySpec(2, op1(np.diag([1.0, 0.0]))), 10) == 0.0


# ---------------------------------------------------------------- dense oracle


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_spec(rng: np.random.Generator, kind: str) -> FrequencySpec:
    """A tilted qubit projector, or a rank-1 or rank-2 qutrit projector."""
    d, rank = {"qubit": (2, 1), "qutrit-rank1": (3, 1), "qutrit-rank2": (3, 2)}[kind]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    cols = q[:, :rank]
    return FrequencySpec(d, Operator(SiteSpace(d, 1), cols @ cols.conj().T))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["qubit", "qutrit-rank1", "qutrit-rank2"]),
    st.integers(1, 5),
    st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]),
)
def test_frequency_routes_match_dense_eig_oracle(seed, kind, n, eps):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, kind)
    psi = PureState(spec.d, _unit(rng, spec.d))
    vec = kron_chain(*[psi.amplitudes[:, None]] * n)[:, 0]
    p = float(np.vdot(psi.amplitudes, spec.projector.entries @ psi.amplitudes).real)
    w, v = np.linalg.eigh(frequency_operator(spec, n).entries)
    weights = np.abs(v.conj().T @ vec) ** 2
    inside = (w >= p - eps - 1e-12) & (w <= p + eps + 1e-12)
    oracle = v[:, inside] @ v[:, inside].conj().T

    assert np.abs(window_projection(spec, n, p, eps).entries - oracle).max() <= 1e-12
    [rec] = window_mass(psi, spec, [n], eps)
    assert abs(rec.mass - weights[inside].sum()) <= 1e-12
    [(_, born)] = born_curve(psi, spec, [n])
    assert abs(born - weights @ w) <= 1e-12
    assert abs(deviation_norm(psi, spec, n) - np.sqrt(weights @ (w - p) ** 2)) <= 1e-12


# ---------------------------------------------------------------- count route


def _vector_route(psi: PureState, spec: FrequencySpec, n: int):
    """Frequency per basis index of the n-fold product of the projector's
    eigenbasis u (the Kronecker sum of its eigenvalues over n), and the
    weight |(u^dagger psi)^(x)n|^2 of psi^(x)n on it."""
    w, u = np.linalg.eigh(spec.projector.entries)
    freq = w
    for _ in range(n - 1):
        freq = np.add.outer(freq, w).reshape(-1)
    rotated = (u.conj().T @ psi.amplitudes)[:, None]
    return freq / n, np.abs(kron_chain(*[rotated] * n)[:, 0]) ** 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["qubit", "qutrit-rank1", "qutrit-rank2"]),
    st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]),
    st.data(),
)
def test_count_route_matches_the_vector_route(seed, kind, eps, data):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, kind)
    psi = PureState(spec.d, _unit(rng, spec.d))
    ns = sorted(data.draw(st.sets(st.integers(1, 12 if spec.d == 2 else 8), min_size=1)))
    p = float(np.vdot(psi.amplitudes, spec.projector.entries @ psi.amplitudes).real)
    curve = dict(born_curve(psi, spec, ns))
    for n in ns:
        freq, weights = _vector_route(psi, spec, n)
        inside = (freq >= p - eps - 1e-12) & (freq <= p + eps + 1e-12)
        assert abs(curve[n] - weights @ freq) <= 1e-12
        [rec] = window_mass(psi, spec, [n], eps)
        assert abs(rec.mass - weights[inside].sum()) <= 1e-12
        assert abs(deviation_norm(psi, spec, n) - np.sqrt(weights @ (freq - p) ** 2)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["qubit", "qutrit-rank1", "qutrit-rank2"]),
    st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]),
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
)
def test_mass_list_equals_the_per_n_masses(seed, kind, eps, n_list):
    # one walk of the count law over the list, against a fresh walk per n
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, kind)
    psi = PureState(spec.d, _unit(rng, spec.d))
    records = window_mass(psi, spec, n_list, eps)
    assert [r.n for r in records] == sorted(set(n_list))
    for rec in records:
        assert [rec] == window_mass(psi, spec, [rec.n], eps)


def test_count_route_reaches_ten_thousand_sites():
    # d**n is 2**10000 here; only the outcome count is held
    n = 10**4
    psi = PureState(2, np.array([0.8, 0.6]))
    q = abs(psi.amplitudes[1]) ** 2
    [(_, born)] = born_curve(psi, P1_SPEC, [n])
    assert abs(born - q) <= 1e-12
    assert abs(deviation_norm(psi, P1_SPEC, n) - math.sqrt(q * (1 - q) / n)) <= 1e-12
    want = exact_binom_window_mass(n, Fraction(9, 25), Fraction(1, 100))
    [rec] = window_mass(psi, P1_SPEC, [n], 0.01)
    assert abs(rec.mass - want) <= 1e-12


def test_count_law_holds_no_subnormal_weight():
    # tail weights below the smallest normal double are zeroed as the walk
    # forms them; the law keeps its n + 1 entries and its mean
    psi = PureState(2, np.array([0.8, 0.6]))
    [(_, _, w)] = macrolimit._count_laws(psi, P1_SPEC, [2000])
    assert w.size == 2001
    assert not np.any((w > 0.0) & (w < np.finfo(float).tiny))
    assert abs(w @ np.arange(2001) / 2000 - 0.36) <= 1e-12


def test_count_and_block_routes_refuse_one_past_their_caps():
    # the count law is checked against the largest n before any n of the sweep
    n = MAX_COUNT_SITES + 1
    psi = PureState(3, np.array([0.6, 0.0, 0.8]))
    spec = FrequencySpec(3, Operator(SiteSpace(3, 1), np.diag([0.0, 0.0, 1.0])))
    assert_raises_before_allocating(DimensionOverflow, born_curve, psi, spec, [1, n])
    assert_raises_before_allocating(DimensionOverflow, window_mass, psi, spec, [1, n], 0.1)
    assert_raises_before_allocating(DimensionOverflow, deviation_norm, psi, spec, n)
    # a block sweep up to the cap takes tens of seconds; its list is checked
    # whole, so none of it runs
    x, z, xz = avg_section(SX), avg_section(SZ), sym2_section(SX, SZ)
    top = MAX_BLOCK_SITES + 1
    for past in ([top], [top - 1, top], range(2, top + 1)):
        assert_raises_before_allocating(DimensionOverflow, commutator_decay, x, z, past)
        assert_raises_before_allocating(DimensionOverflow, norm_gap, xz, past)
    # an order-3 seed halves the cap, for its pair's sweep too
    xzx = SymmetricSection(2, 3, Operator(SiteSpace(2, 3), kron_chain(SX, SZ, SX)))
    top = MAX_BLOCK_SITES // 2 + 1
    for past in ([top], [top - 1, top], range(3, top + 1)):
        assert_raises_before_allocating(DimensionOverflow, commutator_decay, x, xzx, past)
        assert_raises_before_allocating(DimensionOverflow, norm_gap, xzx, past)


def _qutrit_section(rng: np.random.Generator, m: int) -> SymmetricSection:
    return SymmetricSection(3, m, Operator(SiteSpace(3, m), rand_hermitian(rng, 3**m)))


def test_dense_sweeps_refuse_past_4096_rows_before_the_first_n():
    # the n below the last run for seconds and hundreds of MB on this route
    rng = np.random.default_rng(5)
    q1, q2 = _qutrit_section(rng, 1), _qutrit_section(rng, 1)
    assert_raises_before_allocating(DimensionOverflow, commutator_decay, q1, q2, [7, 8])
    mix = DiscreteMixture(((1.0, DensityMatrix(3, np.eye(3) / 3)),))
    assert_raises_before_allocating(DimensionOverflow, field_of_states_check, mix, q1, [7, 8])


def _route_sweeps(route: str):
    """The sweeps of one route, each a function of the n list; the least n
    they admit; and the first n past the route's cap."""
    if route == "block":
        s1, s2 = sym2_section(SX, SZ), avg_section(SY)
        mix = DiscreteMixture(((0.5, DensityMatrix(2, P1)), (0.5, DensityMatrix(2, (I2 + SX) / 2))))
        sweeps = [partial(commutator_decay, s1, s2), partial(norm_gap, s1)]
        return sweeps + [partial(field_of_states_check, mix, s1)], 2, MAX_BLOCK_SITES + 1
    if route == "dense":
        rng = np.random.default_rng(3)
        s1, s2 = _qutrit_section(rng, 2), _qutrit_section(rng, 1)
        mix = DiscreteMixture(((0.5, DensityMatrix(3, np.eye(3) / 3)),
                               (0.5, DensityMatrix(3, np.diag([1.0, 0.0, 0.0])))))
        return [partial(commutator_decay, s1, s2), partial(field_of_states_check, mix, s1)], 2, 8
    psi = PureState(2, np.array([0.8, 0.6]))
    sweeps = [partial(born_curve, psi, P1_SPEC), lambda ns: window_mass(psi, P1_SPEC, ns, 0.1)]
    return sweeps, 1, MAX_COUNT_SITES + 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["block", "dense", "count"]), st.data())
def test_sweeps_order_their_list_and_refuse_it_whole(route, data):
    # an unordered list with repeats gives one record per distinct n, in
    # ascending order, each equal to that n swept alone; one n below the seed
    # order or past the route's cap refuses the whole list before any n runs
    sweeps, lo, past = _route_sweeps(route)
    ns = data.draw(st.lists(st.integers(lo, 5 if route == "dense" else 16), min_size=1, max_size=8))
    bad = data.draw(st.sampled_from([lo - 1, past]))
    bad_ns = data.draw(st.permutations(ns + [bad]))
    # the supremum is not under test here; skip its optimizer
    with mock.patch.object(macrolimit, "maximize_on_ball", lambda fn: (np.zeros(3), 0.0)):
        for sweep in sweeps:
            want = [rec for n in sorted(set(ns)) for rec in sweep([n])]
            assert len(want) == len(set(ns))
            assert sweep(ns) == want
            exc = BadOrder if bad < lo else DimensionOverflow
            assert_raises_before_allocating(exc, sweep, bad_ns)
