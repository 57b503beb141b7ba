"""Bloch chart, product powers, expectations, pullback and Born constancy."""

from __future__ import annotations

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SY, SZ, P1, haar_qubit, naive_perm_matrix, naive_symmetrize, rand_hermitian

from macrofield.linalg import (
    DimensionOverflow,
    MismatchedLocalDimension,
    NotHermitian,
    Operator,
    SiteSpace,
    SpaceMismatch,
    identity,
)
from macrofield.sections import FrequencySpec, SymmetricSection, frequency_operator, j_nm
from macrofield.states import (
    BlochVector,
    DensityMatrix,
    InvalidState,
    NSiteState,
    OutsideBall,
    PureState,
    a_infinity,
    bloch_to_density,
    density_to_bloch,
    expect,
    is_permutation_invariant,
    power_vector,
    product_power,
    pure_power,
    trace_distance,
)


def op(entries, n=1, d=2):
    return Operator(SiteSpace(d, n), np.asarray(entries, dtype=complex))


FREQ = FrequencySpec(2, op(P1))


# -------------------------------------------------------------- bloch chart


def test_bloch_origin_is_maximally_mixed():
    dm = bloch_to_density(BlochVector(0, 0, 0))
    assert np.allclose(dm.entries, np.eye(2) / 2, atol=0)


def test_bloch_north_pole():
    dm = bloch_to_density(BlochVector(0, 0, 1))
    assert np.allclose(dm.entries, np.diag([1.0, 0.0]), atol=0)


def test_bloch_x_pole_diagonalization_oracle():
    dm = bloch_to_density(BlochVector(1, 0, 0))
    assert np.allclose(dm.entries, np.ones((2, 2)) / 2, atol=0)
    assert np.allclose(np.linalg.eigvalsh(dm.entries), [0.0, 1.0], atol=1e-15)


def test_bloch_round_trip():
    rng = np.random.default_rng(211)
    for _ in range(20):
        v = rng.standard_normal(3)
        v *= rng.random() / np.linalg.norm(v)
        bv = BlochVector(*v)
        back = density_to_bloch(bloch_to_density(bv))
        assert abs(back.x - bv.x) < 1e-12
        assert abs(back.y - bv.y) < 1e-12
        assert abs(back.z - bv.z) < 1e-12


def test_bloch_rejects_outside_ball():
    with pytest.raises(OutsideBall):
        BlochVector(1.0, 0.5, 0.0)


def test_pure_iff_boundary():
    pure = bloch_to_density(BlochVector(0, 1, 0))
    mixed = bloch_to_density(BlochVector(0, 0.5, 0))
    assert abs(np.linalg.eigvalsh(pure.entries)[0]) < 1e-15
    assert np.linalg.eigvalsh(mixed.entries)[0] > 0.2


# ------------------------------------------------------------ constructors


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(2, np.diag([0.6, 0.6]))
    with pytest.raises(InvalidState):
        DensityMatrix(2, np.array([[1.2, 0], [0, -0.2]]))
    with pytest.raises(InvalidState):
        DensityMatrix(2, np.array([[0.5, 0.3], [0.1, 0.5]]))
    # the one-site space is checked first, as for every SiteSpace
    with pytest.raises(MismatchedLocalDimension):
        DensityMatrix(1, np.ones((1, 1)))
    with pytest.raises(SpaceMismatch):
        DensityMatrix(2, np.eye(3) / 3)


@pytest.mark.parametrize(
    "value",
    [
        op(SX),
        NSiteState(SiteSpace(2, 2), np.eye(4) / 4),
        DensityMatrix(2, np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])),
    ],
    ids=["Operator", "NSiteState", "DensityMatrix"],
)
def test_frozen_values_survive_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin.space == value.space
        np.testing.assert_array_equal(twin.entries, value.entries)
        assert not twin.entries.flags.writeable
        with pytest.raises(AttributeError, match="is immutable"):
            twin.space = SiteSpace(2, 3)
        assert repr(twin).startswith(type(value).__name__ + "(")


def test_constructors_copy_and_check_without_options():
    a = np.eye(4, dtype=complex) / 4
    # the options the constructors once took
    with pytest.raises(TypeError):
        Operator(SiteSpace(2, 2), a, **{"copy": False})
    with pytest.raises(TypeError):
        NSiteState(SiteSpace(2, 2), a, **{"validate": False})
    for value in (Operator(SiteSpace(2, 2), a), NSiteState(SiteSpace(2, 2), a)):
        assert not np.shares_memory(value.entries, a)
        assert not value.entries.flags.writeable
    assert a.flags.writeable
    assert not hasattr(NSiteState(SiteSpace(2, 2), a), "rho")


@pytest.mark.parametrize(
    "build",
    [
        lambda: product_power(DensityMatrix(2, np.eye(2) / 2), 10),
        lambda: pure_power(PureState(2, np.array([0.8, 0.6])), 10),
    ],
    ids=["product_power", "pure_power"],
)
def test_product_states_are_built_without_a_second_copy(build):
    # the state's array is the last one its builder makes, frozen in place:
    # 1024 x 1024 complex entries, 16.8 MB, against 33.6 MB with a copy
    build()
    tracemalloc.start()
    try:
        state = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not state.entries.flags.writeable
    assert peak < 1.5 * state.entries.nbytes, f"{peak} bytes traced"


@pytest.mark.parametrize(
    "one_site",
    [
        [[np.nan, 0], [0, 1]],
        [[0.5, np.nan], [np.nan, 0.5]],
        [[0.5, 0.5j * np.nan], [0.5j * np.nan, 0.5]],
        [[np.inf, 0], [0, -np.inf]],
    ],
)
def test_non_finite_states_are_rejected(one_site):
    # every comparison with NaN is false, so no other check catches these
    arr = np.array(one_site, dtype=complex)
    with pytest.raises(InvalidState):
        DensityMatrix(2, arr)
    two_site = np.zeros((4, 4), dtype=complex)
    two_site[:2, :2] = arr  # |0><0| (x) arr
    with pytest.raises(InvalidState):
        NSiteState(SiteSpace(2, 2), two_site)
    # every first row holds a non-finite amplitude
    with pytest.raises(InvalidState):
        PureState(2, arr[0])


def test_pure_state_validation():
    with pytest.raises(InvalidState):
        PureState(2, np.array([1.0, 1.0]))
    ps = PureState(2, np.array([0.8, 0.6]))
    assert np.allclose(ps.as_density().entries, np.array([[0.64, 0.48], [0.48, 0.36]]))


def test_product_power_mixed_identity():
    half = DensityMatrix(2, np.eye(2) / 2)
    st = product_power(half, 2)
    assert np.allclose(st.entries, np.eye(4) / 4, atol=0)


def test_product_power_projector():
    dm = DensityMatrix(2, np.diag([1.0, 0.0]))
    st = product_power(dm, 2)
    assert np.allclose(st.entries, np.diag([1.0, 0, 0, 0]), atol=0)


def test_product_power_preserves_rank_one():
    rng = np.random.default_rng(223)
    psi = haar_qubit(rng)
    dm = DensityMatrix(2, np.outer(psi, psi.conj()))
    st = product_power(dm, 3)
    w = np.linalg.eigvalsh(st.entries)
    assert np.sum(w > 1e-12) == 1
    assert abs(w[-1] - 1.0) < 1e-12


def test_product_power_overflow():
    dm = DensityMatrix(2, np.eye(2) / 2)
    with pytest.raises(DimensionOverflow):
        product_power(dm, 15)


def test_power_vector_matches_density_power():
    rng = np.random.default_rng(227)
    psi = PureState(2, haar_qubit(rng))
    v = power_vector(psi, 3)
    assert np.allclose(np.outer(v, v.conj()), pure_power(psi, 3).entries, atol=1e-15)


# ------------------------------------------------------------- expectations


def test_expect_identity_is_one():
    rng = np.random.default_rng(229)
    psi = PureState(2, haar_qubit(rng))
    st = pure_power(psi, 3)
    assert abs(expect(st, identity(SiteSpace(2, 3))) - 1.0) < 1e-12


def test_expect_born_value_every_n():
    psi = PureState(2, np.array([0.8, 0.6]))
    p = 0.36
    for n in range(1, 7):
        val = expect(pure_power(psi, n), frequency_operator(FREQ, n))
        assert abs(val - p) <= 1e-12


def test_expect_traceless():
    half = DensityMatrix(2, np.eye(2) / 2)
    assert abs(expect(product_power(half, 1), op(SZ))) < 1e-15


def test_expect_requires_hermitian():
    rng = np.random.default_rng(233)
    st = pure_power(PureState(2, haar_qubit(rng)), 1)
    with pytest.raises(NotHermitian):
        expect(st, op([[0, 1], [0, 0]]))


def test_expect_space_mismatch():
    rng = np.random.default_rng(239)
    st = pure_power(PureState(2, haar_qubit(rng)), 2)
    with pytest.raises(SpaceMismatch):
        expect(st, op(SZ))


def test_pullback_identity():
    # product-state expectation of an extended seed equals the seed expectation
    rng = np.random.default_rng(241)
    for m in (1, 2, 3):
        seed = op(rand_hermitian(rng, 2**m), n=m)
        v = rng.standard_normal(3)
        v *= 0.9 * rng.random() / np.linalg.norm(v)
        dm = bloch_to_density(BlochVector(*v))
        base = expect(product_power(dm, m), seed)
        for n in range(m, 9):
            val = expect(product_power(dm, n), j_nm(n, m, seed))
            assert abs(val - base) <= 1e-9


def test_variance_law():
    # <(f_n - p)^2> = p(1-p)/n on product states
    rng = np.random.default_rng(251)
    for _ in range(5):
        amps = haar_qubit(rng)
        psi = PureState(2, amps)
        p = abs(amps[1]) ** 2
        for n in (1, 2, 5, 8):
            f = frequency_operator(FREQ, n)
            shifted = f.entries - p * np.eye(2**n)
            sq = Operator(f.space, shifted @ shifted)
            val = expect(pure_power(psi, n), sq)
            assert abs(val - p * (1 - p) / n) <= 1e-10


# ----------------------------------------------------------------- a_infinity


def test_a_infinity_frequency_is_born_weight():
    rng = np.random.default_rng(257)
    amps = haar_qubit(rng)
    dm = DensityMatrix(2, np.outer(amps, amps.conj()))
    sec = SymmetricSection(2, 1, op(P1))
    assert abs(a_infinity(sec, dm) - abs(amps[1]) ** 2) < 1e-12


def test_a_infinity_identity_seed():
    rng = np.random.default_rng(263)
    sec = SymmetricSection(2, 2, identity(SiteSpace(2, 2)))
    for _ in range(3):
        v = rng.standard_normal(3)
        v *= rng.random() / np.linalg.norm(v)
        dm = bloch_to_density(BlochVector(*v))
        assert abs(a_infinity(sec, dm) - 1.0) < 1e-12


def test_a_infinity_zz_seed_squares_polar_coordinate():
    z0 = 0.37
    sec = SymmetricSection(2, 2, op(np.kron(SZ, SZ), n=2))
    dm = bloch_to_density(BlochVector(0, 0, z0))
    assert abs(a_infinity(sec, dm) - z0**2) < 1e-12


# ------------------------------------------------------ permutation symmetry


def test_product_power_is_invariant():
    rng = np.random.default_rng(269)
    amps = haar_qubit(rng)
    dm = DensityMatrix(2, np.outer(amps, amps.conj()))
    for n in (2, 4):
        assert is_permutation_invariant(product_power(dm, n))


def test_asymmetric_state_detected():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |01><01|
    st = NSiteState(SiteSpace(2, 2), rho)
    assert not is_permutation_invariant(st)


def test_swap_mixture_is_invariant():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 0.5
    rho[2, 2] = 0.5  # (|01><01| + |10><10|)/2
    st = NSiteState(SiteSpace(2, 2), rho)
    assert is_permutation_invariant(st)


def _fixed_by_adjacent_swaps(rho: np.ndarray, n: int) -> bool:
    for k in range(1, n):
        perm = list(range(1, n + 1))
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
        u = naive_perm_matrix(2, n, tuple(perm))
        if np.abs(u @ rho @ u.conj().T - rho).max() > 1e-10:
            return False
    return True


def _average(rho: np.ndarray, perms, n: int) -> np.ndarray:
    us = [naive_perm_matrix(2, n, p) for p in perms]
    return sum(u @ rho @ u.conj().T for u in us) / len(us)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from(["raw", "swap", "cycle", "all"]))
def test_generator_check_matches_every_adjacent_swap(seed, n, kind):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = b @ b.conj().T
    rho /= np.trace(rho).real
    sites = list(range(1, n + 1))
    if kind == "swap":
        # fixed by (1 2) only, for n >= 3
        rho = _average(rho, [tuple(sites), (2, 1, *sites[2:])], n)
    elif kind == "cycle":
        # fixed by the n-cycle only, for n >= 3
        rho = _average(rho, [tuple(sites[k:] + sites[:k]) for k in range(n)], n)
    elif kind == "all":
        rho = naive_symmetrize(rho, 2, n)
    want = _fixed_by_adjacent_swaps(rho, n)
    assert is_permutation_invariant(NSiteState(SiteSpace(2, n), rho)) == want
    assert want == (kind == "all" or (n == 2 and kind != "raw"))


# ------------------------------------------------------------ trace distance


def test_trace_distance_poles():
    a = bloch_to_density(BlochVector(0, 0, 1))
    b = bloch_to_density(BlochVector(0, 0, -1))
    assert abs(trace_distance(a, b) - 1.0) < 1e-14


def test_trace_distance_is_half_bloch_distance():
    rng = np.random.default_rng(277)
    for _ in range(5):
        u, v = rng.standard_normal((2, 3))
        u *= rng.random() / np.linalg.norm(u)
        v *= rng.random() / np.linalg.norm(v)
        a = bloch_to_density(BlochVector(*u))
        b = bloch_to_density(BlochVector(*v))
        assert abs(trace_distance(a, b) - np.linalg.norm(u - v) / 2) < 1e-12
