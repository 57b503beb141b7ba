"""Permutation averaging and seed extension: identities, routes, invariances."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SX, SZ, I2, P1, TOL_EIG, assert_raises_before_allocating, kron_chain, naive_embed,
    naive_perm_matrix, naive_symmetrize, rand_hermitian, run_forked, spin_blocks_oracle,
)

from macrofield import sections
from macrofield.linalg import (
    DimensionOverflow,
    Operator,
    SiteSpace,
    SpaceMismatch,
    embed_at_site,
    identity,
    permute_sites,
    site_sum,
    spectral_norm,
)
from macrofield.sections import (
    MAX_BLOCK_SITES,
    BadOrder,
    DecayBoundViolated,
    FrequencySpec,
    PerturbedSection,
    SymmetricSection,
    frequency_operator,
    frequency_section,
    j_nm,
    materialize,
    spin_blocks,
    symmetrize,
)


def op(entries, n=1, d=2):
    return Operator(SiteSpace(d, n), np.asarray(entries, dtype=complex))


def naive_extension(a: np.ndarray, d: int, m: int, n: int) -> np.ndarray:
    """Definition-level oracle: pad with identities, average over all n! permutations."""
    pad = np.kron(a, np.eye(d ** (n - m), dtype=complex))
    return naive_symmetrize(pad, d, n)


PROJ1_OP = op(P1)
FREQ = FrequencySpec(2, PROJ1_OP)


# --------------------------------------------------------------- symmetrize


def test_symmetrize_one_sided_seed():
    a = op(np.kron(SX, I2), n=2)
    expected = (np.kron(SX, I2) + np.kron(I2, SX)) / 2
    assert np.allclose(symmetrize(a).entries, expected, atol=1e-15)


def test_symmetrize_fixed_point():
    a = op(np.kron(SX, SX), n=2)
    assert np.allclose(symmetrize(a).entries, a.entries, atol=1e-15)


def test_symmetrize_two_permutation_oracle():
    a = op(np.kron(SX, SZ), n=2)
    expected = (np.kron(SX, SZ) + np.kron(SZ, SX)) / 2
    assert np.allclose(symmetrize(a).entries, expected, atol=1e-15)


def test_symmetrize_idempotent_random():
    rng = np.random.default_rng(101)
    for n in (2, 3, 5):
        a = op(rand_hermitian(rng, 2**n), n=n)
        once = symmetrize(a)
        twice = symmetrize(once)
        assert np.abs(twice.entries - once.entries).max() <= 10 * TOL_EIG


def test_symmetrize_matches_naive_oracle():
    rng = np.random.default_rng(103)
    for n in (2, 3, 4):
        a = rand_hermitian(rng, 2**n)
        got = symmetrize(op(a, n=n)).entries
        assert np.allclose(got, naive_symmetrize(a, 2, n), atol=1e-13)


def _rand_complex(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 5))
def test_symmetrize_matches_naive_oracle_for_qubits_and_qutrits(seed, d, n):
    # general complex input, not Hermitian; n = 1 is the identity map
    a = _rand_complex(np.random.default_rng(seed), d**n)
    assert not np.allclose(a, a.conj().T)
    got = symmetrize(op(a, n=n, d=d)).entries
    assert np.abs(got - naive_symmetrize(a, d, n)).max() <= 1e-12 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("n", [8, 9, 10])
def test_symmetrize_is_invariant_and_idempotent_past_the_oracle(n):
    # the swap (1 2) and the n-cycle generate S_n, so invariance under both
    # is invariance under every site permutation
    a = _rand_complex(np.random.default_rng(n), 2**n)
    sym = symmetrize(op(a, n=n))
    tol = 1e-12 * max(1.0, np.abs(a).max())
    swap = [2, 1] + list(range(3, n + 1))
    cycle = list(range(2, n + 1)) + [1]
    for perm in (swap, cycle):
        assert np.abs(permute_sites(sym, perm).entries - sym.entries).max() <= tol
    assert np.abs(symmetrize(sym).entries - sym.entries).max() <= tol
    # the trace is a sum over orbits of basis states, each kept whole
    assert abs(np.trace(sym.entries) - np.trace(a)) <= tol * 2**n


_SYMMETRIZE_FOOTPRINT_SCRIPT = """
import json, resource
import numpy as np
from macrofield.linalg import Operator, SiteSpace, _rebuild
from macrofield.sections import symmetrize
a = np.empty((4096, 4096), dtype=complex)
np.random.default_rng(5).standard_normal(out=a.view(np.float64))
sym = symmetrize(_rebuild(Operator, SiteSpace(2, 12), a))
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
drift = abs(np.trace(sym.entries) - np.trace(a)) / np.abs(a).max()
print(json.dumps({"drift": drift, "rss_mb": rss_kb / 1024}))
"""


def test_symmetrize_holds_under_three_full_matrices_at_twelve_sites():
    # the input, the result and a quarter of it for the in-place factors
    out = run_forked(_SYMMETRIZE_FOOTPRINT_SCRIPT)
    assert out["drift"] <= 1e-12 * 4096
    assert out["rss_mb"] < 3 * 4096**2 * 16 / 2**20


# --------------------------------------------------------------------- j_nm


def test_jnm_equals_symmetrize_at_top_order():
    rng = np.random.default_rng(107)
    a = op(rand_hermitian(rng, 8), n=3)
    assert np.allclose(j_nm(3, 3, a).entries, symmetrize(a).entries, atol=0)


def test_jn1_sz_three_sites():
    expected = sum(naive_embed(SZ, k, 3) for k in (1, 2, 3)) / 3
    assert np.allclose(j_nm(3, 1, op(SZ)).entries, expected, atol=1e-15)


def test_j22_symmetric_seed_fixed():
    a = op(np.kron(SX, SX), n=2)
    assert np.allclose(j_nm(2, 2, a).entries, a.entries, atol=1e-15)


def test_jnm_composition_law_explicit():
    inner = j_nm(2, 1, op(SZ))
    left = j_nm(4, 2, inner)
    right = j_nm(4, 1, op(SZ))
    assert np.abs(left.entries - right.entries).max() <= 10 * TOL_EIG


def test_jnm_composition_law_random():
    rng = np.random.default_rng(109)
    for k, m, n in [(1, 2, 5), (1, 3, 6), (2, 3, 6), (1, 1, 4), (2, 2, 6)]:
        a = op(rand_hermitian(rng, 2**k), n=k)
        left = j_nm(n, m, j_nm(m, k, a))
        right = j_nm(n, k, a)
        assert np.abs(left.entries - right.entries).max() <= 10 * TOL_EIG


def test_jnm_pair_route_matches_definition():
    rng = np.random.default_rng(113)
    for n in (3, 4, 6):
        a = rand_hermitian(rng, 4)
        got = j_nm(n, 2, op(a, n=2)).entries
        assert np.allclose(got, naive_extension(a, 2, 2, n), atol=1e-12)


def test_jnm_order_two_matches_collective_sums_at_ten_sites():
    # sum_{i != j} L^(i) M^(j) = S(L) S(M) - S(LM) over the n(n - 1) ordered
    # pairs, with S the site sum; this reaches past the permutation-sum oracle
    rng = np.random.default_rng(151)
    left, right = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in "lr")
    n = 10
    s_l, s_r, s_lr = (site_sum(op(b), n).entries for b in (left, right, left @ right))
    want = (s_l @ s_r - s_lr) / (n * (n - 1))
    got = j_nm(n, 2, op(np.kron(left, right), n=2)).entries
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_jnm_placement_route_matches_definition():
    rng = np.random.default_rng(127)
    for n in (4, 5):
        a = rand_hermitian(rng, 8)
        got = j_nm(n, 3, op(a, n=3)).entries
        assert np.allclose(got, naive_extension(a, 2, 3, n), atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 3), st.data())
def test_jnm_matches_definition_for_qubits_and_qutrits(seed, d, m, data):
    # general complex seeds, neither Hermitian nor invariant under a site swap
    n = data.draw(st.integers(m + 1, 5))
    rng = np.random.default_rng(seed)
    a = _rand_complex(rng, d**m)
    assert not np.allclose(a, a.conj().T)
    if m > 1:
        swap = naive_perm_matrix(d, m, (2, 1) + tuple(range(3, m + 1)))
        assert not np.allclose(a, swap @ a @ swap)
    got = j_nm(n, m, op(a, n=m, d=d)).entries
    assert np.abs(got - naive_extension(a, d, m, n)).max() <= 1e-12 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("d, m, n", [(2, 4, 6), (2, 5, 6), (2, 6, 6), (3, 4, 5), (3, 5, 5)])
def test_jnm_matches_definition_at_seed_orders_four_to_six(d, m, n):
    a = _rand_complex(np.random.default_rng([d, m, n]), d**m)
    got = j_nm(n, m, op(a, n=m, d=d)).entries
    assert np.abs(got - naive_extension(a, d, m, n)).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_jn1_route_matches_definition():
    rng = np.random.default_rng(131)
    b = rand_hermitian(rng, 2)
    for n in (2, 4, 6):
        got = j_nm(n, 1, op(b)).entries
        assert np.allclose(got, naive_extension(b, 2, 1, n), atol=1e-12)


_DENSE_FOOTPRINT_SCRIPT = """
import json, resource
import numpy as np
from macrofield.linalg import PAULI_X, PAULI_Z, Operator, SiteSpace, hermiticity_defect
from macrofield.sections import SymmetricSection, materialize
x, z = PAULI_X.entries, PAULI_Z.entries
seed = Operator(SiteSpace(2, 2), (np.kron(x, z) + np.kron(z, x)) / 2)
a = materialize(SymmetricSection(2, 2, seed), 12)
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"dim": a.dim, "defect": hermiticity_defect(a), "rss_mb": rss_kb / 1024}))
"""


def test_dense_route_holds_at_most_three_full_matrices_at_twelve_sites():
    # one 4096 x 4096 complex matrix is 268 MB; extending a seed needs the
    # result and the 11-site matrix it is built from
    out = run_forked(_DENSE_FOOTPRINT_SCRIPT)
    assert out["dim"] == 4096 and out["defect"] <= 1e-15
    assert out["rss_mb"] < 3 * 4096**2 * 16 / 2**20


_SITE_SUM_FOOTPRINT_SCRIPT = """
import json, resource
from macrofield.linalg import PAULI_X, hermiticity_defect
from macrofield.sections import j_nm
a = j_nm(12, 1, PAULI_X)
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"dim": a.dim, "defect": hermiticity_defect(a), "rss_mb": rss_kb / 1024}))
"""


def test_order_one_route_holds_one_full_matrix_at_twelve_sites():
    # the seed is divided by n before the site sum, so the result is the only
    # 4096 x 4096 array; half of one more is headroom for the interpreter
    out = run_forked(_SITE_SUM_FOOTPRINT_SCRIPT)
    assert out["dim"] == 4096 and out["defect"] == 0.0
    assert out["rss_mb"] < 1.5 * 4096**2 * 16 / 2**20


def test_jnm_permutation_invariance_all_transpositions():
    rng = np.random.default_rng(137)
    n = 5
    for m in (1, 2, 3):
        a = op(rand_hermitian(rng, 2**m), n=m)
        ext = j_nm(n, m, a)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            perm = list(range(1, n + 1))
            perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
            moved = permute_sites(ext, perm)
            assert np.abs(moved.entries - ext.entries).max() <= 10 * TOL_EIG


def test_jnm_unital():
    for m, n in [(1, 4), (2, 5), (3, 6)]:
        out = j_nm(n, m, identity(SiteSpace(2, m)))
        assert np.abs(out.entries - np.eye(2**n)).max() <= 10 * TOL_EIG


def test_jnm_contractive():
    rng = np.random.default_rng(139)
    for m in (1, 2, 3):
        a = op(rand_hermitian(rng, 2**m), n=m)
        base = spectral_norm(a)
        for n in range(m, 7):
            assert spectral_norm(j_nm(n, m, a)) <= base + 10 * TOL_EIG


def test_jnm_positive():
    rng = np.random.default_rng(149)
    for m in (1, 2, 3):
        g = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
        a = op(g.conj().T @ g, n=m)
        ext = j_nm(6, m, a)
        w = np.linalg.eigvalsh(ext.entries)
        assert w[0] >= -10 * TOL_EIG


def test_jnm_bad_order():
    with pytest.raises(BadOrder):
        j_nm(1, 2, op(np.eye(4), n=2))
    with pytest.raises(BadOrder):
        j_nm(0, 0, op(I2))


def test_jnm_seed_space_mismatch():
    with pytest.raises(SpaceMismatch):
        j_nm(4, 2, op(SZ))


# --------------------------------------------------------- frequency objects


def test_frequency_single_site_is_projector():
    assert np.array_equal(frequency_operator(FREQ, 1).entries, P1)


def test_frequency_two_sites_eigenvalues():
    w = np.linalg.eigvalsh(frequency_operator(FREQ, 2).entries)
    assert np.allclose(w, [0.0, 0.5, 0.5, 1.0], atol=1e-15)


def test_frequency_three_sites_binomial_multiplicities():
    w = np.linalg.eigvalsh(frequency_operator(FREQ, 3).entries)
    expected = sorted([0.0] + [1 / 3] * 3 + [2 / 3] * 3 + [1.0])
    assert np.allclose(np.sort(w), expected, atol=1e-14)
    for k in range(4):
        mult = int(np.sum(np.abs(w - k / 3) < 1e-12))
        assert mult == math.comb(3, k)


def test_frequency_matches_embed_average():
    for n in (1, 2, 4, 6):
        expected = sum(naive_embed(P1, k, n) for k in range(1, n + 1)) / n
        got = frequency_operator(FREQ, n).entries
        assert np.abs(got - expected).max() <= 10 * TOL_EIG


def test_frequency_matches_jn1_route():
    for n in (2, 5):
        a = j_nm(n, 1, PROJ1_OP).entries
        b = frequency_operator(FREQ, n).entries
        assert np.abs(a - b).max() <= 10 * TOL_EIG


def test_frequency_spec_rejects_non_projector():
    with pytest.raises(SpaceMismatch):
        FrequencySpec(2, op(SX + SZ))  # hermitian but not idempotent
    with pytest.raises(SpaceMismatch):
        FrequencySpec(2, op([[0, 1], [0, 0]]))
    # a projector on the wrong space: another dimension, or two sites
    with pytest.raises(SpaceMismatch):
        FrequencySpec(3, op(P1))
    with pytest.raises(SpaceMismatch):
        FrequencySpec(2, op(np.kron(P1, P1), n=2))


def test_frequency_general_projector():
    # rank-1 projector along a tilted axis keeps the k/n spectrum
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    p = np.outer(v, v.conj())
    spec = FrequencySpec(2, op(p))
    w = np.linalg.eigvalsh(frequency_operator(spec, 4).entries)
    ks = np.round(w * 4).astype(int)
    assert np.allclose(w, ks / 4, atol=1e-12)
    counts = [int(np.sum(ks == k)) for k in range(5)]
    assert counts == [math.comb(4, k) for k in range(5)]


# ------------------------------------------------------------------ sections


def test_materialize_frequency_section_at_seed_order():
    sec = frequency_section(FREQ)
    assert np.array_equal(materialize(sec, 1).entries, P1)


def test_materialize_order2_section_oracle():
    seed = op(np.kron(SX, SX), n=2)
    sec = SymmetricSection(2, 2, seed)
    expected = (
        kron_chain(SX, SX, I2) + kron_chain(SX, I2, SX) + kron_chain(I2, SX, SX)
    ) / 3
    assert np.allclose(materialize(sec, 3).entries, expected, atol=1e-13)


def test_materialize_perturbed_section():
    base = SymmetricSection(2, 1, op(SX))
    pert = PerturbedSection(
        base, lambda n: Operator(SiteSpace(2, n), j_nm(n, 1, op(SZ)).entries / n), c=1.0, gamma=1.0
    )
    got = materialize(pert, 4)
    expected = j_nm(4, 1, op(SX)).entries + j_nm(4, 1, op(SZ)).entries / 4
    assert np.abs(got.entries - expected).max() <= 10 * TOL_EIG


def test_perturbed_section_bound_enforced():
    base = SymmetricSection(2, 1, op(SX))
    pert = PerturbedSection(
        base, lambda n: Operator(SiteSpace(2, n), j_nm(n, 1, op(SZ)).entries), c=0.1, gamma=1.0
    )
    with pytest.raises(DecayBoundViolated):
        materialize(pert, 3)
    # the decay must be a decay, and the perturbation must live where A_n does
    for gamma in (0.0, -1.0):
        with pytest.raises(BadOrder):
            PerturbedSection(base, pert.perturbation, c=1.0, gamma=gamma)
    wrong = PerturbedSection(base, lambda n: identity(SiteSpace(2, n + 1)), c=1.0, gamma=1.0)
    with pytest.raises(SpaceMismatch):
        materialize(wrong, 3)


def test_section_seed_space_checked():
    with pytest.raises(SpaceMismatch):
        SymmetricSection(2, 2, op(SX))


# ---------------------------------------------------------------- total-spin blocks


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.data())
def test_spin_blocks_are_the_dense_spectrum_with_multiplicities(seed, m, data):
    n = data.draw(st.integers(m, 8))
    rng = np.random.default_rng(seed)
    section = SymmetricSection(2, m, op(rand_hermitian(rng, 2**m), n=m))
    eig = []
    # block k has J = n/2 - k and appears C(n, k) - C(n, k - 1) times
    for k, block in enumerate(spin_blocks(section, n)):
        assert block.shape == (n - 2 * k + 1,) * 2
        assert np.abs(block - block.conj().T).max() <= 1e-12
        mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        eig.extend(np.repeat(np.linalg.eigvalsh(block), mult))
    dense = np.linalg.eigvalsh(materialize(section, n).entries)
    assert len(eig) == 2**n
    assert np.abs(np.sort(eig) - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())


SWAP = naive_perm_matrix(2, 2, (2, 1))


@pytest.mark.parametrize(
    "m, n", [(1, 1)] + [(m, n) for m in (1, 2) for n in (2, 3, 12, 64, 256)]
)
def test_spin_blocks_match_the_matmul_oracle(m, n):
    # the band table against one-site sums multiplied out block by block,
    # for seeds neither Hermitian nor swap-symmetric
    seed = _rand_complex(np.random.default_rng([m, n]), 2**m)
    assert not np.allclose(seed, seed.conj().T)
    assert m == 1 or not np.allclose(seed, SWAP @ seed @ SWAP)
    got = spin_blocks(SymmetricSection(2, m, op(seed, n=m)), n)
    for block, want in zip(got, spin_blocks_oracle(seed, n), strict=True):
        assert block.shape == want.shape
        assert np.abs(block - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _closed_form_bands(m: int, n: int, k: int) -> np.ndarray:
    # the order-1 and order-2 tables as closed forms: the one-site sums over
    # n, and S(E_ac) S(E_bd) - [b = c] S(E_ad) over n(n - 1) for a pair
    _, jj, mz = sections._irreps(n)
    up, down = (np.sqrt(jj * (jj + 1) - mz * (mz + s)) for s in (-1, 1))
    one = {(0, 0): n / 2 + mz, (1, 1): n / 2 - mz, (0, 1): up, (1, 0): down}
    table = np.zeros((4**m, mz.size))
    for unit, bits in enumerate(itertools.product((0, 1), repeat=2 * m)):
        if sum(bits[m:]) - sum(bits[:m]) != k:
            continue
        if m == 1:
            table[unit] = one[bits] / n
        else:
            a, b, c, d = bits
            pair = one[a, c] * np.roll(one[b, d], a - c) - (b == c) * one[a, d]
            table[unit] = pair / (n * (n - 1))
    return table


@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2) for n in (2, 3, 7, 12, 64, 256)])
def test_band_recursion_is_the_closed_form_at_orders_one_and_two(m, n):
    # the same float operations in the same order, so the tables are equal
    # to the last bit, and so are the reports built on them
    for k in range(-m, m + 1):
        want = _closed_form_bands(m, n, k)
        assert sections._unit_bands(m, n, k).tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_spin_blocks_average_the_seed_over_the_swap(seed, n):
    # the ordered-pair sum symmetrizes: s and SWAP s SWAP give the same blocks
    s = _rand_complex(np.random.default_rng(seed), 4)
    pair = [spin_blocks(SymmetricSection(2, 2, op(t, n=2)), n) for t in (s, SWAP @ s @ SWAP)]
    for block, swapped in zip(*pair, strict=True):
        assert np.abs(block - swapped).max() <= 1e-12 * max(1.0, np.abs(block).max())


def test_spin_blocks_for_every_qubit_symmetric_section():
    base = SymmetricSection(2, 1, op(SZ))
    perturbed = PerturbedSection(base, lambda n: identity(SiteSpace(2, n)), 1.0, 1.0)
    # the sweep helper's route flag: False sends a sweep to dense matrices
    assert not sections._sweep([3], perturbed)[1]
    assert not sections._sweep([3], SymmetricSection(3, 1, op(np.eye(3), d=3)))[1]
    assert sections._sweep([3], SymmetricSection(2, 3, op(np.eye(8), n=3)))[1]
    with pytest.raises(BadOrder):
        sections._sweep([1], SymmetricSection(2, 2, op(np.eye(4), n=2)))


def test_block_and_dense_routes_refuse_one_past_their_caps():
    base = SymmetricSection(2, 1, op(SX))
    for seed in (op(SZ), op(np.kron(SX, SZ), n=2)):
        section = SymmetricSection(2, seed.space.n, seed)
        assert_raises_before_allocating(
            DimensionOverflow, spin_blocks, section, MAX_BLOCK_SITES + 1
        )
    for m, k in ((1, 0), (2, 2)):
        assert_raises_before_allocating(
            DimensionOverflow, sections._unit_bands, m, MAX_BLOCK_SITES + 1, k
        )
    # each seed order past 2 halves the block cap: 128 sites at order 3, 8 at
    # order 7, and none from order 8 on; a sweep is refused before its first n
    for m, cap in ((3, MAX_BLOCK_SITES // 2), (4, MAX_BLOCK_SITES // 4), (7, 8), (8, 4)):
        section = SymmetricSection(2, m, op(np.eye(2**m), n=m))
        if cap >= m:
            assert sections._sweep([m, cap], section, base)[1]
        past = max(m, cap + 1)
        assert_raises_before_allocating(DimensionOverflow, spin_blocks, section, past)
        assert_raises_before_allocating(DimensionOverflow, sections._unit_bands, m, past, 0)
        for ns in ([past], range(m, past + 1)):
            assert_raises_before_allocating(DimensionOverflow, sections._sweep, ns, base, section)
    # sections without blocks fall back to dense matrices, capped at 4096 rows
    qutrit = SymmetricSection(3, 1, op(np.eye(3), d=3))
    assert_raises_before_allocating(DimensionOverflow, materialize, qutrit, 8)
    assert_raises_before_allocating(DimensionOverflow, j_nm, 13, 1, op(SZ))
