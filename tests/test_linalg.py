"""Core operator arithmetic: Kronecker placement, spectra, norms, permutations."""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    SX, SY, SZ, I2, P1, TOL_EIG, naive_embed, naive_perm_matrix, rand_hermitian, run_forked
)

from macrofield.linalg import (
    MAX_DIM,
    DimensionOverflow,
    MismatchedLocalDimension,
    Operator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    IDENTITY_1,
    PROJ_1,
    SiteOutOfRange,
    SiteSpace,
    SpaceMismatch,
    _norm,
    commutator,
    embed_at_site,
    identity,
    hermiticity_defect,
    kron_power,
    permute_sites,
    site_sum,
    spectral_norm,
)

S1 = SiteSpace(2, 1)


def op(entries, n=1, d=2):
    return Operator(SiteSpace(d, n), np.asarray(entries, dtype=complex))


# ---------------------------------------------------------------- site space


def test_site_space_dim():
    assert SiteSpace(2, 12).dim == 4096
    assert SiteSpace(3, 2).dim == 9


def test_site_space_rejects_bad_counts():
    with pytest.raises(SiteOutOfRange):
        SiteSpace(2, 0)
    with pytest.raises(MismatchedLocalDimension):
        SiteSpace(1, 3)
    with pytest.raises(DimensionOverflow):
        SiteSpace(2, 13)
    assert SiteSpace(2, 12).dim == MAX_DIM
    # the cap binds on d**n whichever factor is large
    for d, n in ((3, 8), (65, 2), (MAX_DIM + 1, 1)):
        with pytest.raises(DimensionOverflow):
            SiteSpace(d, n)
    assert SiteSpace(3, 7).dim == 2187
    assert SiteSpace(64, 2).dim == SiteSpace(MAX_DIM, 1).dim == MAX_DIM


def test_site_space_cap_check_is_bounded():
    # the check must not form 2**(10**9), which alone takes seconds
    started = time.perf_counter()
    with pytest.raises(DimensionOverflow):
        SiteSpace(2, 10**9)
    assert time.perf_counter() - started < 0.1


_ENTRY = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e3)


@given(
    st.one_of(
        hnp.arrays(np.complex128, st.integers(2, 4), elements=_ENTRY),
        hnp.arrays(np.complex128, (2, 2), elements=_ENTRY),
    ),
    st.integers(1, 8),
)
def test_kron_power_is_the_kron_fold_bit_for_bit(arr, n):
    fold = arr
    for _ in range(n - 1):
        fold = np.kron(fold, arr)
    got = kron_power(arr, n)
    assert got.shape == fold.shape
    assert got.tobytes() == fold.tobytes()


@given(
    st.one_of(
        hnp.arrays(np.complex128, st.integers(2, 4), elements=_ENTRY),
        hnp.arrays(np.complex128, (2, 2), elements=_ENTRY),
    )
)
def test_kron_power_zero_is_the_empty_product(arr):
    unit = np.ones(1) if arr.ndim == 1 else np.eye(1)
    empty = kron_power(arr, 0)
    assert empty.shape == unit.shape and np.array_equal(empty, unit)
    assert np.array_equal(np.kron(empty, arr), arr)


def test_operator_entries_frozen():
    a = op(SX)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0
    with pytest.raises(AttributeError):
        a.entries = np.eye(2)


def test_operator_shape_check():
    with pytest.raises(SpaceMismatch):
        Operator(SiteSpace(2, 2), np.eye(3))


# -------------------------------------------------------------------- embed


def test_embed_single_site():
    assert np.array_equal(embed_at_site(op(SZ), 1, 1).entries, SZ)


def test_embed_proj_site2_of_2():
    out = embed_at_site(op(P1), 2, 2)
    assert np.array_equal(out.entries, np.diag([0.0, 1, 0, 1]))


def test_embed_disjoint_sites_commute():
    a = embed_at_site(op(SX), 1, 2)
    b = embed_at_site(op(SZ), 2, 2)
    assert np.abs(commutator(a, b).entries).max() == 0.0


def test_embed_matches_naive_kron():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            b = rand_hermitian(rng, 2)
            got = embed_at_site(op(b), k, n).entries
            assert np.array_equal(got, naive_embed(b, k, n))


def test_embed_site_bounds():
    with pytest.raises(SiteOutOfRange):
        embed_at_site(op(SX), 0, 2)
    with pytest.raises(SiteOutOfRange):
        embed_at_site(op(SX), 3, 2)
    with pytest.raises(SpaceMismatch):
        embed_at_site(op(np.kron(SX, SX), n=2), 1, 3)


def test_embed_preserves_spectral_norm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = rand_hermitian(rng, 2)
        base = spectral_norm(op(b))
        for n in (2, 4, 6):
            got = spectral_norm(embed_at_site(op(b), min(n, 2), n))
            assert abs(got - base) <= 10 * TOL_EIG * max(1.0, base)


def test_site_sum_matches_embed_sum():
    rng = np.random.default_rng(5)
    b = rand_hermitian(rng, 2)
    for n in (1, 2, 3, 5):
        expected = sum(naive_embed(b, k, n) for k in range(1, n + 1))
        assert np.allclose(site_sum(op(b), n).entries, expected, atol=1e-15, rtol=0)


def op_any(a):
    dim = a.shape[0]
    n = int(round(np.log2(dim)))
    return Operator(SiteSpace(2, max(n, 1)), a)


# -------------------------------------------------------------------- norms


def test_norm_identity():
    for n in (1, 3, 5):
        assert spectral_norm(identity(SiteSpace(2, n))) == 1.0


def test_norm_rank_one_ladder():
    # sx - i*sy is twice a rank-1 matrix-unit; its only singular value is 2
    assert abs(spectral_norm(op(SX - 1j * SY)) - 2.0) < 1e-14


def test_norm_pauli_commutator():
    c = commutator(op(SX), op(SZ))
    assert abs(spectral_norm(c) - 2.0) < 1e-14


def test_norm_cstar_identity_random():
    rng = np.random.default_rng(41)
    for dim in (4, 16, 64):
        for hermitian in (True, False):
            a = rand_hermitian(rng, dim)
            if not hermitian:
                a = a + 1j * rand_hermitian(rng, dim)
            o = op_any(a)
            lhs = spectral_norm(Operator(o.space, a.conj().T @ a))
            rhs = spectral_norm(o) ** 2
            assert abs(lhs - rhs) <= 10 * TOL_EIG * max(1.0, rhs)


def test_norm_submultiplicative_random():
    rng = np.random.default_rng(43)
    for dim in (4, 16, 64):
        a = rand_hermitian(rng, dim) + 1j * rand_hermitian(rng, dim)
        b = rand_hermitian(rng, dim) + 1j * rand_hermitian(rng, dim)
        na = spectral_norm(op_any(a))
        nb = spectral_norm(op_any(b))
        nab = spectral_norm(op_any(a @ b))
        assert nab <= na * nb + 10 * TOL_EIG * max(1.0, na * nb)


def test_norm_diagonal_complex_entries():
    d = np.diag([1 + 1j, 0.5, -2.0]).astype(complex)
    o = Operator(SiteSpace(3, 1), d)
    assert abs(spectral_norm(o) - 2.0) < 1e-15
    sing = np.linalg.svd(d, compute_uv=False)
    assert abs(spectral_norm(o) - sing[0]) < 1e-15


def _norm_input(kind: str, seed: int, dim: int) -> np.ndarray:
    re, im = np.random.default_rng(seed).standard_normal((2, dim, dim))
    z = re + 1j * im
    return {
        "real": re + 0j,
        "real symmetric": re + re.T + 0j,
        "real antisymmetric": re - re.T + 0j,
        "hermitian": z + z.conj().T,
        "anti-hermitian": z - z.conj().T,
        "complex": z,
    }[kind]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 48),
    st.sampled_from(
        ["real", "real symmetric", "real antisymmetric", "hermitian", "anti-hermitian", "complex"]
    ),
)
def test_each_norm_route_is_the_largest_singular_value(seed, dim, kind):
    a = _norm_input(kind, seed, dim)
    want = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(_norm(a) - want) <= 1e-12 * want


_NORM_FOOTPRINT_SCRIPT = """
import json, resource
import numpy as np
from macrofield.linalg import _norm
dim, block, kind = 2048, 256, "{kind}"
rng = np.random.default_rng(17)
e = np.empty((dim, dim), dtype=complex)
# filled a block at a time, so that building the input leaves no full temporaries
for i in range(0, dim, block):
    rows = rng.standard_normal((block, dim))
    e[i:i + block] = rows if kind == "real" else rows + 1j * rng.standard_normal((block, dim))
if kind == "hermitian":
    for i in range(0, dim, block):
        for j in range(i, dim, block):
            a, b = e[i:i + block, j:j + block].copy(), e[j:j + block, i:i + block].copy()
            e[i:i + block, j:j + block] = (a + b.conj().T) / 2
            e[j:j + block, i:i + block] = (b + a.conj().T) / 2
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_norm(e)
above = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({{"above_mb": above / 1024, "matrix_mb": e.nbytes / 2**20}}))
"""


@pytest.mark.parametrize(
    "kind, bound",
    # in units of the complex input: for a real non-symmetric one, a real copy
    # and its Gram matrix, which the eigensolver copies once more, are each
    # half of it; for a complex Hermitian one, the eigensolver's copy of the
    # input reuses the buffer of the symmetry test
    [("real", 1.25), ("hermitian", 1.5)],
)
def test_norm_holds_few_copies_beyond_its_input(kind, bound):
    out = run_forked(_NORM_FOOTPRINT_SCRIPT.format(kind=kind))
    assert out["above_mb"] < bound * out["matrix_mb"]


# --------------------------------------------------------------- commutator


def test_commutator_self_is_zero():
    rng = np.random.default_rng(53)
    a = op_any(rand_hermitian(rng, 8))
    assert np.abs(commutator(a, a).entries).max() <= 1e-14


def test_commutator_pauli_oracle():
    got = commutator(op(SX), op(SZ)).entries
    assert np.allclose(got, -2j * SY, atol=1e-15)


def test_commutator_space_mismatch():
    with pytest.raises(SpaceMismatch):
        commutator(op(SX), op(np.kron(SX, SX), n=2))


def test_commutator_hermitian_shortcut_agrees():
    # a Hermitian pair goes through the same two products as any other pair;
    # the result must match the literal ab - ba
    rng = np.random.default_rng(59)
    a = rand_hermitian(rng, 64)
    b = rand_hermitian(rng, 64)
    direct = a @ b - b @ a
    got = commutator(op_any(a), op_any(b)).entries
    assert np.abs(got - direct).max() <= 1e-12


def test_commutator_anti_hermitian():
    rng = np.random.default_rng(61)
    a, b = op_any(rand_hermitian(rng, 16)), op_any(rand_hermitian(rng, 16))
    c = commutator(a, b)
    assert np.abs(c.entries + c.entries.conj().T).max() <= 1e-13


# ------------------------------------------------------------- permutations


def test_permute_sites_equals_conjugation():
    rng = np.random.default_rng(67)
    space = SiteSpace(2, 3)
    a = rand_hermitian(rng, 8)
    o = Operator(space, a)
    for perm in itertools.permutations((1, 2, 3)):
        u = naive_perm_matrix(2, 3, perm)
        expected = u @ a @ u.conj().T
        got = permute_sites(o, perm).entries
        assert np.abs(got - expected).max() <= 1e-14


def test_permute_sites_rejects_non_permutation():
    with pytest.raises(SiteOutOfRange):
        permute_sites(identity(SiteSpace(2, 2)), (1, 1))


# ----------------------------------------------------------------- misc api


def test_is_hermitian():
    assert hermiticity_defect(op(SY)) == 0.0
    assert hermiticity_defect(op([[0, 1], [0, 0]])) == 1.0


def test_pauli_constants():
    assert np.array_equal(PAULI_X.entries, SX)
    assert np.array_equal(PAULI_Y.entries, SY)
    assert np.array_equal(PAULI_Z.entries, SZ)
    assert np.array_equal(IDENTITY_1.entries, I2)
    assert np.array_equal(PROJ_1.entries, P1)
