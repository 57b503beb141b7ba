"""Dense complex operator arithmetic on multi-site Hilbert spaces.

Everything is stored as a dense complex128 matrix tagged with its site
structure (d, n), an `Operator`, which states subclass.  Site 1 is the
leftmost, slowest-varying Kronecker factor; all public site indices are
1-based.  Dimensions are capped at MAX_DIM = 4096 (12 qubit sites), the
largest size the tests and `bench/replay.py` build.  No command-line route
builds its n-site objects here, and each caps its own site counts: qubit
sections of order <= 2 go to total-spin blocks (`sections.spin_blocks`), the
mixture fit to label-multiset coordinates (`_optim`), and the dense route is
their fallback and oracle.

Norms and products delegate to LAPACK and BLAS through numpy, with exact
dispatch fast paths (exactly-real input, and diagonal input for norms) that
matter on a single core at dim 4096.  Every fast path computes the same
quantity as the generic route and is cross-checked against it in the test
suite; `_commute` serves dense matrices and total-spin blocks alike.  The
commuting, classical quantities do not come through here: events live on the
bits of the sites they involve (`stochastics`), and frequency statistics on
the n + 1 weights of the outcome count (`macrolimit`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_HERM = 1e-12   # absolute tolerance for hermiticity checks
MAX_DIM = 4096     # allocation cap: d**n may not exceed this


class MacrofieldError(Exception):
    """Base class for every error raised by this package."""


class MismatchedLocalDimension(MacrofieldError):
    pass


class SiteOutOfRange(MacrofieldError):
    pass


class NotHermitian(MacrofieldError):
    pass


class EigFailed(MacrofieldError):
    pass


class SpaceMismatch(MacrofieldError):
    pass


class DimensionOverflow(MacrofieldError):
    pass


@dataclass(frozen=True)
class SiteSpace:
    """Shape tag for an n-site space with one-site dimension d."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise MismatchedLocalDimension(f"one-site dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise SiteOutOfRange(f"site count must be >= 1, got {self.n}")
        # d >= 2, so any n past log2(MAX_DIM) overflows; d**n is formed only
        # below that, since for a huge n it is itself a huge integer
        if self.n > MAX_DIM.bit_length() or self.d**self.n > MAX_DIM:
            raise DimensionOverflow(f"d**n = {self.d}**{self.n} exceeds the dense cap {MAX_DIM}")

    @property
    def dim(self) -> int:
        return self.d ** self.n


class Operator:
    """A dense complex matrix living on a SiteSpace.

    Entries are frozen (read-only) after construction; every function in this
    package treats operators as immutable values.
    """

    __slots__ = ("space", "entries")

    def __init__(self, space: SiteSpace, entries, *, copy: bool = True):
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.shape != (space.dim, space.dim):
            raise SpaceMismatch(
                f"entries shape {arr.shape} does not match space dim {space.dim}"
            )
        if copy and arr is entries:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the freeze above, unchecked
        return _rebuild, (type(self), self.space, self.entries)

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.space.d}, n={self.space.n}, dim={self.dim})"


def _rebuild(cls, space: SiteSpace, entries: np.ndarray) -> Operator:
    Operator.__init__(obj := object.__new__(cls), space, entries)
    return obj


def _is_diagonal(arr: np.ndarray) -> bool:
    # all nonzeros on the diagonal <=> the two counts agree
    return np.count_nonzero(arr) == np.count_nonzero(np.diagonal(arr))


def _is_real(arr: np.ndarray) -> bool:
    return not np.any(arr.imag)


def _defect(e: np.ndarray, op) -> float:
    """max |op(e, e^dagger)| over entries, held in one array the size of e."""
    diff = np.conjugate(e.T)
    op(e, diff, out=diff)
    return float(np.abs(diff, out=diff).real.max())


def hermiticity_defect(a: Operator) -> float:
    """max |A - A^dagger| over entries."""
    return _defect(a.entries, np.subtract)


def _embed_view(out: np.ndarray, d: int, k: int, n: int) -> np.ndarray:
    """Writable (left, right, d, d) view of the entries out[(a,i,b), (a,j,b)]
    of a C-contiguous (d^n, d^n) array, a over the d^(k-1) left indices and b
    over the d^(n-k) right ones: a (d, d) block assigned through it realizes
    1 x ... x B_k x ... x 1 without touching the zeros."""
    dl, dr = d ** (k - 1), d ** (n - k)
    return np.einsum("aibajb->abij", out.reshape(dl, d, dr, dl, d, dr))


def kron_power(arr: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector or a square matrix, n >= 0.

    Each entry is the same chain of products as in a fold of np.kron, so the
    result is bit-identical; the broadcast form skips np.kron's shape
    handling, which costs several times the arithmetic on the small factors
    (event weights of a few sites, an atom's seed-order power) most calls take.
    """
    if n == 0:
        return np.ones((1,) * arr.ndim, dtype=arr.dtype)  # the empty product
    out = arr
    d = arr.shape[0]
    for _ in range(n - 1):
        m = out.shape[0]
        if arr.ndim == 1:
            out = (out[:, None] * arr[None, :]).reshape(m * d)
        else:
            out = (out[:, None, :, None] * arr[None, :, None, :]).reshape(m * d, m * d)
    return out


def embed_at_site(b: Operator, k: int, n: int) -> Operator:
    """Place a one-site operator at site k of an n-site space, identity elsewhere."""
    if b.space.n != 1:
        raise SpaceMismatch(f"embed_at_site takes a one-site operator, got n={b.space.n}")
    if not 1 <= k <= n:
        raise SiteOutOfRange(f"site index {k} outside 1..{n}")
    d = b.space.d
    space = SiteSpace(d, n)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    _embed_view(out, d, k, n)[...] = b.entries
    return Operator(space, out, copy=False)


def site_sum(b: Operator, n: int) -> Operator:
    """Sum of embed_at_site(b, k, n) over k = 1..n, assembled in one pass."""
    if b.space.n != 1:
        raise SpaceMismatch(f"site_sum takes a one-site operator, got n={b.space.n}")
    d = b.space.d
    space = SiteSpace(d, n)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for k in range(1, n + 1):
        _embed_view(out, d, k, n)[...] += b.entries
    return Operator(space, out, copy=False)


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dgemm is ~4x cheaper than zgemm on one core: exactly-real operands
    # give a real product, which Operator casts once, after any sum with others
    if _is_real(x) and _is_real(y):
        return np.ascontiguousarray(x.real) @ np.ascontiguousarray(y.real)
    return x @ y


def _commute(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # xy - yx of two square arrays, the second product subtracted in place
    diff = _matmul(x, y)
    diff -= _matmul(y, x)
    return diff


def spectral_norm(a: Operator) -> float:
    """Largest singular value: max |eigenvalue| for Hermitian input, that of
    iA for anti-Hermitian input, and through A^dagger A otherwise."""
    return _norm(a.entries)


def _norm(e: np.ndarray) -> float:
    # spectral_norm of a bare square array, such as one total-spin block
    if _is_diagonal(e):
        return float(np.abs(np.diagonal(e)).max())
    try:
        if _is_real(e):
            r = e.real
            if _defect(r, np.subtract) <= TOL_HERM:
                return float(np.abs(np.linalg.eigvalsh(r)).max())
            # one contiguous copy, released before the eigensolver copies g
            c = np.ascontiguousarray(r)
            g = c.T @ c
            del c
            return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))
        if _defect(e, np.subtract) <= TOL_HERM:
            return float(np.abs(np.linalg.eigvalsh(e)).max())
        if _defect(e, np.add) <= TOL_HERM:
            return float(np.abs(np.linalg.eigvalsh(1j * e)).max())
        g = e.conj().T @ e
        return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))
    except np.linalg.LinAlgError as err:
        raise EigFailed(str(err)) from err


def commutator(a: Operator, b: Operator) -> Operator:
    """ab - ba on a shared space."""
    if a.space != b.space:
        raise SpaceMismatch(f"spaces differ: {a.space} vs {b.space}")
    return Operator(a.space, _commute(a.entries, b.entries), copy=False)


def permute_sites(a: Operator, perm) -> Operator:
    """Conjugate by the site permutation sending site k to site perm[k-1].

    Equivalent to U A U^dagger, where the 0/1 unitary U moves the basis digit
    at site k to site perm[k-1], computed as an axis transpose without
    building U.
    """
    n = a.space.n
    d = a.space.d
    perm = tuple(int(x) for x in perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise SiteOutOfRange(f"{perm} is not a permutation of 1..{n}")
    inv = [0] * n
    for k, target in enumerate(perm):
        inv[target - 1] = k
    axes = inv + [x + n for x in inv]
    t = a.entries.reshape((d,) * (2 * n)).transpose(axes)
    return Operator(a.space, np.ascontiguousarray(t).reshape(a.dim, a.dim), copy=False)


def _op1(entries) -> Operator:
    return Operator(SiteSpace(2, 1), np.asarray(entries, dtype=np.complex128))


PAULI_X = _op1([[0, 1], [1, 0]])
PAULI_Y = _op1([[0, -1j], [1j, 0]])
PAULI_Z = _op1([[1, 0], [0, -1]])
IDENTITY_1 = _op1([[1, 0], [0, 1]])
PROJ_0 = _op1([[1, 0], [0, 0]])
PROJ_1 = _op1([[0, 0], [0, 1]])

PAULI = {
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "I": IDENTITY_1,
    "P0": PROJ_0,
    "P1": PROJ_1,
}


def identity(space: SiteSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=np.complex128), copy=False)
