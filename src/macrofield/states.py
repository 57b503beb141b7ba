"""States: one-site density matrices, the Bloch-ball chart, product powers,
expectations, and the seed-level limit value of a symmetric section.

Pure states are a convenience wrapper; everything of substance happens at the
density-matrix level.  is_permutation_invariant checks whether an n-site
state is fixed by every permutation of its sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    MacrofieldError,
    NotHermitian,
    Operator,
    SiteSpace,
    SpaceMismatch,
    TOL_HERM,
    _defect,
    _rebuild,
    hermiticity_defect,
    kron_power,
    permute_sites,
)

if TYPE_CHECKING:
    from .sections import SymmetricSection


class OutsideBall(MacrofieldError):
    pass


class InvalidState(MacrofieldError):
    pass


def _check_state(arr: np.ndarray) -> None:
    """Raise InvalidState unless the density matrix is finite, Hermitian, of
    unit trace and positive semidefinite."""
    if not np.isfinite(arr).all():
        raise InvalidState("density matrix has non-finite entries")
    if _defect(arr, np.subtract) > TOL_HERM:
        raise InvalidState("density matrix is not Hermitian")
    if abs(arr.trace().real - 1.0) > 1e-12 or abs(arr.trace().imag) > 1e-12:
        raise InvalidState(f"trace {arr.trace():.6g} != 1")
    if np.linalg.eigvalsh(arr)[0] < -1e-10:
        raise InvalidState("density matrix has a negative eigenvalue")


class NSiteState(Operator):
    """Density matrix on an n-site space: a frozen Operator that is a state."""

    __slots__ = ()

    def __init__(self, space: SiteSpace, rho):
        super().__init__(space, rho)
        _check_state(self.entries)


class DensityMatrix(NSiteState):
    """One-site state: Hermitian, unit trace, positive semidefinite."""

    __slots__ = ()

    def __init__(self, d: int, entries):
        super().__init__(SiteSpace(d, 1), entries)

    d = property(lambda self: self.space.d)


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not np.isfinite((self.x, self.y, self.z)).all():
            raise InvalidState(f"Bloch coordinates ({self.x}, {self.y}, {self.z}) are not finite")
        if self.x**2 + self.y**2 + self.z**2 > 1.0 + 1e-12:
            raise OutsideBall(f"({self.x}, {self.y}, {self.z}) lies outside the unit ball")


@dataclass(frozen=True)
class PureState:
    """Unit vector of amplitudes; measurement statistics only ever use |psi><psi|."""

    d: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.amplitudes, dtype=np.complex128)
        if v.shape != (self.d,):
            raise SpaceMismatch(f"amplitude shape {v.shape} does not match d={self.d}")
        norm = float(np.linalg.norm(v))
        # a non-finite amplitude makes the norm NaN or inf, and NaN fails every comparison
        if not abs(norm - 1.0) <= 1e-12:
            raise InvalidState(f"amplitude norm {norm!r} != 1")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def as_density(self) -> DensityMatrix:
        return DensityMatrix(self.d, np.outer(self.amplitudes, self.amplitudes.conj()))


def _bloch_entries(x, y, z) -> np.ndarray:
    """Qubit density entries at Bloch point (x, y, z), unvalidated."""
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=np.complex128)


def _bloch_coords(e: np.ndarray) -> tuple[float, float, float]:
    """Bloch point (x, y, z) of qubit density entries; inverse of _bloch_entries."""
    x = float((e[0, 1] + e[1, 0]).real)
    y = float((1j * (e[0, 1] - e[1, 0])).real)
    z = float((e[0, 0] - e[1, 1]).real)
    return x, y, z


def bloch_to_density(v: BlochVector) -> DensityMatrix:
    """Qubit state at Bloch point (x, y, z); pure exactly on the sphere."""
    return DensityMatrix(2, _bloch_entries(v.x, v.y, v.z))


def density_to_bloch(rho: DensityMatrix) -> BlochVector:
    if rho.d != 2:
        raise SpaceMismatch("Bloch chart exists only for d = 2")
    return BlochVector(*_bloch_coords(rho.entries))


def product_power(rho: DensityMatrix, n: int) -> NSiteState:
    """n-fold Kronecker power rho (x) ... (x) rho; always permutation-symmetric."""
    if n < 1:
        raise SpaceMismatch(f"need n >= 1, got {n}")
    space = SiteSpace(rho.d, n)  # raises DimensionOverflow beyond the dense cap
    # positivity and unit trace are inherited from the factor, skip re-validation
    return _rebuild(NSiteState, space, kron_power(rho.entries, n))


def power_vector(psi: PureState, n: int) -> np.ndarray:
    """Amplitude vector of the n-fold product of a pure state."""
    SiteSpace(psi.d, n)  # raises DimensionOverflow beyond the dense cap
    return kron_power(psi.amplitudes, n)


def pure_power(psi: PureState, n: int) -> NSiteState:
    v = power_vector(psi, n)
    return _rebuild(NSiteState, SiteSpace(psi.d, n), np.outer(v, v.conj()))


def expect(state: NSiteState, a: Operator) -> float:
    """Tr(rho A) for Hermitian A; the vanishing imaginary part is discarded."""
    if a.space != state.space:
        raise SpaceMismatch(f"operator space {a.space} does not match state {state.space}")
    if hermiticity_defect(a) > TOL_HERM:
        raise NotHermitian("expectation target is not Hermitian")
    val = complex(np.einsum("ij,ji->", state.entries, a.entries))
    if abs(val.imag) > 1e-10:
        raise InvalidState(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def a_infinity(section: SymmetricSection, rho: DensityMatrix) -> float:
    """Limit value of a symmetric section on the product state built from rho.

    Product-state expectations of a symmetric section are independent of n,
    so the n -> infinity limit is the seed-order expectation itself.
    """
    return expect(product_power(rho, section.m), section.seed)


def is_permutation_invariant(state: NSiteState) -> bool:
    """True iff rho is fixed, to 1e-10, by the swap of sites 1 and 2 and by
    the cycle of all n sites, which together generate every site permutation."""
    n = state.space.n
    if n == 1:
        return True
    for perm in ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)):
        if np.abs(permute_sites(state, perm).entries - state.entries).max() > 1e-10:
            return False
    return True


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference; the standard state metric."""
    if a.d != b.d:
        raise SpaceMismatch(f"dimensions differ: {a.d} vs {b.d}")
    w = np.linalg.eigvalsh(a.entries - b.entries)
    return 0.5 * float(np.abs(w).sum())
