"""Finite-size models of permutation-averaged quantum observables.

Averaged (symmetrized) operators on n identical sites commute ever more
exactly as n grows, their norms settle onto a sup over product states, and
exchangeable states split into unique mixtures of product powers. This
package builds all of those objects at finite n so the limiting statements
can be checked numerically: Born weights that are constant in n, commutator
norms decaying like 1/n, frequency windows soaking up all the product-state
mass, a boolean event algebra mapping onto commuting projections, and a
conditional-gradient solver that recovers the mixing measure.

The `macrofield` command line exposes each capability as a subcommand that
emits JSON or CSV reports; it runs BLAS on one thread unless
OPENBLAS_NUM_THREADS is set.

`import macrofield` loads only this namespace: each public name imports the
submodule that defines it, and numpy with it, on first access.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "linalg": (
        "SiteSpace", "Operator", "embed_at_site",
        "site_sum", "spectral_norm", "commutator", "permute_sites", "identity",
        "PAULI_X", "PAULI_Y", "PAULI_Z", "PROJ_0", "PROJ_1",
        "MacrofieldError", "MismatchedLocalDimension", "SiteOutOfRange",
        "NotHermitian", "EigFailed", "SpaceMismatch", "DimensionOverflow",
    ),
    "sections": (
        "SymmetricSection", "PerturbedSection", "FrequencySpec",
        "symmetrize", "j_nm", "materialize", "frequency_operator", "frequency_section",
        "BadOrder", "DecayBoundViolated",
    ),
    "states": (
        "DensityMatrix", "BlochVector", "PureState", "NSiteState",
        "bloch_to_density", "density_to_bloch", "product_power", "power_vector",
        "pure_power", "expect", "a_infinity", "is_permutation_invariant",
        "trace_distance", "OutsideBall", "InvalidState",
    ),
    "macrolimit": (
        "DecayRecord", "NormGapRecord", "WindowMassRecord",
        "commutator_decay", "fit_decay_exponent", "product_state_sup", "norm_gap",
        "window_projection", "window_mass", "born_curve", "deviation_norm",
        "BadWindow",
    ),
    "stochastics": (
        "BernoulliSpec", "CylinderEvent", "BooleanExpr", "Leaf", "And", "Or", "Not",
        "cylinder", "leaves", "involved_sites", "random_expression", "SllnReport",
        "hoeffding_bound", "slln_check",
        "cylinder_to_projection", "classical_probability",
        "quantum_classical_agreement", "SiteBeyondHorizon", "TooManySites",
    ),
    "definetti": (
        "DiscreteMixture", "FitResult", "mixture_state", "fit_mixture", "recover_mixture",
        "field_of_states_check", "NotSymmetric",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import the submodule that defines `name` on first access (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
