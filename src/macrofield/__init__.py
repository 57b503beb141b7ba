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
emits JSON or CSV reports.
"""

from .linalg import (
    DimensionOverflow,
    EigFailed,
    MacrofieldError,
    MismatchedLocalDimension,
    NotHermitian,
    Operator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PROJ_0,
    PROJ_1,
    SiteOutOfRange,
    SiteSpace,
    SpaceMismatch,
    commutator,
    embed_at_site,
    identity,
    permutation_unitary,
    permute_sites,
    site_sum,
    spectral_norm,
    tensor,
)
from .sections import (
    BadOrder,
    DecayBoundViolated,
    FrequencySpec,
    OrderTooLarge,
    PerturbedSection,
    SymmetricSection,
    frequency_operator,
    frequency_section,
    j_nm,
    materialize,
    symmetrize,
)
from .states import (
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
from .macrolimit import (
    BadWindow,
    DecayRecord,
    NormGapRecord,
    OptimizerFailed,
    WindowMassRecord,
    born_curve,
    commutator_decay,
    deviation_norm,
    fit_decay_exponent,
    norm_gap,
    product_state_sup,
    window_mass,
    window_projection,
)
from .stochastics import (
    And,
    BernoulliSpec,
    BooleanExpr,
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
    quantum_classical_agreement,
    random_expression,
    sample_sequences,
    slln_check,
)
from .definetti import (
    DiscreteMixture,
    FitResult,
    NotSymmetric,
    field_of_states_check,
    fit_mixture,
    mixture_state,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces and operators
    "SiteSpace", "Operator", "tensor", "embed_at_site",
    "site_sum", "spectral_norm", "commutator",
    "permute_sites", "permutation_unitary", "identity",
    "PAULI_X", "PAULI_Y", "PAULI_Z", "PROJ_0", "PROJ_1",
    # averaged observables
    "SymmetricSection", "PerturbedSection", "FrequencySpec",
    "symmetrize", "j_nm", "materialize", "frequency_operator", "frequency_section",
    # states
    "DensityMatrix", "BlochVector", "PureState", "NSiteState",
    "bloch_to_density", "density_to_bloch", "product_power", "power_vector",
    "pure_power", "expect", "a_infinity", "is_permutation_invariant",
    "trace_distance",
    # large-n behaviour
    "DecayRecord", "NormGapRecord", "WindowMassRecord",
    "commutator_decay", "fit_decay_exponent", "product_state_sup", "norm_gap",
    "window_projection", "window_mass", "born_curve", "deviation_norm",
    # sequence space
    "BernoulliSpec", "CylinderEvent", "BooleanExpr", "Leaf", "And", "Or", "Not",
    "cylinder", "involved_sites", "random_expression", "SllnReport",
    "hoeffding_bound", "sample_sequences", "slln_check",
    "cylinder_to_projection", "classical_probability",
    "quantum_classical_agreement",
    # mixture recovery
    "DiscreteMixture", "FitResult", "mixture_state", "fit_mixture",
    "field_of_states_check",
    # errors
    "MacrofieldError", "MismatchedLocalDimension", "SiteOutOfRange",
    "NotHermitian", "EigFailed", "SpaceMismatch", "DimensionOverflow",
    "OrderTooLarge", "BadOrder", "DecayBoundViolated", "OutsideBall",
    "InvalidState", "BadWindow", "OptimizerFailed", "SiteBeyondHorizon",
    "TooManySites", "NotSymmetric",
]
