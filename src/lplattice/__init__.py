"""Computable model theory of L_p Banach lattices at desk scale.

Finite weighted measure algebras with step functions; block/profile
sublattices with conditional expectation; conditional slices and 1-type
invariants with an exact distance; *-independence with non-forking
extensions and canonical bases; brute-force oracles and a scenario CLI.
"""

from .core import (
    DEFAULT_TOL,
    DensityChange,
    Refinement,
    Space,
    StepFunction,
    close,
    density_change,
    function_close,
    indicator,
    lift,
    make_space,
    norm,
    refine_space,
    step_function,
    zero,
)
from .errors import (
    ArityMismatch,
    BadExponent,
    BadFractions,
    BadR,
    CertificationFailed,
    DuplicateId,
    GuardExceeded,
    InvalidDistribution,
    LatticeError,
    MassMismatch,
    NonFiniteValue,
    NonPositiveDensity,
    NonPositiveWeight,
    NonTermination,
    ParseError,
    PreconditionFailed,
    SpaceMismatch,
    SublatticeMismatch,
    TargetOutOfRange,
    UnknownCell,
    UnknownReference,
    ValidationError,
)
from .independence import (
    IndependenceVerdict,
    StationarityResult,
    Witness,
    canonical_base,
    nonforking_extension,
    product_check,
    restricted_star_check,
    slice_independent,
    star_independent,
    stationarity_check,
)
from .sublattice import (
    Sublattice,
    band_decompose,
    cond_exp,
    contains,
    dcl,
    intersects_well,
    is_sublattice_of,
    lattice_intersection,
    lattice_join,
)
from .typespace import (
    ConditionalDistribution,
    SliceProfile,
    TypeDatum,
    canonical_realization,
    cond_distribution,
    cond_probability,
    conditional_slice,
    distance,
    lift_profile,
    lift_type_datum,
    maharam_select,
    merged_midpoints,
    realize_cond_distribution,
    slice_profile,
    tuple_type_equal,
    type_datum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
