"""Exact-arithmetic workbench for finite W-algebra representations of
type A: pyramid combinatorics, pattern bases, generator matrices,
relation verification, commutative-subalgebra spectra, central elements,
a Galois-theoretic model, leading-monomial order checks, and a
skew-group-algebra model of invariant differential operators.
"""

from .pyramid import (
    Pyramid,
    gk_dimension,
    gk_parameters,
    gamma_generator_count,
    pbw_variable_count,
    shift_group_rank,
)
from .patterns import (
    GTPattern,
    HighestWeight,
    enumerate_patterns,
    generic_weight,
    validate_highest_weight,
    weyl_dimension,
)
from .rep import (
    Representation,
    build_representation,
    generator_series,
    verify_defining_relations,
)
from .sparse import KERNEL_BACKEND, SparseMatrix

__version__ = "0.1.0"

__all__ = [
    "Pyramid",
    "gk_dimension",
    "gk_parameters",
    "gamma_generator_count",
    "pbw_variable_count",
    "shift_group_rank",
    "GTPattern",
    "HighestWeight",
    "enumerate_patterns",
    "generic_weight",
    "validate_highest_weight",
    "weyl_dimension",
    "Representation",
    "build_representation",
    "generator_series",
    "verify_defining_relations",
    "KERNEL_BACKEND",
    "SparseMatrix",
    "__version__",
]
