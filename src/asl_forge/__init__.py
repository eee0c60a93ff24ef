"""Exact Groebner-basis and straightening-law toolkit for ideals of
entries of a matrix-vector product X*Y.

The layers, bottom up: poly_core (ring contexts, block monomial order,
sparse exact arithmetic), groebner (division, Buchberger, certificates,
initial ideals), matrix_ideal (patterned X and the generators of the
entry ideal), poset (finite partial orders), asl (the variable poset,
standard monomials, straightening, bounded-degree axiom checks and the
``verify`` pipeline), cli.
"""

from .asl import (
    NonStandardExpansionError,
    POSET_NOTE,
    StraighteningRelation,
    build_poset,
    chain_factors,
    count_standard_monomials,
    expected_incomparable_pairs,
    is_standard_monomial,
    straighten,
    verify,
    verify_axiom1,
    verify_axiom2,
)
from .groebner import (
    GeneratorSet,
    GroebnerCertificate,
    InitialIdeal,
    NotGroebnerError,
    SPairRecord,
    buchberger,
    initial_ideal,
    interreduce,
    is_groebner,
    reduce,
)
from .matrix_ideal import (
    MatrixPattern,
    matrix_product_ideal,
    product_generators,
)
from .poly_core import (
    CoefficientField,
    ContextMismatchError,
    FpElement,
    Monomial,
    MonomialOrder,
    Polynomial,
    RingContext,
    Variable,
    ZeroPolynomialError,
)
from .poset import Poset

__all__ = [
    "CoefficientField",
    "ContextMismatchError",
    "FpElement",
    "GeneratorSet",
    "GroebnerCertificate",
    "InitialIdeal",
    "MatrixPattern",
    "Monomial",
    "MonomialOrder",
    "NonStandardExpansionError",
    "NotGroebnerError",
    "POSET_NOTE",
    "Polynomial",
    "Poset",
    "RingContext",
    "SPairRecord",
    "StraighteningRelation",
    "Variable",
    "ZeroPolynomialError",
    "buchberger",
    "build_poset",
    "chain_factors",
    "count_standard_monomials",
    "expected_incomparable_pairs",
    "initial_ideal",
    "interreduce",
    "is_groebner",
    "is_standard_monomial",
    "matrix_product_ideal",
    "product_generators",
    "reduce",
    "straighten",
    "verify",
    "verify_axiom1",
    "verify_axiom2",
]
