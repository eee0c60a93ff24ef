"""Exact Groebner-basis and straightening-law toolkit for ideals of
entries of a matrix-vector product X*Y.

The layers, bottom up: poly_core (ring contexts, block monomial order,
sparse exact arithmetic), groebner (division, Buchberger, certificates,
initial ideals), matrix_ideal (patterned X and the generators of the
entry ideal), poset (finite partial orders), asl (the variable poset,
bounded-degree axiom checks and the ``verify`` pipeline), cli.
"""

from .asl import (
    POSET_NOTE,
    build_poset,
    count_standard_monomials,
    expected_incomparable_pairs,
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
    "NotGroebnerError",
    "POSET_NOTE",
    "Polynomial",
    "Poset",
    "RingContext",
    "SPairRecord",
    "Variable",
    "ZeroPolynomialError",
    "buchberger",
    "build_poset",
    "count_standard_monomials",
    "expected_incomparable_pairs",
    "initial_ideal",
    "is_groebner",
    "matrix_product_ideal",
    "product_generators",
    "reduce",
    "verify",
    "verify_axiom1",
    "verify_axiom2",
]
