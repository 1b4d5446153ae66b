"""Exact computer algebra over finite-dimensional division rings.

Modules by theme:

- algebra: rational scalars, structural-constant algebras, basis changes
- ratlin: exact linear algebra over Q, fraction-free elimination
- forms: bilinear/quadratic maps, the two-sided equation, diagonalization
- omega: finite universal algebras, representations, closures, words
- towers: chained representations, layered closure and bases
- affine: points, affine maps, planes, scalar products over the ring
- ncpoly / calculus: noncommutative polynomials, charts, connections
- samples: ready-made finite groups, point sets and towers for demos and tests
- errors: the exception hierarchy, domain errors and ParseError
- io / cli: text formats and the batch command-line tool
"""

from .algebra import (
    Algebra,
    BasisChange,
    Element,
    Rational,
    change_basis,
    complex_algebra,
    inverse,
    is_central,
    mul,
    quaternion_algebra,
    rational_algebra,
    transform_vector,
)

__all__ = [
    "Algebra",
    "BasisChange",
    "Element",
    "Rational",
    "change_basis",
    "complex_algebra",
    "inverse",
    "is_central",
    "mul",
    "quaternion_algebra",
    "rational_algebra",
    "transform_vector",
]

__version__ = "0.1.0"
