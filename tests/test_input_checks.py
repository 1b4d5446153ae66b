"""Table-driven tests of the library's input checks.

Each case calls one public routine with input it must reject and names the
exception type and a fragment of its message.  The cases cover shape,
range and consistency checks of `affine`, `algebra`, `forms`, `calculus`,
`ncpoly`, `omega` and `towers`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from divring.affine import (
    AffineMap,
    Plane,
    VectorScalarProduct,
    apply_affine,
    compose_affine,
    euclidean_product,
    eval_vector_product,
    identity_map,
    vec_between,
)
from divring.algebra import (
    Algebra,
    BasisChange,
    change_basis,
    complex_algebra,
    quaternion_algebra,
    transform_vector,
)
from divring.calculus import Chart, ConnectionCoefficients, geodesic_residual
from divring.errors import (
    DimensionMismatch,
    GeneratorMismatch,
    NoInverseChart,
    NotGenerating,
    ZeroDiagonalEntry,
)
from divring.forms import (
    BilinearMatrix,
    QuadraticMatrix,
    StandardComponents,
    diagonalize,
    eval_bilinear,
    hermitian_conjugation,
)
from divring.ncpoly import NCPoly
from divring.omega import (
    FiniteOmegaAlgebra,
    Gen,
    Representation,
    Signature,
    is_regular,
    substitute,
)
from divring.samples import (
    cyclic_group,
    point_set,
    toy_affine_tower,
    translation_rep,
)
from divring.towers import (
    Tower,
    compose_tower_morphisms,
    effectiveness_chain,
    induced_two_level,
    tower_closure,
    tower_superpose,
)

H = quaternion_algebra()
C = complex_algebra()
ONE, I, J = H.unit, H.basis_element(1), H.basis_element(2)


def form(grid):
    return [[H.scalar(x) if isinstance(x, int) else x for x in row] for row in grid]


X1 = NCPoly.var(H, 2, 0)
X2 = NCPoly.var(H, 2, 1)
T = NCPoly.var(H, 1, 0)

CASES = {
    # affine
    "vec_between-lengths": (lambda: vec_between((ONE,), (ONE, ONE)),
                            DimensionMismatch, "point dimensions differ"),
    "apply_affine-length": (lambda: apply_affine(identity_map(H, 2), (ONE,)),
                            DimensionMismatch, "point dimension differs from the map"),
    "eval_vector_product-length": (lambda: eval_vector_product(euclidean_product(H, 2),
                                                               (ONE,), (ONE, ONE)),
                                   DimensionMismatch, "vector dimension differs"),
    "AffineMap-not-square": (lambda: AffineMap([[ONE, ONE]], [ONE]),
                             DimensionMismatch, "linear part must be n x n"),
    "AffineMap-shift-length": (lambda: AffineMap([[ONE]], [ONE, ONE]),
                               DimensionMismatch, "linear part must be n x n"),
    "AffineMap-bad-hand": (lambda: AffineMap([[ONE]], [ONE], hand="middle"),
                           ValueError, "hand must be 'right' or 'left'"),
    "compose_affine-sizes": (lambda: compose_affine(identity_map(H, 1), identity_map(H, 2)),
                             DimensionMismatch, "maps are not composable"),
    "compose_affine-hands": (lambda: compose_affine(identity_map(H, 1),
                                                    identity_map(H, 1, "left")),
                             DimensionMismatch, "maps are not composable"),
    "Plane-span-length": (lambda: Plane((ONE, ONE), [(ONE,)]),
                          DimensionMismatch, "span vectors must match point dimension"),
    "VectorScalarProduct-empty": (lambda: VectorScalarProduct([]),
                                  DimensionMismatch, "need at least one axis product"),
    "VectorScalarProduct-mixed": (lambda: VectorScalarProduct(
        [BilinearMatrix([[H.unit]]), BilinearMatrix([[C.unit]])]),
        DimensionMismatch, "axis products disagree on the ring"),
    "VectorScalarProduct-sizes": (lambda: VectorScalarProduct(
        [BilinearMatrix([[H.unit]]), BilinearMatrix(form([[1, 0], [0, 1]]))]),
        DimensionMismatch, "axis products disagree on the ring"),
    # algebra
    "Algebra-dim-0": (lambda: Algebra(0, []), ValueError, "dimension must be positive"),
    "Algebra-unit-index": (lambda: Algebra(1, [[[1]]], unit_index=1),
                           ValueError, "unit index out of range"),
    "Algebra-unit-length": (lambda: Algebra(1, [[[1]]], unit_coords=[1, 0]),
                            ValueError, "unit coordinates have wrong length"),
    "BasisChange-not-square": (lambda: BasisChange([[1, 0], [0]]),
                               ValueError, "basis-change matrix must be square"),
    "change_basis-dim": (lambda: change_basis(H, BasisChange([[1, 0], [0, 1]])),
                         ValueError, "basis change has wrong dimension"),
    "transform_vector-dim": (lambda: transform_vector(I, BasisChange([[1, 0], [0, 1]])),
                             ValueError, "basis change has wrong dimension"),
    "transform_vector-target": (lambda: transform_vector(I, BasisChange(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), C),
        ValueError, "coordinate length does not match"),
    "Element-assign": (lambda: setattr(I, "_den", 2), FrozenInstanceError,
                       "cannot assign to field '_den'"),
    "Element-delete": (lambda: delattr(I, "algebra"), FrozenInstanceError,
                       "cannot delete field 'algebra'"),
    "Element-times-None": (lambda: I * None, TypeError, "unsupported operand"),
    # forms
    "BilinearMatrix-not-square": (lambda: BilinearMatrix([[ONE, ONE]]),
                                  DimensionMismatch, "must be square and nonempty"),
    "BilinearMatrix-empty": (lambda: BilinearMatrix([]),
                             DimensionMismatch, "must be square and nonempty"),
    "BilinearMatrix-mixed": (lambda: BilinearMatrix([[ONE, C.unit], [ONE, ONE]]),
                             DimensionMismatch, "all entries must share one algebra"),
    "QuadraticMatrix-asymmetric": (lambda: QuadraticMatrix([[ONE, I], [J, ONE]]),
                                   DimensionMismatch, "quadratic matrix must be symmetric"),
    "StandardComponents-shape": (lambda: StandardComponents(C, [[[0]]], [[[0]]]),
                                 DimensionMismatch, "component tensor must be dim^3"),
    "eval_bilinear-length": (lambda: eval_bilinear(BilinearMatrix(form([[1, 0], [0, 1]])),
                                                   [1], [1, 2]),
                             DimensionMismatch, "coordinate length does not match the form"),
    "Diagonalization-evaluate-length": (lambda: diagonalize(
        QuadraticMatrix(form([[1, 0], [0, 1]]))).evaluate([1]),
        DimensionMismatch, "coordinate length does not match the form"),
    "conjugate-length": (lambda: hermitian_conjugation(
        QuadraticMatrix(form([[1, 0], [0, -1]]))).conjugate([1]),
        DimensionMismatch, "coordinate length does not match the form"),
    "hermitian-not-diagonal": (lambda: hermitian_conjugation(
        QuadraticMatrix(form([[1, 1], [1, 1]]))),
        ZeroDiagonalEntry, "form must be diagonal"),
    "hermitian-not-rational": (lambda: hermitian_conjugation(QuadraticMatrix([[I]])),
                               ZeroDiagonalEntry, "diagonal entry 0 is not rational"),
    "hermitian-zero": (lambda: hermitian_conjugation(QuadraticMatrix(form([[1, 0], [0, 0]]))),
                       ZeroDiagonalEntry, "diagonal entry 1 is zero"),
    # calculus and ncpoly
    "Chart-empty": (lambda: Chart([]), ValueError, "chart needs at least one component"),
    "Chart-arity": (lambda: Chart([X1, T]), ValueError,
                    "components must share the ring and arity"),
    "Chart-ring": (lambda: Chart([X1, NCPoly.var(C, 2, 1)]), ValueError,
                   "components must share the ring and arity"),
    "Chart-inverse-length": (lambda: Chart([X1, X2], [X1]),
                             NoInverseChart, "inverse has wrong shape"),
    "Chart-inverse-arity": (lambda: Chart([X1, X2], [X1, NCPoly.var(H, 3, 1)]),
                            NoInverseChart, "inverse has wrong shape"),
    "geodesic-path-nvars": (lambda: geodesic_residual(ConnectionCoefficients.zero(H, 2),
                                                      [X1, X2], ONE, ONE),
                            ValueError, "path components must be one-variable polynomials"),
    "NCPoly-interleave": (lambda: NCPoly(H, 1, {((0,), (0,)): 1}),
                          ValueError, "monomial must interleave constants and variables"),
    "NCPoly-variable-index": (lambda: NCPoly(H, 1, {((1,), (0, 0)): 1}),
                              ValueError, "variable index out of range"),
    "NCPoly-var-index": (lambda: NCPoly.var(H, 2, 2), ValueError, "variable index out of range"),
    "NCPoly-add-rings": (lambda: X1 + T, ValueError, "polynomials live in different rings"),
    "NCPoly-add-algebras": (lambda: X1 + NCPoly.var(C, 2, 0), ValueError,
                            "polynomials live in different rings"),
    # omega and towers
    "Signature-duplicate": (lambda: Signature([("mul", 2), ("mul", 1)]),
                            ValueError, "operation names must be unique"),
    "Signature-negative-arity": (lambda: Signature([("neg", -1)]),
                                 ValueError, "arities must be nonnegative"),
    "carrier-duplicate": (lambda: FiniteOmegaAlgebra([0, 0], Signature([]), {}),
                          ValueError, "carrier labels must be distinct"),
    "carrier-bound": (lambda: FiniteOmegaAlgebra(range(5), Signature([]), {}, carrier_bound=4),
                      ValueError, "carrier size 5 exceeds bound 4"),
    "table-missing": (lambda: FiniteOmegaAlgebra([], Signature([("mul", 2)]), {}),
                      ValueError, "no table for 'mul'"),
    "rep_kind": (lambda: Representation(cyclic_group(2), point_set(2),
                                        lambda a, m: (a + m) % 2, rep_kind="group"),
                 ValueError, "unknown rep_kind 'group'"),
    "handedness": (lambda: Representation(cyclic_group(2), point_set(2),
                                          lambda a, m: (a + m) % 2, handedness="both"),
                   ValueError, "handedness must be 'left' or 'right'"),
    "substitute-non-word": (lambda: substitute(Gen(0), {0: 5}), TypeError, "not a word: 5"),
    "tower_closure-generator-sets": (lambda: tower_closure(toy_affine_tower(), [[(1, 0)]]),
                                     ValueError, "need one generator set per level"),
    "is_regular-non-generating": (lambda: is_regular(translation_rep(4), [], {}),
                                  NotGenerating, "the set does not generate the carrier"),
    "Tower-empty": (lambda: Tower([]), ValueError, "a tower needs at least one representation"),
    "tower_superpose-levels": (lambda: tower_superpose(({},), ({}, {})),
                               GeneratorMismatch, "different level counts"),
    "compose_tower_morphisms-lengths": (lambda: compose_tower_morphisms([{}], [{}, {}]),
                                        ValueError, "morphisms have different level counts"),
    "induced_two_level-low": (lambda: induced_two_level(toy_affine_tower(), 0, (0, 0)),
                              ValueError, "level out of range"),
    "induced_two_level-high": (lambda: induced_two_level(toy_affine_tower(), 2, (0, 0)),
                               ValueError, "level out of range"),
    "effectiveness_chain-k": (lambda: effectiveness_chain(toy_affine_tower(), 1, 0),
                              ValueError, "invalid level range"),
    "effectiveness_chain-i": (lambda: effectiveness_chain(toy_affine_tower(), 0, 1),
                              ValueError, "invalid level range"),
    "effectiveness_chain-top": (lambda: effectiveness_chain(toy_affine_tower(), 2, 2),
                                ValueError, "invalid level range"),
}


@pytest.mark.parametrize("call, exc, fragment", CASES.values(), ids=CASES.keys())
def test_input_check_raises(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


def test_element_times_a_rational_scales_from_either_side():
    x = H.element([1, Fraction(-2, 3), 0, 5])
    assert x * 3 == 3 * x == x.scale(3) == H.element([3, -2, 0, 15])
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == x.scale(Fraction(1, 2))

