import itertools
import os
from fractions import Fraction

import pytest

from divring.algebra import (
    Algebra,
    BasisChange,
    Element,
    build_algebra,
    change_basis,
    complex_algebra,
    inverse,
    is_central,
    mul,
    quaternion_algebra,
    rational_algebra,
    transform_vector,
)
from divring.errors import (
    AssociativityViolation,
    NotInvertible,
    SingularBasisChange,
    UnitViolation,
    ZeroElement,
)
from divring.io import load_algebra
from conftest import random_element

QUATERNION_JSON = os.path.join(os.path.dirname(__file__), "..", "demos", "data", "quaternion.json")


def associativity_oracle(constants, dim):
    """Exhaustive check of the structural-constant contraction identity,
    written directly from the table: for all (i, m, n, k) the e_k
    coefficient of (e_i e_m) e_n must equal that of e_i (e_m e_n)."""
    failures = []
    for i, m, n, k in itertools.product(range(dim), repeat=4):
        left = sum(constants[i][m][j] * constants[j][n][k] for j in range(dim))
        right = sum(constants[m][n][j] * constants[i][j][k] for j in range(dim))
        if left != right:
            failures.append((i, m, n, k))
    return failures


def quaternion_constants():
    return [
        [list(row) for row in plane] for plane in quaternion_algebra().constants
    ]


def split_complex_algebra():
    """e1^2 = 1: associative and unital but with zero divisors."""
    c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][0] = 1
    c[0][1][1] = 1
    c[1][0][1] = 1
    c[1][1][0] = 1
    return build_algebra(2, c)


def random_basis_change(rng, dim, span=3):
    while True:
        rows = [
            [Fraction(rng.randint(-span, span)) for _ in range(dim)]
            for _ in range(dim)
        ]
        try:
            return BasisChange(rows)
        except SingularBasisChange:
            continue


# ---------------------------------------------------------------------------
# construction


def test_quaternion_table_is_associative_by_oracle():
    assert associativity_oracle(quaternion_constants(), 4) == []


def test_quaternion_algebra_validates(quat):
    assert quat.dim == 4
    assert quat.unit_index == 0


def test_dim1_field_case():
    alg = rational_algebra()
    assert alg.dim == 1
    assert mul(alg.scalar(3), alg.scalar(Fraction(1, 3))) == alg.unit


def test_corrupted_constant_detected():
    constants = quaternion_constants()
    constants[1][2][3] = Fraction(-1)  # flips ij away from k
    assert associativity_oracle(constants, 4) != []
    with pytest.raises(AssociativityViolation):
        build_algebra(4, constants)


def test_unit_violation_detected():
    constants = quaternion_constants()
    constants[0][1][1] = Fraction(2)
    with pytest.raises(UnitViolation):
        build_algebra(4, constants)


# ---------------------------------------------------------------------------
# multiplication


def test_defining_products(quat):
    one, i, j, k = quat.basis()
    assert mul(i, j) == k
    assert mul(j, k) == i
    assert mul(k, i) == j
    assert mul(j, i) == -k
    assert mul(i, i) == -one


def test_binomial_product(quat):
    one, i, _, _ = quat.basis()
    assert mul(one + i, one - i) == quat.scalar(2)


def test_unit_law_random(quat, rng):
    for _ in range(20):
        a = random_element(rng, quat)
        assert mul(quat.unit, a) == a
        assert mul(a, quat.unit) == a


def test_mul_matches_bilinear_expansion(quat, rng):
    basis = quat.basis()
    for _ in range(25):
        a = random_element(rng, quat)
        b = random_element(rng, quat)
        expected = quat.zero
        for x, ax in enumerate(a.coords):
            for y, by in enumerate(b.coords):
                expected = expected + mul(basis[x], basis[y]).scale(ax * by)
        assert mul(a, b) == expected


def test_associativity_random_triples(quat, rng):
    for _ in range(200):
        a = random_element(rng, quat, span=4)
        b = random_element(rng, quat, span=4)
        c = random_element(rng, quat, span=4)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


# ---------------------------------------------------------------------------
# inversion


def test_inverse_of_i(quat):
    _, i, _, _ = quat.basis()
    assert inverse(i) == -i


def test_inverse_of_unit(quat):
    assert inverse(quat.unit) == quat.unit


def test_inverse_of_zero(quat):
    with pytest.raises(ZeroElement):
        inverse(quat.zero)


def test_inverse_two_sided_random(quat, rng):
    for _ in range(50):
        a = random_element(rng, quat, nonzero=True)
        x = inverse(a)
        assert mul(a, x) == quat.unit
        assert mul(x, a) == quat.unit


def test_zero_divisor_not_invertible():
    alg = split_complex_algebra()
    with pytest.raises(NotInvertible):
        inverse(alg.element([1, 1]))
    # the algebra is not a division ring but regular elements still invert
    assert inverse(alg.element([2, 1])) is not None


# ---------------------------------------------------------------------------
# center


def test_center_examples(quat):
    _, i, _, _ = quat.basis()
    assert is_central(quat.scalar(5))
    assert not is_central(i)
    assert is_central(rational_algebra().scalar(7))


def test_center_is_rational_multiples_of_unit(quat, rng):
    for e in quat.basis():
        assert is_central(e) == (e == quat.unit)
    for _ in range(40):
        a = random_element(rng, quat)
        expected = all(c == 0 for c in a.coords[1:])
        assert is_central(a) == expected


# ---------------------------------------------------------------------------
# basis changes


def test_identity_basis_change(quat):
    bc = BasisChange([[1 if r == c else 0 for c in range(4)] for r in range(4)])
    assert change_basis(quat, bc).constants == quat.constants


def test_swap_basis_vectors(quat, rng):
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    bc = BasisChange(swap)
    new = change_basis(quat, bc)
    for _ in range(50):
        a = random_element(rng, quat)
        b = random_element(rng, quat)
        lhs = mul(transform_vector(a, bc, new), transform_vector(b, bc, new))
        rhs = transform_vector(mul(a, b), bc, new)
        assert lhs == rhs


def test_random_basis_change_keeps_associativity(quat, rng):
    for _ in range(5):
        bc = random_basis_change(rng, 4)
        new = change_basis(quat, bc)
        assert associativity_oracle(new.constants, 4) == []


def test_transform_vector_examples(quat):
    ident = BasisChange([[1 if r == c else 0 for c in range(4)] for r in range(4)])
    a = quat.element([1, 2, 3, 4])
    assert transform_vector(a, ident) == a
    swap = BasisChange([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    e1 = quat.basis_element(1)
    moved = transform_vector(e1, swap)
    assert moved.coords == (0, 0, 1, 0)


def test_transform_round_trip(quat, rng):
    for _ in range(10):
        bc = random_basis_change(rng, 4)
        back = BasisChange(bc.inverse)
        a = random_element(rng, quat)
        assert transform_vector(transform_vector(a, bc), back) == a


def test_functoriality_of_basis_changes(quat, rng):
    for _ in range(5):
        first = random_basis_change(rng, 4)
        second = random_basis_change(rng, 4)
        step = change_basis(change_basis(quat, first), second)
        combined = change_basis(quat, first.compose(second))
        assert step.constants == combined.constants
        assert step.unit_coords == combined.unit_coords


def test_singular_basis_change_rejected():
    with pytest.raises(SingularBasisChange):
        BasisChange([[1, 1], [1, 1]])


def test_complex_algebra_is_commutative_field(rng):
    alg = complex_algebra()
    for _ in range(20):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        assert mul(a, b) == mul(b, a)
        if not a.is_zero():
            assert mul(a, inverse(a)) == alg.unit


# ---------------------------------------------------------------------------
# equality


def fraction_equal(a, b):
    """The Fraction-tensor comparison that `Algebra.__eq__` made before it
    compared the integer form."""
    return a.dim == b.dim and a.unit_coords == b.unit_coords and a.constants == b.constants


def quadratic_algebra(d):
    """Q[x]/(x^2 - d) on the basis 1, x."""
    c = [[[1, 0], [0, 1]], [[0, 1], [d, 0]]]
    return build_algebra(2, c)


MOVE = BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]])


def test_algebras_built_apart_are_equal():
    H = quaternion_algebra()
    loaded = load_algebra(QUATERNION_JSON)
    moved, moved_loaded = change_basis(H, MOVE), change_basis(loaded, MOVE)
    rebuilt = Algebra(4, [[[str(c) for c in row] for row in plane] for plane in moved.constants],
                      unit_coords=[str(u) for u in moved.unit_coords])
    assert moved.unit_index is None  # the unit is no basis vector
    for a, b in [(loaded, H), (moved_loaded, moved), (rebuilt, moved),
                 (quadratic_algebra(Fraction(-1, 2)), quadratic_algebra(Fraction(-2, 4)))]:
        assert a is not b
        assert a == b and b == a and fraction_equal(a, b)
        assert hash(a) == hash(b)


def test_algebras_that_differ_are_unequal():
    H = quaternion_algebra()
    complex_swapped = change_basis(complex_algebra(), BasisChange([[0, 1], [1, 0]]))
    pairs = [
        # the same support, one constant apart
        (quadratic_algebra(-1), quadratic_algebra(-2)),
        (quadratic_algebra(-1), quadratic_algebra(Fraction(-1, 2))),
        (quadratic_algebra(2), quadratic_algebra(-2)),
        # another unit
        (complex_algebra(), complex_swapped),
        (change_basis(H, MOVE), change_basis(H, BasisChange([[1, 0, 0, 0], [0, 2, 0, 0],
                                                              [0, 0, 1, 1], [1, 0, 0, 3]]))),
        (H, complex_algebra()),
    ]
    assert complex_swapped.unit_index == 1
    for a, b in pairs[3:5]:
        assert a.unit_coords != b.unit_coords
    for a, b in pairs:
        assert a != b and b != a and not fraction_equal(a, b)
    assert quadratic_algebra(-1)._terms != quadratic_algebra(-2)._terms


def test_equality_agrees_with_the_fraction_tensors(rng):
    algebras = [quaternion_algebra(), load_algebra(QUATERNION_JSON), complex_algebra(),
                split_complex_algebra(), rational_algebra(),
                *[quadratic_algebra(d) for d in (-1, 2, Fraction(-1, 2), Fraction(3, 7))]]
    algebras += [change_basis(alg, random_basis_change(rng, alg.dim))
                 for alg in algebras for _ in range(3)]
    for a, b in itertools.product(algebras, repeat=2):
        assert (a == b) == fraction_equal(a, b)
        if a == b:
            assert hash(a) == hash(b)
