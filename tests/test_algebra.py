import itertools
import os
import random
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


# ---------------------------------------------------------------------------
# integer storage: the Fraction views read back the input


def quaternion_table():
    """e_a e_b on 1, i, j, k, written from i^2 = j^2 = k^2 = -1 and ij = k,
    jk = i, ki = j with their anti-commuting mirrors."""
    t = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        t[0][a][a] = t[a][0][a] = 1
    for a in (1, 2, 3):
        t[a][a][0] = -1
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[a][b][c], t[b][a][c] = 1, -1
    return t


def fraction_inverse(m):
    """Gauss-Jordan over Fractions; StopIteration when m is singular."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if work[r][c])
        work[c], work[p] = work[p], work[c]
        top = work[c] = [x / work[c][c] for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], top)]
    return [row[n:] for row in work]


def random_rational_matrix(rng, dim):
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
             for _ in range(dim)]
        try:
            fraction_inverse(m)
        except StopIteration:
            continue
        return m


def fraction_change_basis(table, unit, m):
    """C'[i][j][l] = sum m[i][p] m[j][q] C[p][q][k] m^-1[k][l], u' = u m^-1."""
    n, minv = len(m), fraction_inverse(m)
    idx = range(n)
    new = [[[sum(m[i][p] * m[j][q] * table[p][q][k] * minv[k][el]
                 for p in idx for q in idx for k in idx) for el in idx]
            for j in idx] for i in idx]
    return new, [sum(unit[k] * minv[k][el] for k in idx) for el in idx]


def seeded_tables(rng):
    """(dim, table, unit, base, matrix) over Fractions: the rationals, three
    quadratic fields and the quaternions, each as given (table and base
    alike, matrix None), and the table of base in the basis of matrix: with
    its first two basis vectors swapped, its first one doubled, and after
    seeded rational basis changes, which make the unit composite."""
    bases = [(1, [[[1]]]), (4, quaternion_table())]
    bases += [(2, [[[1, 0], [0, 1]], [[0, 1], [d, 0]]]) for d in (-1, 2, Fraction(-3, 5))]
    out = []
    for dim, table in bases:
        table = [[[Fraction(x) for x in row] for row in plane] for plane in table]
        unit = [Fraction(int(i == 0)) for i in range(dim)]
        out.append((dim, table, unit, table, None))
        swap = [[Fraction(int(j == (i ^ 1 if i < 2 and dim > 1 else i))) for j in range(dim)]
                for i in range(dim)]
        double = [[Fraction(int(i == j) * (2 if i == 0 else 1)) for j in range(dim)]
                  for i in range(dim)]
        for m in [swap, double, *[random_rational_matrix(rng, dim) for _ in range(3)]]:
            out.append((dim, *fraction_change_basis(table, unit, m), table, m))
    return out


def nested_tuples(table):
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def test_views_read_back_the_input():
    kinds = set()
    for dim, table, unit, base, m in seeded_tables(random.Random(2801)):
        built = [Algebra(dim, table, unit_coords=unit),
                 Algebra(dim, [[[str(x) for x in row] for row in plane] for plane in table],
                         unit_coords=[str(x) for x in unit])]
        if m is None:
            built.append(Algebra(dim, table))
        else:
            built.append(change_basis(Algebra(dim, base), BasisChange(m)))
        hits = [i for i, c in enumerate(unit) if c]
        index = hits[0] if len(hits) == 1 and unit[hits[0]] == 1 else None
        kinds.add(index if index is None else index > 0)
        for alg in built:
            assert alg.constants == nested_tuples(table)
            assert alg.unit_coords == tuple(unit)
            assert alg.unit_index == index
            assert type(alg.constants) is tuple and type(alg.unit_coords) is tuple
            assert all(type(plane) is tuple and type(row) is tuple and type(c) is Fraction
                       for plane in alg.constants for row in plane for c in row)
            assert all(type(c) is Fraction for c in alg.unit_coords)
    assert kinds == {None, False, True}  # composite units and units e_0 and e_1


def test_basis_change_views_read_back_the_matrix():
    rng = random.Random(2802)
    for dim in (1, 2, 3, 4):
        for _ in range(6):
            m = random_rational_matrix(rng, dim)
            bc = BasisChange([[str(x) for x in row] for row in m])
            assert bc.matrix == m and bc.dim == dim
            inv = bc.inverse
            for got in (bc.matrix, inv):
                assert type(got) is list and all(type(row) is list for row in got)
                assert all(type(x) is Fraction for row in got for x in row)
            for i in range(dim):
                for j in range(dim):
                    assert sum(m[i][k] * inv[k][j] for k in range(dim)) == (i == j)
            other = random_rational_matrix(rng, dim)
            assert bc.compose(BasisChange(other)).matrix == [
                [sum(other[i][k] * m[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)]


def fraction_rational_part(a):
    """The Fraction rule: the q with coords == q * unit_coords, or None."""
    u = a.algebra.unit_coords
    i = next(k for k, c in enumerate(u) if c)
    q = a.coords[i] / u[i]
    return q if a.coords == tuple(q * c for c in u) else None


SCALARS = (0, 1, -1, 12, Fraction(3, 7), Fraction(-22, 5))


@pytest.mark.parametrize("alg", [quaternion_algebra(), change_basis(quaternion_algebra(), MOVE)],
                         ids=["H", "H-moved"])
def test_rational_part_matches_the_fraction_rule(alg):
    rng = random.Random(2803)
    for q in SCALARS:
        got = alg.element([q * u for u in alg.unit_coords]).rational_part()
        assert got == q and type(got) is Fraction
    cases = [alg.scalar(q) + alg.basis_element(b).scale(Fraction(1, 3))
             for q in SCALARS for b in range(alg.dim)]
    cases += [alg.scalar(q) for q in SCALARS]
    cases += [random_element(rng, alg) for _ in range(40)]
    outcomes = set()
    for a in cases:
        want = fraction_rational_part(a)
        got = a.rational_part()
        assert got == want and (want is None or type(got) is Fraction)
        outcomes.add(want is None)
    assert outcomes == {True, False}
