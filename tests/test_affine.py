from fractions import Fraction

import pytest

from divring.affine import (
    AffineMap,
    Plane,
    apply_affine,
    apply_linear,
    compose_affine,
    euclidean_product,
    eval_vector_product,
    identity_map,
    identity_matrix,
    inverse_affine,
    is_orthonormal,
    matrix_mul,
    nc_rank,
    plane_contains,
    preserves_form,
    shift,
    transfer_structure,
    vec_between,
)
from divring.algebra import mul, quaternion_algebra
from divring.errors import (
    DimensionMismatch,
    NotSingleTransitive,
    SingularLinearPart,
)
from divring.samples import scalar_rep, translation_on_points
from conftest import random_element

H = quaternion_algebra()
ONE, I, J, K = H.basis()
ZERO = H.zero


def random_affine_map(rng, n, hand="right"):
    while True:
        try:
            return AffineMap(
                [[random_element(rng, H, 3) for _ in range(n)] for _ in range(n)],
                [random_element(rng, H, 3) for _ in range(n)],
                hand,
            )
        except SingularLinearPart:
            continue


def random_point(rng, n):
    return tuple(random_element(rng, H, 4) for _ in range(n))


# ---------------------------------------------------------------------------
# points and vectors


def test_shift_examples():
    a = (ONE, I)
    v = (J, K)
    assert shift(a, v) == (ONE + J, I + K)
    assert shift(a, (ZERO, ZERO)) == a
    assert shift(shift(a, v), tuple(-x for x in v)) == a


def test_vec_between_axioms(rng):
    a = random_point(rng, 3)
    b = random_point(rng, 3)
    assert shift(a, vec_between(a, b)) == b
    assert vec_between(a, a) == (ZERO, ZERO, ZERO)
    assert vec_between(a, b) == tuple(-x for x in vec_between(b, a))


def test_parallelogram_axiom(rng):
    for _ in range(60):
        a, b, c = (random_point(rng, 2) for _ in range(3))
        d = shift(c, vec_between(a, b))
        assert vec_between(a, b) == vec_between(c, d)
        assert vec_between(a, c) == vec_between(b, d)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        shift((ONE,), (ONE, ONE))


# ---------------------------------------------------------------------------
# affine maps


def test_apply_affine_examples():
    ident = identity_map(H, 2)
    pt = (I, J)
    assert apply_affine(ident, pt) == pt
    m = AffineMap([[I]], [ONE])
    assert apply_affine(m, (J,)) == (mul(J, I) + ONE,)
    assert apply_affine(m, (J,)) == (ONE - K,)
    translation = AffineMap(identity_matrix(H, 2), (J, K))
    assert apply_affine(translation, pt) == shift(pt, (J, K))


def test_compose_matches_pointwise(rng):
    """apply_linear, apply_affine, compose_affine and inverse_affine against
    per-entry loops, for n = 1..4 under both hands."""
    for hand in ("right", "left"):

        def times(x, p):  # x times a matrix entry p under the hand
            return mul(x, p) if hand == "right" else mul(p, x)

        def lin(m, v):
            return tuple(sum((times(v[j], m.linear[j][i]) for j in range(n)), ZERO)
                         for i in range(n))

        for n in (1, 2, 3, 4):
            m1 = random_affine_map(rng, n, hand)
            m2 = random_affine_map(rng, n, hand)
            comp = compose_affine(m1, m2)
            assert comp.linear == tuple(
                tuple(sum((times(m1.linear[r][k], m2.linear[k][c]) for k in range(n)), ZERO)
                      for c in range(n))
                for r in range(n))
            assert comp.shift == tuple(a + b for a, b in zip(lin(m2, m1.shift), m2.shift))
            inv = inverse_affine(m1)
            assert inv.shift == tuple(-x for x in lin(inv, m1.shift))
            for _ in range(40):
                pt = random_point(rng, n)
                assert apply_linear(m1, pt) == lin(m1, pt)
                assert apply_affine(m1, pt) == tuple(a + b for a, b in zip(lin(m1, pt), m1.shift))
                assert apply_affine(comp, pt) == apply_affine(m2, apply_affine(m1, pt))
                assert lin(inv, lin(m1, pt)) == pt
                assert apply_affine(inv, apply_affine(m1, pt)) == pt


def test_composition_component_example():
    m1 = AffineMap([[I]], [ONE])
    m2 = AffineMap([[J]], [K])
    comp = compose_affine(m1, m2)
    assert comp.linear == ((K,),)
    assert comp.shift == (J + K,)
    # ((1 i + 1) j + k) = ij + j + k
    assert apply_affine(comp, (ONE,)) == (mul(I, J) + J + K,)


def test_group_axioms(rng):
    for n in (1, 2, 3):
        a = random_affine_map(rng, n)
        b = random_affine_map(rng, n)
        c = random_affine_map(rng, n)
        left = compose_affine(compose_affine(a, b), c)
        right = compose_affine(a, compose_affine(b, c))
        assert left.linear == right.linear and left.shift == right.shift
        ident = identity_map(H, n)
        for factor in (compose_affine(a, inverse_affine(a)),
                       compose_affine(inverse_affine(a), a),
                       compose_affine(a, ident),
                       compose_affine(ident, a)):
            if factor.linear == a.linear:
                assert factor.shift == a.shift
            else:
                assert factor.linear == ident.linear
                assert factor.shift == ident.shift


def test_inverse_examples():
    ident = identity_map(H, 2)
    inv = inverse_affine(ident)
    assert inv.linear == ident.linear and inv.shift == ident.shift
    translation = AffineMap(identity_matrix(H, 2), (J, K))
    back = inverse_affine(translation)
    assert back.shift == (-J, -K)
    m = AffineMap([[I]], [ONE])
    inv = inverse_affine(m)
    comp = compose_affine(m, inv)
    assert comp.linear == identity_map(H, 1).linear
    assert comp.shift == identity_map(H, 1).shift


def test_left_hand_mirror(rng):
    m1 = random_affine_map(rng, 2, hand="left")
    m2 = random_affine_map(rng, 2, hand="left")
    comp = compose_affine(m1, m2)
    for _ in range(20):
        pt = random_point(rng, 2)
        assert apply_affine(comp, pt) == apply_affine(m2, apply_affine(m1, pt))
    inv = inverse_affine(m1)
    pt = random_point(rng, 2)
    assert apply_affine(inv, apply_affine(m1, pt)) == pt


def test_singular_linear_part_rejected():
    with pytest.raises(SingularLinearPart):
        AffineMap([[ONE, ZERO], [I, ZERO]], [ZERO, ZERO])


def test_each_hand_decides_with_its_own_multipliers():
    # (j, -1) P = 0 under the left-hand convention: the left-hand map would
    # send (j, -1) to the origin, while the right-hand rank of P is 2
    linear = [[ONE, I], [J, K]]
    assert matrix_mul([(J, -ONE)], linear, "left") == ((ZERO, ZERO),)
    assert nc_rank(linear) == 2
    with pytest.raises(SingularLinearPart, match="^linear part is singular$"):
        AffineMap(linear, [ZERO, ZERO], hand="left")
    m = AffineMap(linear, [ONE, J])
    inv = inverse_affine(m)
    for pt in [(J, -ONE), (ONE, K), (I + J, ZERO)]:
        assert apply_affine(inv, apply_affine(m, pt)) == pt
        assert apply_affine(m, apply_affine(inv, pt)) == pt


# ---------------------------------------------------------------------------
# rank over the ring


def test_rank_examples():
    assert nc_rank(identity_matrix(H, 3)) == 3
    assert nc_rank([[ONE, ZERO], [I, ZERO]]) == 1
    assert nc_rank([[ONE, I], [J, K]]) == 2
    # k - j i = 2k as the elimination pivot
    assert mul(J, I) == -K


def test_rank_invariances(rng):
    rows = [[random_element(rng, H, 3) for _ in range(3)] for _ in range(2)]
    base = nc_rank(rows)
    assert nc_rank([rows[1], rows[0]]) == base
    scaled = [[mul(I + J, x) for x in rows[0]], rows[1]]
    assert nc_rank(scaled) == base


@pytest.mark.parametrize("rows", [[[ONE, I], [J]], [[ONE], [J, K]]])
def test_rank_of_rows_of_unequal_length_is_dimension_mismatch(rows):
    with pytest.raises(DimensionMismatch, match="^rows differ in length$"):
        nc_rank(rows)


def test_rank_of_left_multiples(rng):
    for _ in range(10):
        v = [random_element(rng, H, 3, nonzero=True) for _ in range(3)]
        d = random_element(rng, H, 3, nonzero=True)
        assert nc_rank([v, [mul(d, x) for x in v]]) == 1


# ---------------------------------------------------------------------------
# planes


def test_plane_membership_examples():
    anchor = (ONE, I)
    pl = Plane(anchor, [(ONE, ZERO)])
    assert plane_contains(pl, anchor)
    assert plane_contains(pl, shift(anchor, (J, ZERO)))
    assert not plane_contains(pl, shift(anchor, (ZERO, ONE)))


def test_plane_membership_random(rng):
    anchor = random_point(rng, 3)
    span = [(ONE, I, ZERO), (ZERO, J, K)]
    pl = Plane(anchor, span)
    for _ in range(30):
        c1 = random_element(rng, H, 3)
        c2 = random_element(rng, H, 3)
        inside = shift(
            anchor,
            tuple(mul(s1, c1) + mul(s2, c2) for s1, s2 in zip(*span)),
        )
        assert plane_contains(pl, inside)
    # perturb out of the plane: the span misses the first axis beyond e1
    outside = shift(anchor, (ZERO, ZERO, ONE))
    assert not plane_contains(pl, outside)


def test_dependent_span_rejected():
    with pytest.raises(DimensionMismatch):
        Plane((ZERO, ZERO), [(ONE, ZERO), (I, ZERO)])


# ---------------------------------------------------------------------------
# scalar products


def test_vector_product_examples():
    g = euclidean_product(H, 2)
    assert eval_vector_product(g, (ONE, ZERO), (ONE, ZERO)) == ONE
    assert eval_vector_product(g, (I, ZERO), (J, ZERO)) == ZERO


def test_vector_product_symmetry(rng):
    g = euclidean_product(H, 3)
    for _ in range(30):
        v = random_point(rng, 3)
        w = random_point(rng, 3)
        assert eval_vector_product(g, v, w) == eval_vector_product(g, w, v)


def test_orthonormal_bases():
    g = euclidean_product(H, 3)
    std = [tuple(ONE if c == r else ZERO for c in range(3)) for r in range(3)]
    assert is_orthonormal(g, std)
    assert is_orthonormal(g, [std[2], std[0], std[1]])
    scaled = [tuple(x.scale(2) for x in std[0])] + std[1:]
    assert not is_orthonormal(g, scaled)


def test_form_preservation():
    g = euclidean_product(H, 2)
    ident = identity_map(H, 2)
    assert preserves_form(ident, g)
    perm = AffineMap([[ZERO, ONE], [ONE, ZERO]], [ZERO, ZERO])
    assert preserves_form(perm, g)
    scale = AffineMap([[ONE.scale(2), ZERO], [ZERO, ONE]], [ZERO, ZERO])
    assert not preserves_form(scale, g)
    shifted = AffineMap(identity_matrix(H, 2), (ONE, ZERO))
    assert not preserves_form(shifted, g)


# ---------------------------------------------------------------------------
# transfer of structure


def test_transfer_point_addition():
    rep = translation_on_points()
    alg = transfer_structure(rep, (0, 0))
    assert alg.apply("add", ((1, 0), (0, 1))) == (1, 1)
    assert alg.apply("add", ((2, 1), (0, 0))) == (2, 1)


def test_transfer_depends_on_origin():
    rep = translation_on_points()
    at_zero = transfer_structure(rep, (0, 0))
    at_one = transfer_structure(rep, (1, 1))
    assert at_zero.tables != at_one.tables
    assert at_one.apply("add", ((1, 1), (2, 2))) == (2, 2)


def test_transfer_requires_single_transitivity():
    with pytest.raises(NotSingleTransitive):
        transfer_structure(scalar_rep(), (0, 0))
