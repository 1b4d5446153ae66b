import itertools
from fractions import Fraction

import pytest

from divring.algebra import mul, quaternion_algebra
from divring.errors import PivotConditionFailed, ZeroDiagonalEntry
from divring.forms import (
    BilinearMatrix,
    MetricClass,
    QuadraticMatrix,
    StandardComponents,
    SymmetryClass,
    bilinear_from_standard,
    classify_metric,
    diagonalize,
    eval_bilinear,
    eval_quadratic,
    hermitian_conjugation,
    quadratic_from_bilinear,
    solve_axxa,
    symmetry_class,
)
from conftest import random_element


H = quaternion_algebra()
ONE, I, J, K = H.basis()
ZERO = H.zero


def rref_rank(rows):
    """Tiny independent rational rank computation used as the oracle for
    the solvability classification."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        f = m[rank][col]
        m[rank] = [x / f for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                g = m[r][col]
                m[r] = [x - g * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def two_sided_oracle_matrix(a):
    """Matrix of x -> a x + x a assembled through products with the basis,
    not through the constants tensor."""
    cols = [mul(a, e) + mul(e, a) for e in H.basis()]
    return [[cols[j].coords[k] for j in range(4)] for k in range(4)]


def rand_tensor(rng, span=2):
    return [
        [[Fraction(rng.randint(-span, span)) for _ in range(4)] for _ in range(4)]
        for _ in range(4)
    ]


def zero_tensor():
    return [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]


def random_symmetric_quadratic(rng, nvars, span=3):
    grid = [[None] * nvars for _ in range(nvars)]
    for r in range(nvars):
        for c in range(r, nvars):
            e = random_element(rng, H, span=span)
            grid[r][c] = e
            grid[c][r] = e
    return QuadraticMatrix(grid)


# ---------------------------------------------------------------------------
# standard components


def test_zero_components_give_zero_matrix():
    sc = StandardComponents(H, zero_tensor(), zero_tensor())
    g = bilinear_from_standard(sc)
    assert all(e.is_zero() for row in g.entries for e in row)


def test_unit_component_gives_multiplication_form():
    first = zero_tensor()
    first[0][0][0] = Fraction(1)
    g = bilinear_from_standard(StandardComponents(H, first, zero_tensor()))
    for p in range(4):
        for q in range(4):
            assert g.entries[p][q] == mul(H.basis_element(p), H.basis_element(q))


def test_swapping_components_transposes(rng):
    sc = StandardComponents(H, rand_tensor(rng), rand_tensor(rng))
    assert bilinear_from_standard(sc.swap()).entries == \
        bilinear_from_standard(sc).transpose().entries


def test_matrix_route_equals_direct_evaluation(rng):
    sc = StandardComponents(H, rand_tensor(rng, 1), rand_tensor(rng, 1))
    g = bilinear_from_standard(sc)
    for _ in range(20):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        assert eval_bilinear(g, a, b) == sc.evaluate(H.element(a), H.element(b))


# ---------------------------------------------------------------------------
# evaluation and symmetry


def diag_form(entries):
    n = len(entries)
    return BilinearMatrix(
        [[entries[r] if r == c else ZERO for c in range(n)] for r in range(n)]
    )


def test_eval_bilinear_examples():
    g = diag_form([ONE, ONE, ONE, ONE])
    assert eval_bilinear(g, [0, 1, 0, 0], [0, 1, 0, 0]) == ONE
    assert eval_bilinear(g, [1, 1, 0, 0], [1, 0, 1, 0]) == ONE
    zero = BilinearMatrix([[ZERO] * 4 for _ in range(4)])
    assert eval_bilinear(zero, [1, 2, 3, 4], [4, 3, 2, 1]) == ZERO


def test_symmetry_classification():
    assert symmetry_class(diag_form([ONE, I])) == SymmetryClass.SYMMETRIC
    skew = BilinearMatrix([[ZERO, I], [-I, ZERO]])
    assert symmetry_class(skew) == SymmetryClass.SKEW
    neither = BilinearMatrix([[ZERO, I], [J, ZERO]])
    assert symmetry_class(neither) == SymmetryClass.NEITHER


def test_transpose_involution_and_mirror(rng):
    rows = [[random_element(rng, H) for _ in range(3)] for _ in range(3)]
    g = BilinearMatrix(rows)
    assert g.transpose().transpose().entries == g.entries
    sym = quadratic_from_bilinear(g)
    gsym = BilinearMatrix(sym.entries)
    assert symmetry_class(gsym.transpose()) == symmetry_class(gsym)


def test_quadratic_from_bilinear():
    sym = diag_form([ONE, J])
    assert quadratic_from_bilinear(sym).entries == sym.entries
    skew = BilinearMatrix([[ZERO, I], [-I, ZERO]])
    assert all(
        e.is_zero() for row in quadratic_from_bilinear(skew).entries for e in row
    )
    g = BilinearMatrix([[ZERO, I], [K, ZERO]])
    q = quadratic_from_bilinear(g)
    assert q.entries[0][1] == (I + K).scale(Fraction(1, 2))


def test_symmetrization_ignores_transposition(rng):
    rows = [[random_element(rng, H) for _ in range(3)] for _ in range(3)]
    g = BilinearMatrix(rows)
    assert quadratic_from_bilinear(g).entries == \
        quadratic_from_bilinear(g.transpose()).entries


def test_quadratic_norm_against_conjugation(rng):
    norm = QuadraticMatrix(
        [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
    )
    for _ in range(25):
        coords = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        a = H.element(coords)
        conj = H.element([coords[0], -coords[1], -coords[2], -coords[3]])
        assert eval_quadratic(norm, coords) == mul(a, conj)
    assert eval_quadratic(norm, [0, 0, 0, 0]) == ZERO
    split = QuadraticMatrix([[ONE, ZERO], [ZERO, -ONE]])
    assert eval_quadratic(split, [1, 1]) == ZERO


# ---------------------------------------------------------------------------
# the equation a x + x a = b


def test_solve_axxa_hand_examples(rng):
    b = random_element(rng, H)
    out = solve_axxa(ONE, b)
    assert out.kind == "unique" and out.witness == b.scale(Fraction(1, 2))
    out = solve_axxa(I, I.scale(2))
    assert out.kind == "infinite"
    assert out.witness == ONE
    assert out.nullspace_dim == 2
    out = solve_axxa(I, J)
    assert out.kind == "none" and out.witness is None


def test_solve_axxa_against_oracle(rng):
    for _ in range(120):
        a = random_element(rng, H, span=3)
        b = random_element(rng, H, span=3)
        out = solve_axxa(a, b)
        s = two_sided_oracle_matrix(a)
        rank = rref_rank(s)
        aug = rref_rank([row + [bc] for row, bc in zip(s, b.coords)])
        if rank == 4:
            assert out.kind == "unique"
        elif rank == aug:
            assert out.kind == "infinite"
        else:
            assert out.kind == "none"
        assert out.nullspace_dim == 4 - rank
        if out.witness is not None:
            assert mul(a, out.witness) + mul(out.witness, a) == b


# ---------------------------------------------------------------------------
# diagonalization


def test_square_completion_two_variables():
    f = QuadraticMatrix([[ONE, I], [I, ZERO]])
    diag = diagonalize(f)
    assert diag.diagonal == (ONE, ONE)
    assert diag.substitution[0] == (ONE, I)
    assert diag.extra_linear is None
    assert diag.residual_rank == 2
    # strip the first square by hand: f - (a1 + a2 i)^2 = (a2)^2
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            lin = ONE.scale(a1) + I.scale(a2)
            rest = eval_quadratic(f, [a1, a2]) - mul(lin, lin)
            assert rest == ONE.scale(Fraction(a2 * a2))


def test_zero_diagonal_needs_pre_transformation():
    f = QuadraticMatrix([[ZERO, ONE], [ONE, ZERO]])
    diag = diagonalize(f)
    assert diag.extra_linear is not None
    # after the mixing substitution the form is 2 b1^2 - 2 b2^2
    p = diag.extra_linear
    mixed = [[ZERO, ZERO], [ZERO, ZERO]]
    for r in range(2):
        for c in range(2):
            acc = ZERO
            for x in range(2):
                for y in range(2):
                    acc = acc + f.entries[x][y].scale(p[x][r] * p[y][c])
            mixed[r][c] = acc
    assert mixed[0][0] == ONE.scale(2)
    assert mixed[1][1] == ONE.scale(-2)
    assert mixed[0][1].is_zero() and mixed[1][0].is_zero()


def test_already_diagonal_is_fixed():
    f = QuadraticMatrix([[ONE, ZERO], [ZERO, I]])
    diag = diagonalize(f)
    assert diag.extra_linear is None
    assert diag.diagonal == (ONE, I.inverse())
    assert diag.substitution == ((ONE, ZERO), (ZERO, I))


def test_reconstruction_on_random_forms(rng):
    for _ in range(25):
        nvars = rng.randint(1, 4)
        f = random_symmetric_quadratic(rng, nvars)
        try:
            diag = diagonalize(f)
        except PivotConditionFailed:
            # a failed pivot leaves the form unchanged, so a later one still
            # reconstructs f
            try:
                diag = diagonalize(f, try_all_pivots=True)
            except PivotConditionFailed:
                continue
        else:
            assert diagonalize(f, try_all_pivots=True) == diag
        for _ in range(20):
            a = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            assert diag.evaluate(a) == eval_quadratic(f, a)


def test_pivot_failure_is_reported():
    f = QuadraticMatrix([[I, J], [J, ZERO]])
    with pytest.raises(PivotConditionFailed) as exc:
        diagonalize(f)
    assert exc.value.pivot_index == 0


def test_try_all_pivots_recovers():
    f = QuadraticMatrix([[I, J], [J, ONE]])
    with pytest.raises(PivotConditionFailed):
        diagonalize(f)
    diag = diagonalize(f, try_all_pivots=True)
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            assert diag.evaluate([a1, a2]) == eval_quadratic(f, [a1, a2])


def test_case2_with_noncentral_coefficient(rng):
    f = QuadraticMatrix([[ZERO, I], [I, ZERO]])
    diag = diagonalize(f)
    for _ in range(20):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        assert diag.evaluate(a) == eval_quadratic(f, a)


# ---------------------------------------------------------------------------
# hermitian conjugation and metric classes


def test_hermitian_identity_case():
    f = QuadraticMatrix([[ONE if r == c else ZERO for c in range(4)] for r in range(4)])
    h = hermitian_conjugation(f)
    assert h.signs == (1, 1, 1, 1)
    assert h.conjugate((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert h.f_star.entries == f.entries


def test_hermitian_sign_flip():
    f = QuadraticMatrix([[ONE, ZERO], [ZERO, -ONE]])
    h = hermitian_conjugation(f)
    assert h.signs == (1, -1)
    assert h.conjugate((Fraction(1), Fraction(2))) == (1, -2)
    assert eval_quadratic(h.f_star, [3, 4]) == H.scalar(25)


def test_hermitian_rejects_zero_diagonal():
    f = QuadraticMatrix([[ONE, ZERO], [ZERO, ZERO]])
    with pytest.raises(ZeroDiagonalEntry):
        hermitian_conjugation(f)


def test_hermitian_metric_positive_definite(rng):
    f = QuadraticMatrix(
        [[H.scalar([3, -2, 5, -1][r]) if r == c else ZERO for c in range(4)]
         for r in range(4)]
    )
    h = hermitian_conjugation(f)
    for _ in range(40):
        coords = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        value = eval_quadratic(h.f_star, coords).rational_part()
        assert value is not None and value >= 0
        if any(coords):
            assert value > 0


def test_all_positive_signs_reduce_to_plain_product():
    f = QuadraticMatrix([[H.scalar(2), ZERO], [ZERO, H.scalar(3)]])
    h = hermitian_conjugation(f)
    assert h.signs == (1, 1)
    assert h.g_star.entries == f.entries


def test_metric_classification():
    euclid = QuadraticMatrix(
        [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
    )
    assert classify_metric(euclid) == MetricClass.EUCLIDEAN
    pseudo = QuadraticMatrix([[ONE, ZERO], [ZERO, -ONE]])
    assert classify_metric(pseudo) == MetricClass.PSEUDO_EUCLIDEAN
    assert classify_metric(QuadraticMatrix([[I]])) == MetricClass.NOT_REAL_VALUED
    degenerate = QuadraticMatrix([[ONE, ZERO], [ZERO, ZERO]])
    assert classify_metric(degenerate) == MetricClass.PSEUDO_EUCLIDEAN
