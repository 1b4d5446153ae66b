"""Differential tests of the integer arithmetic kernel.

`Element` arithmetic, `ratlin` elimination and the matrix and form
routines over the ring run on integer numerators over common
denominators, with one reduction per result.  Every result here is
compared with inline Fraction-per-coordinate oracles: products straight
from the public `constants` tensor (never through `algebra.mul`), plain
Gauss-Jordan elimination on Fractions, and transcriptions of the ring
elimination and of the completion of squares on Fraction tuples.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from divring import affine, ratlin
from divring.affine import (
    AffineMap,
    Plane,
    compose_affine,
    invert_matrix,
    inverse_affine,
    matrix_mul,
    nc_rank,
    plane_contains,
)
from divring.algebra import (
    Algebra,
    BasisChange,
    Element,
    build_algebra,
    change_basis,
    complex_algebra,
    inverse,
    mul,
    quaternion_algebra,
    rational_algebra,
)
from divring.errors import (
    DimensionMismatch,
    DivRingError,
    NotDivisionRing,
    NotInvertible,
    PivotConditionFailed,
    SingularLinearPart,
)
from divring.forms import (
    BilinearMatrix,
    QuadraticMatrix,
    diagonalize,
    eval_bilinear,
    solve_axxa,
    two_sided_matrix,
)
from test_algebra import split_complex_algebra

# a basis change with a fractional inverse: the constants in the new basis
# are not all integers and the unit is no longer a basis vector
MOVED = change_basis(
    quaternion_algebra(),
    BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]]),
)
ALGEBRAS = [rational_algebra(), complex_algebra(), quaternion_algebra(), MOVED]
IDS = ["rational", "complex", "quaternion", "moved-quaternion"]


# ---------------------------------------------------------------------------
# oracles


def oracle_mul(alg, x, y):
    n = alg.dim
    c = alg.constants
    return tuple(
        sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    )


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def gauss(m):
    """Reduced row echelon form and pivots by Gauss-Jordan on Fractions."""
    m = [[Fraction(x) for x in row] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def gauss_solution(a, b):
    """(x, nullity) read from the reduced form of [a | b], or None."""
    cols = len(a[0]) if a else 0
    ech, pivots = gauss([row + [x] for row, x in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = ech[r][cols]
    return x, cols - len(pivots)


def oracle_inverse(alg, x):
    """Solve a*y = unit column by column of the left-regular matrix; None
    when that matrix is singular."""
    n = alg.dim
    basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    cols = [oracle_mul(alg, x, e) for e in basis]
    aug = [[cols[j][k] for j in range(n)] + [alg.unit_coords[k]] for k in range(n)]
    ech, pivots = gauss(aug)
    if pivots != list(range(n)):
        return None
    return tuple(ech[k][n] for k in range(n))


# ---------------------------------------------------------------------------
# element arithmetic


def draw_coords(rng, alg):
    """Coordinates with zeros, both signs, large numerators and non-trivial
    denominators."""
    out = []
    for _ in range(alg.dim):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(Fraction(0))
        elif kind == 1:
            out.append(Fraction(rng.randint(-6, 6)))
        elif kind == 2:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        else:
            out.append(Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**4)))
    return out


def assert_coords(e, want):
    """e has the coordinates want, stored in lowest terms: `coords` reduces
    each Fraction on reading, `==` compares the stored integers."""
    assert all(type(c) is Fraction for c in e.coords)
    assert e.coords == tuple(want)
    assert e == e.algebra.element(want)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_element_arithmetic_matches_fraction_oracle(alg):
    rng = random.Random(4100 + alg.dim)
    for _ in range(60):
        x, y = draw_coords(rng, alg), draw_coords(rng, alg)
        if rng.randrange(4) == 0:
            y = [-c for c in x]  # x + y cancels to zero
        a, b = alg.element(x), alg.element(y)
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        assert_coords(a, x)
        assert_coords(a + b, [u + v for u, v in zip(x, y)])
        assert_coords(a - b, [u - v for u, v in zip(x, y)])
        assert_coords(-a, [-u for u in x])
        assert_coords(a.scale(q), [q * u for u in x])
        assert_coords(q * a, [q * u for u in x])
        assert_coords(mul(a, b), oracle_mul(alg, x, y))
        assert (a + b).is_zero() == (not any(u + v for u, v in zip(x, y)))
        if any(x):
            assert_coords(inverse(a), oracle_inverse(alg, x))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_equal_elements_built_differently_compare_and_hash_equal(alg):
    rng = random.Random(4200 + alg.dim)
    unit = alg.unit
    for _ in range(30):
        x, y = draw_coords(rng, alg), draw_coords(rng, alg)
        a, b = alg.element(x), alg.element(y)
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        # the same element as unreduced strings, ints and Fractions
        text = alg.element([f"{c.numerator * 6}/{c.denominator * 6}" for c in x])
        same = [(a + b) - b, a.scale(q).scale(1 / q), mul(a, unit), mul(unit, a),
                -(-a), text, alg.element(list(a.coords)), copy.deepcopy(a)]
        for e in same:
            assert e == a and hash(e) == hash(a) and repr(e) == repr(a)
        zeros = [a - a, a.scale(0), alg.zero, mul(alg.zero, a), alg.element([0] * alg.dim)]
        for z in zeros:
            assert z == alg.zero and hash(z) == hash(alg.zero) and z.is_zero()
        if any(c for c in x):
            assert a != alg.zero
            inv = inverse(a)
            assert mul(a, inv) == unit and mul(inv, a) == unit
            assert hash(mul(inv, a)) == hash(unit)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_equal_elements_of_algebras_built_apart_hash_equal(alg, monkeypatch):
    # the same table and unit rebuilt from strings: an equal algebra that is
    # another object
    other = Algebra(alg.dim, [[[str(c) for c in row] for row in plane] for plane in alg.constants],
                    unit_coords=[str(u) for u in alg.unit_coords])
    assert other is not alg and other == alg and hash(other) == hash(alg)
    # hashing reads the integer form, never the Fraction coordinates
    monkeypatch.setattr(Element, "coords", property(lambda e: pytest.fail("coords read")))
    rng = random.Random(4250 + alg.dim)
    for _ in range(20):
        x = draw_coords(rng, alg)
        a, b = Element(alg, x), Element(other, x)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1 and len({a, b, -(-b)}) == 1
        assert mul(a, a) == mul(b, b) and hash(mul(a, a)) == hash(mul(b, b))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_element_construction_from_any_rational_input(alg):
    # ints, bools, Fractions, strings and big values give the element of the
    # same coordinates as Fractions, and the caller's list is left as it was
    rng = random.Random(4300 + alg.dim)
    pool = [0, 1, -7, True, False, 10**40 + 1, -(3**60), Fraction(3, 4), Fraction(-10**30, 7),
            Fraction(6, 8), "3/4", "-10/4", "  5 ", str(10**25), "0.125"]
    for _ in range(40):
        coords = [rng.choice(pool) for _ in range(alg.dim)]
        given = list(coords)
        e, want = Element(alg, coords), Element(alg, [Fraction(x) for x in coords])
        assert coords == given and [type(x) for x in coords] == [type(x) for x in given]
        assert e._num == want._num and e._den == want._den
        assert all(type(x) is int for x in e._num) and type(e._den) is int
        assert e.coords == want.coords == tuple(Fraction(x) for x in coords)
        assert hash(e) == hash(want) and e == want
        assert_coords(e, [Fraction(x) for x in coords])
    for wrong in ([1] * (alg.dim + 1), [Fraction(1, 2)] * (alg.dim - 1)):
        with pytest.raises(ValueError):
            Element(alg, wrong)


# ---------------------------------------------------------------------------
# elimination


def draw_matrix(rng, rows, cols):
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.randrange(3) else Fraction(0)
          for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.randrange(2):  # rank-deficient: a row repeats scaled
        src, dst = rng.sample(range(rows), 2)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m[dst] = [q * x for x in m[src]]
    if cols > 1 and rng.randrange(3) == 0:  # a column without pivot
        c = rng.randrange(cols)
        for row in m:
            row[c] = Fraction(0)
    return m


def test_row_echelon_matches_gauss_oracle():
    rng = random.Random(4300)
    for _ in range(400):
        m = draw_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        ech, pivots = ratlin.row_echelon(m)
        want, want_pivots = gauss(m)
        assert pivots == want_pivots
        assert ech == want
        assert all(type(x) is Fraction for row in ech for x in row)
        assert ratlin.rank(m) == len(want_pivots)


def test_solve_and_invert_match_gauss_oracle():
    rng = random.Random(4400)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = draw_matrix(rng, rows, cols)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rows)]
        assert ratlin.solve(a, b) == gauss_solution(a, b)
        n = rng.randint(1, 5)
        m = draw_matrix(rng, n, n)
        ech, pivots = gauss([row + [Fraction(int(i == j)) for j in range(n)]
                             for i, row in enumerate(m)])
        want = [row[n:] for row in ech] if pivots == list(range(n)) else None
        assert ratlin.invert(m) == want


def test_solve_several_right_hand_sides_and_singular_inverts():
    """`solve` and `invert` read their answer from the integer elimination;
    it must equal the column of the reduced form `row_echelon` returns."""
    a = mat([[1, 2, 0, Fraction(1, 3)],
             [2, 4, 1, 0],
             [3, 6, 1, Fraction(1, 3)]])  # row 3 = row 1 + row 2, column 2 = 2 * column 1
    consistent = [[1, 1, 2], [0, 0, 0], [Fraction(5, 7), -3, Fraction(-16, 7)]]
    inconsistent = [[1, 1, 1], [0, 0, 1]]
    for b, solvable in [(b, True) for b in consistent] + [(b, False) for b in inconsistent]:
        b = [Fraction(x) for x in b]
        ech, pivots = ratlin.row_echelon([row + [x] for row, x in zip(a, b)])
        got = ratlin.solve(a, b)
        if not solvable:
            assert 4 in pivots and got is None
            continue
        x, nullity = got
        assert nullity == 2 and pivots == [0, 2]
        assert x == [ech[0][4], 0, ech[1][4], 0]
        assert all(type(v) is Fraction for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    singular = [mat([[1, 2], [2, 4]]), mat([[0, 0], [0, 0]]),
                mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])]
    for m in singular:
        assert ratlin.invert(m) is None
    m = mat([[0, 2, 1], [Fraction(1, 2), 0, 0], [3, 1, Fraction(-1, 4)]])
    inv = ratlin.invert(m)
    assert ratlin.mat_mul(m, inv) == identity(3) == ratlin.mat_mul(inv, m)
    ech, _ = ratlin.row_echelon([row + unit for row, unit in zip(m, identity(3))])
    assert inv == [row[3:] for row in ech]
    assert ratlin.solve([], []) == ([], 0) and ratlin.invert([]) == []


def test_solve_with_shared_large_denominator_matches_gauss_oracle():
    """A right-hand side over one large denominator is cleared once for the
    whole column; the solutions stay those of the reduced form, and so do
    the results of solve_axxa, which solves the two-sided system."""
    rng = random.Random(4450)
    dens = [7 ** 40, 10 ** 30 * 3, 2 ** 61 - 1, 1]
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = draw_matrix(rng, rows, cols)
        den = rng.choice(dens)
        b = [Fraction(rng.randint(-10 ** 20, 10 ** 20), den) for _ in range(rows)]
        assert ratlin.solve(a, b) == gauss_solution(a, b)
    for alg in ALGEBRAS + [SPLIT]:
        for _ in range(25):
            x = alg.element(draw_coords(rng, alg))
            den = rng.choice(dens)
            y = alg.element([Fraction(rng.randint(-10 ** 20, 10 ** 20), den)
                             for _ in range(alg.dim)])
            s = two_sided_matrix(x)
            want = gauss_solution([list(row) for row in s], list(y.coords))
            got = solve_axxa(x, y)
            got = got.kind, got.witness, got.nullspace_dim
            if want is None:
                assert got == ("none", None, alg.dim - len(gauss(s)[1]))
            else:
                kind = "unique" if want[1] == 0 else "infinite"
                assert got == (kind, alg.element(want[0]), want[1])


# ---------------------------------------------------------------------------
# matrices and forms over the ring

# the split-complex numbers have zero divisors, so every error path of the
# ring elimination and of the completion of squares is reachable
SPLIT = split_complex_algebra()
RINGS = ALGEBRAS + [SPLIT]
RING_IDS = IDS + ["split-complex"]
SINGULAR = "left-regular matrix is singular"


def oadd(x, y):
    return tuple(u + v for u, v in zip(x, y))


def osub(x, y):
    return tuple(u - v for u, v in zip(x, y))


def oscale(q, x):
    return tuple(q * u for u in x)


def ozero(alg):
    return (Fraction(0),) * alg.dim


def draw_entry(rng, alg):
    """Coordinates as draw_coords, with a zero divisor now and then in the
    split-complex numbers: (t, t) and (t, -t) have no inverse there."""
    x = draw_coords(rng, alg)
    if alg is SPLIT and rng.randrange(4) == 0:
        x[1] = x[0] * rng.choice((1, -1))
    return x


def draw_ring_matrix(rng, alg, rows, cols, hand="right"):
    """Fraction coordinate tuples; now and then a row is a combination of
    the others with multipliers on the hand's side, or a column is zero."""
    m = [[tuple(draw_entry(rng, alg)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.randrange(3) == 0:
        dst = rng.randrange(rows)
        acc = [ozero(alg)] * cols
        for src in range(rows):
            if src != dst:
                c = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim))
                acc = [oadd(a, oracle_mul(alg, c, y) if hand == "right" else oracle_mul(alg, y, c))
                       for a, y in zip(acc, m[src])]
        m[dst] = acc
    if cols > 1 and rng.randrange(5) == 0:
        c = rng.randrange(cols)
        for row in m:
            row[c] = ozero(alg)
    return m


def elements(alg, m):
    return [[alg.element(x) for x in row] for row in m]


def assert_matrix(got, want):
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got, want):
        for e, x in zip(got_row, want_row):
            assert_coords(e, x)


def oracle_matrix_mul(alg, a, b, hand="right"):
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            acc = ozero(alg)
            for k, x in enumerate(row):
                y = b[k][c]
                acc = oadd(acc, oracle_mul(alg, x, y) if hand == "right" else oracle_mul(alg, y, x))
            out_row.append(acc)
        out.append(out_row)
    return out


class OracleSingular(Exception):
    pass


def oracle_gauss_jordan(alg, work, ncols, hand="right"):
    """Gauss-Jordan over the ring on Fraction tuples, in place: pivot rows
    normalized by the pivot's inverse, row_s <- row_s - d row_r with the
    multipliers on the hand's side.  Returns the rank; a nonzero pivot
    without an inverse raises OracleSingular."""

    def lmul(d, x):
        return oracle_mul(alg, d, x) if hand == "right" else oracle_mul(alg, x, d)

    rank = 0
    for c in range(ncols):
        pr = next((r for r in range(rank, len(work)) if any(work[r][c])), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        inv = oracle_inverse(alg, work[rank][c])
        if inv is None:
            raise OracleSingular
        work[rank] = [lmul(inv, x) for x in work[rank]]
        for r in range(len(work)):
            d = work[r][c]
            if r != rank and any(d):
                work[r] = [osub(x, lmul(d, y)) for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def outcome(call):
    """("ok", value of call()), or the type and message of the DivRingError
    it raises."""
    try:
        return "ok", call()
    except DivRingError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("alg", RINGS, ids=RING_IDS)
def test_inverse_matches_oracle_on_every_ring(alg):
    rng = random.Random(4500 + alg.dim)
    for _ in range(80):
        x = draw_entry(rng, alg)
        if not any(x):
            continue
        want = oracle_inverse(alg, x)
        kind, got = outcome(lambda: inverse(alg.element(x)))
        if want is None:
            assert (kind, got) == (NotInvertible, SINGULAR)
        else:
            assert kind == "ok"
            assert_coords(got, want)
            assert oracle_mul(alg, want, x) == alg.unit_coords


@pytest.mark.parametrize("alg", RINGS, ids=RING_IDS)
def test_matrix_mul_matches_oracle(alg):
    rng = random.Random(4600 + alg.dim)
    for _ in range(25):
        rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = [[tuple(draw_entry(rng, alg)) for _ in range(inner)] for _ in range(rows)]
        b = [[tuple(draw_entry(rng, alg)) for _ in range(cols)] for _ in range(inner)]
        for hand in ("right", "left"):
            got = matrix_mul(elements(alg, a), elements(alg, b), hand)
            assert_matrix(got, oracle_matrix_mul(alg, a, b, hand))


@pytest.mark.parametrize("alg", RINGS, ids=RING_IDS)
def test_nc_rank_matches_oracle(alg):
    rng = random.Random(4700 + alg.dim)
    for _ in range(30):
        m = draw_ring_matrix(rng, alg, rng.randint(1, 4), rng.randint(1, 4))
        try:
            want = "ok", oracle_gauss_jordan(alg, [list(row) for row in m], len(m[0]))
        except OracleSingular:
            want = (NotDivisionRing, SINGULAR)
        assert outcome(lambda: nc_rank(elements(alg, m))) == want


@pytest.mark.parametrize("hand", ["right", "left"])
@pytest.mark.parametrize("alg", RINGS, ids=RING_IDS)
def test_invert_matrix_matches_oracle(alg, hand):
    rng = random.Random(4800 + alg.dim + len(hand))
    unit, zero = alg.unit_coords, ozero(alg)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = draw_ring_matrix(rng, alg, n, n, hand)
        work = [list(row) + [unit if r == c else zero for c in range(n)] for r, row in enumerate(m)]
        try:
            if oracle_gauss_jordan(alg, work, n, hand) < n:
                want = (SingularLinearPart, "linear part is singular")
            else:
                inv = [row[n:] for row in work]
                identity = [[unit if r == c else zero for c in range(n)] for r in range(n)]
                assert oracle_matrix_mul(alg, m, inv, hand) == identity
                assert oracle_matrix_mul(alg, inv, m, hand) == identity
                want = "ok", inv
        except OracleSingular:
            want = (NotDivisionRing, SINGULAR)
        kind, got = outcome(lambda: invert_matrix(elements(alg, m), hand))
        if kind == "ok" and want[0] == "ok":
            assert_matrix(got, want[1])
        else:
            assert (kind, got) == want


# ---------------------------------------------------------------------------
# affine maps and planes: one elimination when built, no checking product


def matrix_algebra():
    """M2(Q) on the basis 1, E11, E12, E21 (E22 = 1 - E11): associative and
    unital with zero divisors, and a ring where eliminating with left and
    with right multipliers can reach different verdicts."""
    c = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        c[0][i][i] = c[i][0][i] = Fraction(1)
    c[1][1][1] = c[1][2][2] = c[2][3][1] = c[3][1][3] = c[3][2][0] = Fraction(1)
    c[3][2][1] = Fraction(-1)
    return build_algebra(4, c)


M2 = matrix_algebra()
AFFINE_RINGS = [quaternion_algebra(), SPLIT, M2]
AFFINE_IDS = ["quaternion", "split-complex", "M2(Q)"]


def draw_affine_entry(rng, alg):
    """draw_entry, with a rank-one matrix u v^T now and then in M2(Q)."""
    if alg is M2 and rng.randrange(4) == 0:
        u = [rng.randint(-2, 2) for _ in range(2)]
        v = [rng.randint(-2, 2) for _ in range(2)]
        a = u[1] * v[1]
        return [Fraction(x) for x in (a, u[0] * v[0] - a, u[0] * v[1], u[1] * v[0])]
    return draw_entry(rng, alg)


def draw_affine_matrix(rng, alg, n, hand):
    """draw_ring_matrix, with rank-one entries now and then in M2(Q)."""
    m = draw_ring_matrix(rng, alg, n, n, hand)
    if alg is M2:
        for row in m:
            for c in range(n):
                if rng.randrange(3) == 0:
                    row[c] = tuple(draw_affine_entry(rng, alg))
    return m


def coords(matrix):
    return [[e.coords for e in row] for row in matrix]


@pytest.mark.parametrize("hand", ["right", "left"])
@pytest.mark.parametrize("alg", AFFINE_RINGS, ids=AFFINE_IDS)
def test_inverses_are_two_sided_by_oracle(alg, hand):
    """invert_matrix and inverse_affine multiply nothing to check their
    result; the oracle product does, both ways round.  Under either hand
    the constructor accepts a map exactly when invert_matrix inverts P,
    and every accepted map inverts."""
    rng = random.Random(5100 + alg.dim + len(hand))
    unit, zero = alg.unit_coords, ozero(alg)
    inverted = inverted_maps = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        m = draw_affine_matrix(rng, alg, n, hand)
        identity = [[unit if r == c else zero for c in range(n)] for r in range(n)]
        kind, inv = outcome(lambda: invert_matrix(elements(alg, m), hand))
        if kind == "ok":
            assert oracle_matrix_mul(alg, m, coords(inv), hand) == identity
            assert oracle_matrix_mul(alg, coords(inv), m, hand) == identity
            inverted += 1
        shift = [tuple(draw_entry(rng, alg)) for _ in range(n)]
        accepted, amap = outcome(lambda: AffineMap(elements(alg, m), elements(alg, [shift])[0], hand))
        assert (accepted == "ok") == (kind == "ok")
        if accepted != "ok":
            continue
        # the constructor's elimination already brought [P | I] to [I | P^-1]
        kind, back = outcome(lambda: inverse_affine(amap))
        assert kind == "ok" and back.linear == inv
        q = coords(back.linear)
        assert oracle_matrix_mul(alg, m, q, hand) == identity
        assert oracle_matrix_mul(alg, q, m, hand) == identity
        # the inverse's shift is -R P^-1
        shifted = oracle_matrix_mul(alg, [shift], q, hand)[0]
        assert [oadd(x, y.coords) for x, y in zip(shifted, back.shift)] == [zero] * n
        inverted_maps += 1
    assert inverted > 0 and inverted_maps > 0


@pytest.mark.parametrize("hand", ["right", "left"])
def test_inverting_twice_eliminates_nothing(monkeypatch, hand):
    """An AffineMap eliminates once, when built, and its inverse keeps P as
    P^-1's inverse; only a composite eliminates, once, when inverted."""
    alg = quaternion_algebra()
    calls = Counter()
    eliminate = affine._forward_eliminate

    def counted(*args, **kwargs):
        calls["eliminate"] += 1
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(affine, "_forward_eliminate", counted)
    one, i, j, k = alg.basis()
    m = AffineMap([[one, i], [j, one + k]], [i, alg.zero], hand)
    assert calls["eliminate"] == 1
    back = inverse_affine(inverse_affine(m))
    assert calls["eliminate"] == 1
    assert back.linear == m.linear and back.shift == m.shift
    composite = compose_affine(m, m)
    back = inverse_affine(inverse_affine(composite))
    assert calls["eliminate"] == 2
    assert back.linear == composite.linear and back.shift == composite.shift


@pytest.mark.parametrize("alg", RINGS + [M2], ids=RING_IDS + ["M2(Q)"])
def test_inverse_is_two_sided_on_every_ring(alg):
    """algebra.inverse multiplies nothing to check x a = unit; the oracle
    product does, both ways round."""
    rng = random.Random(5400 + alg.dim)
    seen = Counter()
    for _ in range(80):
        x = draw_affine_entry(rng, alg)
        if not any(x):
            continue
        kind, got = outcome(lambda: inverse(alg.element(x)))
        seen[kind] += 1
        if kind == "ok":
            assert oracle_mul(alg, x, got.coords) == alg.unit_coords
            assert oracle_mul(alg, got.coords, x) == alg.unit_coords
        else:
            assert (kind, got) == (NotInvertible, SINGULAR)
    assert seen["ok"] > 0
    if alg is SPLIT or alg is M2:
        assert seen[NotInvertible] > 0


def former_affine_map(linear):
    """AffineMap's former decision: accepted iff nc_rank(P) == n."""
    if nc_rank(linear) != len(linear):
        raise SingularLinearPart("linear part is singular")
    return True


def former_plane(anchor, span):
    """Plane's former decision: the span columns have rank k."""
    if span and nc_rank([[v[r] for v in span] for r in range(len(anchor))]) != len(span):
        raise DimensionMismatch("span vectors are dependent")
    return True


def former_contains(plane, point):
    """plane_contains' former definition: rank k of [span | diff]."""
    diff = [q - p for p, q in zip(plane.anchor, point)]
    if not plane.span:
        return all(d.is_zero() for d in diff)
    return nc_rank([[v[r] for v in plane.span] + [diff[r]] for r in range(len(diff))]) == len(plane.span)


def oracle_affine_map(alg, m, hand):
    """The outcome of AffineMap from the oracle elimination of a square
    matrix with the hand's multipliers: full rank, short rank or a pivot
    without an inverse."""
    try:
        if oracle_gauss_jordan(alg, [list(row) for row in m], len(m), hand) == len(m):
            return "ok", True
        return SingularLinearPart, "linear part is singular"
    except OracleSingular:
        return NotDivisionRing, SINGULAR


@pytest.mark.parametrize("alg", AFFINE_RINGS, ids=AFFINE_IDS)
def test_affine_map_decision_matches_former_definition(alg):
    """Right-hand maps decide as nc_rank did; left-hand maps decide as the
    oracle elimination with left-hand multipliers, also where the two
    hands differ on the same linear part."""
    rng = random.Random(5200 + alg.dim)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        for hand in ("right", "left"):
            m = draw_affine_matrix(rng, alg, n, hand)
            linear = elements(alg, m)
            shift = linear[0]
            right = outcome(lambda: former_affine_map(linear))
            want = right if hand == "right" else oracle_affine_map(alg, m, hand)
            assert outcome(lambda: AffineMap(linear, shift, hand) is not None) == want
            seen[want[0]] += 1
            seen["hands differ"] += want != right
    assert seen["ok"] > 0 and seen[SingularLinearPart] > 0
    if alg is not AFFINE_RINGS[0]:
        assert seen[NotDivisionRing] > 0
    # the split-complex numbers commute, so both hands decide alike
    assert (seen["hands differ"] > 0) == (alg is not SPLIT)


@pytest.mark.parametrize("alg", AFFINE_RINGS, ids=AFFINE_IDS)
def test_plane_membership_matches_former_definition(alg):
    """Plane and plane_contains give the booleans, the exception classes
    and the messages of the rank criterion on [span | diff]."""
    rng = random.Random(5300 + alg.dim)
    seen = Counter()

    def vector(n):
        return [tuple(draw_affine_entry(rng, alg)) for _ in range(n)]

    for _ in range(80):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        span = [vector(n) for _ in range(k)]
        if k > 1 and rng.randrange(3) == 0:
            c = tuple(draw_entry(rng, alg))
            span[-1] = [oracle_mul(alg, x, c) for x in span[0]]
        anchor = vector(n)
        span_e, anchor_e = elements(alg, span), elements(alg, [anchor])[0]
        want = outcome(lambda: former_plane(anchor_e, span_e))
        assert outcome(lambda: Plane(anchor_e, span_e) is not None) == want
        seen["plane", want[0]] += 1
        if want[0] != "ok":
            continue
        plane = Plane(anchor_e, span_e)
        for _ in range(6):
            point = anchor
            if rng.randrange(2):
                for v in span:
                    c = tuple(draw_entry(rng, alg))
                    point = [oadd(p, oracle_mul(alg, x, c)) for p, x in zip(point, v)]
            if rng.randrange(2):
                point = [oadd(p, x) for p, x in zip(point, vector(n))]
            point = elements(alg, [point])[0]
            want = outcome(lambda: former_contains(plane, point))
            assert outcome(lambda: plane_contains(plane, point)) == want
            seen["point", want if want[0] == "ok" else want[0]] += 1
    assert seen["plane", "ok"] > 0 and seen["plane", DimensionMismatch] > 0
    assert seen["point", ("ok", True)] > 0 and seen["point", ("ok", False)] > 0
    if alg is not AFFINE_RINGS[0]:
        assert seen["plane", NotDivisionRing] > 0 and seen["point", NotDivisionRing] > 0


def oracle_two_sided_solve(alg, a, b):
    """A solution of a x + x a = b with free coordinates zero, or None."""
    n = alg.dim
    e = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    cols = [oadd(oracle_mul(alg, a, ej), oracle_mul(alg, ej, a)) for ej in e]
    ech, pivots = gauss([[cols[j][k] for j in range(n)] + [b[k]] for k in range(n)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = ech[r][n]
    return tuple(x)


def oracle_diagonalize(alg, entries):
    """The completion of squares on Fraction tuples, transcribed from the
    two proof cases: (diagonal, substitution, extra_linear), or the error
    type and message."""
    n = len(entries)
    m = [list(row) for row in entries]
    active = list(range(n))
    ident = identity(n)
    q, p_total, used_case2 = ident, ident, False
    diagonal, covectors = [], []
    while active and any(any(m[r][c]) for r in active for c in active):
        pivots = [p for p in active if any(m[p][p])]
        if pivots:
            p = pivots[0]
            d = m[p][p]
            cov = {p: d}
            for j in active:
                if j != p:
                    cov[j] = oracle_two_sided_solve(alg, d, oscale(2, oracle_mul(alg, d, m[p][j])))
                    if cov[j] is None:
                        return PivotConditionFailed, str(PivotConditionFailed(p, j))
            dinv = oracle_inverse(alg, d)
            if dinv is None:
                return NotInvertible, SINGULAR
            for r in active:
                for c in active:
                    sym = oadd(oracle_mul(alg, cov[r], cov[c]), oracle_mul(alg, cov[c], cov[r]))
                    m[r][c] = osub(m[r][c], oscale(Fraction(1, 2), oracle_mul(alg, dinv, sym)))
            for t in active:
                if any(m[p][t]) or any(m[t][p]):
                    return (DivRingError, f"completing the square at pivot {p} "
                                          f"left variable {t} coupled to it")
            pulled = [ozero(alg)] * n
            for cur, h in cov.items():
                for orig in range(n):
                    pulled[orig] = oadd(pulled[orig], oscale(q[cur][orig], h))
            diagonal.append(dinv)
            covectors.append(pulled)
            active.remove(p)
            continue
        i, j = next((i, j) for i in active for j in active if i < j and any(m[i][j]))
        mix = [row[:] for row in ident]
        mix[i][j], mix[j][i] = Fraction(-1), Fraction(1)
        m = [[tuple(sum((mix[x][r] * mix[y][c] * m[x][y][k] for x in range(n) for y in range(n)),
                        Fraction(0)) for k in range(alg.dim))
              for c in range(n)] for r in range(n)]
        mix_inv = [row[:] for row in ident]
        mix_inv[i][i] = mix_inv[i][j] = mix_inv[j][j] = Fraction(1, 2)
        mix_inv[j][i] = Fraction(-1, 2)
        q = [[sum((mix_inv[r][k] * q[k][c] for k in range(n)), Fraction(0)) for c in range(n)]
             for r in range(n)]
        p_total = [[sum((p_total[r][k] * mix[k][c] for k in range(n)), Fraction(0))
                    for c in range(n)] for r in range(n)]
        used_case2 = True
    return "ok", (diagonal, covectors, p_total if used_case2 else None)


def oracle_form_value(alg, entries, a, b):
    acc = ozero(alg)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc = oadd(acc, oscale(ai * bj, entries[i][j]))
    return acc


def draw_symmetric(rng, alg, n, zero_diagonal=False):
    grid = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            grid[r][c] = grid[c][r] = tuple(draw_entry(rng, alg))
    if zero_diagonal or n > 1 and rng.randrange(3) == 0:  # the mixing case
        for r in range(n):
            grid[r][r] = ozero(alg)
    return grid


@pytest.mark.parametrize("alg", RINGS, ids=RING_IDS)
def test_diagonalize_and_evaluations_match_oracle(alg):
    rng = random.Random(4900 + alg.dim)
    outcomes = set()
    mixed = 0
    for trial in range(16):
        # the last draws are zero-diagonal forms in four variables, where
        # case 2 mixes a pair among other live variables
        n = rng.randint(1, 3) if trial < 12 else 4
        entries = draw_symmetric(rng, alg, n, zero_diagonal=trial >= 12)
        form = QuadraticMatrix(elements(alg, entries))
        points = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                  for _ in range(3)]
        for a in points:
            b = points[0]
            assert_coords(eval_bilinear(form, a, b), oracle_form_value(alg, entries, a, b))
            assert_coords(eval_bilinear(BilinearMatrix(form.entries), a, a),
                          oracle_form_value(alg, entries, a, a))
        want = oracle_diagonalize(alg, entries)
        kind, got = outcome(lambda: diagonalize(form))
        outcomes.add(kind)
        if kind != "ok" or want[0] != "ok":
            assert (kind, got) == want
            continue
        diagonal, covectors, extra = want[1]
        assert_matrix([got.diagonal], [diagonal])
        assert_matrix(got.substitution, covectors)
        assert got.extra_linear == (None if extra is None else tuple(tuple(r) for r in extra))
        mixed += n == 4 and extra is not None
        for a in points:
            squares = ozero(alg)
            for d, cov in zip(diagonal, covectors):
                lin = ozero(alg)
                for aj, h in zip(a, cov):
                    lin = oadd(lin, oscale(aj, h))
                squares = oadd(squares, oracle_mul(alg, d, oracle_mul(alg, lin, lin)))
            assert_coords(got.evaluate(a), squares)
            assert squares == oracle_form_value(alg, entries, a, a)
    assert "ok" in outcomes and mixed > 0
