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
from fractions import Fraction

import pytest

from divring import ratlin
from divring.affine import invert_matrix, matrix_mul, nc_rank
from divring.algebra import (
    BasisChange,
    Element,
    change_basis,
    complex_algebra,
    inverse,
    mul,
    quaternion_algebra,
    rational_algebra,
)
from divring.errors import (
    DivRingError,
    NotDivisionRing,
    NotInvertible,
    PivotConditionFailed,
    SingularLinearPart,
)
from divring.forms import BilinearMatrix, QuadraticMatrix, diagonalize, eval_bilinear
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
        ech, pivots = gauss([row + [x] for row, x in zip(a, b)])
        got = ratlin.solve(a, b)
        if cols in pivots:
            assert got is None
        else:
            x = [Fraction(0)] * cols
            for r, c in enumerate(pivots):
                x[c] = ech[r][cols]
            assert got == (x, cols - len(pivots))
        n = rng.randint(1, 5)
        m = draw_matrix(rng, n, n)
        ech, pivots = gauss([row + [Fraction(int(i == j)) for j in range(n)]
                             for i, row in enumerate(m)])
        want = [row[n:] for row in ech] if pivots == list(range(n)) else None
        assert ratlin.invert(m) == want


def test_solve_several_right_hand_sides_and_singular_inverts():
    """`solve` and `invert` read their answer from the integer elimination;
    it must equal the column of the reduced form `row_echelon` returns."""
    a = ratlin.mat([[1, 2, 0, Fraction(1, 3)],
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
    singular = [ratlin.mat([[1, 2], [2, 4]]), ratlin.mat([[0, 0], [0, 0]]),
                ratlin.mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])]
    for m in singular:
        assert ratlin.invert(m) is None
    m = ratlin.mat([[0, 2, 1], [Fraction(1, 2), 0, 0], [3, 1, Fraction(-1, 4)]])
    inv = ratlin.invert(m)
    assert ratlin.mat_mul(m, inv) == ratlin.identity(3) == ratlin.mat_mul(inv, m)
    ech, _ = ratlin.row_echelon([row + unit for row, unit in zip(m, ratlin.identity(3))])
    assert inv == [row[3:] for row in ech]
    assert ratlin.solve([], []) == ([], 0) and ratlin.invert([]) == []


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


def oracle_gauss_jordan(alg, work, ncols, hand="right", stop_at_gap=False):
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
            if stop_at_gap:
                break
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
            if oracle_gauss_jordan(alg, work, n, hand, stop_at_gap=True) < n:
                want = (SingularLinearPart, "matrix has no inverse over the ring")
            else:
                inv = [row[n:] for row in work]
                identity = [[unit if r == c else zero for c in range(n)] for r in range(n)]
                assert oracle_matrix_mul(alg, m, inv, hand) == identity
                assert oracle_matrix_mul(alg, inv, m, hand) == identity
                want = "ok", inv
        except OracleSingular:
            want = (SingularLinearPart, SINGULAR)
        kind, got = outcome(lambda: invert_matrix(elements(alg, m), hand))
        if kind == "ok" and want[0] == "ok":
            assert_matrix(got, want[1])
        else:
            assert (kind, got) == want


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
    ident = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
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


def draw_symmetric(rng, alg, n):
    grid = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            grid[r][c] = grid[c][r] = tuple(draw_entry(rng, alg))
    if n > 1 and rng.randrange(3) == 0:  # zero diagonal: the mixing case
        for r in range(n):
            grid[r][r] = ozero(alg)
    return grid


@pytest.mark.parametrize("alg", RINGS, ids=RING_IDS)
def test_diagonalize_and_evaluations_match_oracle(alg):
    rng = random.Random(4900 + alg.dim)
    outcomes = set()
    for _ in range(12):
        n = rng.randint(1, 3)
        entries = draw_symmetric(rng, alg, n)
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
        for a in points:
            squares = ozero(alg)
            for d, cov in zip(diagonal, covectors):
                lin = ozero(alg)
                for aj, h in zip(a, cov):
                    lin = oadd(lin, oscale(aj, h))
                squares = oadd(squares, oracle_mul(alg, d, oracle_mul(alg, lin, lin)))
            assert_coords(got.evaluate(a), squares)
            assert squares == oracle_form_value(alg, entries, a, a)
    assert "ok" in outcomes
