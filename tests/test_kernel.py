"""Differential tests of the integer arithmetic kernel.

`Element` arithmetic and `ratlin` elimination run on integer numerators
over common denominators.  Every result here is compared with inline
Fraction-per-coordinate oracles: products straight from the public
`constants` tensor (never through `algebra.mul`) and plain Gauss-Jordan
elimination on Fractions.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from divring import ratlin
from divring.algebra import (
    BasisChange,
    change_basis,
    complex_algebra,
    inverse,
    mul,
    quaternion_algebra,
    rational_algebra,
)

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
    """Solve a*y = unit column by column of the left-regular matrix."""
    n = alg.dim
    basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    cols = [oracle_mul(alg, x, e) for e in basis]
    aug = [[cols[j][k] for j in range(n)] + [alg.unit_coords[k]] for k in range(n)]
    ech, pivots = gauss(aug)
    assert pivots == list(range(n))
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
    assert all(type(c) is Fraction for c in e.coords)
    assert e.coords == tuple(want)


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
