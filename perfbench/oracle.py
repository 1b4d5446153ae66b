"""Reference arithmetic owned by the benchmark.

Every job's result is checked against code in this file (or against an
identity that needs no code at all), never against the library path that
produced it.  Quaternions are 4-tuples of Fraction in the basis
(1, i, j, k) with Hamilton's rules i^2 = j^2 = k^2 = ijk = -1.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
BASIS = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))


def q(coords) -> tuple:
    return tuple(Fraction(c) for c in coords)


def qadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def qsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def qscale(x, s):
    return tuple(s * a for a in x)


def qmul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def qinv(x):
    norm = sum(c * c for c in x)
    if not norm:
        raise ZeroDivisionError("zero quaternion")
    a, b, c, d = x
    return (a / norm, -b / norm, -c / norm, -d / norm)


def qprod(*factors):
    out = ONE
    for f in factors:
        out = qmul(out, f)
    return out


def left_regular(x) -> list:
    """4x4 rational matrix of y -> x y; column j holds x e_j."""
    cols = [qmul(x, e) for e in BASIS]
    return [[cols[j][k] for j in range(4)] for k in range(4)]


def rank(rows) -> int:
    """Rank over Q by plain Gauss elimination on a copy."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                f *= inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def ring_rank(matrix) -> int:
    """Rank over the quaternions of a matrix of quaternion tuples: the
    rank over Q of its 4n x 4m left-regular block matrix, divided by 4."""
    big = []
    for row in matrix:
        blocks = [left_regular(x) for x in row]
        for k in range(4):
            big.append([v for b in blocks for v in b[k]])
    r = rank(big)
    if r % 4:
        raise ArithmeticError(f"regular-representation rank {r} is not a multiple of 4")
    return r // 4

