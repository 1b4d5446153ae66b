"""Exact linear algebra over the rationals.

Small dense routines on matrices given as rows of Fractions or ints.
Elimination is fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): each row is
scaled to integers, and every update p * row_i - f * row_r is divided
exactly by the previous pivot, so every entry stays an integer minor of
the scaled input.  Fractions are formed once, from the final integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_ZERO = Fraction(0)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for p in range(k):
            aip = a[i][p]
            if aip:
                row = b[p]
                oi = out[i]
                for j in range(m):
                    oi[j] += aip * row[j]
    return out


def over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the least common denominator of rationals.

    The values are Fractions or ints.  Over the least common denominator
    of lowest-terms fractions the numerators share no factor with it, so
    the pair is in lowest terms.
    """
    # lists, not generators: tuple(gen) and lcm(*gen) grow their argument
    # tuple step by step, which raised the peak memory of hot loops
    den = lcm(*[x.denominator for x in values])
    return tuple([x.numerator * (den // x.denominator) for x in values]), den


def _integer_rows(m: Matrix) -> list[tuple[int, ...]]:
    """Each row scaled to integers by its own least common denominator."""
    return [over_common_denominator(row)[0] for row in m]


def _eliminate(work: list) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination on a list of integer rows.

    Pivots are the first nonzero entry scanning columns left to right.
    Returns the list, with its rows replaced, the pivot columns and the
    last pivot value d: after elimination every pivot row holds d at its
    pivot column and zero at the others, the rows below hold zeros in all
    pivot columns, and the reduced row echelon form is the rows divided
    by d.  Scaling each row of a rational matrix to integers leaves its
    row space, hence the reduced form, unchanged.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        top = work[r]
        p = top[c]
        for i in range(rows):
            if i == r:
                continue
            row = work[i]
            f = row[c]
            if f:
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                work[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots, prev


def _quotients(nums, den: int) -> Vector:
    return [Fraction(x, den) if x else _ZERO for x in nums]


def row_echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Fraction-free Gauss-Jordan elimination (`_eliminate`), pivots chosen
    as the first nonzero entry scanning columns left to right; dividing by
    the last pivot gives the reduced form, which is unique; the rows past
    the pivot rows are zero.
    """
    work, pivots, d = _eliminate(_integer_rows(m))
    return [_quotients(row, d) for row in work], pivots


def rank(m: Matrix) -> int:
    """The pivot count of the integer elimination."""
    return len(_eliminate(_integer_rows(m))[1])


def solve(a: Matrix, b: Vector) -> Optional[tuple[Vector, int]]:
    """Solve a x = b.

    Returns (solution, nullity) with free variables set to zero, or None
    when the system is inconsistent.  The solution is deterministic: pivot
    columns are chosen left to right.  b is cleared of its denominator once,
    for the whole column, and each row of [a | b] is then scaled by the
    least common denominator of its entries in a, so a large denominator
    shared by b does not enter every row.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    nums, den = over_common_denominator(b)
    work, pivots, d = _eliminate(_integer_rows([a[i][:] + [nums[i]] for i in range(rows)]))
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(work[r][cols], d * den)
    return x, cols - len(pivots)


def _row_operations(m: Matrix) -> tuple[list[list[int]], list[int], int]:
    """`_eliminate` on [m | I]: integer rows E, the pivot columns of m and
    the last pivot d, with E m / d the reduced row echelon form of m; rows
    of E m from len(pivots) on are zero."""
    k = len(m[0]) if m else 0
    work, pivots, d = _eliminate(_integer_rows([list(row) + [int(i == j) for j in range(len(m))]
                                                for i, row in enumerate(m)]))
    return [row[k:] for row in work], [c for c in pivots if c < k], d


def invert(m: Matrix) -> Optional[Matrix]:
    """Two-sided inverse, or None when the matrix is singular."""
    ops, pivots, d = _row_operations(m)
    if pivots != list(range(len(m))):
        return None
    return [_quotients(row, d) for row in ops]
