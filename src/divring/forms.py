"""Bilinear and quadratic maps valued in a division ring.

A form on m variables is an m x m matrix of ring elements; the variables
themselves range over the rational scalars, so g(a, b) = sum a^i b^j g_ij
with a, b rational coordinate tuples.  In the main case m equals the
dimension of the ring and the variables are the rational coordinates of a
ring element.

The module also houses the two-sided multiplication equation a x + x a = b
(the pivot equation of the square-completion algorithm), completion of
squares itself, and the metric/conjugation constructions built on top of a
diagonalized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from . import ratlin
from .algebra import Algebra, Element, _mul_add, mul
from .errors import (
    DimensionMismatch,
    PivotConditionFailed,
    ZeroDiagonalEntry,
)

_HALF = Fraction(1, 2)


def _entry_grid(entries) -> tuple[tuple[Element, ...], ...]:
    grid = tuple(tuple(row) for row in entries)
    if not grid or any(len(row) != len(grid) for row in grid):
        raise DimensionMismatch("form matrix must be square and nonempty")
    alg = grid[0][0].algebra
    for row in grid:
        for e in row:
            if e.algebra is not alg and e.algebra != alg:
                raise DimensionMismatch("all entries must share one algebra")
    return grid


@dataclass(frozen=True)
class BilinearMatrix:
    """Matrix of a ring-valued bilinear form, g(a, b) = a^i b^j entries[i][j]."""

    entries: tuple

    def __init__(self, entries):
        object.__setattr__(self, "entries", _entry_grid(entries))

    @property
    def algebra(self) -> Algebra:
        return self.entries[0][0].algebra

    @property
    def var_count(self) -> int:
        return len(self.entries)

    def transpose(self) -> "BilinearMatrix":
        n = self.var_count
        return BilinearMatrix(
            [[self.entries[j][i] for j in range(n)] for i in range(n)]
        )


@dataclass(frozen=True)
class QuadraticMatrix(BilinearMatrix):
    """Symmetric matrix of a ring-valued quadratic form."""

    def __init__(self, entries):
        super().__init__(entries)
        grid, n = self.entries, self.var_count
        if any(grid[i][j] != grid[j][i] for i in range(n) for j in range(i + 1, n)):
            raise DimensionMismatch("quadratic matrix must be symmetric")


@dataclass(frozen=True)
class StandardComponents:
    """The two rational component tensors of a bilinear map on the ring.

    The map they describe is
        f(a, b) = sum first[i][j][k] e_i a e_j b e_k
                + sum second[i][j][k] e_i b e_j a e_k
    with indices running over the ring dimension.
    """

    algebra: Algebra
    first: tuple
    second: tuple

    def __init__(self, algebra, first, second):
        n = algebra.dim

        def tensor(t):
            t = tuple(tuple(tuple(Fraction(x) for x in r) for r in p) for p in t)
            if len(t) != n or any(
                len(p) != n or any(len(r) != n for r in p) for p in t
            ):
                raise DimensionMismatch("component tensor must be dim^3")
            return t

        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "first", tensor(first))
        object.__setattr__(self, "second", tensor(second))

    def swap(self) -> "StandardComponents":
        """Exchange the two tensors; the matrix of the result is the transpose."""
        return StandardComponents(self.algebra, self.second, self.first)

    def evaluate(self, a: Element, b: Element) -> Element:
        """Direct evaluation of the defining sum; the independent route used
        to cross-check the matrix computed by bilinear_from_standard."""
        alg = self.algebra
        basis = alg.basis()
        total = alg.zero
        for i in range(alg.dim):
            for j in range(alg.dim):
                mid_ab = mul(mul(basis[i], a), basis[j])
                mid_ba = mul(mul(basis[i], b), basis[j])
                for k in range(alg.dim):
                    c1 = self.first[i][j][k]
                    if c1:
                        total = total + mul(mul(mid_ab, b), basis[k]).scale(c1)
                    c2 = self.second[i][j][k]
                    if c2:
                        total = total + mul(mul(mid_ba, a), basis[k]).scale(c2)
        return total


def bilinear_from_standard(sc: StandardComponents) -> BilinearMatrix:
    """Matrix entries g_pq = f(e_p, e_q) computed from the component tensors."""
    alg = sc.algebra
    basis = alg.basis()
    n = alg.dim
    rows = []
    for p in range(n):
        row = []
        for q in range(n):
            terms = []
            for i in range(n):
                ip = mul(basis[i], basis[p])
                iq = mul(basis[i], basis[q])
                for j in range(n):
                    ipjq = mul(mul(ip, basis[j]), basis[q])
                    iqjp = mul(mul(iq, basis[j]), basis[p])
                    for k in range(n):
                        terms.append((sc.first[i][j][k], ipjq, basis[k]))
                        terms.append((sc.second[i][j][k], iqjp, basis[k]))
            row.append(_mul_add(alg.zero, terms))
        rows.append(row)
    return BilinearMatrix(rows)


def eval_bilinear(g: BilinearMatrix, a: Sequence, b: Sequence) -> Element:
    """g(a, b) for rational coordinate tuples a, b."""
    n = g.var_count
    if len(a) != n or len(b) != n:
        raise DimensionMismatch("coordinate length does not match the form")
    terms = []
    for ai, row in zip(a, g.entries):
        ai = Fraction(ai)
        if ai:
            terms += [(ai * Fraction(bj), gij, None) for bj, gij in zip(b, row)]
    return _mul_add(g.algebra.zero, terms)


class SymmetryClass(Enum):
    SYMMETRIC = "symmetric"
    SKEW = "skew"
    NEITHER = "neither"


def symmetry_class(g: BilinearMatrix) -> SymmetryClass:
    n = g.var_count
    if all(g.entries[i][j] == g.entries[j][i] for i in range(n) for j in range(n)):
        return SymmetryClass.SYMMETRIC
    if all(g.entries[i][j] == -g.entries[j][i] for i in range(n) for j in range(n)):
        return SymmetryClass.SKEW
    return SymmetryClass.NEITHER


def quadratic_from_bilinear(g: BilinearMatrix) -> QuadraticMatrix:
    """Symmetrize: entries (g_ij + g_ji) / 2; legal in characteristic 0."""
    n = g.var_count
    return QuadraticMatrix(
        [
            [(g.entries[i][j] + g.entries[j][i]).scale(_HALF) for j in range(n)]
            for i in range(n)
        ]
    )


def eval_quadratic(f: QuadraticMatrix, a: Sequence) -> Element:
    """f(a) = g(a, a) for the matrix of f read as a bilinear form."""
    return eval_bilinear(f, a, a)


# ---------------------------------------------------------------------------
# the equation a x + x a = b


@dataclass(frozen=True)
class SylvesterSolution:
    """Outcome of a x + x a = b.

    kind is "unique", "infinite" or "none"; witness is a solution when one
    exists (free coordinates set to zero), and nullspace_dim the rational
    dimension of the solution space of the homogeneous equation.
    """

    kind: str
    witness: Optional[Element]
    nullspace_dim: int


def _two_sided_rows(a: Element) -> tuple[list[list[int]], int]:
    """Integer rows s over a denominator den with (a x + x a) coords =
    (s / den) . x coords, s[k][j] / den = sum_i a^i (C[i][j][k] + C[j][i][k]).
    One pass over the table; products with each e_j by `_times` were slower."""
    alg = a.algebra
    n = alg.dim
    num = a._num
    s = [[0] * n for _ in range(n)]
    for i, j, k, c in alg._terms:
        s[k][j] += num[i] * c
        s[k][i] += num[j] * c
    return s, a._den * alg._den


def two_sided_matrix(a: Element) -> list[list[Fraction]]:
    """Rational matrix S with (a x + x a) coords = S . x coords."""
    s, den = _two_sided_rows(a)
    return [[Fraction(x, den) for x in row] for row in s]


def solve_axxa(a: Element, b: Element) -> SylvesterSolution:
    """Classify and solve a x + x a = b over the algebra.

    A "none" outcome is a legitimate classification, not an error.
    """
    a._check(b)
    alg = a.algebra
    s, den = _two_sided_rows(a)
    # the nullity is that of the homogeneous equation, whatever the outcome
    x, nullity = ratlin._solve(s, [den * y for y in b.coords])
    if x is None:
        return SylvesterSolution("none", None, nullity)
    kind = "unique" if nullity == 0 else "infinite"
    return SylvesterSolution(kind, Element(alg, x), nullity)


# ---------------------------------------------------------------------------
# completion of squares


@dataclass(frozen=True)
class Diagonalization:
    """A quadratic form rewritten as a weighted sum of squares.

    f(a) = sum_k diagonal[k] * (L_k(a))^2 with L_k(a) = sum_j a^j
    substitution[k][j], everything expressed in the original variables.
    extra_linear, when present, is the accumulated rational matrix P of
    the zero-diagonal pre-transformations: the completion ran in variables
    b with a = P b.  residual_rank equals the number of squares.
    """

    algebra: Algebra
    var_count: int
    diagonal: tuple
    substitution: tuple
    extra_linear: Optional[tuple]

    @property
    def residual_rank(self) -> int:
        return len(self.diagonal)

    def evaluate(self, a: Sequence) -> Element:
        """Re-expand the sum of squares at rational coordinates a."""
        if len(a) != self.var_count:
            raise DimensionMismatch("coordinate length does not match the form")
        zero = self.algebra.zero
        terms = []
        for d, cov in zip(self.diagonal, self.substitution):
            lin = _mul_add(zero, [(Fraction(aj), hj, None) for aj, hj in zip(a, cov) if aj])
            terms.append((1, mul(d, lin), lin))
        return _mul_add(zero, terms)


def diagonalize(f: QuadraticMatrix, try_all_pivots: bool = False) -> Diagonalization:
    """Iteratively complete squares per the two proof cases.

    Case 1 picks the first variable (ascending) with a nonzero diagonal
    coefficient, solves the pivot equation 2 d g = d h + h d for every
    cross coefficient g and strips the square.  Case 2, entered when every
    live diagonal coefficient vanishes, mixes the first off-diagonal pair
    through a = P b, a^i = b^i - b^j, a^j = b^i + b^j, to manufacture one:
    the form becomes P^T M P by column and row operations on the pair.

    When the pivot equation has no solution the failure is surfaced as
    PivotConditionFailed instead of silently skipping the pivot; with
    try_all_pivots=True every candidate pivot is attempted before the last
    failure propagates.
    """
    alg = f.algebra
    n = f.var_count
    m = [list(row) for row in f.entries]
    active = list(range(n))
    # q maps current coordinates back to original ones, b = Q a; covectors
    # found in current coordinates pull back through Q^T
    q = [[Fraction(r == c) for c in range(n)] for r in range(n)]
    used_case2 = False
    p_total = [row[:] for row in q]
    diagonal: list[Element] = []
    covectors: list[tuple] = []

    def complete(p):
        """One complete-the-square step at pivot variable p (current coords)."""
        d = m[p][p]
        cov = {p: d}
        for j in active:
            if j == p:
                continue
            rhs = _mul_add(alg.zero, ((2, d, m[p][j]),))
            outcome = solve_axxa(d, rhs)
            if outcome.witness is None:
                raise PivotConditionFailed(p, j)
            cov[j] = outcome.witness
        dinv = d.inverse()
        # strip the square: subtract dinv * (sum a^j h_j)^2, symmetrized, as
        # (dinv h_r) h_c / 2 + (dinv h_c) h_r / 2 with one reduction per entry;
        # with h_p = d and d h_t + h_t d = 2 d g this zeroes row and column p
        # exactly, since (h_t + dinv h_t d) / 2 = g = m[p][t] = m[t][p]
        left = {r: mul(dinv, cov[r]) for r in active}
        half = -_HALF
        for r in active:
            for c in active:
                m[r][c] = _mul_add(m[r][c], ((half, left[r], cov[c]), (half, left[c], cov[r])))
        # pull the covector back to original variables through Q^T
        pulled = tuple(_mul_add(alg.zero, [(q[cur][orig], h, None) for cur, h in cov.items()])
                       for orig in range(n))
        diagonal.append(dinv)
        covectors.append(pulled)
        active.remove(p)

    while active:
        if all(m[r][c].is_zero() for r in active for c in active):
            break
        pivots = [p for p in active if not m[p][p].is_zero()]
        if pivots:
            # complete() raises PivotConditionFailed before it changes any
            # state, so the next pivot starts from the same form
            for p in pivots if try_all_pivots else pivots[:1]:
                try:
                    complete(p)
                    break
                except PivotConditionFailed as exc:
                    err = exc
            else:
                raise err
            continue
        # case 2: all live diagonals vanish, mix the first off-diagonal pair
        i, j = next(
            (i, j)
            for i in active
            for j in active
            if i < j and not m[i][j].is_zero()
        )
        # columns of M P and P_total P, rows of P^T M P and P^-1 Q = P^T Q / 2
        for row in m + p_total:
            row[i], row[j] = row[i] + row[j], row[j] - row[i]
        m[i], m[j] = [x + y for x, y in zip(m[i], m[j])], [y - x for x, y in zip(m[i], m[j])]
        q[i], q[j] = ([(x + y) * _HALF for x, y in zip(q[i], q[j])],
                      [(y - x) * _HALF for x, y in zip(q[i], q[j])])
        used_case2 = True

    return Diagonalization(
        algebra=alg,
        var_count=n,
        diagonal=tuple(diagonal),
        substitution=tuple(covectors),
        extra_linear=tuple(tuple(r) for r in p_total) if used_case2 else None,
    )


# ---------------------------------------------------------------------------
# metrics and hermitian conjugation


@dataclass(frozen=True)
class HermitianStructure:
    """Sign involution induced by a diagonal form with rational diagonal.

    signs[i] is the sign of the i-th diagonal value; conjugation flips the
    coordinates with negative sign.  g_star and f_star are the conjugated
    product and metric, positive on every basis vector.
    """

    algebra: Algebra
    signs: tuple
    g_star: BilinearMatrix
    f_star: QuadraticMatrix

    def conjugate(self, coords: Sequence) -> tuple:
        if len(coords) != len(self.signs):
            raise DimensionMismatch("coordinate length does not match the form")
        return tuple(Fraction(c) * s for c, s in zip(coords, self.signs))


def hermitian_conjugation(f: QuadraticMatrix) -> HermitianStructure:
    """Conjugation table and conjugated products for a diagonal rational form."""
    alg = f.algebra
    n = f.var_count
    values = []
    for i in range(n):
        for j in range(n):
            if i != j and not f.entries[i][j].is_zero():
                raise ZeroDiagonalEntry("form must be diagonal")
        v = f.entries[i][i].rational_part()
        if v is None:
            raise ZeroDiagonalEntry(f"diagonal entry {i} is not rational")
        if v == 0:
            raise ZeroDiagonalEntry(f"diagonal entry {i} is zero")
        values.append(v)
    signs = tuple(1 if v > 0 else -1 for v in values)
    star = [
        [alg.scalar(abs(values[i])) if i == j else alg.zero for j in range(n)]
        for i in range(n)
    ]
    return HermitianStructure(
        algebra=alg,
        signs=signs,
        g_star=BilinearMatrix(star),
        f_star=QuadraticMatrix(star),
    )


class MetricClass(Enum):
    EUCLIDEAN = "euclidean"
    PSEUDO_EUCLIDEAN = "pseudo-euclidean"
    NOT_REAL_VALUED = "not-real-valued"


def classify_metric(f: QuadraticMatrix) -> MetricClass:
    """Diagonalize and classify by the signs of the diagonal coefficients.

    A positive-definite form needs every coefficient positive rational and
    full rank; degenerate real forms count as pseudo-Euclidean because a
    nonzero radical vector evaluates to zero.
    """
    diag = diagonalize(f)
    values = []
    for d in diag.diagonal:
        v = d.rational_part()
        if v is None:
            return MetricClass.NOT_REAL_VALUED
        values.append(v)
    if all(v > 0 for v in values) and diag.residual_rank == f.var_count:
        return MetricClass.EUCLIDEAN
    return MetricClass.PSEUDO_EUCLIDEAN
