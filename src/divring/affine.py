"""Affine and Euclidean geometry over a division ring.

Points and vectors of the n-dimensional space are coordinate tuples of
ring elements relative to a fixed basis and origin; abstract point
identity is coordinate identity.  The scalar convention is right-scalar
throughout (vectors multiply scalars from the right), matching the stored
transformation rule A'^i = sum_j A^j P[j][i] + R^i; passing hand="left"
to the transformation operations transposes every multiplication order,
which realizes the mirror convention concretely.

Each hand decides and inverts with its own multipliers, and nc_rank is the
rank under the right-hand convention; the two differ over a skew field: over
the quaternions P = [[1, i], [j, k]] has rank 2, yet (j, -1) P = 0 under the
left-hand convention.  Every elimination over the ring follows one policy: it
runs over every column, a nonzero pivot without an inverse raises
NotDivisionRing, and invert_matrix, the only inversion, raises
SingularLinearPart below full rank.  An AffineMap and a Plane eliminate once,
when built, and keep P^-1 or the span's row operations; no product re-checks
an inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .algebra import Algebra, Element, _mul_add, mul
from .errors import (
    DimensionMismatch,
    NotDivisionRing,
    NotInvertible,
    NotSingleTransitive,
    SingularLinearPart,
)
from .forms import BilinearMatrix, eval_bilinear
from .omega import FiniteOmegaAlgebra, Representation, one_and_only_one

Point = tuple
Vector = tuple


def shift(point: Point, vector: Vector) -> Point:
    """Parallel shift: componentwise sum of point and vector coordinates."""
    if len(point) != len(vector):
        raise DimensionMismatch("point and vector dimensions differ")
    return tuple(p + v for p, v in zip(point, vector))


def vec_between(a: Point, b: Point) -> Vector:
    """The unique vector with shift(a, v) == b."""
    if len(a) != len(b):
        raise DimensionMismatch("point dimensions differ")
    return tuple(q - p for p, q in zip(a, b))


# ---------------------------------------------------------------------------
# matrices over the ring


def matrix_mul(a, b, hand: str = "right"):
    """Product of element matrices; (a b)[r][c] = sum_k a[r][k] b[k][c]
    with factors swapped under the left-hand convention.  Each entry is
    one `_mul_add` call: its products and sum stay on unreduced integers
    and the entry is reduced once."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    zero = b[0][0].algebra.zero if inner and cols else None
    right = hand == "right"
    out = []
    for r in range(rows):
        ar = a[r]
        out.append(tuple(
            _mul_add(zero, [(1, ar[k], b[k][c]) if right else (1, b[k][c], ar[k])
                            for k in range(inner)])
            for c in range(cols)
        ))
    return tuple(out)


def identity_matrix(alg: Algebra, n: int):
    return tuple(
        tuple(alg.unit if r == c else alg.zero for c in range(n)) for r in range(n)
    )


def _forward_eliminate(work: list, ncols: int, hand: str = "right") -> list:
    """Forward elimination over the ring on the rows `work`, in place.

    Pivots are the first nonzero entry scanning the first `ncols` columns
    left to right; a column without a pivot is skipped.  Each row below a
    pivot row r, with pivot p and entry d in the pivot column, is cleared
    right of that column: under the right-hand convention by row_s <- row_s
    - (d p^-1) row_r, under the left-hand one by row_s <- row_s - row_r
    (p^-1 d), one `_mul_add` call per entry, so each updated entry is
    reduced once.  Entries left of a row's pivot are not read again and
    keep their values.  Returns the inverses of the pivots in row order, as
    many as the rank; a nonzero pivot without an inverse raises
    NotDivisionRing.
    """
    right = hand == "right"
    inverses = []
    for c in range(ncols):
        rank = len(inverses)
        if rank == len(work):
            break
        pr = next((r for r in range(rank, len(work)) if not work[r][c].is_zero()), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        top = work[rank]
        try:
            inv = top[c].inverse()
        except NotInvertible as exc:
            raise NotDivisionRing(str(exc)) from exc
        inverses.append(inv)
        for r in range(rank + 1, len(work)):
            d = work[r][c]
            if not d.is_zero():
                f = mul(d, inv) if right else mul(inv, d)
                work[r][c + 1:] = [_mul_add(x, ((-1, f, y) if right else (-1, y, f),))
                                   for x, y in zip(work[r][c + 1:], top[c + 1:])]
    return inverses


def nc_rank(rows: Sequence[Sequence[Element]]) -> int:
    """Rank under the right-hand convention, by elimination with left multipliers.

    Pivots are the first nonzero entry scanning columns left to right (see
    _forward_eliminate).  A pivot without an inverse aborts with
    NotDivisionRing, and rows of unequal length with DimensionMismatch.
    """
    work = [list(r) for r in rows]
    if any(len(r) != len(work[0]) for r in work):
        raise DimensionMismatch("rows differ in length")
    return len(_forward_eliminate(work, len(work[0]) if work else 0))


def _augmented(m) -> list:
    """The rows of [m | I] as lists, to be eliminated in place."""
    unit = identity_matrix(m[0][0].algebra, len(m)) if m else ()
    return [list(row) + list(u) for row, u in zip(m, unit)]


def invert_matrix(m, hand: str = "right"):
    """Two-sided inverse over the ring; the only routine that inverts a
    matrix over D.

    Forward elimination of [m | I] over every column, then back
    substitution: from the last pivot up, each pivot row is normalized by
    its pivot's inverse and cleared from the rows above.  Multipliers are
    on the left under the right-hand convention and on the right under the
    left-hand one.  A nonzero pivot without an inverse raises
    NotDivisionRing, and rank below n raises SingularLinearPart.  The
    result E has E m = I, and m E = I needs no check: each step multiplied
    [m | I] by an invertible elementary matrix (a row swap, row_s - (d
    p^-1) row_r, or a row scaled by p^-1, where Element.inverse made p^-1
    two-sided), so m = E^-1.  This holds over any associative unital
    algebra, zero divisors included (T. Y. Lam, A First Course in
    Noncommutative Rings, GTM 131).
    """
    n = len(m)
    work = _augmented(m)
    inverses = _forward_eliminate(work, n, hand)
    if len(inverses) < n:
        raise SingularLinearPart("linear part is singular")
    right = hand == "right"
    for r in range(n - 1, -1, -1):
        inv = inverses[r]
        top = work[r][n:] = [x if x.is_zero() else mul(inv, x) if right else mul(x, inv)
                             for x in work[r][n:]]
        for s in range(r):
            d = work[s][r]
            if not d.is_zero():
                work[s][n:] = [_mul_add(x, ((-1, d, y) if right else (-1, y, d),))
                               for x, y in zip(work[s][n:], top)]
    return tuple(tuple(row[n:]) for row in work)


# ---------------------------------------------------------------------------
# affine transformations


@dataclass(frozen=True)
class AffineMap:
    """A'^i = sum_j A^j P[j][i] + R^i (right-hand convention).

    The linear part must be invertible, so the maps of either hand form a
    group: construction keeps invert_matrix(P, hand) as P^-1, so a map is
    accepted exactly when invert_matrix inverts P (see the module's
    quaternion example).
    """

    linear: tuple
    shift: tuple
    hand: str = "right"
    _inverse: tuple = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, linear, shift, hand="right", _checked=False, _inverse=None):
        linear = tuple(tuple(row) for row in linear)
        shift = tuple(shift)
        n = len(linear)
        if any(len(row) != n for row in linear) or len(shift) != n:
            raise DimensionMismatch("linear part must be n x n with an n-shift")
        if hand not in ("right", "left"):
            raise ValueError("hand must be 'right' or 'left'")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "hand", hand)
        if not _checked:
            _inverse = invert_matrix(linear, hand)
        object.__setattr__(self, "_inverse", _inverse)

    @property
    def n(self) -> int:
        return len(self.shift)

    @property
    def algebra(self) -> Algebra:
        return self.shift[0].algebra


def identity_map(alg: Algebra, n: int, hand: str = "right") -> AffineMap:
    return AffineMap(identity_matrix(alg, n),
                     tuple(alg.zero for _ in range(n)), hand)


def apply_linear(m: AffineMap, vector: Vector) -> Vector:
    """Linear part only; used for vectors, which ignore the displacement."""
    return matrix_mul((vector,), m.linear, m.hand)[0]


def apply_affine(m: AffineMap, point: Point) -> Point:
    if len(point) != m.n:
        raise DimensionMismatch("point dimension differs from the map")
    return shift(apply_linear(m, point), m.shift)


def compose_affine(m1: AffineMap, m2: AffineMap) -> AffineMap:
    """The map acting as m1 followed by m2: (P Q, R Q + S)."""
    if m1.n != m2.n or m1.hand != m2.hand:
        raise DimensionMismatch("maps are not composable")
    linear = matrix_mul(m1.linear, m2.linear, m1.hand)
    return AffineMap(linear, apply_affine(m2, m1.shift), m1.hand, _checked=True)


def inverse_affine(m: AffineMap) -> AffineMap:
    """The group inverse: composing either way gives the identity.  Only a
    compose_affine result has no P^-1 yet; the inverse keeps P as its own."""
    pinv = m._inverse if m._inverse is not None else invert_matrix(m.linear, m.hand)
    back = matrix_mul((tuple(-x for x in m.shift),), pinv, m.hand)[0]
    return AffineMap(pinv, back, m.hand, _checked=True, _inverse=m.linear)


# ---------------------------------------------------------------------------
# planes


@dataclass(frozen=True)
class Plane:
    """A plane through `anchor` spanned by independent direction vectors.

    Construction runs nc_rank's elimination once, on [S | I] with S the
    span columns, and keeps rows k.. of the right block: row operations
    that take S to echelon form with those rows zero.
    """

    anchor: tuple
    span: tuple
    _ops: tuple = field(default=(), init=False, compare=False, repr=False)

    def __init__(self, anchor, span):
        anchor = tuple(anchor)
        span = tuple(tuple(v) for v in span)
        if any(len(v) != len(anchor) for v in span):
            raise DimensionMismatch("span vectors must match point dimension")
        k = len(span)
        if k:
            work = _augmented([[v[r] for v in span] for r in range(len(anchor))])
            if len(_forward_eliminate(work, k)) != k:
                raise DimensionMismatch("span vectors are dependent")
            object.__setattr__(self, "_ops", tuple(tuple(row[k:]) for row in work[k:]))
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "span", span)


def plane_contains(plane: Plane, point: Point) -> bool:
    """Membership through the rank criterion: appending the difference
    column must not raise the rank of the span columns.  Eliminating that
    column gives the plane's row operations times the difference, and the
    rank rises at its first nonzero entry, a pivot as in nc_rank."""
    diff = vec_between(plane.anchor, point)
    if not plane.span:
        return all(d.is_zero() for d in diff)
    zero = plane.anchor[0].algebra.zero
    for row in plane._ops:
        x = _mul_add(zero, [(1, e, d) for e, d in zip(row, diff)])
        if not x.is_zero():
            _forward_eliminate([[x]], 1)  # NotDivisionRing if the pivot has no inverse
            return False
    return True


# ---------------------------------------------------------------------------
# scalar products on D^n


@dataclass(frozen=True)
class VectorScalarProduct:
    """Diagonal family of ring-valued products, one per axis.

    Off-axis products are zero; g(v, w) = sum_i axis[i](v^i, w^i) with each
    axis product a bilinear form on the ring (variables are the rational
    coordinates of the arguments).
    """

    axes: tuple

    def __init__(self, axes: Sequence[BilinearMatrix]):
        axes = tuple(axes)
        if not axes:
            raise DimensionMismatch("need at least one axis product")
        if any(g.var_count != axes[0].var_count or g.algebra != axes[0].algebra for g in axes):
            raise DimensionMismatch("axis products disagree on the ring")
        object.__setattr__(self, "axes", axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def algebra(self) -> Algebra:
        return self.axes[0].algebra


def euclidean_product(alg: Algebra, n: int) -> VectorScalarProduct:
    """Per-axis product polarized from the sum-of-squares metric on the ring."""
    grid = [[alg.unit if a == b else alg.zero for b in range(alg.dim)] for a in range(alg.dim)]
    return VectorScalarProduct([BilinearMatrix(grid)] * n)


def eval_vector_product(g: VectorScalarProduct, v: Vector, w: Vector) -> Element:
    if len(v) != g.n or len(w) != g.n:
        raise DimensionMismatch("vector dimension differs from the product")
    return _mul_add(g.algebra.zero, [(1, eval_bilinear(axis, vi.coords, wi.coords), None)
                                     for axis, vi, wi in zip(g.axes, v, w)])


def is_orthonormal(g: VectorScalarProduct, basis: Sequence[Vector]) -> bool:
    """Unit length on each vector, zero product across distinct vectors."""
    unit, zero = g.algebra.unit, g.algebra.zero
    return len(basis) == g.n and all(
        eval_vector_product(g, va, vb) == (unit if a == b else zero)
        for a, va in enumerate(basis) for b, vb in enumerate(basis))


def preserves_form(m: AffineMap, g: VectorScalarProduct) -> bool:
    """g(Pv, Pw) == g(v, w), checked on all basis-vector pairs.

    Bilinearity over the rationals does not reduce arbitrary arguments to
    basis pairs here, because the axis products are only rational-bilinear
    in ring coordinates; the basis of the check is every pair e_r x, e_s y
    with x, y running over the ring basis.
    """
    alg = g.algebra
    if any(not x.is_zero() for x in m.shift):
        return False
    for r in range(g.n):
        for s in range(g.n):
            for x in alg.basis():
                for y in alg.basis():
                    v = tuple(x if t == r else alg.zero for t in range(g.n))
                    w = tuple(y if t == s else alg.zero for t in range(g.n))
                    lhs = eval_vector_product(g, apply_linear(m, v), apply_linear(m, w))
                    if lhs != eval_vector_product(g, v, w):
                        return False
    return True


# ---------------------------------------------------------------------------
# transfer of structure along a single transitive representation


def transfer_structure(rep: Representation, origin) -> FiniteOmegaAlgebra:
    """Induce the acting algebra's operations on the acted set.

    Requires single transitivity; each point m factors uniquely as an actor
    applied to `origin`, and

        omega(m_1, .., m_p) := act(omega(a_1, .., a_p), origin)

    with a_t the factor of m_t.  The result genuinely depends on the
    chosen origin.
    """
    if not one_and_only_one(rep):
        raise NotSingleTransitive("representation is not single transitive")
    acting, points = rep.acting, rep.acted.carrier
    factor = {rep.act(a, origin): a for a in acting.carrier}
    tables = {op: lambda *args, op=op: rep.act(acting.apply(op, [factor[m] for m in args]), origin)
              for op, _ in acting.signature.ops}
    return FiniteOmegaAlgebra(points, acting.signature, tables, name=f"transferred({origin!r})",
                              carrier_bound=max(len(points), 1))
