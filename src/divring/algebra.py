"""Finite-dimensional algebras over the rationals given by structural constants.

An algebra of dimension n is stored as the rank-3 tensor C[i][j][k] with
basis products e_i e_j = sum_k C[i][j][k] e_k.  Scalars are exact
rationals, so every operation in this module is exact.  The associativity
constraint on C and the two-sided unit are validated eagerly at
construction: an invalid table never circulates.

Arithmetic runs on integers.  An element stores a tuple of integer
numerators over one positive denominator, in lowest terms, so equal
elements store equal integers; `Element.coords` is the tuple of
`fractions.Fraction` coordinates derived from them on each read.  An
algebra keeps, besides its Fraction tensor `constants`, the same table as
integer numerators over one common denominator.  A product, sum or
scaling is then integer work with one gcd reduction of the result.

Normally the unit is a basis vector (`unit_index`); after an arbitrary
change of basis it becomes a rational combination of basis vectors, which
is stored as explicit `unit_coords` instead.

The built-in tables cover the rationals themselves (dim 1), the Gaussian
rationals (dim 2) and the rational quaternions (dim 4), which are the
division rings exercised throughout the package.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from . import ratlin
from .errors import (
    AlgebraMismatch,
    AssociativityViolation,
    NotInvertible,
    SingularBasisChange,
    UnitViolation,
    ZeroElement,
)

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Algebra:
    """An associative unital algebra over Q defined by structural constants.

    Immutable after construction.  `constants[i][j][k]` is the e_k
    coefficient of the product e_i e_j.  `unit_index` names the basis
    vector acting as the two-sided unit; when the unit is not a basis
    vector (possible after a basis change) it is None and `unit_coords`
    holds the unit element's coordinates.
    """

    __slots__ = ("dim", "constants", "unit_index", "unit_coords", "name",
                 "_rows", "_terms", "_den", "_unit", "_hash")

    def __init__(self, dim, constants, unit_index=0, unit_coords=None, name=None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        tensor = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane)
            for plane in constants
        )
        if len(tensor) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in tensor
        ):
            raise ValueError("constants tensor must be dim x dim x dim")
        self.dim = dim
        self.constants = tensor
        if unit_coords is None:
            if not 0 <= unit_index < dim:
                raise ValueError("unit index out of range")
            unit_coords = tuple(
                _ONE if i == unit_index else _ZERO for i in range(dim)
            )
            self.unit_index = unit_index
        else:
            unit_coords = tuple(Fraction(x) for x in unit_coords)
            if len(unit_coords) != dim:
                raise ValueError("unit coordinates have wrong length")
            self.unit_index = _delta_index(unit_coords)
        self.unit_coords = unit_coords
        self.name = name
        self._hash = None
        flat, self._den = ratlin.over_common_denominator(
            [c for plane in tensor for row in plane for c in row]
        )
        # integer rows over the common denominator: _rows[i * dim + j] holds
        # the pairs (k, C[i][j][k] * _den) over the nonzero constants
        self._rows = tuple(
            tuple((k, c) for k, c in enumerate(flat[p * dim:(p + 1) * dim]) if c)
            for p in range(dim * dim)
        )
        # the same integers as one flat tuple of (i, j, k, C[i][j][k] * _den),
        # for the contractions that visit every constant once
        self._terms = tuple(
            (i, j, k, c)
            for i in range(dim)
            for j in range(dim)
            for k, c in self._rows[i * dim + j]
        )
        self._unit = ratlin.over_common_denominator(unit_coords)
        self._validate_unit()
        self._validate_associativity()

    # -- validation ----------------------------------------------------------

    def _validate_unit(self):
        # sum_i u_i C[i][j][.] = e_j = sum_i u_i C[j][i][.]; over integers
        # both sides carry the factor unit denominator * table denominator
        n = self.dim
        rows = self._rows
        u, du = self._unit
        one = du * self._den
        for j in range(n):
            left = [0] * n
            right = [0] * n
            for i in range(n):
                if u[i]:
                    for k, c in rows[i * n + j]:
                        left[k] += u[i] * c
                    for k, c in rows[j * n + i]:
                        right[k] += u[i] * c
            delta = [one if k == j else 0 for k in range(n)]
            if left != delta or right != delta:
                raise UnitViolation(f"stored unit does not fix basis vector {j}")

    def _validate_associativity(self):
        # (e_i e_m) e_n = e_i (e_m e_n), i.e. for every (i, m, n, k):
        # sum_j C[i][m][j] C[j][n][k] = sum_j C[m][n][j] C[i][j][k]
        n = self.dim
        rows = self._rows
        for i in range(n):
            for m in range(n):
                for nn in range(n):
                    left = [0] * n
                    right = [0] * n
                    for j, c in rows[i * n + m]:
                        for k, d in rows[j * n + nn]:
                            left[k] += c * d
                    for j, c in rows[m * n + nn]:
                        for k, d in rows[i * n + j]:
                            right[k] += c * d
                    for k in range(n):
                        if left[k] != right[k]:
                            raise AssociativityViolation(i, m, nn, k)

    # -- elements --------------------------------------------------------------

    def element(self, coords: Iterable) -> "Element":
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        return _element(self, tuple(int(j == i) for j in range(self.dim)), 1)

    @property
    def zero(self) -> "Element":
        return _element(self, (0,) * self.dim, 1)

    @property
    def unit(self) -> "Element":
        return _element(self, *self._unit)

    def scalar(self, q) -> "Element":
        """The central element q * unit."""
        return self.unit.scale(q)

    def basis(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    # -- misc --------------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.unit_coords == other.unit_coords
            and self.constants == other.constants
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, self.unit_coords, self.constants))
        return self._hash

    def __repr__(self):
        label = self.name or f"dim-{self.dim}"
        return f"Algebra({label})"


def _delta_index(coords) -> Optional[int]:
    hits = [i for i, c in enumerate(coords) if c != 0]
    if len(hits) == 1 and coords[hits[0]] == 1:
        return hits[0]
    return None


class Element:
    """An element of an Algebra, held as exact rational coordinates.

    Stored as integer numerators over one positive denominator in lowest
    terms; `coords` builds the tuple of Fraction coordinates when read.
    Immutable.
    """

    __slots__ = ("algebra", "_num", "_den")

    def __init__(self, algebra, coords):
        # over_common_denominator reads only numerator and denominator, so
        # ints and Fractions are taken as they are
        coords = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coords]
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")
        num, den = ratlin.over_common_denominator(coords)
        _set_algebra(self, algebra)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the element without __setattr__
        return (_element, (self.algebra, self._num, self._den))

    @property
    def coords(self) -> tuple:
        """The coordinates as a tuple of lowest-terms Fractions."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __eq__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        return (
            self._den == other._den
            and self._num == other._num
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def __add__(self, other):
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            num = [x + y for x, y in zip(self._num, other._num)]
        else:
            num = [x * db + y * da for x, y in zip(self._num, other._num)]
            da *= db
        return _reduced(self.algebra, num, da)

    def __sub__(self, other):
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            num = [x - y for x, y in zip(self._num, other._num)]
        else:
            num = [x * db - y * da for x, y in zip(self._num, other._num)]
            da *= db
        return _reduced(self.algebra, num, da)

    def __neg__(self):
        return _element(self.algebra, tuple(-x for x in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # rationals are central, so scaling from the left is the same
        return self.scale(other)

    def scale(self, q) -> "Element":
        q = Fraction(q)
        p = q.numerator
        return _reduced(self.algebra, [p * x for x in self._num], self._den * q.denominator)

    def is_zero(self) -> bool:
        return not any(self._num)

    def rational_part(self) -> Optional[Fraction]:
        """The Fraction q with self == q * unit, or None."""
        alg = self.algebra
        coords = self.coords
        for q in set(
            Fraction(coords[i], alg.unit_coords[i])
            for i in range(alg.dim)
            if alg.unit_coords[i]
        ):
            if all(
                coords[i] == q * alg.unit_coords[i] for i in range(alg.dim)
            ):
                return q
        return None

    def inverse(self) -> "Element":
        return inverse(self)

    def __repr__(self):
        return f"Element({list(self.coords)})"


_set_algebra = Element.algebra.__set__
_set_num = Element._num.__set__
_set_den = Element._den.__set__


def _element(algebra: Algebra, num: tuple, den: int) -> Element:
    """An Element from numerators and a positive denominator in lowest terms."""
    e = object.__new__(Element)
    _set_algebra(e, algebra)
    _set_num(e, num)
    _set_den(e, den)
    return e


def _reduced(algebra: Algebra, num: list, den: int) -> Element:
    """An Element from integer numerators over a positive denominator."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return _element(algebra, tuple(num), den)


def build_algebra(dim, constants, unit_index=0, name=None) -> Algebra:
    """Validate a structural-constant table and return the algebra.

    Raises AssociativityViolation or UnitViolation when the table is not a
    valid unital associative algebra.
    """
    return Algebra(dim, constants, unit_index, name=name)


def _product(a: Element, b: Element) -> list:
    """Unreduced numerators of a*b over a._den * b._den * algebra._den."""
    out = [0] * a.algebra.dim
    anum, bnum = a._num, b._num
    for i, j, k, c in a.algebra._terms:
        out[k] += anum[i] * bnum[j] * c
    return out


def mul(a: Element, b: Element) -> Element:
    """Product via the structural constants, coords_k = sum C[i][j][k] a_i b_j."""
    a._check(b)
    alg = a.algebra
    return _reduced(alg, _product(a, b), a._den * b._den * alg._den)


def _mul_add(acc: Element, terms) -> Element:
    """acc + sum q * a * b over the triples (q, a, b) of `terms`.

    q is a rational weight (an int or a Fraction); b is an Element, or None
    for the term q * a.  Each product is formed by the loop of `mul`
    without its reduction, the terms are added on integer numerators over
    the least common multiple of their denominators, and the sum is reduced
    once.  Terms with a zero factor are skipped, so acc itself comes back
    when nothing is added.
    """
    alg = acc.algebra
    num, den = acc._num, acc._den
    for q, a, b in terms:
        if a.algebra is not alg:
            acc._check(a)
        if not q or not any(a._num):
            continue
        if b is None:
            t, d = a._num, a._den
        else:
            if b.algebra is not alg:
                acc._check(b)
            if not any(b._num):
                continue
            t, d = _product(a, b), a._den * b._den * alg._den
        p = q.numerator
        d *= q.denominator
        if d == den:
            num = [x + p * y for x, y in zip(num, t)]
        else:
            g = gcd(den, d)
            fx, fy = d // g, p * (den // g)
            num = [x * fx + fy * y for x, y in zip(num, t)]
            den *= fx
    if num is acc._num:
        return acc
    return _reduced(alg, num, den)


def inverse(a: Element) -> Element:
    """Two-sided inverse of a.

    Solves the left-regular system a*x = unit on integers: column j of
    the matrix holds the numerators of a*e_j, read off the integer
    structural constants, and `ratlin._eliminate` reduces the system
    fraction-free, so the inverse is reduced once, from the final
    integers.  x*a = unit is verified as well; the verification matters
    because the algebra need not be a division ring.
    """
    if a.is_zero():
        raise ZeroElement("zero has no inverse")
    alg = a.algebra
    n = alg.dim
    num = a._num
    u, du = alg._unit
    # row k: the integers of (a x)_k = unit_k, both sides multiplied by
    # du * a._den * alg._den
    rows = [[0] * n + [x * a._den * alg._den] for x in u]
    for i, j, k, c in alg._terms:
        rows[k][j] += num[i] * c * du
    work, pivots, d = ratlin._eliminate(rows)
    if pivots != list(range(n)):
        raise NotInvertible("left-regular matrix is singular")
    sign = -1 if d < 0 else 1  # x_r = work[r][n] / d, over a positive denominator
    x = _reduced(alg, [sign * row[n] for row in work], sign * d)
    if mul(x, a) != alg.unit:
        raise NotInvertible("left inverse is not a right inverse")
    return x


def is_central(a: Element) -> bool:
    """True iff a commutes with every basis vector (hence with everything)."""
    alg = a.algebra
    return all(
        mul(a, e) == mul(e, a) for e in (alg.basis_element(i) for i in range(alg.dim))
    )


class BasisChange:
    """An invertible rational basis change.

    Row i of `matrix` holds the old-basis coordinates of the new basis
    vector e'_i.  The inverse matrix is computed once and cached, and both
    are also kept as integer numerators over one denominator each.
    """

    __slots__ = ("matrix", "inverse", "_int_matrix", "_int_inverse")

    def __init__(self, matrix: Sequence[Sequence]):
        self.matrix = ratlin.mat(matrix)
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise ValueError("basis-change matrix must be square")
        inv = ratlin.invert(self.matrix)
        if inv is None:
            raise SingularBasisChange("basis-change matrix is singular")
        self.inverse = inv
        self._int_matrix = _int_matrix(self.matrix)
        self._int_inverse = _int_matrix(inv)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def compose(self, other: "BasisChange") -> "BasisChange":
        """First change by self, then by other (stated relative to self's basis)."""
        return BasisChange(ratlin.mat_mul(other.matrix, self.matrix))


def _int_matrix(m) -> tuple[list[tuple[int, ...]], int]:
    """A rational matrix as integer rows over one common denominator."""
    n = len(m)
    flat, den = ratlin.over_common_denominator([x for row in m for x in row])
    return [flat[r * n:(r + 1) * n] for r in range(n)], den


def change_basis(alg: Algebra, bc: BasisChange) -> Algebra:
    """Structural constants in the new basis e'_i = sum_j matrix[i][j] e_j.

    C'[i][j][l] = sum_{p,q,k} M[i][p] M[j][q] C[p][q][k] Minv[k][l].  The
    result is validated again, which doubles as a tensor-law check.  The
    unit element generally stops being a basis vector, in which case the
    returned algebra carries explicit unit coordinates.
    """
    if bc.dim != alg.dim:
        raise ValueError("basis change has wrong dimension")
    n = alg.dim
    m, dm = bc._int_matrix
    minv, dinv = bc._int_inverse
    den = dm * dm * alg._den * dinv
    new = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mi, mj = m[i], m[j]
            prod = [0] * n
            for p, q, k, c in alg._terms:
                prod[k] += mi[p] * mj[q] * c
            out = [0] * n
            for k in range(n):
                if prod[k]:
                    row = minv[k]
                    for el in range(n):
                        if row[el]:
                            out[el] += prod[k] * row[el]
            new[i][j] = [Fraction(x, den) for x in out]
    u, du = alg._unit
    unit_den = du * dinv
    unit_new = [
        Fraction(sum(u[j] * minv[j][i] for j in range(n)), unit_den) for i in range(n)
    ]
    return Algebra(n, new, unit_coords=unit_new)


def transform_vector(a: Element, bc: BasisChange, target: Optional[Algebra] = None) -> Element:
    """New coordinates of a fixed element after the basis change.

    `target` is the algebra in the new basis as produced by change_basis;
    when omitted the coordinates are rehoused in the original algebra
    object (useful when only the number tuple matters).
    """
    if bc.dim != a.algebra.dim:
        raise ValueError("basis change has wrong dimension")
    n = bc.dim
    if target is not None and target.dim != n:
        raise ValueError("coordinate length does not match algebra dimension")
    minv, dinv = bc._int_inverse
    # old row vector = new row vector . matrix, hence new = old . inverse
    num = a._num
    new = [sum(num[j] * minv[j][i] for j in range(n)) for i in range(n)]
    return _reduced(target if target is not None else a.algebra, new, a._den * dinv)


# ---------------------------------------------------------------------------
# built-in algebras


def _table(dim, entries):
    c = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in entries.items():
        c[i][j][k] = Fraction(v)
    return c


@lru_cache(maxsize=None)
def rational_algebra() -> Algebra:
    """Q itself as a one-dimensional algebra."""
    return Algebra(1, _table(1, {(0, 0, 0): 1}), 0, name="rational")


@lru_cache(maxsize=None)
def complex_algebra() -> Algebra:
    """The Gaussian rationals Q(i), basis (1, i)."""
    entries = {
        (0, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 1): 1,
        (1, 1, 0): -1,
    }
    return Algebra(2, _table(2, entries), 0, name="complex")


@lru_cache(maxsize=None)
def quaternion_algebra() -> Algebra:
    """Rational quaternions, basis (1, i, j, k).

    i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j and the anti-commuting
    mirror products.
    """
    entries = {
        (0, 0, 0): 1,
        (0, 1, 1): 1,
        (0, 2, 2): 1,
        (0, 3, 3): 1,
        (1, 0, 1): 1,
        (2, 0, 2): 1,
        (3, 0, 3): 1,
        (1, 1, 0): -1,
        (2, 2, 0): -1,
        (3, 3, 0): -1,
        (1, 2, 3): 1,
        (2, 1, 3): -1,
        (2, 3, 1): 1,
        (3, 2, 1): -1,
        (3, 1, 2): 1,
        (1, 3, 2): -1,
    }
    return Algebra(4, _table(4, entries), 0, name="quaternion")


BUILTIN_ALGEBRAS = {
    "rational": rational_algebra,
    "complex": complex_algebra,
    "quaternion": quaternion_algebra,
}
