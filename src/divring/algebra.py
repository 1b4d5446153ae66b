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
algebra stores its table and unit the same way, once; `constants` and
`unit_coords` are Fraction views built on each read.  A product, sum or
scaling is then integer work with one gcd reduction of the result.

The product (`_times`), the only routine that multiplies two coordinate
vectors, runs a straight-line function compiled on an algebra's first
product.  It is keyed on the table's support: its dimension, the
positions (i, j, k) of the nonzero integer constants and whether each is
+1, -1 or another value.  It is compiled once per support and the other
constants are bound per algebra as arguments of a generated factory, so
the basis-changed algebras of one support share one compilation and no
constant is ever formatted into source text.

Normally the unit is a basis vector (`unit_index`); after an arbitrary
change of basis it becomes a rational combination of basis vectors, given
by its coordinates, `unit_coords`.

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


class Algebra:
    """An associative unital algebra over Q defined by structural constants.

    Immutable after construction.  `constants[i][j][k]` is the e_k
    coefficient of the product e_i e_j.  `unit_index` names the basis
    vector acting as the two-sided unit; when the unit is not a basis
    vector (possible after a basis change) it is None and `unit_coords`
    holds the unit element's coordinates.  Both are Fraction views of the
    integer table and unit (`_den`, `_rows`, `_terms`, `_unit`).
    """

    __slots__ = ("dim", "unit_index", "name",
                 "_rows", "_terms", "_den", "_unit", "_hash", "_compiled", "_basis")

    def __init__(self, dim, constants, unit_index=0, unit_coords=None, name=None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        planes = [[list(row) for row in plane] for plane in constants]
        if len(planes) != dim or any(len(p) != dim or any(len(r) != dim for r in p)
                                     for p in planes):
            raise ValueError("constants tensor must be dim x dim x dim")
        if unit_coords is None:
            if not 0 <= unit_index < dim:
                raise ValueError("unit index out of range")
            unit_coords = _unit_vectors(dim)[unit_index]
        u, du = self._unit = _integers(unit_coords)
        if len(u) != dim:
            raise ValueError("unit coordinates have wrong length")
        vectors = _unit_vectors(dim)  # in lowest terms, e_b is over 1
        self.unit_index = vectors.index(u) if du == 1 and u in vectors else None
        self.dim = dim
        self.name = name
        self._hash = None
        self._compiled = None  # the product, compiled on the first one
        self._basis = None  # the Elements e_0 .. e_{n-1}, made on the first one
        flat, self._den = _integers([c for plane in planes for row in plane for c in row])
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
        self._validate_unit()
        self._validate_associativity()

    @property
    def constants(self) -> tuple:
        """C[i][j][k] as nested tuples of lowest-terms Fractions."""
        n, den, rows = self.dim, self._den, [dict(pairs) for pairs in self._rows]
        return tuple(tuple(tuple(Fraction(rows[i * n + j].get(k, 0), den) for k in range(n))
                           for j in range(n)) for i in range(n))

    @property
    def unit_coords(self) -> tuple:
        """The unit's coordinates as a tuple of lowest-terms Fractions."""
        return tuple(Fraction(x, self._unit[1]) for x in self._unit[0])

    # -- validation ----------------------------------------------------------
    # both walk the rows, not `_times`: nothing compiles before a product

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
        if self._basis is None:  # Elements are immutable, so every caller shares them
            self._basis = tuple(_element(self, e, 1) for e in _unit_vectors(self.dim))
        return self._basis[i]

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

    def __getstate__(self):
        # pickle and copy leave out the compiled product, an exec'd
        # function, and the basis Elements, which point back at the
        # algebra; the copy makes its own on first use
        state = {name: getattr(self, name) for name in Algebra.__slots__}
        state["_compiled"] = state["_basis"] = None
        return None, state

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Algebra):
            return NotImplemented
        # the integer form is canonical (numerators over the least common
        # denominators), so it decides what the Fraction tensors would
        return (self.dim == other.dim and self._den == other._den
                and self._unit == other._unit and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:  # the integer form that __eq__ compares
            self._hash = hash((self.dim, self._den, self._unit, self._terms))
        return self._hash

    def __repr__(self):
        label = self.name or f"dim-{self.dim}"
        return f"Algebra({label})"


@lru_cache(maxsize=None)
def _unit_vectors(n: int) -> tuple:
    """The integer coordinates of e_0 .. e_{n-1}, shared by every algebra."""
    return tuple(tuple(int(i == b) for i in range(n)) for b in range(n))


def _integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator;
    ints and Fractions are read as they are, anything else by Fraction."""
    return ratlin.over_common_denominator(
        [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values])


class Element:
    """An element of an Algebra, held as exact rational coordinates.

    Stored as integer numerators over one positive denominator in lowest
    terms; `coords` builds the tuple of Fraction coordinates when read.
    Immutable.
    """

    __slots__ = ("algebra", "_num", "_den")

    def __init__(self, algebra, coords):
        num, den = _integers(coords)
        if len(num) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")
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
        return hash((self.algebra, self._den, self._num))  # lowest terms: canonical

    def __add__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            num = [x + y for x, y in zip(self._num, other._num)]
        else:
            num = [x * db + y * da for x, y in zip(self._num, other._num)]
            da *= db
        return _reduced(self.algebra, num, da)

    def __sub__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
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
        if other.__class__ is Element:
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented  # e.g. an NCPoly, which multiplies from the right

    def __rmul__(self, other):
        # rationals are central, so scaling from the left is the same
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, q) -> "Element":
        q = Fraction(q)
        p = q.numerator
        return _reduced(self.algebra, [p * x for x in self._num], self._den * q.denominator)

    def is_zero(self) -> bool:
        return not any(self._num)

    def rational_part(self) -> Optional[Fraction]:
        """The Fraction q with self == q * unit, or None.  The numerators x
        of self and u of the unit (never zero) are proportional iff
        x_k u_i == x_i u_k for every k, at any i with u_i != 0."""
        (u, du), x = self.algebra._unit, self._num
        i = next(k for k, y in enumerate(u) if y)
        if any(a * u[i] != x[i] * b for a, b in zip(x, u)):
            return None
        return Fraction(x[i] * du, self._den * u[i])

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


def _product(a: Element, b: Element) -> tuple:
    """Unreduced numerators of a*b over a._den * b._den * algebra._den."""
    f = a.algebra._compiled  # `_times` inlined: the hottest path
    if f is None:
        f = _times(a.algebra)
    return f(a._num, b._num)


def _support(alg: Algebra) -> tuple:
    """The table's support: (dim, (i, j, k, s) per nonzero integer constant),
    s = c for c = +1 or -1 and s = 0 for any other constant c."""
    return alg.dim, tuple((i, j, k, c if c in (1, -1) else 0) for i, j, k, c in alg._terms)


def _product_source(support: tuple) -> str:
    """Source of `make(c0, c1, ...)`, which returns the straight-line
    product of a table with this support.  The product unpacks both
    numerator tuples and returns coordinate k as the sum of +-a_i*b_j, or
    c*a_i*b_j with the constants that are not +-1 as arguments in term
    order.  The text holds identifiers, `+`, `-`, `*` and no literal, so
    no constant is ever formatted; each k has a term, as e_k = unit e_k."""
    dim, terms = support
    sums, args = [""] * dim, []
    for i, j, k, s in terms:
        if s:
            sums[k] += f" {'-' if s < 0 else '+'} a{i}*b{j}"
        else:
            args.append(f"c{len(args)}")
            sums[k] += f" + {args[-1]}*a{i}*b{j}"
    # each sum opens with " + " or " - ": drop the first, keep "-" of the second
    coords = "".join(("-" if t[1] == "-" else "") + t[3:] + ", " for t in sums)
    a = "".join(f"a{i}, " for i in range(dim))
    b = "".join(f"b{i}, " for i in range(dim))
    return (f"def make({', '.join(args)}):\n"
            f"    def product(a, b):\n"
            f"        {a}= a\n"
            f"        {b}= b\n"
            f"        return ({coords})\n"
            f"    return product\n")


@lru_cache(maxsize=256)
def _product_factory(support: tuple):
    """`make` of `_product_source(support)`, compiled once per support.

    Bounded, so that a process changing bases without end keeps a flat
    footprint; an evicted support only costs its next algebra a compile."""
    namespace = {}
    exec(_product_source(support), namespace)
    return namespace["make"]


def _times(alg: Algebra):
    """The algebra's compiled product: integer coordinate vectors x, y ->
    the numerators of x y over alg._den, a tuple.  On first use the
    constants other than +-1 are bound into the support's compiled
    function, which is kept on the algebra."""
    f = alg._compiled
    if f is None:
        f = alg._compiled = _product_factory(_support(alg))(
            *(c for _, _, _, c in alg._terms if c not in (1, -1)))
    return f


def mul(a: Element, b: Element) -> Element:
    """Product via the structural constants, coords_k = sum C[i][j][k] a_i b_j."""
    a._check(b)
    alg = a.algebra
    return _reduced(alg, _product(a, b), a._den * b._den * alg._den)


def _mul_add(acc: Element, terms) -> Element:
    """acc + sum q * a * b over the triples (q, a, b) of `terms`.

    q is a rational weight (an int or a Fraction); b is an Element, or None
    for the term q * a.  Each product is formed by the compiled product of
    `mul` without its reduction, the terms are added on integer numerators
    over the least common multiple of their denominators, and the sum is
    reduced once.  Terms with a zero factor are skipped, so acc itself
    comes back when nothing is added.
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
    integers.  x*a = unit needs no check, also where the algebra has zero
    divisors: a pivot in every column makes y -> a*y a bijection of the
    algebra, and a*(x*a) = (a*x)*a = a*unit, so x*a = unit (a finite-
    dimensional associative algebra is Dedekind-finite; T. Y. Lam, A First
    Course in Noncommutative Rings, GTM 131).  The matrix is read off
    `_terms` in one pass: built by `_times` per column it was slower.
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
    return _reduced(alg, [sign * row[n] for row in work], sign * d)


def is_central(a: Element) -> bool:
    """True iff a commutes with every basis vector (hence with everything)."""
    alg = a.algebra
    return all(
        mul(a, e) == mul(e, a) for e in (alg.basis_element(i) for i in range(alg.dim))
    )


class BasisChange:
    """An invertible rational basis change.

    Row i of `matrix` holds the old-basis coordinates of the new basis
    vector e'_i.  The matrix and its inverse, computed once, are stored as
    integer rows over one positive denominator each, in lowest terms;
    `matrix` and `inverse` build their Fractions on each read.
    """

    __slots__ = ("_int_matrix", "_int_inverse")

    def __init__(self, matrix: Sequence[Sequence]):
        rows = [list(row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("basis-change matrix must be square")
        self._int_matrix = (m, dm) = _int_matrix(rows)
        # E m / d is the identity, so M^-1 = E dm / d
        ops, pivots, d = ratlin._row_operations(m)
        if pivots != list(range(n)):
            raise SingularBasisChange("basis-change matrix is singular")
        self._int_inverse = _int_matrix([[Fraction(x * dm, d) for x in row] for row in ops])

    @property
    def dim(self) -> int:
        return len(self._int_matrix[0])

    @property
    def matrix(self) -> list:
        return _fractions(*self._int_matrix)

    @property
    def inverse(self) -> list:
        return _fractions(*self._int_inverse)

    def compose(self, other: "BasisChange") -> "BasisChange":
        """First change by self, then by other (stated relative to self's basis)."""
        (a, da), (b, db) = self._int_matrix, other._int_matrix
        return BasisChange(_fractions([_row_times(row, a) for row in b], db * da))


def _int_matrix(m) -> tuple[list[tuple[int, ...]], int]:
    """A rational matrix as integer rows over one common denominator."""
    n = len(m)
    flat, den = _integers([x for row in m for x in row])
    return [flat[r * n:(r + 1) * n] for r in range(n)], den


def _fractions(rows, den: int) -> list:
    return [[Fraction(x, den) for x in row] for row in rows]


def _row_times(v, m) -> list:
    """The integer row vector v . m, skipping the zeros of v and of m."""
    out = [0] * len(m)
    for k, x in enumerate(v):
        if x:
            for el, y in enumerate(m[k]):
                if y:
                    out[el] += x * y
    return out


def change_basis(alg: Algebra, bc: BasisChange) -> Algebra:
    """Structural constants in the new basis e'_i = sum_j matrix[i][j] e_j.

    C'[i][j][l] = sum_k (e'_i e'_j)_k Minv[k][l].  The result is validated
    again, which doubles as a tensor-law check.  The unit element generally
    stops being a basis vector, in which case the returned algebra carries
    explicit unit coordinates.
    """
    if bc.dim != alg.dim:
        raise ValueError("basis change has wrong dimension")
    n, times = alg.dim, _times(alg)
    (m, dm), (minv, dinv) = bc._int_matrix, bc._int_inverse
    den = dm * dm * alg._den * dinv
    new = [[[Fraction(x, den) for x in _row_times(times(m[i], m[j]), minv)]
            for j in range(n)] for i in range(n)]
    u, du = alg._unit
    unit_new = [Fraction(x, du * dinv) for x in _row_times(u, minv)]
    return Algebra(n, new, unit_coords=unit_new)


def transform_vector(a: Element, bc: BasisChange, target: Optional[Algebra] = None) -> Element:
    """New coordinates of a fixed element after the basis change.

    `target` is the algebra in the new basis as produced by change_basis;
    when omitted the coordinates are rehoused in the original algebra
    object (useful when only the number tuple matters).
    """
    if bc.dim != a.algebra.dim:
        raise ValueError("basis change has wrong dimension")
    if target is not None and target.dim != bc.dim:
        raise ValueError("coordinate length does not match algebra dimension")
    minv, dinv = bc._int_inverse
    # old row vector = new row vector . matrix, hence new = old . inverse
    return _reduced(target if target is not None else a.algebra,
                    _row_times(a._num, minv), a._den * dinv)


# ---------------------------------------------------------------------------
# built-in algebras


def _table(dim, entries):
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in entries.items():
        c[i][j][k] = v
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
