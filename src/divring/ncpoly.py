"""Noncommutative polynomials over a structural-constant algebra.

A polynomial in variables x_1 .. x_n is a rational combination of pure
monomials e_{b0} x_{v1} e_{b1} ... x_{vm} e_{bm}: the interleaved
constants of every user-supplied monomial are expanded over the algebra
basis, after which like monomials merge and zero coefficients drop.  This
canonical form is closed under ring operations and substitution, and all
the formal identities the calculus relies on (cancellation in chart
compositions, the degree bookkeeping of derivatives) hold at this level.

Variable indices are 0-based internally; the text syntax x1, x2, .. maps
x<k> to index k-1.

Directional derivatives of polynomials are exact positional sums: the
first derivative at x in direction a replaces one variable occurrence by
the matching direction component, the second derivative replaces an
ordered pair of distinct occurrences.

Arithmetic runs on integers.  An `NCPoly` stores integer numerators
(monomial key -> nonzero int) over one positive denominator in lowest
terms; `terms`, the public dict of lowest-terms Fractions, is built from
them on each read.  Every operation reads only the integer form, on
integer term dicts or on `Element` numerators against the algebra's
integer tables, and reduces once, at the end.  Substitution and
evaluation walk each monomial left to right and compute every prefix
e_{b0} x_{v1} e_{b1} ... once per call, shared by all monomials that
start with it (`_prefix_values`); extending a prefix by a basis constant
is one table-row lookup per term and leaves it unreduced.  The two
directional derivatives are one positional sum (`_positional`)
evaluated the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import ratlin
from .algebra import Algebra, Element, _element, _reduced, mul

_ZERO = Fraction(0)


def _dict_mul(alg: Algebra, t1: Mapping, t2: Mapping) -> dict:
    """Product of two integer term dicts; zeros are dropped.

    The table rows carry the algebra's common denominator, so the result
    is over the product of the operands' denominators times `alg._den`.
    """
    out = {}
    get = out.get
    n = alg.dim
    rows = alg._rows
    for (v1, b1), c1 in t1.items():
        head = b1[:-1]
        last = b1[-1] * n
        for (v2, b2), c2 in t2.items():
            f = c1 * c2
            joint = v1 + v2
            tail = b2[1:]
            for k, c in rows[last + b2[0]]:
                key = (joint, head + (k,) + tail)
                out[key] = get(key, 0) + f * c
    return {key: s for key, s in out.items() if s}


def _poly(alg: Algebra, nvars: int, num: dict, den: int) -> "NCPoly":
    """NCPoly of nonzero numerators over a positive denominator, in lowest terms."""
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        num = {key: c // g for key, c in num.items()}
        den //= g
    p = object.__new__(NCPoly)
    p.algebra, p.nvars, p._num, p._den = alg, nvars, num, den
    return p


def _prefix_values(items: Iterable, first: Callable, times_var: Callable,
                   times_basis: Callable) -> list:
    """(coefficient, value) of every monomial, sharing monomial prefixes.

    `items` yields ((vars, basis), coefficient) pairs.  `first(b)` is the
    value of e_b; `times_var(value, v)` and `times_basis(value, b)` extend
    a prefix by variable v or basis constant e_b.  Each prefix is computed once per
    call, in a trie keyed by the alternating sequence b0, v1, b1, ...
    """
    trie = {}
    out = []
    for (vars_, bs), c in items:
        node = trie.get(bs[0])
        if node is None:
            node = trie[bs[0]] = (first(bs[0]), {})
        for pos, v in enumerate(vars_):
            kids = node[1]
            mid = kids.get(v)
            if mid is None:
                mid = kids[v] = (times_var(node[0], v), {})
            kids = mid[1]
            b = bs[pos + 1]
            node = kids.get(b)
            if node is None:
                node = kids[b] = (times_basis(mid[0], b), {})
        out.append((c, node[0]))
    return out


def _evaluate(alg: Algebra, items: Iterable, coeff_den: int,
              value: Callable) -> Element:
    """Sum of coefficient-weighted monomial values in the algebra.

    `items` yields ((vars, basis), numerator) over `coeff_den`;
    `value(v)` is the Element taking variable slot v.  A prefix times a
    value is one `mul`, which raises AlgebraMismatch for a value of
    another algebra; a prefix times e_b is one table-row lookup.
    """
    n = alg.dim
    rows = alg._rows
    tden = alg._den

    def times_basis(e, b):
        # the prefix stays over an unreduced denominator: `mul` and the
        # final sum read numerators and denominator, never lowest terms
        a = e._num
        out = [0] * n
        for i in range(n):
            if a[i]:
                for k, c in rows[i * n + b]:
                    out[k] += a[i] * c
        return _element(alg, tuple(out), e._den * tden)

    # the variable products stay on `mul`: the benchmark's tracer rebinds
    # `ncpoly.mul`, and its traced calculus run needs `algebra.self_s` > 0,
    # which a raw-integer trie would read as 0 (ROADMAP open item 1)
    parts = _prefix_values(items, alg.basis_element,
                           lambda e, v: mul(e, value(v)), times_basis)
    den = lcm(*[e._den for _, e in parts])
    acc = [0] * n
    for c, e in parts:
        f = c * (den // e._den)
        for k, x in enumerate(e._num):
            acc[k] += f * x
    return _reduced(alg, acc, den * coeff_den)


class NCPoly:
    """Immutable noncommutative polynomial in canonical basis form.

    Stored as integer numerators `_num` (monomial key -> nonzero int) over
    one positive denominator `_den`, with gcd(`_den`, numerators) = 1, so
    the zero polynomial has `_den` 1.  `terms` builds the lowest-terms
    Fraction dict on each read; it is not cached, and changing it leaves
    the polynomial as it is.
    """

    __slots__ = ("algebra", "nvars", "_num", "_den")

    def __init__(self, algebra: Algebra, nvars: int, terms: Mapping):
        clean = {}
        for (vars_, basis), coeff in terms.items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if len(basis) != len(vars_) + 1:
                raise ValueError("monomial must interleave constants and variables")
            if any(not 0 <= v < nvars for v in vars_):
                raise ValueError("variable index out of range")
            key = (tuple(vars_), tuple(basis))
            clean[key] = clean.get(key, _ZERO) + coeff
        # zeros are numerator 0 over 1, so dropping them keeps lowest terms
        nums, self._den = ratlin.over_common_denominator(clean.values())
        self._num = {k: c for k, c in zip(clean, nums) if c}
        self.algebra, self.nvars = algebra, nvars

    @property
    def terms(self) -> dict:
        """Monomial key -> nonzero lowest-terms Fraction, built on each read."""
        den = self._den
        return {key: Fraction(c, den) for key, c in self._num.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(algebra: Algebra, nvars: int) -> "NCPoly":
        return _poly(algebra, nvars, {}, 1)

    @staticmethod
    def const(algebra: Algebra, nvars: int, value: Element) -> "NCPoly":
        num = {((), (s,)): c for s, c in enumerate(value._num) if c}
        return _poly(algebra, nvars, num, value._den)

    @staticmethod
    def scalar_const(algebra: Algebra, nvars: int, q) -> "NCPoly":
        return NCPoly.const(algebra, nvars, algebra.scalar(q))

    @staticmethod
    def var(algebra: Algebra, nvars: int, v: int) -> "NCPoly":
        if not 0 <= v < nvars:
            raise ValueError("variable index out of range")
        u, d = algebra._unit
        num = {((v,), (s, t)): us * ut
               for s, us in enumerate(u) if us for t, ut in enumerate(u) if ut}
        return _poly(algebra, nvars, num, d * d)

    # -- ring operations ----------------------------------------------------

    def _like(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            if other.algebra != self.algebra or other.nvars != self.nvars:
                raise ValueError("polynomials live in different rings")
            return other
        if isinstance(other, Element):
            return NCPoly.const(self.algebra, self.nvars, other)
        return NCPoly.scalar_const(self.algebra, self.nvars, other)

    def __add__(self, other):
        other = self._like(other)
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, den // other._den
        num = {k: c * f1 for k, c in self._num.items()}
        get = num.get
        for k, c in other._num.items():
            s = get(k, 0) + c * f2
            if s:
                num[k] = s
            else:
                del num[k]
        return _poly(self.algebra, self.nvars, num, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _poly(self.algebra, self.nvars,
                     {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return self._like(other) - self

    def __mul__(self, other):
        other = self._like(other)
        alg = self.algebra
        return _poly(alg, self.nvars, _dict_mul(alg, self._num, other._num),
                     self._den * other._den * alg._den)

    def __rmul__(self, other):
        return self._like(other) * self

    def scale(self, q) -> "NCPoly":
        q = Fraction(q)
        if not q:
            return NCPoly.zero(self.algebra, self.nvars)
        p = q.numerator
        return _poly(self.algebra, self.nvars, {k: p * c for k, c in self._num.items()},
                     self._den * q.denominator)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        out = NCPoly.scalar_const(self.algebra, self.nvars, 1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (self._den == other._den and self.nvars == other.nvars
                and self._num == other._num and self.algebra == other.algebra)

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        return max((len(v) for v, _ in self._num), default=0)

    def degree_in(self, variables: Iterable[int]) -> int:
        vs = set(variables)
        return max(
            (sum(1 for x in v if x in vs) for v, _ in self._num), default=0
        )

    def min_degree_in(self, variables: Iterable[int]) -> int:
        vs = set(variables)
        return min(
            (sum(1 for x in v if x in vs) for v, _ in self._num), default=0
        )

    def constant_term(self) -> Element:
        return self.evaluate([self.algebra.zero] * self.nvars)

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, values: Sequence[Element]) -> Element:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        return _evaluate(self.algebra, self._num.items(), self._den, values.__getitem__)

    def substitute(self, replacements: Sequence["NCPoly"]) -> "NCPoly":
        """Plug a polynomial into every variable slot; replacements share a
        common ring and determine the variable count of the result."""
        if len(replacements) != self.nvars:
            raise ValueError("wrong number of replacements")
        if replacements:
            alg = replacements[0].algebra
            nv = replacements[0].nvars
        else:
            alg, nv = self.algebra, 0
        n = alg.dim
        rows = alg._rows
        tden = alg._den

        def first(b):
            return {((), (b,)): 1}, 1

        def times_var(val, v):
            r = replacements[v]
            return _dict_mul(alg, val[0], r._num), val[1] * r._den * tden

        def times_basis(val, b):
            # zeros that cancel here drop out of the final sum
            out = {}
            get = out.get
            for (vars_, bs), c in val[0].items():
                head = bs[:-1]
                for k, x in rows[bs[-1] * n + b]:
                    key = (vars_, head + (k,))
                    out[key] = get(key, 0) + c * x
            return out, val[1] * tden

        parts = _prefix_values(self._num.items(), first, times_var, times_basis)
        den = lcm(*[d for _, (_, d) in parts])
        out = {}
        get = out.get
        for c, (terms, d) in parts:
            f = c * (den // d)
            for key, s in terms.items():
                out[key] = get(key, 0) + f * s
        return _poly(alg, nv, {key: s for key, s in out.items() if s}, den * self._den)

    def __repr__(self):
        from .io import format_poly

        return f"NCPoly({format_poly(self)})"


# ---------------------------------------------------------------------------
# exact directional derivatives


def _shifted_terms(terms: Mapping, n: int, k: int):
    """Every term once per ordered k-tuple of distinct variable positions.

    The j-th position of the tuple (j = 1 .. k) moves its variable v to
    slot j * n + v; the key's constants and the coefficient are kept.
    """
    for (vars_, bs), c in terms.items():
        for picks in permutations(range(len(vars_)), k):
            moved = list(vars_)
            for j, p in enumerate(picks, 1):
                moved[p] += j * n
            yield (tuple(moved), bs), c


def _positional(f: NCPoly, sources: Sequence) -> Element:
    """The positional sum behind the directional derivatives: slot
    j * n + v of the shifted terms reads sources[j][v]."""
    n = f.nvars
    return _evaluate(f.algebra, _shifted_terms(f._num, n, len(sources) - 1), f._den,
                     lambda slot: sources[slot // n][slot % n])


def gateaux(f: NCPoly, x: Sequence[Element], a: Sequence[Element]) -> Element:
    """First directional derivative at x in direction a.

    For each monomial, sum over variable positions with that position's
    variable replaced by the matching component of a; exact for
    polynomials.
    """
    return _positional(f, (x, a))


def gateaux2(f: NCPoly, x: Sequence[Element], v: Sequence[Element],
             a: Sequence[Element]) -> Element:
    """Second directional derivative: sum over ordered pairs of distinct
    variable positions carrying v and a.  Symmetric in (v, a)."""
    return _positional(f, (x, v, a))


def gateaux_poly(f: NCPoly) -> NCPoly:
    """Symbolic first derivative over doubled variables.

    The result lives in 2 * nvars variables: indices < nvars are the base
    point, index nvars + v is the direction component for variable v.
    """
    return _poly(f.algebra, 2 * f.nvars, dict(_shifted_terms(f._num, f.nvars, 1)), f._den)
