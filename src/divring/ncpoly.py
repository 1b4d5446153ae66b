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

Arithmetic runs on integers.  `NCPoly.terms` is the public form, a dict
from monomial keys to nonzero lowest-terms Fractions.  Products,
substitution, evaluation and the directional derivatives put those
coefficients over one common denominator (`ratlin.over_common_denominator`),
work on integer term dicts (monomial key -> numerator) or on `Element`
numerators against the algebra's integer tables, and build one Fraction
per output term, or one Element per value, at the end.  Substitution and
evaluation walk each monomial left to right and compute every prefix
e_{b0} x_{v1} e_{b1} ... once per call, shared by all monomials that
start with it (`_prefix_values`); extending a prefix by a basis constant
is one table-row lookup per term.  The two directional derivatives are
one positional sum (`_positional`) evaluated the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import ratlin
from .algebra import Algebra, Element, _reduced, mul

_ZERO = Fraction(0)

TermKey = tuple  # (vars: tuple[int, ...], basis: tuple[int, ...])


def _int_terms(terms: Mapping) -> tuple[dict, int]:
    """A Fraction term dict as integer numerators over one common denominator."""
    nums, den = ratlin.over_common_denominator(terms.values())
    return dict(zip(terms, nums)), den


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


def _fractions(terms: Mapping, den: int) -> dict:
    """Integer term dict over `den` as the public lowest-terms Fraction dict."""
    return {key: Fraction(s, den) for key, s in terms.items() if s}


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
        a = e._num
        out = [0] * n
        for i in range(n):
            if a[i]:
                for k, c in rows[i * n + b]:
                    out[k] += a[i] * c
        return _reduced(alg, out, e._den * tden)

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
    """Immutable noncommutative polynomial in canonical basis form."""

    __slots__ = ("algebra", "nvars", "terms")

    def __init__(self, algebra: Algebra, nvars: int, terms: Mapping,
                 _trusted: bool = False):
        self.algebra = algebra
        self.nvars = nvars
        if _trusted:
            # internal fast path: keys already canonical, zeros already gone
            self.terms = dict(terms)
            return
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
        self.terms = {k: c for k, c in clean.items() if c}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(algebra: Algebra, nvars: int) -> "NCPoly":
        return NCPoly(algebra, nvars, {})

    @staticmethod
    def const(algebra: Algebra, nvars: int, value: Element) -> "NCPoly":
        terms = {((), (s,)): c for s, c in enumerate(value.coords) if c}
        return NCPoly(algebra, nvars, terms, _trusted=True)

    @staticmethod
    def scalar_const(algebra: Algebra, nvars: int, q) -> "NCPoly":
        return NCPoly.const(algebra, nvars, algebra.scalar(q))

    @staticmethod
    def var(algebra: Algebra, nvars: int, v: int) -> "NCPoly":
        if not 0 <= v < nvars:
            raise ValueError("variable index out of range")
        u = algebra.unit_coords
        terms = {}
        for s, us in enumerate(u):
            if not us:
                continue
            for t, ut in enumerate(u):
                if ut:
                    terms[((v,), (s, t))] = us * ut
        return NCPoly(algebra, nvars, terms, _trusted=True)

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
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, _ZERO) + c
            if s:
                terms[k] = s
            elif k in terms:
                del terms[k]
        return NCPoly(self.algebra, self.nvars, terms, _trusted=True)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return NCPoly(self.algebra, self.nvars,
                      {k: -c for k, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return self._like(other) - self

    def __mul__(self, other):
        other = self._like(other)
        alg = self.algebra
        t1, d1 = _int_terms(self.terms)
        t2, d2 = _int_terms(other.terms)
        out = _fractions(_dict_mul(alg, t1, t2), d1 * d2 * alg._den)
        return NCPoly(alg, self.nvars, out, _trusted=True)

    def __rmul__(self, other):
        return self._like(other) * self

    def scale(self, q) -> "NCPoly":
        q = Fraction(q)
        if not q:
            return NCPoly.zero(self.algebra, self.nvars)
        return NCPoly(self.algebra, self.nvars,
                      {k: q * c for k, c in self.terms.items()}, _trusted=True)

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
        return (self.algebra == other.algebra and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(v) for v, _ in self.terms), default=0)

    def degree_in(self, variables: Iterable[int]) -> int:
        vs = set(variables)
        return max(
            (sum(1 for x in v if x in vs) for v, _ in self.terms), default=0
        )

    def min_degree_in(self, variables: Iterable[int]) -> int:
        vs = set(variables)
        return min(
            (sum(1 for x in v if x in vs) for v, _ in self.terms), default=0
        )

    def constant_term(self) -> Element:
        return self.evaluate([self.algebra.zero] * self.nvars)

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, values: Sequence[Element]) -> Element:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        coeffs, den = _int_terms(self.terms)
        return _evaluate(self.algebra, coeffs.items(), den, values.__getitem__)

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
        tden = alg._den
        operands = {}

        def first(b):
            return {((), (b,)): 1}, 1

        def times_var(val, v):
            r = operands.get(v)
            if r is None:
                r = operands[v] = _int_terms(replacements[v].terms)
            return _dict_mul(alg, val[0], r[0]), val[1] * r[1] * tden

        def times_basis(val, b):
            return _dict_mul(alg, val[0], {((), (b,)): 1}), val[1] * tden

        coeffs, coeff_den = _int_terms(self.terms)
        parts = _prefix_values(coeffs.items(), first, times_var, times_basis)
        den = lcm(*[d for _, (_, d) in parts])
        out = {}
        get = out.get
        for c, (terms, d) in parts:
            f = c * (den // d)
            for key, s in terms.items():
                out[key] = get(key, 0) + f * s
        return NCPoly(alg, nv, _fractions(out, den * coeff_den), _trusted=True)

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
    coeffs, den = _int_terms(f.terms)
    return _evaluate(f.algebra, _shifted_terms(coeffs, n, len(sources) - 1), den,
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
    return NCPoly(f.algebra, 2 * f.nvars, dict(_shifted_terms(f.terms, f.nvars, 1)))
