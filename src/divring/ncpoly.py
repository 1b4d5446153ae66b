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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import Algebra, Element, mul

_ZERO = Fraction(0)

TermKey = tuple  # (vars: tuple[int, ...], basis: tuple[int, ...])


def _dict_mul(alg: Algebra, t1: Mapping, t2: Mapping) -> dict:
    """Product of two canonical term dicts; zeros are dropped."""
    out = {}
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
                s = out.get(key, _ZERO) + f * c
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    # the integer rows carry the table's common denominator
    if alg._den != 1:
        out = {key: s / alg._den for key, s in out.items()}
    return out


def _dict_add_scaled(target: dict, source: Mapping, factor) -> None:
    for key, c in source.items():
        s = target.get(key, _ZERO) + factor * c
        if s:
            target[key] = s
        elif key in target:
            del target[key]


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
        return NCPoly(algebra, nvars, terms)

    @staticmethod
    def scalar_const(algebra: Algebra, nvars: int, q) -> "NCPoly":
        return NCPoly.const(algebra, nvars, algebra.scalar(q))

    @staticmethod
    def var(algebra: Algebra, nvars: int, v: int) -> "NCPoly":
        u = algebra.unit_coords
        terms = {}
        for s, us in enumerate(u):
            if not us:
                continue
            for t, ut in enumerate(u):
                if ut:
                    terms[((v,), (s, t))] = us * ut
        return NCPoly(algebra, nvars, terms)

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
        out = _dict_mul(self.algebra, self.terms, other.terms)
        return NCPoly(self.algebra, self.nvars, out, _trusted=True)

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

    def _basis_elements(self):
        return self.algebra.basis()

    def evaluate(self, values: Sequence[Element]) -> Element:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        alg = self.algebra
        basis = self._basis_elements()
        acc = alg.zero
        for (vars_, bs), coeff in self.terms.items():
            cur = basis[bs[0]]
            for pos, v in enumerate(vars_):
                cur = mul(mul(cur, values[v]), basis[bs[pos + 1]])
            acc = acc + cur.scale(coeff)
        return acc

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
        basis_dicts = [
            {((), (s,)): c for s, c in enumerate(alg.basis_element(i).coords) if c}
            for i in range(alg.dim)
        ]
        out: dict = {}
        for (vars_, bs), coeff in self.terms.items():
            cur = basis_dicts[bs[0]]
            for pos, v in enumerate(vars_):
                cur = _dict_mul(alg, cur, replacements[v].terms)
                cur = _dict_mul(alg, cur, basis_dicts[bs[pos + 1]])
            _dict_add_scaled(out, cur, coeff)
        return NCPoly(alg, nv, out, _trusted=True)

    def __repr__(self):
        from .io import format_poly

        return f"NCPoly({format_poly(self)})"


# ---------------------------------------------------------------------------
# exact directional derivatives


def gateaux(f: NCPoly, x: Sequence[Element], a: Sequence[Element]) -> Element:
    """First directional derivative at x in direction a.

    For each monomial, sum over variable positions with that position's
    variable replaced by the matching component of a; exact for
    polynomials.
    """
    alg = f.algebra
    basis = alg.basis()
    acc = alg.zero
    for (vars_, bs), coeff in f.terms.items():
        m = len(vars_)
        if m == 0:
            continue
        # prefixes[p] = e_{b0} x .. x e_{bp}; suffixes[p] = x e_{bp+1} .. e_{bm}
        prefixes = [basis[bs[0]]]
        for pos in range(m - 1):
            prefixes.append(mul(mul(prefixes[-1], x[vars_[pos]]), basis[bs[pos + 1]]))
        suffixes = [basis[bs[m]]]
        for pos in range(m - 1, 0, -1):
            suffixes.append(mul(basis[bs[pos]], mul(x[vars_[pos]], suffixes[-1])))
        suffixes.reverse()
        for p in range(m):
            acc = acc + mul(mul(prefixes[p], a[vars_[p]]), suffixes[p]).scale(coeff)
    return acc


def gateaux2(f: NCPoly, x: Sequence[Element], v: Sequence[Element],
             a: Sequence[Element]) -> Element:
    """Second directional derivative: sum over ordered pairs of distinct
    variable positions carrying v and a.  Symmetric in (v, a)."""
    alg = f.algebra
    basis = alg.basis()
    acc = alg.zero
    for (vars_, bs), coeff in f.terms.items():
        m = len(vars_)
        for p in range(m):
            for q in range(m):
                if p == q:
                    continue
                cur = basis[bs[0]]
                for pos, var in enumerate(vars_):
                    if pos == p:
                        val = v[var]
                    elif pos == q:
                        val = a[var]
                    else:
                        val = x[var]
                    cur = mul(mul(cur, val), basis[bs[pos + 1]])
                acc = acc + cur.scale(coeff)
    return acc


def gateaux_poly(f: NCPoly) -> NCPoly:
    """Symbolic first derivative over doubled variables.

    The result lives in 2 * nvars variables: indices < nvars are the base
    point, index nvars + v is the direction component for variable v.
    """
    n = f.nvars
    terms = {}
    for (vars_, bs), coeff in f.terms.items():
        shifted = tuple(v for v in vars_)
        for p in range(len(vars_)):
            key_vars = tuple(
                (v + n) if pos == p else v for pos, v in enumerate(shifted)
            )
            key = (key_vars, bs)
            terms[key] = terms.get(key, _ZERO) + coeff
    return NCPoly(f.algebra, 2 * n, terms)
