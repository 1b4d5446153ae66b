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
integer tables, and reduces once, at the end.  Substitution, evaluation
and the two directional derivatives run one program (`_compile`),
compiled once per polynomial and derivative order and cached on the
immutable polynomial.  It groups each monomial as
(e_{b0} x_{v1}) (e_{b1} x_{v2}) ... (e_{b(m-1)} x_{vm}) e_{bm}: a call
multiplies each value by each basis constant before it once, forms each
product of a prefix of these factors once, shared by all monomials that
start with it, and multiplies each prefix by the sum of the closing
constants of the monomials that end there.  On Elements each of these is
one call of `algebra._times`, the only routine that multiplies two
coordinate vectors; term dicts join monomials through the table rows.
The k-th derivative is the program of the terms with k ordered distinct
variable positions moved to k direction slots (`_shifted_terms`), run on
the point and the k directions laid end to end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from . import ratlin
from .algebra import Algebra, Element, _reduced, _times, _unit_vectors, mul
from .errors import AlgebraMismatch

_ZERO = Fraction(0)
_UNCOMPILED = (None, None, None)  # no program yet for orders 0, 1, 2


def _dict_mul(alg: Algebra, t1: Mapping, t2: Mapping) -> dict:
    """Product of two integer term dicts; zeros are dropped.  It joins
    monomials, not coordinate vectors, so it reads the table rows.

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
    p.algebra, p.nvars, p._num, p._den, p._programs = alg, nvars, num, den, _UNCOMPILED
    return p


def _compile(items: Iterable, alg: Algebra) -> tuple:
    """The program (pairs, steps, tails, consts) of a term list over `alg`.

    `items` yields ((vars, basis), coefficient) pairs.  A monomial
    e_{b0} x_{v1} e_{b1} ... x_{vm} e_{bm} is read as the factors
    w = e_b x_v of its pairs (b0, v1) .. (b(m-1), vm), closed by e_{bm}.
    `pairs` lists the distinct pairs as (b, slot, e_b), e_b an Element;
    pair p is node ~p, counted from the end of the node list.  The other
    nodes are the longer prefixes: step i, (parent, q), makes node i as
    node `parent` times node q, in the order first met, so each node is
    made before it is used.  `tails` holds (node, t) per node that ends
    monomials, t the integer vector sum of c e_{bm} over them; `consts`
    is that vector over the monomials without a variable.
    """
    dim, tails = alg.dim, {}
    for (vars_, bs), c in items:
        key = vars_, bs[:-1]
        t = tails.get(key)
        if t is None:
            t = tails[key] = [0] * dim
        t[bs[-1]] += c
    consts = tails.pop(((), ()), [0] * dim)
    pairs, steps, kids, ends = {}, [], {}, []
    setdefault = pairs.setdefault
    for (vars_, head), t in tails.items():
        node = setdefault((head[0], vars_[0]), ~len(pairs))
        for i in range(1, len(vars_)):
            key = node, setdefault((head[i], vars_[i]), ~len(pairs))
            node = kids.get(key)
            if node is None:
                node = kids[key] = len(steps)
                steps.append(key)
        ends.append((node, tuple(t)))
    return tuple((b, s, alg.basis_element(b)) for b, s in pairs), steps, ends, tuple(consts)


def _program(f: "NCPoly", k: int) -> tuple:
    """The program of f's k-th positional derivative (k = 0: f itself),
    compiled on first use and kept on f."""
    prog = f._programs[k]
    if prog is None:
        items = _shifted_terms(f._num, f.nvars, k) if k else f._num.items()
        prog = _compile(items, f.algebra)
        f._programs = f._programs[:k] + (prog,) + f._programs[k + 1:]
    return prog


def _evaluate(f: "NCPoly", k: int, values: Sequence[Element]) -> Element:
    """Run f's order-k program on Elements; slot s reads values[s].

    Each pair's w = e_b values[s] is the program's one `mul`, read from the
    module on each call, so a rebound `ncpoly.mul` sees them all; it raises
    AlgebraMismatch for a value of another algebra in a slot that a monomial
    uses.  Steps and tails are unreduced compiled products, and the sum is
    reduced once."""
    pairs, steps, tails, consts = _program(f, k)
    alg = f.algebra
    tden, times = alg._den, _times(alg)
    nodes = [None] * (len(steps) + len(pairs))
    for p, (_, s, e) in enumerate(pairs):
        w = mul(e, values[s])
        nodes[~p] = w._num, w._den
    for i, (parent, q) in enumerate(steps):
        (x, dx), (y, dy) = nodes[parent], nodes[q]
        nodes[i] = times(x, y), dx * dy * tden
    ends = [(times(nodes[node][0], t), nodes[node][1]) for node, t in tails]
    den = lcm(*[d for _, d in ends])
    acc = [c * den * tden for c in consts]
    for num, d in ends:
        g = den // d
        acc = [a + g * x for a, x in zip(acc, num)]
    return _reduced(alg, acc, den * tden * f._den)


class NCPoly:
    """Immutable noncommutative polynomial in canonical basis form.

    Stored as integer numerators `_num` (monomial key -> nonzero int) over
    one positive denominator `_den`, with gcd(`_den`, numerators) = 1, so
    the zero polynomial has `_den` 1.  `terms` builds the lowest-terms
    Fraction dict on each read; it is not cached, and changing it leaves
    the polynomial as it is.  `_programs` caches the programs
    (`_compile`) of derivative orders 0, 1 and 2, each built on first use
    by `_program`; `evaluate`, `gateaux`, `gateaux2` and `substitute` run
    them.
    """

    __slots__ = ("algebra", "nvars", "_num", "_den", "_programs")

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
            if any(not 0 <= b < algebra.dim for b in basis):
                raise ValueError("basis index out of range")
            key = (tuple(vars_), tuple(basis))
            clean[key] = clean.get(key, _ZERO) + coeff
        # zeros are numerator 0 over 1, so dropping them keeps lowest terms
        nums, self._den = ratlin.over_common_denominator(clean.values())
        self._num = {k: c for k, c in zip(clean, nums) if c}
        self.algebra, self.nvars, self._programs = algebra, nvars, _UNCOMPILED

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
        if value.algebra is not algebra and value.algebra != algebra:
            raise AlgebraMismatch("constant lives in another algebra")
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
        return _evaluate(self, 0, values)

    def substitute(self, replacements: Sequence["NCPoly"]) -> "NCPoly":
        """Plug a polynomial into every variable slot; replacements live in
        this polynomial's algebra, share one variable count and give it to
        the result.

        Runs the program of `evaluate` on (term dict, denominator) values:
        each pair's w = e_b r_v and each step is one `_dict_mul`.  A node's
        monomials, whose last constant is e_a, are joined to its tail t in
        one pass over the nonzero entries of e_a t, into one output dict."""
        if len(replacements) != self.nvars:
            raise ValueError("wrong number of replacements")
        alg = self.algebra
        nv = replacements[0].nvars if replacements else 0
        for r in replacements:
            if r.algebra is not alg and r.algebra != alg:
                raise AlgebraMismatch("replacement lives in another algebra")
            if r.nvars != nv:
                raise ValueError("replacements differ in their number of variables")
        pairs, steps, tails, consts = _program(self, 0)
        tden, times, e_b = alg._den, _times(alg), _unit_vectors(alg.dim)
        nodes = [None] * (len(steps) + len(pairs))
        for p, (b, v, _) in enumerate(pairs):
            r = replacements[v]
            nodes[~p] = _dict_mul(alg, {((), (b,)): 1}, r._num), r._den * tden
        for i, (parent, q) in enumerate(steps):
            (x, dx), (y, dy) = nodes[parent], nodes[q]
            nodes[i] = _dict_mul(alg, x, y), dx * dy * tden
        den = lcm(*[nodes[node][1] for node, _ in tails])
        out = {((), (b,)): c * den * tden for b, c in enumerate(consts) if c}
        get = out.get
        for node, t in tails:
            terms, d = nodes[node]
            g, rows = den // d, {}
            for (vars_, bs), s in terms.items():
                a = bs[-1]
                row = rows.get(a)
                if row is None:
                    row = rows[a] = [(k, g * x) for k, x in enumerate(times(e_b[a], t)) if x]
                head = bs[:-1]
                for k, x in row:
                    key = (vars_, head + (k,))
                    out[key] = get(key, 0) + s * x
        return _poly(alg, nv, {key: s for key, s in out.items() if s}, den * tden * self._den)

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
    j * n + v of the shifted terms reads sources[j][v], the sources laid
    end to end in one list."""
    n = f.nvars
    if any(len(s) != n for s in sources):
        raise ValueError("wrong number of values")
    return _evaluate(f, len(sources) - 1, [x for s in sources for x in s])


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
