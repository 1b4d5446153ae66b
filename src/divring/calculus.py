"""Polynomial coordinate changes, connections and covariant derivatives.

Everything is restricted to polynomial charts so that directional
derivatives are exact positional sums; no numerical differentiation
appears anywhere.  Linear charts are inverted automatically over the ring;
nonlinear charts need a user-supplied polynomial inverse, verified by one
substitution: inverse after forward must be the identity map.

Sign conventions.  The source texts carry two incompatible signs relating
a connection to parallel transport: under the "8.2" convention a field is
parallel when Gamma(v)(a) + dv(a) = 0 and that is the convention under
which the chart-induced coefficients make constant flat fields parallel
and straight flat lines geodesic; under the "9.1" convention the defining
equations read dv(a) = Gamma(v)(a) and D(v)(a) = dv(a) - Gamma(v)(a).
Residual operations default to "8.2" and the covariant derivative to the
literal "9.1" formula; every operation accepts sign="8.2"|"9.1" to flip.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product
from typing import Callable, Optional, Sequence

from . import ratlin
from .algebra import Algebra, Element, _times, mul  # noqa: F401 (a benchmark tracer rebinds mul)
from .errors import DimensionMismatch, NoInverseChart
from .ncpoly import NCPoly, _poly, gateaux, gateaux2, gateaux_poly

_SIGNS = ("8.2", "9.1")


def _check_sign(sign: str):
    if sign not in _SIGNS:
        raise ValueError(f"sign convention must be one of {_SIGNS}")


def _check_length(n: int, *vectors: Sequence):
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch("vector length does not match the chart")


class Chart:
    """A polynomial coordinate transformation x' = g(x) on D^n.

    `components` map old coordinates to new ones; `inverse` maps back.  A
    supplied inverse h must pass one check, h after g is the identity map
    (`_is_identity`); affine charts are inverted exactly when none is given.

    One side is enough.  On rational coordinates g and h are polynomial
    self-maps of Q^N, N = n dim D, and h(g(x)) = x is a polynomial identity,
    so it holds on C^N, where it makes g injective.  An injective polynomial
    self-map of C^N is bijective (Ax 1968; Bass, Connell and Wright, Bull.
    AMS 1982): every y is some g(x), and g(h(y)) = g(h(g(x))) = g(x) = y.
    """

    __slots__ = ("algebra", "n", "components", "inverse")

    def __init__(self, components: Sequence[NCPoly],
                 inverse: Optional[Sequence[NCPoly]] = None):
        components = tuple(components)
        if not components:
            raise ValueError("chart needs at least one component")
        alg, n = components[0].algebra, len(components)
        if any(c.algebra != alg or c.nvars != n for c in components):
            raise ValueError("components must share the ring and arity")
        self.algebra, self.n, self.components = alg, n, components
        if inverse is not None:
            inverse = tuple(inverse)
            if len(inverse) != n or any(c.algebra != alg or c.nvars != n for c in inverse):
                raise NoInverseChart("inverse has wrong shape")
            if not _is_identity(tuple(c.substitute(components) for c in inverse)):
                raise NoInverseChart("inverse after chart is not the identity map")
        elif all(c.degree() <= 1 for c in components):
            inverse = _invert_affine_components(components)
        self.inverse = inverse

    def require_inverse(self) -> tuple:
        if self.inverse is None:
            raise NoInverseChart("chart has no polynomial inverse")
        return self.inverse

    def forward(self, x: Sequence[Element]) -> tuple:
        return tuple(c.evaluate(list(x)) for c in self.components)

    def backward(self, xp: Sequence[Element]) -> tuple:
        return tuple(c.evaluate(list(xp)) for c in self.require_inverse())


@lru_cache(maxsize=256)
def _triples(alg: Algebra) -> tuple:
    """Entry (p m + s) m + q: the pairs (r, c) of the nonzero coordinates
    c / alg._den ** 2 of e_p e_s e_q, two compiled products, once per
    algebra (bounded, as `_product_factory` is)."""
    m, times, e = alg.dim, _times(alg), [x._num for x in alg.basis()]
    return tuple(tuple((r, c) for r, c in enumerate(times(times(e[p], e[s]), e[q])) if c)
                 for p, s, q in product(range(m), repeat=3))


def _affine_parts(polys: Sequence[NCPoly]) -> tuple:
    """(big, tn, dens) of an affine tuple y_j = L_j(x) + t_j, read from
    the integer terms: row i of the rational Jacobian B on the ring
    coordinates is big[i] / dens[i], coordinate i of the shift t is
    tn[i] / dens[i].  A term c e_p x_v e_q adds c (e_p e_s e_q)_r to
    B[j m + r][v m + s], a constant c e_b adds c to t_j's coordinate b."""
    alg = polys[0].algebra
    n, m, triples, t2 = len(polys), alg.dim, _triples(alg), alg._den ** 2
    big = [[0] * (n * m) for _ in range(n * m)]
    tn = [0] * (n * m)
    for j, poly in enumerate(polys):
        for (vars_, bs), c in poly._num.items():
            if not vars_:
                tn[j * m + bs[0]] += c * t2
                continue
            for s in range(m):
                for r, a in triples[(bs[0] * m + s) * m + bs[1]]:
                    big[j * m + r][vars_[0] * m + s] += c * a
    return big, tn, [poly._den * t2 for poly in polys for _ in range(m)]


def _is_identity(polys: tuple) -> bool:
    """Whether n polynomials in n variables are the identity map of D^n.

    d_v = polys[v] - x_v is read as a commutative polynomial map on the
    rational coordinates x_{u,s} of x_u = sum_s x_{u,s} e_s: a term
    c e_b0 x_v1 e_b1 ... x_vk e_bk adds, for each choice s_1 .. s_k, c times
    coordinate r of e_b0 e_s1 e_b1 ... e_bk to the coefficient of
    x_{v1,s1} ... x_{vk,sk} in coordinate r, over d_v's denominator times
    alg._den ** (2k).  Q is infinite, so the map is zero exactly when every
    coefficient is.  Each round takes one factor e_s e_b and sums partial
    products alike in their term's rest and their choices.  Cost: at most
    m^k `_triples` walks per degree-k term, m = dim D; they beat `_times`."""
    alg, n = polys[0].algebra, len(polys)
    m, triples = alg.dim, _triples(alg)
    for v, poly in enumerate(polys):
        states = {}  # (rest of the term, sorted choices) -> partial product
        for (vars_, bs), c in (poly - NCPoly.var(alg, n, v))._num.items():
            states.setdefault((tuple(zip(vars_, bs[1:])), ()), [0] * m)[bs[0]] += c
        while states:
            done, states = states, {}
            for (rest, picks), vec in done.items():
                if not any(vec):
                    continue
                if not rest:  # a whole monomial with a nonzero coefficient
                    return False
                (u, b), rest = rest[0], rest[1:]
                for s in range(m):
                    out = states.setdefault((rest, tuple(sorted(picks + ((u, s),)))), [0] * m)
                    for i, x in enumerate(vec):
                        if x:
                            for r, c in triples[(i * m + s) * m + b]:
                                out[r] += x * c
    return True


@lru_cache(maxsize=256)
def _sandwich_elimination(alg: Algebra) -> tuple:
    """`ratlin._row_operations` (ops, pivots, d) of the sandwich system S,
    once per algebra.  Row (r, t), column (p, q) of S is coordinate r of
    e_p e_t e_q; solving it writes a rational-linear map of the ring, an
    inverse Jacobian block, as sum_pq c_pq e_p x e_q.  S is `_triples` over
    alg._den ** 2, a factor folded into ops, so ops S / d is reduced."""
    m, triples = alg.dim, _triples(alg)
    s = [[0] * (m * m) for _ in range(m * m)]
    for p, t, q in product(range(m), repeat=3):
        for r, c in triples[(p * m + t) * m + q]:
            s[r * m + t][p * m + q] += c
    ops, pivots, d = ratlin._row_operations(s)
    return [[alg._den ** 2 * x for x in row] for row in ops], pivots, d


def _sandwich_solve(alg: Algebra, columns: Sequence[Sequence[int]]) -> Optional[list]:
    """`ratlin.solve(S, X)` for the sandwich system S and the integer
    right-hand sides `columns` of X, as one integer matrix product: per
    column, {column of S: numerator} with the solution numerators over
    `_sandwich_elimination(alg)[2]` at the pivot columns and zero at the
    free ones, or None when a column is inconsistent.  S may be singular
    (it is over the complex numbers)."""
    ops, pivots, _ = _sandwich_elimination(alg)
    out = []
    for col in columns:
        y = [sum(map(operator.mul, row, col)) for row in ops]
        if any(y[len(pivots):]):
            return None
        out.append(dict(zip(pivots, y)))
    return out


def _invert_affine_components(components: Sequence[NCPoly]) -> Optional[tuple]:
    """The inverse of an affine polynomial tuple y_j = L_j(x) + t_j, or None.

    B (`_affine_parts`) is inverted by one integer elimination and each
    block of the inverse is put in sandwich form; failure leaves the chart
    without an inverse.  The result is exact, so it is never checked.  At
    full rank the rows E of `ratlin._row_operations` satisfy E big = dbig I,
    so B^-1 = E diag(dens) / dbig; `_sandwich_solve` solves S c = rhs on
    integers for the n^2 blocks at once or returns None, so sum_pq c_pq
    e_p h e_q is block (v, j) of B^-1; the constant is -(B^-1 t)_v.  So
    x = B^-1 (y - t), the inverse.
    """
    alg = components[0].algebra
    n, m = len(components), alg.dim
    big, tn, dens = _affine_parts(components)
    binv, pivots, dbig = ratlin._row_operations(big)  # B^-1 = binv diag(dens) / dbig
    if len(pivots) < n * m:
        return None
    ds = _sandwich_elimination(alg)[2]
    # column v n + j: block (v, j) of binv read row by row, the right-hand
    # side whose solution puts that block in sandwich form
    sols = _sandwich_solve(alg, [[binv[v * m + r][j * m + s] for r in range(m) for s in range(m)]
                                 for v in range(n) for j in range(n)])
    if sols is None:
        return None
    # every term over |dbig * ds|: block j's sandwich coefficients are
    # dens[j m] times integers over dbig * ds, the constant -(B^-1 t) is
    # -(binv tn) / dbig as the dens cancel, and both pivots may be negative
    den = abs(dbig * ds)
    fs, ft = den // (dbig * ds), den // dbig
    out = []
    for v in range(n):
        num = {}
        for j in range(n):
            f = fs * dens[j * m]
            num.update({((j,), divmod(pq, m)): c * f for pq, c in sols[v * n + j].items() if c})
        for r in range(m):
            c = -sum(x * y for x, y in zip(binv[v * m + r], tn))
            if c:
                num[((), (r,))] = c * ft
        out.append(_poly(alg, n, num, den))
    return tuple(out)


# ---------------------------------------------------------------------------
# vector and 1-form transport


def pushforward_vector(chart: Chart, xp: Sequence[Element],
                       vp: Sequence[Element]) -> tuple:
    """Old-coordinate components of a vector given in new coordinates:
    v^j = d(inverse^j) at x' in direction v'."""
    inverse = chart.require_inverse()
    _check_length(chart.n, xp, vp)
    return tuple(gateaux(c, list(xp), list(vp)) for c in inverse)


def pushforward_oneform(chart: Chart, x: Sequence[Element]) -> tuple:
    """The n x n family of linear maps dx'^i/dx^j at x.

    Entry (i, j) is a one-variable polynomial in the increment h: the
    derivative of forward component i at x in the direction that puts h in
    slot j and zero elsewhere.
    """
    _check_length(chart.n, x)
    return tuple(tuple(_directional_poly(comp, list(x), j) for j in range(chart.n))
                 for comp in chart.components)


def _directional_poly(f: NCPoly, x: Sequence[Element], slot: int) -> NCPoly:
    """d f at the point x, in the direction with a formal h in one slot,
    as a polynomial in the single variable h."""
    alg, n = f.algebra, f.nvars
    h, zero = NCPoly.var(alg, 1, 0), NCPoly.zero(alg, 1)
    point = [NCPoly.const(alg, 1, x[i]) for i in range(n)]
    direction = [h if j == slot else zero for j in range(n)]
    return gateaux_poly(f).substitute(point + direction)


def apply_oneform(matrix, increments: Sequence[Element]) -> tuple:
    """Apply a pushforward_oneform family to an increment vector."""
    _check_length(len(matrix), increments)
    return tuple(
        sum(
            (row[j].evaluate([increments[j]]) for j in range(len(row))),
            row[0].algebra.zero,
        )
        for row in matrix
    )


# ---------------------------------------------------------------------------
# connections


class ConnectionCoefficients:
    """Bilinear connection coefficients at each point of a chart.

    Internally a callable (point, v, a) -> vector plus enough structure to
    report per-index coefficients.  Chart-induced coefficients follow the
    flat-source transformation rule

        Gamma'^p(v')(a') = d(forward^p) at x applied to w,
        w^r = d2(inverse^r) at x' in directions (v', a'),

    which vanishes identically for affine charts.
    """

    __slots__ = ("algebra", "n", "_apply")

    def __init__(self, algebra: Algebra, n: int, apply_fn: Callable):
        self.algebra = algebra
        self.n = n
        self._apply = apply_fn

    @staticmethod
    def zero(algebra: Algebra, n: int) -> "ConnectionCoefficients":
        z = tuple(algebra.zero for _ in range(n))
        return ConnectionCoefficients(algebra, n, lambda xp, v, a: z)

    @staticmethod
    def from_component_polys(algebra: Algebra, n: int,
                             polys) -> "ConnectionCoefficients":
        """polys[k][j][i] is a two-variable polynomial (slot 0 takes v^i,
        slot 1 takes a^j) or None for a zero coefficient."""

        def apply_fn(xp, v, a):
            return tuple(sum((polys[k][j][i].evaluate([v[i], a[j]])
                              for j in range(n) for i in range(n)
                              if polys[k][j][i] is not None), algebra.zero)
                         for k in range(n))

        return ConnectionCoefficients(algebra, n, apply_fn)

    def apply(self, xp: Sequence[Element], v: Sequence[Element],
              a: Sequence[Element]) -> tuple:
        _check_length(self.n, xp, v, a)
        return self._apply(tuple(xp), tuple(v), tuple(a))

    def coefficient(self, xp: Sequence[Element], k: int, j: int, i: int,
                    u: Element, w: Element) -> Element:
        """Gamma^k_{ji}(u)(w) at xp: u rides slot i, w rides slot j."""
        zero = self.algebra.zero
        v = tuple(u if t == i else zero for t in range(self.n))
        a = tuple(w if t == j else zero for t in range(self.n))
        return self.apply(xp, v, a)[k]


def chart_connection(chart: Chart) -> ConnectionCoefficients:
    """The coefficients the chart induces from the flat source."""
    inverse = chart.require_inverse()

    def apply_fn(xp, v, a):
        xp = list(xp)
        w = [gateaux2(c, xp, list(v), list(a)) for c in inverse]
        x = [c.evaluate(xp) for c in inverse]
        return tuple(gateaux(c, x, w) for c in chart.components)

    return ConnectionCoefficients(chart.algebra, chart.n, apply_fn)


# ---------------------------------------------------------------------------
# transported fields, parallel and geodesic residuals


def express_constant_field(chart: Chart, w: Sequence[Element]) -> tuple:
    """Component polynomials, in new coordinates, of the field that is
    constantly w in the old coordinates: v'^p(x') = d(forward^p) at
    x(x') in direction w."""
    alg = chart.algebra
    inverse = chart.require_inverse()
    _check_length(chart.n, w)
    direction = [NCPoly.const(alg, chart.n, w[j]) for j in range(chart.n)]
    return tuple(
        gateaux_poly(comp).substitute(list(inverse) + direction)
        for comp in chart.components
    )


def parallel_residual(gamma: ConnectionCoefficients, field: Sequence[NCPoly],
                      xp: Sequence[Element], a: Sequence[Element],
                      sign: str = "8.2") -> tuple:
    """Defect of the parallel-transport equation at one point/direction."""
    _check_sign(sign)
    _check_length(gamma.n, field, xp, a)
    v = [f.evaluate(list(xp)) for f in field]
    gv = gamma.apply(xp, v, a)
    dv = [gateaux(f, list(xp), list(a)) for f in field]
    if sign == "8.2":
        return tuple(g + d for g, d in zip(gv, dv))
    return tuple(d - g for d, g in zip(dv, gv))


def covariant_derivative(gamma: ConnectionCoefficients, field: Sequence[NCPoly],
                         xp: Sequence[Element], a: Sequence[Element],
                         sign: str = "9.1") -> tuple:
    """dv(a) -/+ Gamma(v)(a), the parallel residual; the default is the
    literal derivative-minus-connection form, the "8.2" flag flips the
    connection sign."""
    return parallel_residual(gamma, field, xp, a, sign)


def geodesic_residual(gamma: ConnectionCoefficients, path: Sequence[NCPoly],
                      t0: Element, dt: Element, sign: str = "8.2") -> tuple:
    """Defect of the geodesic equation for a one-parameter polynomial path."""
    _check_sign(sign)
    if any(p.nvars != 1 for p in path):
        raise ValueError("path components must be one-variable polynomials")
    _check_length(gamma.n, path)
    point = tuple(p.evaluate([t0]) for p in path)
    tangent = tuple(gateaux(p, [t0], [dt]) for p in path)
    second = tuple(gateaux2(p, [t0], [dt], [dt]) for p in path)
    gv = gamma.apply(point, tangent, tangent)
    if sign == "8.2":
        return tuple(s + g for s, g in zip(second, gv))
    return tuple(s - g for s, g in zip(second, gv))
