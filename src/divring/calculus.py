"""Polynomial coordinate changes, connections and covariant derivatives.

Everything is restricted to polynomial charts so that directional
derivatives are exact positional sums; no numerical differentiation
appears anywhere.  Linear charts are inverted automatically over the ring;
nonlinear charts need a user-supplied polynomial inverse.

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

from functools import lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from . import ratlin
from .algebra import Algebra, Element, mul
from .errors import NoInverseChart
from .ncpoly import NCPoly, _poly, gateaux, gateaux2, gateaux_poly

_SIGNS = ("8.2", "9.1")


def _check_sign(sign: str):
    if sign not in _SIGNS:
        raise ValueError(f"sign convention must be one of {_SIGNS}")


class Chart:
    """A polynomial coordinate transformation x' = g(x) on D^n.

    `components` map old coordinates to new ones; `inverse`, when present,
    maps back and both compositions are verified to normalize to the
    identity tuple.  Charts whose components are affine in the variables
    are inverted automatically when no inverse is supplied.
    """

    __slots__ = ("algebra", "n", "components", "inverse")

    def __init__(self, components: Sequence[NCPoly],
                 inverse: Optional[Sequence[NCPoly]] = None):
        components = tuple(components)
        if not components:
            raise ValueError("chart needs at least one component")
        alg = components[0].algebra
        n = len(components)
        for c in components:
            if c.algebra != alg or c.nvars != n:
                raise ValueError("components must share the ring and arity")
        self.algebra = alg
        self.n = n
        self.components = components
        if inverse is None and all(
            c.degree() <= 1 for c in components
        ):
            inverse = _invert_affine_components(components)
        if inverse is not None:
            inverse = tuple(inverse)
            if len(inverse) != n or any(
                c.algebra != alg or c.nvars != n for c in inverse
            ):
                raise NoInverseChart("inverse has wrong shape")
            fwd_then_back = tuple(c.substitute(inverse) for c in self.components)
            back_then_fwd = tuple(c.substitute(self.components) for c in inverse)
            if not (_is_identity(fwd_then_back) and _is_identity(back_then_fwd)):
                raise NoInverseChart("compositions do not normalize to the identity")
        self.inverse = inverse

    def require_inverse(self) -> tuple:
        if self.inverse is None:
            raise NoInverseChart("chart has no polynomial inverse")
        return self.inverse

    def forward(self, x: Sequence[Element]) -> tuple:
        return tuple(c.evaluate(list(x)) for c in self.components)

    def backward(self, xp: Sequence[Element]) -> tuple:
        return tuple(c.evaluate(list(xp)) for c in self.require_inverse())


def _probes(alg: Algebra, n: int) -> list:
    """The point 0, then e_s in slot v for v < n and s < dim, in that order."""
    zero = [alg.zero] * n
    return [zero] + [zero[:v] + [e] + zero[v + 1:] for v in range(n) for e in alg.basis()]


def _is_identity(polys: tuple) -> bool:
    """Whether a composition is the identity map.  Equal canonical forms
    decide it; where one affine map has several forms (over the complex
    numbers e_0 x e_1 and e_1 x e_0 agree as maps), a composition of
    degree at most 1 is compared at `_probes`, which is exact."""
    alg, n = polys[0].algebra, len(polys)
    if polys == tuple(NCPoly.var(alg, n, v) for v in range(n)):
        return True
    return all(p.degree() <= 1 for p in polys) and all(
        [p.evaluate(x) for p in polys] == x for x in _probes(alg, n))


@lru_cache(maxsize=None)
def _sandwich_matrix(alg: Algebra):
    """Rows (r, s), columns (p, q): coordinate r of e_p e_s e_q.

    Solving this system expresses an arbitrary rational-linear map of the
    ring as sum_pq T[p][q] e_p h e_q, which is how inverse Jacobian blocks
    become polynomials again.  It is eliminated once per algebra, and that
    elimination is cached beside it (`_sandwich_solve`).
    """
    m = alg.dim
    basis = alg.basis()
    return [[mul(mul(basis[p], basis[s]), basis[q]).coords[r]
             for p in range(m) for q in range(m)]
            for r in range(m) for s in range(m)]


@lru_cache(maxsize=None)
def _sandwich_elimination(alg: Algebra) -> tuple:
    return ratlin._row_operations(_sandwich_matrix(alg))


def _sandwich_solve(alg: Algebra, rhs: Sequence[int]) -> Optional[tuple]:
    """`ratlin.solve(_sandwich_matrix(alg), rhs)` for an integer rhs, as
    one integer matrix-vector product: ({column: numerator}, d) with the
    solution numerators / d at the pivot columns and zero at the free
    ones, or None when inconsistent.  S may be singular (it is over the
    complex numbers)."""
    ops, pivots, d = _sandwich_elimination(alg)
    y = [sum(a * b for a, b in zip(row, rhs)) for row in ops]
    if any(y[len(pivots):]):
        return None
    return dict(zip(pivots, y)), d


def _invert_affine_components(components: Sequence[NCPoly]) -> Optional[tuple]:
    """Solve for the inverse of an affine polynomial tuple.

    The forward map is y_j = L_j(x) + t_j with L_j linear over the
    rationals in the ring coordinates of x.  The big rational Jacobian B
    is inverted by one integer elimination, each block of the inverse is
    re-expressed in sandwich form (`_sandwich_solve`), and the inverse
    polynomials are written as integer terms; failure at any step simply
    leaves the chart without an inverse.
    """
    alg = components[0].algebra
    n = len(components)
    m = alg.dim
    zero, *probes = _probes(alg, n)
    t = [c.evaluate(zero) for c in components]
    big = [[0] * (n * m) for _ in range(n * m)]
    for vs, probe in enumerate(probes):
        for j, c in enumerate(components):
            w = (c.evaluate(probe) - t[j]).coords
            for r in range(m):
                big[j * m + r][vs] = w[r]
    binv, pivots, dbig = ratlin._row_operations(big)  # B^-1 = binv / dbig
    if len(pivots) < n * m:
        return None
    tn, td = ratlin.over_common_denominator([x for tj in t for x in tj.coords])
    ds = _sandwich_elimination(alg)[2]
    # every term over |dbig| * lcm(ds, td): the sandwich coefficients are
    # over dbig * ds, the constant over dbig * td, and pivots may be negative
    den = abs(dbig) * lcm(ds, td)
    fs, ft = den // (dbig * ds), den // (dbig * td)
    out = []
    for v in range(n):
        # x_v = sum_j sum_pq c_pq e_p (y_j - t_j) e_q: the linear terms are
        # the c_pq, the constant is -(B^-1 t)_v
        num = {}
        for j in range(n):
            rhs = [binv[v * m + r][j * m + s] for r in range(m) for s in range(m)]
            sol = _sandwich_solve(alg, rhs)
            if sol is None:
                return None
            num.update({((j,), divmod(pq, m)): c * fs for pq, c in sol[0].items() if c})
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
    return tuple(gateaux(c, list(xp), list(vp)) for c in inverse)


def pushforward_oneform(chart: Chart, x: Sequence[Element]) -> tuple:
    """The n x n family of linear maps dx'^i/dx^j at x.

    Entry (i, j) is a one-variable polynomial in the increment h: the
    derivative of forward component i at x in the direction that puts h in
    slot j and zero elsewhere.
    """
    alg = chart.algebra
    n = chart.n
    rows = []
    for i in range(n):
        comp = chart.components[i]
        row = []
        for j in range(n):
            row.append(_directional_poly(comp, list(x), j))
        rows.append(tuple(row))
    return tuple(rows)


def _directional_poly(f: NCPoly, x: Sequence[Element], slot: int) -> NCPoly:
    """d f at the point x, in the direction with a formal h in one slot,
    as a polynomial in the single variable h."""
    alg = f.algebra
    n = f.nvars
    h = NCPoly.var(alg, 1, 0)
    zero = NCPoly.zero(alg, 1)
    point = [NCPoly.const(alg, 1, x[i]) for i in range(n)]
    direction = [h if j == slot else zero for j in range(n)]
    return gateaux_poly(f).substitute(point + direction)


def apply_oneform(matrix, increments: Sequence[Element]) -> tuple:
    """Apply a pushforward_oneform family to an increment vector."""
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

        def apply_fn(xp, v, a):
            return z

        return ConnectionCoefficients(algebra, n, apply_fn)

    @staticmethod
    def from_component_polys(algebra: Algebra, n: int,
                             polys) -> "ConnectionCoefficients":
        """polys[k][j][i] is a two-variable polynomial (slot 0 takes v^i,
        slot 1 takes a^j) or None for a zero coefficient."""

        def apply_fn(xp, v, a):
            out = []
            for k in range(n):
                acc = algebra.zero
                for j in range(n):
                    for i in range(n):
                        p = polys[k][j][i]
                        if p is not None:
                            acc = acc + p.evaluate([v[i], a[j]])
                out.append(acc)
            return tuple(out)

        return ConnectionCoefficients(algebra, n, apply_fn)

    def apply(self, xp: Sequence[Element], v: Sequence[Element],
              a: Sequence[Element]) -> tuple:
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
    point = tuple(p.evaluate([t0]) for p in path)
    tangent = tuple(gateaux(p, [t0], [dt]) for p in path)
    second = tuple(gateaux2(p, [t0], [dt], [dt]) for p in path)
    gv = gamma.apply(point, tangent, tangent)
    if sign == "8.2":
        return tuple(s + g for s, g in zip(second, gv))
    return tuple(s - g for s, g in zip(second, gv))
