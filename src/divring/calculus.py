"""Polynomial coordinate changes, connections and covariant derivatives.

Everything is restricted to polynomial charts so that directional
derivatives are exact positional sums; no numerical differentiation
appears anywhere.  Linear charts are inverted automatically over the ring;
nonlinear charts need a user-supplied polynomial inverse.  An inverse is
verified on integer Jacobians when both sides are affine, else by substitution.

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
from itertools import product
from math import lcm
from typing import Callable, Optional, Sequence

from . import ratlin
from .algebra import Algebra, Element, mul  # noqa: F401 (the benchmark's tracer rebinds it)
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

    `components` map old coordinates to new ones; `inverse`, when present,
    maps back and is verified to invert them: on the Jacobians and shifts
    read off the integer terms when both sides are affine, else by
    substituting each side into the other.  Affine charts are inverted
    automatically, from those Jacobians, when no inverse is supplied.

    An affine pair, forward x -> Bx + t and inverse y -> B'y + t', is
    decided by the one check that inverse after forward is the identity:
    B'B = I and B't + t' = 0.  That check implies the other order.  B and
    B' are square rational matrices, so B'B = I gives BB' = I; and
    t' = -B't, so forward after inverse is y -> BB'y + Bt' + t
    = y - BB't + t = y.
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
        parts = _affine_parts(components) if all(c.degree() <= 1 for c in components) else None
        if inverse is None and parts is not None:
            inverse = _invert_affine_components(components, parts)
        if inverse is not None:
            inverse = tuple(inverse)
            if len(inverse) != n or any(c.algebra != alg or c.nvars != n for c in inverse):
                raise NoInverseChart("inverse has wrong shape")
            if parts is not None and all(c.degree() <= 1 for c in inverse):
                inverts = _composes_to_identity(_affine_parts(inverse), parts)
            else:
                inverts = _is_identity(tuple(c.substitute(inverse) for c in components)) \
                    and _is_identity(tuple(c.substitute(components) for c in inverse))
            if not inverts:
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


def _affine_parts(polys: Sequence[NCPoly]) -> tuple:
    """(big, tn, dens) of an affine tuple y_j = L_j(x) + t_j, read from
    the integer terms: row i of the rational Jacobian B on the ring
    coordinates is big[i] / dens[i], coordinate i of the shift t is
    tn[i] / dens[i].  A term c e_p x_v e_q adds c (e_p e_s e_q)_r to
    B[j m + r][v m + s], two walks of the table rows; a constant c e_b
    adds c to coordinate b of t_j."""
    alg = polys[0].algebra
    n, m, rows, t2 = len(polys), alg.dim, alg._rows, alg._den ** 2
    big = [[0] * (n * m) for _ in range(n * m)]
    tn = [0] * (n * m)
    for j, poly in enumerate(polys):
        for (vars_, bs), c in poly._num.items():
            if not vars_:
                tn[j * m + bs[0]] += c * t2
                continue
            p, q = bs
            col = vars_[0] * m
            for s in range(m):
                for k, a in rows[p * m + s]:
                    for r, b in rows[k * m + q]:
                        big[j * m + r][col + s] += c * a * b
    return big, tn, [poly._den * t2 for poly in polys for _ in range(m)]


def _composes_to_identity(outer: tuple, inner: tuple) -> bool:
    """Whether outer after inner is the identity, for affine tuples with
    `_affine_parts` (B', t') and (B, t): B'B = I and B't + t' = 0, compared
    on integers with B and t over the lcm f of their row denominators."""
    f = lcm(*inner[2])
    scale = [f // d for d in inner[2]]
    cols = [*zip(*inner[0]), inner[1]]  # the columns of [B | t]
    for i, (row, t, d) in enumerate(zip(*outer)):
        w = [a * s for a, s in zip(row, scale)]
        want = [d * f * (i == j) for j in range(len(row))] + [-t * f]
        if [sum(a * b for a, b in zip(w, col)) for col in cols] != want:
            return False
    return True


def _is_identity(polys: tuple) -> bool:
    """Whether a composition is the identity map.  Equal canonical forms
    decide it; where one affine map has several forms (over the complex
    numbers e_0 x e_1 and e_1 x e_0 agree as maps), a composition of
    degree at most 1 is compared with the identity map on its Jacobian and
    shift (`_composes_to_identity` after the identity tuple), which is exact."""
    identity = tuple(NCPoly.var(polys[0].algebra, len(polys), v) for v in range(len(polys)))
    if polys == identity:
        return True
    return all(p.degree() <= 1 for p in polys) \
        and _composes_to_identity(_affine_parts(polys), _affine_parts(identity))


@lru_cache(maxsize=None)
def _sandwich_elimination(alg: Algebra) -> tuple:
    """`ratlin._row_operations` (ops, pivots, d) of the sandwich system S,
    once per algebra.  Row (r, t), column (p, q) of S is coordinate r of
    e_p e_t e_q; solving it writes a rational-linear map of the ring as
    sum_pq c_pq e_p x e_q, which is how inverse Jacobian blocks become
    polynomials again.  S is read from the table rows over alg._den ** 2,
    a factor folded into ops, so ops S / d is the reduced form of S."""
    m, rows = alg.dim, alg._rows
    s = [[0] * (m * m) for _ in range(m * m)]
    for p, t, q in product(range(m), repeat=3):
        for k, a in rows[p * m + t]:
            for r, b in rows[k * m + q]:
                s[r * m + t][p * m + q] += a * b
    ops, pivots, d = ratlin._row_operations(s)
    return [[alg._den ** 2 * x for x in row] for row in ops], pivots, d


def _sandwich_solve(alg: Algebra, rhs: Sequence[int]) -> Optional[tuple]:
    """`ratlin.solve(S, rhs)` for the sandwich system S and an integer rhs,
    as one integer matrix-vector product: ({column: numerator}, d) with
    the solution numerators / d at the pivot columns and zero at the free
    ones, or None when inconsistent.  S may be singular (it is over the
    complex numbers)."""
    ops, pivots, d = _sandwich_elimination(alg)
    y = [sum(a * b for a, b in zip(row, rhs)) for row in ops]
    if any(y[len(pivots):]):
        return None
    return dict(zip(pivots, y)), d


def _invert_affine_components(components: Sequence[NCPoly], parts: tuple) -> Optional[tuple]:
    """Solve for the inverse of an affine polynomial tuple.

    The forward map is y_j = L_j(x) + t_j with L_j linear over the
    rationals in the ring coordinates of x; `parts` are the big rational
    Jacobian B and the shift t read from its terms (`_affine_parts`).
    B is inverted by one integer elimination, each block of the inverse is
    re-expressed in sandwich form (`_sandwich_solve`), and the inverse
    polynomials are written as integer terms; failure at any step simply
    leaves the chart without an inverse.
    """
    alg = components[0].algebra
    n, m = len(components), alg.dim
    big, tn, dens = parts
    binv, pivots, dbig = ratlin._row_operations(big)  # B^-1 = binv diag(dens) / dbig
    if len(pivots) < n * m:
        return None
    ds = _sandwich_elimination(alg)[2]
    # every term over |dbig * ds|: block j's sandwich coefficients are
    # dens[j m] times integers over dbig * ds, the constant -(B^-1 t) is
    # -(binv tn) / dbig as the dens cancel, and both pivots may be negative
    den = abs(dbig * ds)
    fs, ft = den // (dbig * ds), den // dbig
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
            f = fs * dens[j * m]
            num.update({((j,), divmod(pq, m)): c * f for pq, c in sol[0].items() if c})
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
