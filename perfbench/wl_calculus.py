"""`calculus`: noncommutative polynomials, charts and connections.

`ncpoly` and `calculus` reach `algebra.mul` through many small products
over basis-expanded term dicts, so polynomial term-dict traffic dominates
here, not elimination.  A change to `ncpoly` shows only here; a change to
`algebra` shows here in a different proportion than on `ring`.
"""

from __future__ import annotations

from fractions import Fraction

import oracle as O
from common import require

# Every job of a kind has the same shape and only its values are drawn, so
# the cost of a kind hardly varies: the ncpoly jobs form the lower cluster
# that holds the median, the chart jobs the upper one that holds the 90th
# percentile.
PATTERN = ("ncpoly", "mixing_chart", "ncpoly", "ncpoly", "quadratic_chart", "ncpoly")
POOL_SIZE = 480
ROUND_TRIPS = 2
PUSHFORWARDS = 2
SYMMETRY_TRIPLES = 3
PARALLEL_POINTS = 2
GEODESICS = 1
POLY_POINTS = 1


def expected_outcomes(lib) -> tuple:
    return ()


_NONZERO = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def _dense(rng):
    """A quaternion whose four coordinates are all nonzero."""
    return tuple(Fraction(rng.choice(_NONZERO)) for _ in range(4))


def _pair(rng):
    return _dense(rng), _dense(rng)


def _scalar(rng):
    return (Fraction(rng.choice(_NONZERO), rng.randint(1, 3)),) + (Fraction(0),) * 3


def _sparse(rng):
    """A quaternion with exactly two nonzero coordinates; dense polynomial
    constants would multiply the term count of every product by 4."""
    coords = [Fraction(0)] * 4
    for slot in rng.sample(range(4), 2):
        coords[slot] = Fraction(rng.choice(_NONZERO))
    return tuple(coords)


def _monomial(rng, degree, nvars):
    """(c0, v1, c1, ..., vd, cd): constants interleaved with variables."""
    out = [_sparse(rng)]
    for _ in range(degree):
        out += [rng.randrange(nvars), _sparse(rng)]
    return tuple(out)


def setup(lib, rng, size=POOL_SIZE) -> list:
    H = lib.algebra.quaternion_algebra()
    jobs = []
    for i in range(size):
        kind = PATTERN[i % len(PATTERN)]
        if kind == "mixing_chart":
            a, b, c = _dense(rng), _dense(rng), _dense(rng)
            while c == b:
                c = _dense(rng)
            inputs = (H, a, b, c, [_pair(rng) for _ in range(ROUND_TRIPS)],
                      [(_pair(rng), _pair(rng)) for _ in range(PUSHFORWARDS)])
        elif kind == "quadratic_chart":
            inputs = (H, _dense(rng),
                      [(_pair(rng), _dense(rng), _dense(rng),
                        tuple(rng.randrange(2) for _ in range(3)))
                       for _ in range(SYMMETRY_TRIPLES)],
                      _pair(rng),
                      [(_pair(rng), _pair(rng), _pair(rng)) for _ in range(PARALLEL_POINTS)],
                      [(_pair(rng), _pair(rng), _scalar(rng), _scalar(rng))
                       for _ in range(GEODESICS)])
        else:
            f = [_monomial(rng, degree, 2) for degree in (0, 1, 2)]
            reps = [[_monomial(rng, 1, 2), _monomial(rng, 0, 2)] for _ in range(2)]
            inputs = (H, f, reps, [_pair(rng) for _ in range(POLY_POINTS)],
                      [(_pair(rng), _pair(rng)) for _ in range(POLY_POINTS)])
        jobs.append((kind, inputs))
    return jobs


# ---------------------------------------------------------------------------
# jobs


def _poly(lib, H, nvars, spec):
    """Build sum of c0 x_v1 c1 ... through the library's ring operations."""
    P = lib.ncpoly.NCPoly
    total = P.zero(H, nvars)
    for mono in spec:
        term = P.const(H, nvars, H.element(mono[0]))
        for pos in range(1, len(mono), 2):
            term = term * P.var(H, nvars, mono[pos]) * P.const(H, nvars, H.element(mono[pos + 1]))
        total = total + term
    return total


def _elts(H, pair):
    return [H.element(x) for x in pair]


def run_mixing_chart(lib, inputs):
    H, a, b, c, points, vectors = inputs
    P = lib.ncpoly.NCPoly
    calc = lib.calculus
    ca, cb, cc = (P.const(H, 2, H.element(x)) for x in (a, b, c))
    x1, x2 = P.var(H, 2, 0), P.var(H, 2, 1)
    chart = calc.Chart([ca * x1 * cb + ca * x2 * cc, x1 + x2])
    trips = []
    for x in points:
        y = chart.forward(_elts(H, x))
        trips.append((y, chart.backward(y)))
    pushed = [calc.pushforward_vector(chart, _elts(H, xp), _elts(H, vp)) for xp, vp in vectors]
    return trips, pushed


def run_quadratic_chart(lib, inputs):
    H, c, sym_points, w, par_points, lines = inputs
    P = lib.ncpoly.NCPoly
    calc = lib.calculus
    x1, x2 = P.var(H, 2, 0), P.var(H, 2, 1)
    cc = P.const(H, 2, H.element(c))
    chart = calc.Chart([x1, x2 + x1 * cc * x1], [x1, x2 - x1 * cc * x1])
    gamma = calc.chart_connection(chart)
    sym = []
    for xp, u, v, (k, j, i) in sym_points:
        xp, u, v = _elts(H, xp), H.element(u), H.element(v)
        sym.append((gamma.coefficient(xp, k, j, i, u, v),
                    gamma.coefficient(xp, k, i, j, v, u)))
    field = calc.express_constant_field(chart, _elts(H, w))
    applied, parallel = [], []
    for xp, v, a in par_points:
        xp, v, a = _elts(H, xp), _elts(H, v), _elts(H, a)
        applied.append(gamma.apply(xp, v, a))
        parallel.append(calc.parallel_residual(gamma, field, xp, a))
    t = P.var(H, 1, 0)
    geodesic = []
    for start, direction, t0, dt in lines:
        flat = [P.const(H, 1, H.element(s)) + t * P.const(H, 1, H.element(d))
                for s, d in zip(start, direction)]
        path = [comp.substitute(flat) for comp in chart.components]
        geodesic.append(calc.geodesic_residual(gamma, path, H.element(t0), H.element(dt)))
    return sym, applied, parallel, geodesic


def run_ncpoly(lib, inputs):
    H, f_spec, rep_specs, ys, xas = inputs
    f = _poly(lib, H, 2, f_spec)
    reps = [_poly(lib, H, 2, spec) for spec in rep_specs]
    g = f.substitute(reps)
    substituted = [g.evaluate(_elts(H, y)) for y in ys]
    direct = [f.evaluate(_elts(H, x)) for x, _ in xas]
    derivative = [lib.ncpoly.gateaux(f, _elts(H, x), _elts(H, a)) for x, a in xas]
    return substituted, direct, derivative


# ---------------------------------------------------------------------------
# checks


def _c(e):
    return e.coords


def _vec(v):
    return tuple(_c(e) for e in v)


def _spec_value(spec, values):
    acc = O.ZERO
    for mono in spec:
        cur = O.q(mono[0])
        for pos in range(1, len(mono), 2):
            cur = O.qmul(O.qmul(cur, values[mono[pos]]), O.q(mono[pos + 1]))
        acc = O.qadd(acc, cur)
    return acc


def check_mixing_chart(lib, inputs, result):
    _, a, b, c, points, vectors = inputs
    trips, pushed = result
    a, b, c = O.q(a), O.q(b), O.q(c)
    for x, (y, back) in zip(points, trips):
        x0, x1 = O.q(x[0]), O.q(x[1])
        want = (O.qadd(O.qprod(a, x0, b), O.qprod(a, x1, c)), O.qadd(x0, x1))
        require(_vec(y) == want, "forward map is wrong")
        require(_vec(back) == (x0, x1), "backward(forward(x)) != x")
    ainv = O.qinv(a)
    cb = O.qinv(O.qsub(c, b))
    for (_, vp), got in zip(vectors, pushed):
        v0, v1 = O.q(vp[0]), O.q(vp[1])
        first = O.qsub(O.qmul(v1, O.qadd(O.ONE, O.qmul(b, cb))), O.qprod(ainv, v0, cb))
        second = O.qsub(O.qprod(ainv, v0, cb), O.qprod(v1, b, cb))
        require(_vec(got) == (first, second), "pushforward differs from the closed form")
    require(len(trips) == len(points) and len(pushed) == len(vectors), "missing results")


def check_quadratic_chart(lib, inputs, result):
    _, c, _, _, par_points, lines = inputs
    sym, applied, parallel, geodesic = result
    c = O.q(c)
    zero = (O.ZERO, O.ZERO)
    for left, right in sym:
        require(_c(left) == _c(right), "connection coefficient is not symmetric")
    for (_, v, a), got in zip(par_points, applied):
        v1, a1 = O.q(v[0]), O.q(a[0])
        want = (O.ZERO, O.qscale(O.qadd(O.qprod(v1, c, a1), O.qprod(a1, c, v1)), -1))
        require(_vec(got) == want, "connection differs from -(v c a + a c v)")
    for res in parallel:
        require(_vec(res) == zero, "constant field is not parallel")
    for res in geodesic:
        require(_vec(res) == zero, "image of a straight line is not a geodesic")
    require(len(applied) == len(parallel) == len(par_points) and len(geodesic) == len(lines),
            "missing results")


def check_ncpoly(lib, inputs, result):
    _, f_spec, rep_specs, ys, xas = inputs
    substituted, direct, derivative = result
    for y, got in zip(ys, substituted):
        y = [O.q(v) for v in y]
        inner = [_spec_value(spec, y) for spec in rep_specs]
        require(_c(got) == _spec_value(f_spec, inner), "substitute-then-evaluate is wrong")
    for (x, a), got, slope in zip(xas, direct, derivative):
        x, a = [O.q(v) for v in x], [O.q(v) for v in a]
        require(_c(got) == _spec_value(f_spec, x), "evaluate is wrong")
        plus = _spec_value(f_spec, [O.qadd(p, d) for p, d in zip(x, a)])
        minus = _spec_value(f_spec, [O.qsub(p, d) for p, d in zip(x, a)])
        require(_c(slope) == O.qscale(O.qsub(plus, minus), Fraction(1, 2)),
                "gateaux differs from the central difference")
    require(len(substituted) == len(ys) and len(direct) == len(derivative) == len(xas),
            "missing results")


JOBS = {
    "mixing_chart": (run_mixing_chart, check_mixing_chart),
    "quadratic_chart": (run_quadratic_chart, check_quadratic_chart),
    "ncpoly": (run_ncpoly, check_ncpoly),
}
