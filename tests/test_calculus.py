import random
from fractions import Fraction
from math import lcm

import pytest

from divring import ratlin
from divring.algebra import (
    BasisChange,
    change_basis,
    complex_algebra,
    mul,
    quaternion_algebra,
    rational_algebra,
)
from divring.calculus import (
    Chart,
    ConnectionCoefficients,
    _affine_parts,
    _invert_affine_components,
    _is_identity,
    apply_oneform,
    chart_connection,
    covariant_derivative,
    express_constant_field,
    geodesic_residual,
    parallel_residual,
    pushforward_oneform,
    pushforward_vector,
)
from divring.errors import NoInverseChart
from divring.ncpoly import NCPoly, gateaux
from conftest import random_element
from test_algebra import split_complex_algebra

H = quaternion_algebra()
ONE, I, J, K = H.basis()


def cvar(v, nvars=2):
    return NCPoly.var(H, nvars, v)


def cconst(e, nvars=2):
    return NCPoly.const(H, nvars, e)


def mixing_chart(a, b, c):
    """x'1 = a x1 b + a x2 c, x'2 = x1 + x2; linear, so auto-inverted."""
    return Chart([
        cconst(a) * cvar(0) * cconst(b) + cconst(a) * cvar(1) * cconst(c),
        cvar(0) + cvar(1),
    ])


def quadratic_chart():
    forward = [cvar(0), cvar(1) + cvar(0) * cvar(0)]
    backward = [cvar(0), cvar(1) - cvar(0) * cvar(0)]
    return Chart(forward, backward)


def random_mixing_parameters(rng):
    while True:
        a = random_element(rng, H, 3, nonzero=True)
        b = random_element(rng, H, 3)
        c = random_element(rng, H, 3)
        try:
            a.inverse()
            (c - b).inverse()
            return a, b, c
        except Exception:
            continue


def rand_vec(rng, n=2, span=4):
    return tuple(random_element(rng, H, span) for _ in range(n))


# ---------------------------------------------------------------------------
# charts


def test_identity_chart_round_trip(rng):
    ch = Chart([cvar(0), cvar(1)])
    assert ch.inverse == (cvar(0), cvar(1))
    pt = rand_vec(rng)
    assert ch.forward(pt) == pt
    assert pushforward_vector(ch, pt, (I, J)) == (I, J)


def test_mixing_chart_inverse_formulas(rng):
    a, b, c = I, ONE, J
    ch = mixing_chart(a, b, c)
    assert ch.inverse is not None
    cb = (c - b).inverse()
    # (j - 1)^{-1} = -(1 + j)/2
    assert cb == (ONE + J).scale(Fraction(-1, 2))
    for _ in range(25):
        xp = rand_vec(rng)
        x = ch.backward(xp)
        x2 = mul(mul(a.inverse(), xp[0]), cb) - mul(mul(xp[1], b), cb)
        x1 = -mul(mul(a.inverse(), xp[0]), cb) + mul(xp[1], ONE + mul(b, cb))
        assert x == (x1, x2)
        assert ch.forward(x) == xp


def test_mixing_chart_random_parameters(rng):
    for _ in range(5):
        a, b, c = random_mixing_parameters(rng)
        ch = mixing_chart(a, b, c)
        assert ch.inverse is not None
        for _ in range(10):
            x = rand_vec(rng)
            assert ch.backward(ch.forward(x)) == x
            xp = rand_vec(rng)
            assert ch.forward(ch.backward(xp)) == xp


def test_degenerate_chart_has_no_inverse():
    ch = Chart([cvar(0), cvar(0)])
    assert ch.inverse is None
    with pytest.raises(NoInverseChart):
        ch.require_inverse()


def test_wrong_inverse_rejected():
    with pytest.raises(NoInverseChart):
        Chart([cvar(0), cvar(1)], [cvar(1), cvar(0)])


def test_nonlinear_chart_needs_supplied_inverse():
    ch = Chart([cvar(0), cvar(1) + cvar(0) * cvar(0)])
    assert ch.inverse is None
    full = quadratic_chart()
    assert full.inverse is not None


def probe_jacobian(components):
    """The shift t (as Elements) and the rational Jacobian B of an affine
    tuple, by evaluation: t_j is component j at 0, and column v m + s of B
    is component j at e_s in slot v minus t_j, in coordinates."""
    alg = components[0].algebra
    n, m, basis = len(components), alg.dim, alg.basis()
    zero = [alg.zero] * n
    t = [c.evaluate(zero) for c in components]
    big = [[Fraction(0)] * (n * m) for _ in range(n * m)]
    for v in range(n):
        for s in range(m):
            probe = list(zero)
            probe[v] = basis[s]
            for j, c in enumerate(components):
                w = (c.evaluate(probe) - t[j]).coords
                for r in range(m):
                    big[j * m + r][v * m + s] = w[r]
    return t, big


def sandwich_inverse(components):
    """The inverse of an affine chart assembled term by term: invert the
    rational Jacobian, write each block as sum_pq c_pq e_p h e_q and add
    c_pq * const(e_p) * (var_j - const(t_j)) * const(e_q)."""
    alg = components[0].algebra
    n, m, basis = len(components), alg.dim, alg.basis()
    t, big = probe_jacobian(components)
    binv = ratlin.invert(big)
    if binv is None:
        return None
    sandwich = [[mul(mul(basis[p], basis[s]), basis[q]).coords[r]
                 for p in range(m) for q in range(m)]
                for r in range(m) for s in range(m)]
    out = []
    for v in range(n):
        poly = NCPoly.zero(alg, n)
        for j in range(n):
            rhs = [binv[v * m + r][j * m + s] for r in range(m) for s in range(m)]
            # solved over one denominator: rows scaled each by its own
            # large one make the elimination slow, not different
            scale = lcm(*[x.denominator for x in rhs])
            sol = ratlin.solve(sandwich, [x * scale for x in rhs])
            if sol is None:
                return None
            arg = NCPoly.var(alg, n, j) - NCPoly.const(alg, n, t[j])
            for p in range(m):
                for q in range(m):
                    c = sol[0][p * m + q] / scale
                    if c:
                        poly = poly + (NCPoly.const(alg, n, basis[p]) * arg
                                       * NCPoly.const(alg, n, basis[q])).scale(c)
        out.append(poly)
    return tuple(out)


# a basis-changed quaternion algebra: table denominator 2, composite unit
MOVED = change_basis(
    quaternion_algebra(),
    BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]]),
)


@pytest.mark.parametrize("alg", [rational_algebra(), complex_algebra(), MOVED],
                         ids=["rational", "complex", "moved-quaternion"])
def test_auto_inverse_matches_sandwich_assembly(alg):
    rng = random.Random(5150)
    for trial in range(12):
        n = 1 + trial % 2
        comps = []
        for _ in range(n):
            poly = NCPoly.const(alg, n, random_element(rng, alg, 3))
            for v in range(n):
                for _ in range(1 + rng.randrange(2)):
                    a, b = (random_element(rng, alg, 3) for _ in range(2))
                    poly = poly + (NCPoly.const(alg, n, a) * NCPoly.var(alg, n, v)
                                   * NCPoly.const(alg, n, b))
            comps.append(poly)
        if trial % 4 == 3:  # a repeated component or a constant chart
            comps = [comps[0]] * n if n == 2 else [NCPoly.const(alg, 1, alg.unit)]
        want, got = sandwich_inverse(comps), _invert_affine_components(comps)
        if trial % 4 == 3:
            assert want is None and got is None and Chart(comps).inverse is None
        elif want is None:  # a random singular chart
            assert got is None
        else:
            assert [p.terms for p in got] == [p.terms for p in want]


def draw_affine(rng, alg, n, big):
    """n affine components over alg: a shift and one to three sandwich
    terms per variable, with large numerators and denominators if big."""
    def q():
        if big and rng.randrange(2):
            return Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def el():
        return alg.element([q() for _ in range(alg.dim)])

    comps = []
    for _ in range(n):
        poly = NCPoly.const(alg, n, el())
        for v in range(n):
            for _ in range(1 + rng.randrange(3)):
                poly = poly + NCPoly.const(alg, n, el()) * NCPoly.var(alg, n, v) \
                    * NCPoly.const(alg, n, el())
        comps.append(poly)
    return comps


@pytest.mark.parametrize("alg", [rational_algebra(), complex_algebra(), quaternion_algebra(),
                                 MOVED, split_complex_algebra()],
                         ids=["rational", "complex", "quaternion", "moved-quaternion",
                              "split-complex"])
def test_jacobian_read_matches_probe_oracle(alg):
    rng = random.Random(5170 + alg.dim)
    inverted = 0
    for trial in range(16):
        n = 1 + trial % 3
        comps = draw_affine(rng, alg, n, big=trial % 2 == 1 and n < 3)
        if trial % 8 == 5 and n > 1:  # a repeated component: B is singular
            comps[1] = comps[0]
        if trial % 8 == 7:  # a constant chart: B is zero
            comps = [NCPoly.const(alg, n, c.evaluate([alg.zero] * n)) for c in comps]
        t, want_b = probe_jacobian(comps)
        big, tn, dens = _affine_parts(comps)
        assert [[Fraction(x, d) for x in row] for row, d in zip(big, dens)] == want_b
        assert [Fraction(x, d) for x, d in zip(tn, dens)] == [x for tj in t for x in tj.coords]
        want, got = sandwich_inverse(comps), _invert_affine_components(comps)
        if trial % 8 in (5, 7):
            assert ratlin.rank(want_b) < n * alg.dim
            assert want is None and got is None and Chart(comps).inverse is None
        elif want is None:
            assert got is None
        else:
            inverted += 1
            # equal terms, and equal integer forms: positive lowest-terms denominators
            assert [p.terms for p in got] == [p.terms for p in want]
            assert list(got) == list(want)
            # the compositions are the identity map; moving the shift or
            # scaling the Jacobian breaks it
            comp = tuple(c.substitute(got) for c in comps)
            assert _is_identity(comp)
            shifted = (comp[0] + NCPoly.const(alg, n, alg.unit),) + comp[1:]
            assert not _is_identity(shifted)
            assert not _is_identity((comp[0].scale(2),) + comp[1:])
    assert inverted >= 6


def test_linear_complex_charts_are_inverted():
    # over the complex numbers e_0 x e_1 and e_1 x e_0 are distinct monomials
    # of one map, so the compositions are compared as maps
    C = complex_algebra()
    one, i = C.basis()
    x = NCPoly.var(C, 1, 0)
    chart = Chart([NCPoly.const(C, 1, i) * x])
    assert chart.inverse is not None
    z = C.element([3, -2])
    assert chart.forward([z]) == (mul(i, z),)
    assert chart.backward(chart.forward([z])) == (z,)
    rng = random.Random(5160)
    inverted = 0
    for trial in range(40):
        n = 1 + trial % 2
        comps = []
        for _ in range(n):
            poly = NCPoly.const(C, n, random_element(rng, C, 3))
            for v in range(n):
                a, b = (random_element(rng, C, 3) for _ in range(2))
                poly = poly + NCPoly.const(C, n, a) * NCPoly.var(C, n, v) * NCPoly.const(C, n, b)
            comps.append(poly)
        chart = Chart(comps)
        if _invert_affine_components(comps) is None:
            assert chart.inverse is None
            continue
        inverted += 1
        point = [random_element(rng, C, 4) for _ in range(n)]
        assert list(chart.backward(chart.forward(point))) == point
        assert list(chart.forward(chart.backward(point))) == point
    assert inverted >= 30
    # a wrong affine inverse and a wrong nonlinear one are still rejected
    x1, x2 = NCPoly.var(C, 2, 0), NCPoly.var(C, 2, 1)
    ci = NCPoly.const(C, 2, i)
    with pytest.raises(NoInverseChart):
        Chart([ci * x1, x2], [ci * x1, x2])
    with pytest.raises(NoInverseChart):
        Chart([x1, x2 + x1 * x1], [x1, x2 + x1 * x1])


# ---------------------------------------------------------------------------
# vectors and 1-forms


def test_vector_transformation_formulas(rng):
    a, b, c = I, ONE, J
    ch = mixing_chart(a, b, c)
    cb = (c - b).inverse()
    for _ in range(20):
        xp = rand_vec(rng)
        vp = rand_vec(rng)
        v = pushforward_vector(ch, xp, vp)
        v1 = -mul(mul(a.inverse(), vp[0]), cb) + mul(vp[1], ONE + mul(b, cb))
        v2 = mul(mul(a.inverse(), vp[0]), cb) - mul(mul(vp[1], b), cb)
        assert v == (v1, v2)


def test_chain_rule_through_composition(rng):
    a, b, c = random_mixing_parameters(rng)
    ch = mixing_chart(a, b, c)
    # push a vector forward with the chart and back with the inverse
    fwd_jac = pushforward_oneform(ch, ch.backward(rand_vec(rng)))
    xp = rand_vec(rng)
    vp = rand_vec(rng)
    v = pushforward_vector(ch, xp, vp)
    restored = apply_oneform(pushforward_oneform(ch, ch.backward(xp)), v)
    assert restored == vp


def test_oneform_components(rng):
    a, b, c = I, ONE, J
    ch = mixing_chart(a, b, c)
    x = rand_vec(rng)
    om = pushforward_oneform(ch, x)
    h = random_element(rng, H)
    assert om[0][0].evaluate([h]) == mul(mul(a, h), b)
    assert om[0][1].evaluate([h]) == mul(mul(a, h), c)
    assert om[1][0].evaluate([h]) == h
    assert om[1][1].evaluate([h]) == h


def test_flat_increment_recovery(rng):
    ch = Chart([cvar(0), cvar(1)])
    om = pushforward_oneform(ch, rand_vec(rng))
    incr = rand_vec(rng)
    assert apply_oneform(om, incr) == incr


# ---------------------------------------------------------------------------
# connections


def test_linear_charts_have_zero_connection(rng):
    for _ in range(3):
        a, b, c = random_mixing_parameters(rng)
        gamma = chart_connection(mixing_chart(a, b, c))
        for _ in range(5):
            assert gamma.apply(rand_vec(rng), rand_vec(rng), rand_vec(rng)) == \
                (H.zero, H.zero)


def test_quadratic_chart_connection_coefficient(rng):
    gamma = chart_connection(quadratic_chart())
    for _ in range(15):
        u, w = random_element(rng, H), random_element(rng, H)
        xp = rand_vec(rng)
        assert gamma.coefficient(xp, 1, 0, 0, u, w) == -(mul(u, w) + mul(w, u))
        for (k, j, i) in ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1),
                          (1, 1, 0), (1, 0, 1), (1, 1, 1)):
            assert gamma.coefficient(xp, k, j, i, u, w) == H.zero


def test_connection_symmetry_with_argument_exchange(rng):
    gamma = chart_connection(quadratic_chart())
    for _ in range(20):
        u, w = random_element(rng, H), random_element(rng, H)
        xp = rand_vec(rng)
        for k in (0, 1):
            for j in (0, 1):
                for i in (0, 1):
                    assert gamma.coefficient(xp, k, j, i, u, w) == \
                        gamma.coefficient(xp, k, i, j, w, u)


def test_connection_bilinearity(rng):
    gamma = chart_connection(quadratic_chart())
    xp = rand_vec(rng)
    v1, v2, a1 = rand_vec(rng), rand_vec(rng), rand_vec(rng)
    summed = tuple(p + q for p, q in zip(v1, v2))
    lhs = gamma.apply(xp, summed, a1)
    rhs = tuple(
        p + q
        for p, q in zip(gamma.apply(xp, v1, a1), gamma.apply(xp, v2, a1))
    )
    assert lhs == rhs


def test_component_poly_connection():
    minus = -(NCPoly.var(H, 2, 0) * NCPoly.var(H, 2, 1)
              + NCPoly.var(H, 2, 1) * NCPoly.var(H, 2, 0))
    table = [[[None, None], [None, None]], [[minus, None], [None, None]]]
    gamma = ConnectionCoefficients.from_component_polys(H, 2, table)
    u, w = I + J, K
    assert gamma.apply((H.zero, H.zero), (u, H.zero), (w, H.zero)) == \
        (H.zero, -(mul(u, w) + mul(w, u)))


# ---------------------------------------------------------------------------
# parallel transport and geodesics


def test_flat_constant_field_is_parallel(rng):
    ch = Chart([cvar(0), cvar(1)])
    gamma = ConnectionCoefficients.zero(H, 2)
    field = (cconst(I), cconst(J - K))
    for _ in range(5):
        assert parallel_residual(gamma, field, rand_vec(rng), rand_vec(rng)) == \
            (H.zero, H.zero)


def test_transported_constant_field_is_parallel(rng):
    ch = quadratic_chart()
    gamma = chart_connection(ch)
    w = rand_vec(rng)
    field = express_constant_field(ch, w)
    for _ in range(20):
        xp, a = rand_vec(rng), rand_vec(rng)
        assert parallel_residual(gamma, field, xp, a) == (H.zero, H.zero)
        # under the flipped sign the covariant derivative vanishes as well
        assert covariant_derivative(gamma, field, xp, a, sign="8.2") == \
            (H.zero, H.zero)
        # the literal sign convention gives twice the derivative instead
        lit = covariant_derivative(gamma, field, xp, a, sign="9.1")
        dv = tuple(gateaux(f, list(xp), list(a)) for f in field)
        assert lit == tuple(d.scale(2) for d in dv)
        # per sign the covariant derivative is the parallel residual
        for s in ("8.2", "9.1"):
            assert covariant_derivative(gamma, field, xp, a, sign=s) == \
                parallel_residual(gamma, field, xp, a, sign=s)


def test_varying_field_has_residual_witness():
    ch = quadratic_chart()
    gamma = chart_connection(ch)
    field = (cvar(0), cconst(ONE))
    res = parallel_residual(gamma, field, (ONE, ONE), (ONE, H.zero))
    assert any(not r.is_zero() for r in res)


def test_zero_connection_reduces_covariant_to_derivative(rng):
    gamma = ConnectionCoefficients.zero(H, 2)
    field = (cvar(0) * cvar(0), cvar(1))
    xp, a = rand_vec(rng), rand_vec(rng)
    got = covariant_derivative(gamma, field, xp, a)
    expect = tuple(gateaux(f, list(xp), list(a)) for f in field)
    assert got == expect


def test_covariant_derivative_linear_in_direction(rng):
    gamma = chart_connection(quadratic_chart())
    field = express_constant_field(quadratic_chart(), rand_vec(rng))
    xp = rand_vec(rng)
    a1, a2 = rand_vec(rng), rand_vec(rng)
    both = tuple(p + q for p, q in zip(a1, a2))
    lhs = covariant_derivative(gamma, field, xp, both)
    rhs = tuple(
        p + q
        for p, q in zip(
            covariant_derivative(gamma, field, xp, a1),
            covariant_derivative(gamma, field, xp, a2),
        )
    )
    assert lhs == rhs


def straight_line_image(chart, start, direction):
    t = NCPoly.var(H, 1, 0)
    flat = [
        NCPoly.const(H, 1, start[i]) + t * NCPoly.const(H, 1, direction[i])
        for i in range(2)
    ]
    return [c.substitute(flat) for c in chart.components]


def test_straight_lines_are_geodesics(rng):
    ch = quadratic_chart()
    gamma = chart_connection(ch)
    for _ in range(6):
        path = straight_line_image(ch, rand_vec(rng), rand_vec(rng))
        for _ in range(5):
            t0 = H.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            dt = H.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            assert geodesic_residual(gamma, path, t0, dt) == (H.zero, H.zero)


def test_flat_straight_line_with_zero_connection(rng):
    gamma = ConnectionCoefficients.zero(H, 2)
    t = NCPoly.var(H, 1, 0)
    path = [
        NCPoly.const(H, 1, I) + t * NCPoly.const(H, 1, J),
        NCPoly.const(H, 1, K) + t * NCPoly.const(H, 1, ONE),
    ]
    assert geodesic_residual(gamma, path, H.scalar(3), H.scalar(2)) == \
        (H.zero, H.zero)


def test_parabola_is_not_geodesic():
    ch = quadratic_chart()
    gamma = chart_connection(ch)
    t = NCPoly.var(H, 1, 0)
    flat = [t * NCPoly.const(H, 1, ONE),
            t * t * NCPoly.const(H, 1, ONE)]
    path = [c.substitute(flat) for c in ch.components]
    res = geodesic_residual(gamma, path, H.scalar(1), H.scalar(1))
    assert any(not r.is_zero() for r in res)


def test_sign_conventions_are_validated():
    gamma = ConnectionCoefficients.zero(H, 2)
    with pytest.raises(ValueError):
        parallel_residual(gamma, (cconst(ONE), cconst(ONE)),
                          (H.zero, H.zero), (ONE, ONE), sign="bogus")
