import operator
from fractions import Fraction

import pytest

from divring.algebra import complex_algebra, mul, quaternion_algebra, rational_algebra
from divring.errors import AlgebraMismatch, ParseError
from divring.io import format_poly, parse_poly
from divring.ncpoly import NCPoly, gateaux, gateaux2, gateaux_poly
from conftest import random_element, random_rational

H = quaternion_algebra()
ONE, I, J, K = H.basis()


def const(value, nvars=1):
    return NCPoly.const(H, nvars, value)


def var(v, nvars=1):
    return NCPoly.var(H, nvars, v)


def random_poly(rng, nvars, terms=3, max_deg=2, span=2):
    poly = NCPoly.zero(H, nvars)
    for _ in range(terms):
        t = const(random_element(rng, H, span), nvars)
        for _ in range(rng.randint(0, max_deg)):
            t = t * var(rng.randrange(nvars), nvars) * const(
                random_element(rng, H, span), nvars
            )
        poly = poly + t
    return poly


# ---------------------------------------------------------------------------
# canonical form and arithmetic


def test_like_terms_merge_through_constants():
    x = var(0)
    left = const(I) * x * const(J) + const(I) * x * const(K)
    right = const(I) * x * const(J + K)
    assert left == right


def test_zero_terms_drop():
    x = var(0)
    p = x - x
    assert p.is_zero()
    assert (const(I) * x * const(H.zero)).is_zero()


def test_ring_axioms_random(rng):
    for _ in range(3):
        a = random_poly(rng, 2, terms=2, max_deg=1)
        b = random_poly(rng, 2, terms=2, max_deg=1)
        c = random_poly(rng, 2, terms=2, max_deg=1)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        pt = [random_element(rng, H), random_element(rng, H)]
        assert (a * b).evaluate(pt) == mul(a.evaluate(pt), b.evaluate(pt))


def test_substitution_is_composition(rng):
    for _ in range(8):
        outer = random_poly(rng, 2, terms=3, max_deg=2)
        inner = [random_poly(rng, 1, terms=2, max_deg=1) for _ in range(2)]
        composed = outer.substitute(inner)
        t = random_element(rng, H)
        direct = outer.evaluate([p.evaluate([t]) for p in inner])
        assert composed.evaluate([t]) == direct


def test_substitute_rejects_replacements_of_another_ring():
    C, Q = complex_algebra(), rational_algebra()
    for alg in (C, Q):  # quaternion polynomial, complex or rational replacement
        with pytest.raises(AlgebraMismatch):
            (var(0) * const(K)).substitute([NCPoly.var(alg, 1, 0)])
    with pytest.raises(AlgebraMismatch):  # complex polynomial, quaternion replacement
        (NCPoly.var(C, 1, 0) * C.basis()[1]).substitute([var(0)])
    with pytest.raises(ValueError, match="number of variables"):
        var(0, 2).substitute([var(0, 1), var(1, 2)])
    assert (var(0) * const(K)).substitute([var(1, 2)]) == var(1, 2) * const(K, 2)


@pytest.mark.parametrize("op", [operator.mul, operator.add, operator.sub],
                         ids=["mul", "add", "sub"])
def test_element_on_the_left_of_a_polynomial(op):
    x = var(0, 2) + var(1, 2) * const(J, 2)
    assert op(I, x) == op(const(I, 2), x)
    assert op(x, I) == op(x, const(I, 2))
    if op is operator.mul:
        assert I * x != x * I
    with pytest.raises(TypeError):
        op(I, "x")
    assert op(I, I) == {operator.mul: -ONE, operator.add: I.scale(2),
                        operator.sub: H.zero}[op]


def test_degree_bookkeeping():
    x, y = var(0, 2), var(1, 2)
    p = x * y * x + y
    assert p.degree() == 3
    assert p.degree_in([0]) == 2
    assert p.degree_in([1]) == 1
    assert p.min_degree_in([1]) == 1


# ---------------------------------------------------------------------------
# directional derivatives


def test_square_derivative():
    x = var(0)
    f = x * x
    for point, direction in ((J, K), (ONE + I, J - K)):
        expect = mul(point, direction) + mul(direction, point)
        assert gateaux(f, [point], [direction]) == expect


def test_constant_derivative_vanishes(rng):
    f = const(random_element(rng, H))
    assert gateaux(f, [J], [K]) == H.zero


def test_sandwich_term_is_linear():
    f = const(I) * var(0) * const(J)
    for point in (ONE, K, I + J):
        assert gateaux(f, [point], [K]) == mul(mul(I, K), J)


def test_direction_linearity(rng):
    f = random_poly(rng, 2)
    x = [random_element(rng, H), random_element(rng, H)]
    a = [random_element(rng, H), random_element(rng, H)]
    b = [random_element(rng, H), random_element(rng, H)]
    alpha, beta = random_rational(rng), random_rational(rng)
    combo = [p.scale(alpha) + q.scale(beta) for p, q in zip(a, b)]
    assert gateaux(f, x, combo) == \
        gateaux(f, x, a).scale(alpha) + gateaux(f, x, b).scale(beta)


def test_difference_minus_derivative_is_higher_order(rng):
    """f(x + a) - f(x) - df(x)(a) holds only monomials of degree >= 2 in
    the direction variables, checked on the canonical form."""
    for _ in range(4):
        f = random_poly(rng, 2)
        shifted = f.substitute(
            [NCPoly.var(H, 4, 0) + NCPoly.var(H, 4, 2),
             NCPoly.var(H, 4, 1) + NCPoly.var(H, 4, 3)]
        )
        base = f.substitute([NCPoly.var(H, 4, 0), NCPoly.var(H, 4, 1)])
        derivative = gateaux_poly(f)  # lives in the same doubled variables
        remainder = shifted - base - derivative
        assert remainder.is_zero() or remainder.min_degree_in([2, 3]) >= 2


def test_chain_rule(rng):
    for _ in range(4):
        outer = random_poly(rng, 2, terms=2, max_deg=2, span=2)
        inner = [random_poly(rng, 2, terms=2, max_deg=1, span=2)
                 for _ in range(2)]
        composed = outer.substitute(inner)
        x = [random_element(rng, H, 2), random_element(rng, H, 2)]
        a = [random_element(rng, H, 2), random_element(rng, H, 2)]
        inner_value = [p.evaluate(x) for p in inner]
        inner_push = [gateaux(p, x, a) for p in inner]
        assert gateaux(composed, x, a) == gateaux(outer, inner_value, inner_push)


def test_second_derivative_examples():
    x = var(0)
    f = x * x
    v, a = J, K
    assert gateaux2(f, [ONE], [v], [a]) == mul(v, a) + mul(a, v)
    linear = const(I) * x * const(J)
    assert gateaux2(linear, [ONE], [v], [a]) == H.zero


def test_second_derivative_symmetry(rng):
    for _ in range(5):
        f = random_poly(rng, 2, max_deg=3)
        x = [random_element(rng, H), random_element(rng, H)]
        v = [random_element(rng, H), random_element(rng, H)]
        a = [random_element(rng, H), random_element(rng, H)]
        assert gateaux2(f, x, v, a) == gateaux2(f, x, a, v)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_examples():
    p = parse_poly(H, 2, "i * x1 * j + x2")
    assert p == const(I, 2) * var(0, 2) * const(J, 2) + var(1, 2)
    q = parse_poly(H, 1, "(1/2 - 3i) * x1")
    assert q == const(H.element([Fraction(1, 2), -3, 0, 0])) * var(0)
    r = parse_poly(H, 1, "x1 * x1 - 1")
    assert r == var(0) * var(0) - const(ONE)


def test_format_round_trip(rng):
    for _ in range(10):
        p = random_poly(rng, 2)
        assert parse_poly(H, 2, format_poly(p)) == p
    assert format_poly(NCPoly.zero(H, 1)) == "0"
    assert parse_poly(H, 1, "0").is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_poly(H, 1, "x2")
    with pytest.raises(ParseError):
        parse_poly(H, 1, "x1 +")
    with pytest.raises(ParseError):
        parse_poly(H, 1, "q * x1")
    with pytest.raises(ParseError):
        parse_poly(rational_algebra(), 1, "i * x1")
