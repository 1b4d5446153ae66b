"""Differential tests of the integer polynomial kernel.

`NCPoly` stores integer numerators over one denominator; its products
share monomial prefixes, and substitution, evaluation and directional
derivatives run a program compiled once per polynomial and derivative
order.  Every result here is compared with inline oracles that never
call `ncpoly`: monomials are evaluated term by term with `algebra.mul`,
`+` and `scale`, sums, scalings and products of term dicts are computed
on Fraction dicts, products read straight from the public `constants`
tensor.  The integer form itself is checked after every operation.  The
two calculus derivative helpers are compared with inline copies of their
former loop implementations, and the cached sandwich elimination with
`ratlin.solve`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

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
    _directional_poly,
    _invert_affine_components,
    _sandwich_elimination,
    _sandwich_solve,
    express_constant_field,
)
from divring import ncpoly
from divring.errors import AlgebraMismatch
from divring.ncpoly import NCPoly, gateaux, gateaux2, gateaux_poly
from test_kernel import matrix_algebra

# non-integer constants (table denominator 2) and a composite unit
MOVED = change_basis(
    quaternion_algebra(),
    BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]]),
)
ALGEBRAS = [rational_algebra(), complex_algebra(), quaternion_algebra(), MOVED]
IDS = ["rational", "complex", "quaternion", "moved-quaternion"]
# the oracle tests also run over a table with all 64 constants nonzero and
# over M2(Q), which has zero divisors
DENSE = change_basis(
    quaternion_algebra(),
    BasisChange([[1, -1, 3, 2], [-2, 1, 3, 1], [1, 1, -2, 1], [-1, 2, -1, 1]]),
)
ORACLE_ALGEBRAS = ALGEBRAS + [DENSE, matrix_algebra()]
ORACLE_IDS = IDS + ["dense-quaternion", "M2(Q)"]


def draw_q(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def draw_element(rng, alg):
    return alg.element([draw_q(rng) if rng.randrange(4) else 0 for _ in range(alg.dim)])


def draw_terms(rng, alg, nvars, count=5, max_deg=3):
    """A raw term dict of degree 0..max_deg; like keys repeat on purpose,
    so the constructor merges and may cancel them."""
    keys = []
    for _ in range(count):
        d = rng.randint(0, max_deg)
        keys.append((tuple(rng.randrange(nvars) for _ in range(d)),
                     tuple(rng.randrange(alg.dim) for _ in range(d + 1))))
    terms = {}
    for key in keys + keys[:2]:
        terms[key] = terms.get(key, 0) + draw_q(rng)
    return terms


def cases(alg, seed, count=25):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 3)
        yield rng, nvars, draw_terms(rng, alg, nvars)


# ---------------------------------------------------------------------------
# oracles: no ncpoly calls


def oracle_monomial(alg, vars_, bs, value):
    cur = alg.basis_element(bs[0])
    for pos, v in enumerate(vars_):
        cur = mul(mul(cur, value(pos, v)), alg.basis_element(bs[pos + 1]))
    return cur


def oracle_value(alg, terms, values):
    acc = alg.zero
    for (vars_, bs), c in terms.items():
        acc = acc + oracle_monomial(alg, vars_, bs, lambda pos, v: values[v]).scale(c)
    return acc


def oracle_gateaux(alg, terms, x, a):
    acc = alg.zero
    for (vars_, bs), c in terms.items():
        for p in range(len(vars_)):
            term = oracle_monomial(alg, vars_, bs,
                                   lambda pos, v: a[v] if pos == p else x[v])
            acc = acc + term.scale(c)
    return acc


def oracle_gateaux2(alg, terms, x, v, a):
    acc = alg.zero
    for (vars_, bs), c in terms.items():
        for p in range(len(vars_)):
            for q in range(len(vars_)):
                if p != q:
                    pick = (lambda pos, w, p=p, q=q:
                            v[w] if pos == p else a[w] if pos == q else x[w])
                    acc = acc + oracle_monomial(alg, vars_, bs, pick).scale(c)
    return acc


def oracle_product(alg, t1, t2):
    """Term-dict product read from the Fraction `constants` tensor."""
    out = {}
    for (v1, b1), c1 in t1.items():
        for (v2, b2), c2 in t2.items():
            for k in range(alg.dim):
                c = alg.constants[b1[-1]][b2[0]][k]
                if c:
                    key = (v1 + v2, b1[:-1] + (k,) + b2[1:])
                    out[key] = out.get(key, 0) + c1 * c2 * c
    return {key: c for key, c in out.items() if c}


def assert_canonical(p):
    for (vars_, bs), c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        assert len(bs) == len(vars_) + 1
        assert all(0 <= v < p.nvars for v in vars_)
        assert all(0 <= b < p.algebra.dim for b in bs)


# ---------------------------------------------------------------------------
# products, evaluation, substitution, derivatives


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_product_matches_table_oracle(alg):
    for rng, nvars, raw in cases(alg, 5100 + alg.dim):
        p = NCPoly(alg, nvars, raw)
        q = NCPoly(alg, nvars, draw_terms(rng, alg, nvars))
        assert (p * q).terms == oracle_product(alg, p.terms, q.terms)
        assert_canonical(p * q)
        assert (p * (-p) + p * p).is_zero()
        assert (p * NCPoly.zero(alg, nvars)).is_zero()


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_evaluate_matches_term_by_term_oracle(alg):
    for rng, nvars, raw in cases(alg, 5200 + alg.dim):
        p = NCPoly(alg, nvars, raw)
        values = [draw_element(rng, alg) for _ in range(nvars)]
        assert p.evaluate(values) == oracle_value(alg, raw, values)
        assert p.constant_term() == oracle_value(alg, raw, [alg.zero] * nvars)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_substitute_then_evaluate_matches_oracle(alg):
    for rng, nvars, raw in cases(alg, 5300 + alg.dim):
        p = NCPoly(alg, nvars, raw)
        inner_vars = rng.randint(1, 3)
        raws = [draw_terms(rng, alg, inner_vars, count=3, max_deg=2) for _ in range(nvars)]
        reps = [NCPoly(alg, inner_vars, r) for r in raws]
        composed = p.substitute(reps)
        assert composed.nvars == inner_vars
        assert_canonical(composed)
        point = [draw_element(rng, alg) for _ in range(inner_vars)]
        inner = [oracle_value(alg, r, point) for r in raws]
        assert composed.evaluate(point) == oracle_value(alg, raw, inner)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_derivatives_match_positional_oracle(alg):
    for rng, nvars, raw in cases(alg, 5400 + alg.dim):
        p = NCPoly(alg, nvars, raw)
        x, v, a = ([draw_element(rng, alg) for _ in range(nvars)] for _ in range(3))
        assert gateaux(p, x, a) == oracle_gateaux(alg, raw, x, a)
        assert gateaux2(p, x, v, a) == oracle_gateaux2(alg, raw, x, v, a)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_const_and_var_terms(alg):
    rng = random.Random(5500 + alg.dim)
    u = alg.unit_coords
    for nvars in (1, 2, 3):
        e = draw_element(rng, alg)
        c = NCPoly.const(alg, nvars, e)
        assert c.terms == {((), (s,)): q for s, q in enumerate(e.coords) if q}
        assert c == NCPoly(alg, nvars, {((), (s,)): q for s, q in enumerate(e.coords)})
        assert_canonical(c)
        for v in range(nvars):
            x = NCPoly.var(alg, nvars, v)
            want = {((v,), (s, t)): u[s] * u[t]
                    for s in range(alg.dim) for t in range(alg.dim) if u[s] and u[t]}
            assert x.terms == want
            assert_canonical(x)
            point = [draw_element(rng, alg) for _ in range(nvars)]
            assert x.evaluate(point) == point[v]
        for bad in (-1, nvars):
            with pytest.raises(ValueError, match="variable index out of range"):
                NCPoly.var(alg, nvars, bad)


def test_errors_are_raised_in_the_same_cases():
    H, C = quaternion_algebra(), complex_algebra()
    x0, x1 = NCPoly.var(H, 2, 0), NCPoly.var(H, 2, 1)
    p = NCPoly.const(H, 2, H.basis_element(1)) * x0 * x0 + x0
    point = [H.basis_element(2), H.basis_element(3)]
    with pytest.raises(ValueError, match="wrong number of values"):
        p.evaluate(point[:1])
    for bad in (point[:1], point + point[:1]):
        with pytest.raises(ValueError, match="wrong number of values"):
            gateaux(p, bad, point)
        with pytest.raises(ValueError, match="wrong number of values"):
            gateaux2(p, point, point, bad)
    with pytest.raises(ValueError, match="wrong number of replacements"):
        p.substitute([x0])
    with pytest.raises(ValueError, match="negative powers"):
        p ** -1
    # a value of another algebra raises only when a term uses it
    alien = C.basis_element(1)
    with pytest.raises(AlgebraMismatch):
        p.evaluate([alien, point[1]])
    with pytest.raises(AlgebraMismatch):
        gateaux(p, point, [alien, point[1]])
    with pytest.raises(AlgebraMismatch):
        gateaux(p, [alien, point[1]], point)
    with pytest.raises(AlgebraMismatch):
        gateaux2(p, point, [alien, point[1]], point)
    with pytest.raises(AlgebraMismatch):
        gateaux2(p, point, point, [alien, point[1]])
    assert p.evaluate([point[0], alien]) == oracle_value(H, p.terms, point)
    assert gateaux(p, [point[0], alien], [point[1], alien]) == \
        oracle_gateaux(H, p.terms, point, [point[1], point[1]])
    # constant terms use no value at all
    assert (x1 - x1 + 3).evaluate([alien, alien]) == H.scalar(3)


def test_dense_table_has_every_constant_nonzero():
    assert all(c for plane in DENSE.constants for row in plane for c in row)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_polynomials_without_some_orders_match_oracles(alg):
    # the zero polynomial, constants only and linear terms only: programs
    # with no steps, no tails or nothing at all at some order
    rng = random.Random(6700 + ORACLE_ALGEBRAS.index(alg))
    for nvars in (1, 2, 3):
        support = rng.sample(range(alg.dim), rng.randint(1, alg.dim))
        consts = {((), (b,)): draw_q(rng) or Fraction(1) for b in support}
        linear = {((rng.randrange(nvars),), (rng.randrange(alg.dim), rng.randrange(alg.dim))):
                  draw_q(rng) for _ in range(3)}
        p = NCPoly(alg, nvars, draw_terms(rng, alg, nvars))
        for raw in ({}, consts, linear, {**consts, **linear}):
            f = NCPoly(alg, nvars, raw)
            x, v, a = ([draw_element(rng, alg) for _ in range(nvars)] for _ in range(3))
            assert f.evaluate(x) == oracle_value(alg, raw, x)
            assert gateaux(f, x, a) == oracle_gateaux(alg, raw, x, a)
            assert gateaux2(f, x, v, a) == oracle_gateaux2(alg, raw, x, v, a) == alg.zero
            reps_raw = [draw_terms(rng, alg, 2, count=3, max_deg=2) for _ in range(nvars)]
            composed = f.substitute([NCPoly(alg, 2, r) for r in reps_raw])
            assert_integer_form(composed)
            point = [draw_element(rng, alg) for _ in range(2)]
            inner = [oracle_value(alg, r, point) for r in reps_raw]
            assert composed.evaluate(point) == oracle_value(alg, raw, inner)
        zero = p - p
        assert zero.evaluate(x) == gateaux(zero, x, a) == gateaux2(zero, x, v, a) == alg.zero
        assert zero.substitute([NCPoly.var(alg, 1, 0)] * nvars) == NCPoly.zero(alg, 1)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_foreign_value_raises_only_in_a_used_slot(alg):
    alien = (quaternion_algebra() if alg.dim == 2 else complex_algebra()).basis_element(1)
    rng = random.Random(6800 + ORACLE_ALGEBRAS.index(alg))
    x0, x1 = NCPoly.var(alg, 3, 0), NCPoly.var(alg, 3, 1)
    c = NCPoly.const(alg, 3, alg.element([draw_q(rng) or 1 for _ in range(alg.dim)]))
    p = c * x0 * x1 + x1 * c + 3  # slot 2 is never used
    point = [draw_element(rng, alg) for _ in range(3)]
    for slot in (0, 1):
        bad = point[:slot] + [alien] + point[slot + 1:]
        with pytest.raises(AlgebraMismatch):
            p.evaluate(bad)
        for args in ((bad, point), (point, bad)):
            with pytest.raises(AlgebraMismatch):
                gateaux(p, *args)
        for args in ((point, bad, point), (point, point, bad)):
            with pytest.raises(AlgebraMismatch):
                gateaux2(p, *args)
        # the second derivative of a degree-2 polynomial never reads the point
        assert gateaux2(p, bad, point, point) == oracle_gateaux2(alg, p.terms, *[point] * 3)
    bad = point[:2] + [alien]
    assert p.evaluate(bad) == oracle_value(alg, p.terms, point)
    assert gateaux(p, bad, bad) == oracle_gateaux(alg, p.terms, point, point)
    assert gateaux2(p, bad, point, bad) == oracle_gateaux2(alg, p.terms, point, point, point)


# ---------------------------------------------------------------------------
# the compiled programs: cached per order, never stale, never shared


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_interleaved_orders_on_one_polynomial_match_oracles(alg):
    for rng, nvars, raw in cases(alg, 6300 + alg.dim, count=10):
        p = NCPoly(alg, nvars, raw)
        for _ in range(3):
            x, v, a = ([draw_element(rng, alg) for _ in range(nvars)] for _ in range(3))
            assert p.evaluate(x) == oracle_value(alg, raw, x)
            assert gateaux(p, x, a) == oracle_gateaux(alg, raw, x, a)
            assert gateaux2(p, x, v, a) == oracle_gateaux2(alg, raw, x, v, a)
            assert p.evaluate(a) == oracle_value(alg, raw, a)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_polynomials_derived_from_a_compiled_one_match_oracles(alg):
    for rng, nvars, raw in cases(alg, 6400 + alg.dim, count=10):
        p = NCPoly(alg, nvars, raw)
        raw2 = draw_terms(rng, alg, nvars)
        q = NCPoly(alg, nvars, raw2)
        x, a = ([draw_element(rng, alg) for _ in range(nvars)] for _ in range(2))
        p.evaluate(x), gateaux(p, x, a), gateaux2(p, x, a, x)  # compile all three orders
        r = draw_q(rng)
        t1, t2 = oracle_terms(raw), oracle_terms(raw2)
        reps_raw = [draw_terms(rng, alg, nvars, count=3, max_deg=2) for _ in range(nvars)]
        composed = p.substitute([NCPoly(alg, nvars, t) for t in reps_raw])
        derived = [
            (p + q, oracle_sum(t1, t2)),
            (p - q, oracle_sum(t1, t2, -1)),
            (p * q, oracle_product(alg, t1, t2)),
            (p.scale(r), {key: r * c for key, c in t1.items() if r}),
        ]
        for got, terms in derived:
            assert got.evaluate(x) == oracle_value(alg, terms, x)
            assert gateaux(got, x, a) == oracle_gateaux(alg, terms, x, a)
            assert gateaux2(got, x, a, x) == oracle_gateaux2(alg, terms, x, a, x)
        inner = [oracle_value(alg, t, x) for t in reps_raw]
        assert composed.evaluate(x) == oracle_value(alg, raw, inner)
        assert p.evaluate(x) == oracle_value(alg, raw, x)


def test_each_order_is_compiled_once(monkeypatch):
    H = quaternion_algebra()
    rng = random.Random(6500)
    p = NCPoly(H, 2, draw_terms(rng, H, 2, count=8))
    compiled = []
    compile_ = ncpoly._compile

    def counted(items, alg):
        items = list(items)
        compiled.append(items)
        return compile_(items, alg)

    monkeypatch.setattr(ncpoly, "_compile", counted)
    reps = [NCPoly.var(H, 2, 1), NCPoly.var(H, 2, 0)]
    for _ in range(3):
        x, v, a = ([draw_element(rng, H) for _ in range(2)] for _ in range(3))
        p.evaluate(x)
        gateaux(p, x, a)
        gateaux2(p, x, v, a)
        p.substitute(reps)
        p.constant_term()
    # orders 0, 1 and 2, in that order; substitute shares order 0
    assert len(compiled) == 3
    assert [len(items) for items in compiled] == [
        sum(len(vs) ** k - (k == 2) * len(vs) for vs, _ in p._num) for k in range(3)]
    # a fresh but equal polynomial compiles its own programs
    q = p + NCPoly.zero(H, 2)
    assert q == p
    q.evaluate(x)
    assert len(compiled) == 4


def constant_slot_pairs(terms):
    """The distinct (b, v) of every factor e_b x_v in the monomials
    e_b0 x_v1 e_b1 ... x_vm e_bm: one product e_b * value each."""
    return {pair for vars_, bs in terms for pair in zip(bs, vars_)}


def test_rebound_mul_sees_every_variable_product(monkeypatch):
    H = quaternion_algebra()
    rng = random.Random(6600)
    raw = draw_terms(rng, H, 2, count=10)
    p = NCPoly(H, 2, raw)
    x, v, a = ([draw_element(rng, H) for _ in range(2)] for _ in range(3))
    p.evaluate(x), gateaux(p, x, a), gateaux2(p, x, v, a)  # compiled before the rebinding
    basis = H.basis()
    seen = []

    def traced(left, right):
        seen.append((basis.index(left), id(right)))
        return mul(left, right)

    def shifted(k):
        # every term once per ordered k-tuple of distinct positions, the
        # j-th of them reading slot 2 * j + v
        return {(tuple(w + 2 * (picks.index(i) + 1 if i in picks else 0)
                       for i, w in enumerate(vs)), bs)
                for vs, bs in p._num for picks in permutations(range(len(vs)), k)}

    monkeypatch.setattr(ncpoly, "mul", traced)
    runs = [(lambda: p.evaluate(x), oracle_value(H, raw, x), x),
            (lambda: gateaux(p, x, a), oracle_gateaux(H, raw, x, a), x + a),
            (lambda: gateaux2(p, x, v, a), oracle_gateaux2(H, raw, x, v, a), x + v + a)]
    for k, (run, want, slots) in enumerate(runs):
        seen.clear()
        assert run() == want
        # once per distinct (constant, slot) pair, the slot's value on the right
        pairs = constant_slot_pairs(shifted(k))
        assert len(seen) == len(pairs)
        assert sorted(seen) == sorted((b, id(slots[s])) for b, s in pairs)


# ---------------------------------------------------------------------------
# malformed keys and constants of another algebra


@pytest.mark.parametrize("key", [((0,), (0, 5)), ((0,), (0, -1)), ((0,), (0, 4)),
                                 ((0,), (4, 0)), ((), (7,))])
def test_basis_index_out_of_range_is_rejected(key):
    with pytest.raises(ValueError, match="basis index out of range"):
        NCPoly(quaternion_algebra(), 1, {key: 1})


def test_constant_of_another_algebra_is_rejected():
    H, C = quaternion_algebra(), complex_algebra()
    p = NCPoly.var(C, 1, 0)
    alien = H.element([0, 0, 0, 1])
    with pytest.raises(AlgebraMismatch):
        NCPoly.const(C, 1, alien)
    for combine in (lambda: p + alien, lambda: p - alien, lambda: p * alien,
                    lambda: p.__radd__(alien), lambda: p.__rsub__(alien),
                    lambda: p.__rmul__(alien)):
        with pytest.raises(AlgebraMismatch):
            combine()
    # an equal algebra built separately is the same ring
    assert (p + complex_algebra().element([0, 1])).evaluate([C.unit]) == C.element([1, 1])


# ---------------------------------------------------------------------------
# calculus helpers against their former loops


def loop_directional_poly(f, x, slot):
    alg = f.algebra
    basis = alg.basis()
    h = NCPoly.var(alg, 1, 0)
    acc = NCPoly.zero(alg, 1)
    for (vars_, bs), coeff in f.terms.items():
        for p, v in enumerate(vars_):
            if v != slot:
                continue
            cur = NCPoly.const(alg, 1, basis[bs[0]])
            for pos, var in enumerate(vars_):
                step = h if pos == p else NCPoly.const(alg, 1, x[var])
                cur = cur * step * NCPoly.const(alg, 1, basis[bs[pos + 1]])
            acc = acc + cur.scale(coeff)
    return acc


def loop_constant_field(chart, w):
    alg = chart.algebra
    n = chart.n
    basis = alg.basis()
    out = []
    for comp in chart.components:
        acc = NCPoly.zero(alg, n)
        for (vars_, bs), coeff in comp.terms.items():
            for p in range(len(vars_)):
                cur = NCPoly.const(alg, n, basis[bs[0]])
                for pos, var in enumerate(vars_):
                    step = NCPoly.const(alg, n, w[var]) if pos == p else chart.inverse[var]
                    cur = cur * step * NCPoly.const(alg, n, basis[bs[pos + 1]])
                acc = acc + cur.scale(coeff)
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_derivative_helpers_equal_their_loop_versions(alg):
    rng = random.Random(5600 + alg.dim)
    for _ in range(6):
        x1, x2 = NCPoly.var(alg, 2, 0), NCPoly.var(alg, 2, 1)
        c = NCPoly.const(alg, 2, draw_element(rng, alg))
        chart = Chart([x1, x2 + x1 * c * x1], [x1, x2 - x1 * c * x1])
        point = [draw_element(rng, alg) for _ in range(2)]
        for comp in chart.components + (NCPoly(alg, 2, draw_terms(rng, alg, 2)),):
            for slot in range(2):
                assert _directional_poly(comp, point, slot) == \
                    loop_directional_poly(comp, point, slot)
        w = [draw_element(rng, alg) for _ in range(2)]
        assert express_constant_field(chart, w) == loop_constant_field(chart, w)


# ---------------------------------------------------------------------------
# the integer form: invariants, Fraction view, equality and hashing


def draw_big_q(rng):
    """Five-digit numerators over two-digit denominators."""
    return Fraction(rng.randint(-99999, 99999), rng.randint(10, 99))


def assert_integer_form(p):
    """`_num` maps canonical keys to nonzero ints over a positive `_den`,
    in lowest terms, and the Fraction view agrees with it."""
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c != 0 for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    if not p._num:
        assert p._den == 1
    assert p.terms == {key: Fraction(c, p._den) for key, c in p._num.items()}
    assert_canonical(p)


def oracle_terms(raw):
    return {key: Fraction(c) for key, c in raw.items() if c}


def oracle_sum(t1, t2, sign=1):
    out = dict(t1)
    for key, c in t2.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def oracle_power(alg, t, e):
    out = {((), (s,)): u for s, u in enumerate(alg.unit_coords) if u}
    for _ in range(e):
        out = oracle_product(alg, out, t)
    return out


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_ring_operations_match_fraction_oracles(alg):
    rng = random.Random(5700 + alg.dim)
    for trial in range(20):
        nvars = rng.randint(1, 3)
        draw = draw_big_q if trial % 2 else draw_q
        raw1, raw2 = ({k: draw(rng) for k in draw_terms(rng, alg, nvars)} for _ in range(2))
        p, q = NCPoly(alg, nvars, raw1), NCPoly(alg, nvars, raw2)
        t1, t2 = oracle_terms(raw1), oracle_terms(raw2)
        r = draw(rng)
        results = [
            (p, t1),
            (p + q, oracle_sum(t1, t2)),
            (p - q, oracle_sum(t1, t2, -1)),
            (-p, {key: -c for key, c in t1.items()}),
            (p.scale(r), {key: r * c for key, c in t1.items() if r}),
            (p * q, oracle_product(alg, t1, t2)),
            (p ** 2, oracle_power(alg, t1, 2)),
            (p ** 0, oracle_power(alg, t1, 0)),
            # cancellation to zero
            (p - p, {}),
            (p + (-p), {}),
            (p.scale(0), {}),
            (p * q - p * q, {}),
        ]
        for got, want in results:
            assert_integer_form(got)
            assert got.terms == want
            assert got.is_zero() == (not want)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_constructed_polynomials_keep_the_integer_form(alg):
    for rng, nvars, raw in cases(alg, 5800 + alg.dim, count=10):
        p = NCPoly(alg, nvars, raw)
        reps = [NCPoly(alg, 2, draw_terms(rng, alg, 2, count=3, max_deg=2))
                for _ in range(nvars)]
        made = [NCPoly.zero(alg, nvars), NCPoly.const(alg, nvars, draw_element(rng, alg)),
                NCPoly.scalar_const(alg, nvars, draw_big_q(rng)), NCPoly.var(alg, nvars, 0),
                p.substitute(reps), gateaux_poly(p), p.substitute([NCPoly.zero(alg, 1)] * nvars)]
        for q in made:
            assert_integer_form(q)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_affine_inverse_keeps_the_integer_form(alg):
    # elimination pivots may be negative; the inverse's denominator is not
    rng = random.Random(5900 + alg.dim)
    found = 0
    for _ in range(12):
        x1, x2 = NCPoly.var(alg, 2, 0), NCPoly.var(alg, 2, 1)
        c = [NCPoly.const(alg, 2, draw_element(rng, alg)) for _ in range(4)]
        comps = [c[0] * x1 * c[1] + x2 * c[2], x1 + x2 + c[3]]
        inverse = _invert_affine_components(comps)
        if inverse is not None:
            found += 1
            for q in inverse:
                assert_integer_form(q)
    assert found


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_equal_polynomials_compare_and_hash_equal(alg):
    for rng, nvars, raw in cases(alg, 6000 + alg.dim, count=10):
        p = NCPoly(alg, nvars, raw)
        q = NCPoly(alg, nvars, draw_terms(rng, alg, nvars))
        r = draw_big_q(rng) or Fraction(1)
        pieces = [NCPoly(alg, nvars, {key: c}) for key, c in raw.items()]
        ways = [
            NCPoly(alg, nvars, {key: Fraction(c) for key, c in raw.items()}),
            sum(pieces, NCPoly.zero(alg, nvars)),
            (p + q) - q,
            p.scale(r).scale(1 / r),
            NCPoly.scalar_const(alg, nvars, 1) * p,
            p * 1,
            p ** 1,
            p.substitute([NCPoly.var(alg, nvars, v) for v in range(nvars)]),
        ]
        for w in ways:
            assert w == p and hash(w) == hash(p)
        assert len(set(ways)) == 1
        assert (p - p) == NCPoly.zero(alg, nvars) and hash(p - p) == hash(NCPoly.zero(alg, nvars))
        if p.terms != q.terms:
            assert p != q


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_changing_terms_leaves_the_polynomial(alg):
    for rng, nvars, raw in cases(alg, 6100 + alg.dim, count=5):
        p = NCPoly(alg, nvars, raw)
        before, copy = p.terms, NCPoly(alg, nvars, raw)
        view = p.terms
        for key in list(view):
            view[key] += 1
        view[((), (0,))] = Fraction(7, 3)
        assert p.terms == before and p == copy and hash(p) == hash(copy)
        p.terms.clear()
        assert p.terms == before


# ---------------------------------------------------------------------------
# the sandwich system, eliminated once per algebra


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_sandwich_solve_matches_ratlin_solve(alg):
    rng = random.Random(6200 + alg.dim)
    m, basis = alg.dim, alg.basis()
    s = [[mul(mul(basis[p], basis[t]), basis[q]).coords[r] for p in range(m) for q in range(m)]
         for r in range(m) for t in range(m)]
    k, d = len(s), _sandwich_elimination(alg)[2]
    seen = {True: 0, False: 0}
    solved, failing = [], []
    for trial in range(16):
        if trial % 2:  # consistent: the image of a drawn vector
            x = [draw_q(rng) for _ in range(k)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in s]
        else:  # drawn freely; inconsistent when S is singular
            rhs = [draw_big_q(rng) if rng.randrange(3) else Fraction(0) for _ in range(k)]
        nums, den = ratlin.over_common_denominator(rhs)
        want, got = ratlin.solve(s, rhs), _sandwich_solve(alg, [nums])
        seen[want is not None] += 1
        if want is None:
            assert got is None
            failing.append(nums)
            continue
        sol, = got
        assert set(sol) <= set(range(k))
        assert [Fraction(sol.get(c, 0), d * den) for c in range(k)] == want[0]
        solved.append((nums, sol))
    assert seen[True] >= 8
    # one product solves every column at once; one inconsistent column fails it
    columns = [nums for nums, _ in solved]
    assert _sandwich_solve(alg, columns) == [sol for _, sol in solved]
    for nums in failing:
        assert _sandwich_solve(alg, columns + [nums]) is None
    # only the complex numbers, of these four, have a singular sandwich matrix
    assert (seen[False] > 0) == (alg.dim == 2)
