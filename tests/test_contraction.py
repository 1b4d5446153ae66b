"""Differential tests of the one contraction kernel.

The compiled product `algebra._times` is the only routine that multiplies
two coordinate vectors of an algebra.  The chart triple table
`calculus._triples`, `change_basis`, `transform_vector` and polynomial
evaluation run through it; each is compared here, in integer form, with
an inline oracle: products read from the public `constants` tensor or
formed by `mul`, and copies of the loops these routines ran before.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from divring.algebra import (
    BasisChange,
    change_basis,
    complex_algebra,
    mul,
    quaternion_algebra,
    rational_algebra,
    transform_vector,
)
from divring.calculus import Chart, _sandwich_elimination, _triples
from divring.ncpoly import NCPoly, gateaux, gateaux2
from test_algebra import random_basis_change, split_complex_algebra
from test_kernel import matrix_algebra
from test_ncpoly_kernel import (
    draw_element,
    draw_terms,
    oracle_gateaux,
    oracle_gateaux2,
    oracle_terms,
    oracle_value,
)

H = quaternion_algebra()
# every constant of both tables is nonzero: 64 terms, large denominators
DENSE = change_basis(H, BasisChange([[1, -2, 1, 3], [2, 3, -1, 1], [1, 3, 2, 3], [2, 3, -2, 2]]))
DENSE_WIDE = change_basis(H, BasisChange([
    [Fraction(99991, 7), 1, 2, -1],
    [3, Fraction(-1, 65537), 3, 1],
    [1, 4, Fraction(1000003, 17), 2],
    [-2, 5, 1, Fraction(-7, 999983)],
]))
ALGEBRAS = [rational_algebra(), complex_algebra(), H, split_complex_algebra(),
            matrix_algebra(), DENSE, DENSE_WIDE]
IDS = ["rational", "complex", "quaternion", "split-complex", "M2(Q)", "dense-quaternion",
       "dense-wide-quaternion"]


def test_the_dense_tables_are_dense():
    assert len(DENSE._terms) == len(DENSE_WIDE._terms) == 64


# ---------------------------------------------------------------------------
# chart triples


def mul_triples(alg):
    """Entry (p m + s) m + q: nonzero coordinates of mul(mul(e_p, e_s), e_q)
    times alg._den ** 2."""
    e, t2 = alg.basis(), alg._den ** 2
    out = []
    for p, s, q in product(range(alg.dim), repeat=3):
        coords = mul(mul(e[p], e[s]), e[q]).coords
        out.append(tuple((r, c * t2) for r, c in enumerate(coords) if c))
    return tuple(out)


def tensor_triples(alg):
    """The same entries read from the Fraction `constants` tensor."""
    m, c, t2 = alg.dim, alg.constants, alg._den ** 2
    out = []
    for p, s, q in product(range(m), repeat=3):
        coords = [sum(c[p][s][k] * c[k][q][r] for k in range(m)) for r in range(m)]
        out.append(tuple((r, x * t2) for r, x in enumerate(coords) if x))
    return tuple(out)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_triples_match_the_mul_and_tensor_oracles(alg):
    got = _triples(alg)
    assert got == mul_triples(alg) == tensor_triples(alg)
    assert all(type(c) is int for entry in got for _, c in entry)


def scaled_quaternions(scales):
    """Distinct algebras of one support: H on e'_0 = d * 1."""
    return [change_basis(H, BasisChange([[d, 0, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]])) for d in scales]


def affine_chart(alg):
    c = NCPoly.const(alg, 2, alg.element([1, 2, 0, -1]))
    x1, x2 = NCPoly.var(alg, 2, 0), NCPoly.var(alg, 2, 1)
    return Chart([c * x1 + x2, x2 * c])


def test_per_algebra_chart_caches_are_bounded():
    _triples.cache_clear()
    _sandwich_elimination.cache_clear()
    algebras = scaled_quaternions(range(2, 302))
    first = affine_chart(algebras[0]).inverse
    for alg in algebras[1:]:
        affine_chart(alg)
    for cache in (_triples, _sandwich_elimination):
        assert cache.cache_info().currsize == 256
    # the first algebra was evicted: its chart computes both again, alike
    misses = _triples.cache_info().misses
    assert affine_chart(algebras[0]).inverse == first
    assert _triples.cache_info().misses == misses + 1


# ---------------------------------------------------------------------------
# basis changes


def former_change_basis(alg, bc):
    """The loops `change_basis` ran before: the table contracted term by
    term, then each row and the unit multiplied by M^-1."""
    n = alg.dim
    m, dm = bc._int_matrix
    minv, dinv = bc._int_inverse
    den = dm * dm * alg._den * dinv
    new = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = [0] * n
            for p, q, k, c in alg._terms:
                prod[k] += m[i][p] * m[j][q] * c
            new[i][j] = tuple(Fraction(sum(prod[k] * minv[k][el] for k in range(n)), den)
                              for el in range(n))
    u, du = alg._unit
    unit = tuple(Fraction(sum(u[j] * minv[j][i] for j in range(n)), du * dinv)
                 for i in range(n))
    return tuple(tuple(row) for row in new), unit


def former_transform(a, bc):
    minv, dinv = bc._int_inverse
    n = bc.dim
    return [sum(a._num[j] * minv[j][i] for j in range(n)) for i in range(n)], a._den * dinv


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_change_basis_matches_the_former_loops(alg):
    rng = random.Random(2301)
    for _ in range(6):
        bc = random_basis_change(rng, alg.dim)
        new = change_basis(alg, bc)
        constants, unit = former_change_basis(alg, bc)
        assert (new.constants, new.unit_coords) == (constants, unit)
        for _ in range(5):
            a = draw_element(rng, alg)
            got = transform_vector(a, bc, new)
            num, den = former_transform(a, bc)
            assert got.coords == tuple(Fraction(x, den) for x in num)
            assert got.algebra is new


def test_change_basis_compiles_the_source_algebra_only():
    source = scaled_quaternions([5])[0]
    assert source._compiled is None
    new = change_basis(source, BasisChange([[1, 1, 0, 0], [0, 1, 0, 0],
                                            [0, 0, 2, 0], [0, 0, 1, 1]]))
    assert source._compiled is not None and new._compiled is None
    transform_vector(source.basis_element(1), BasisChange([[1, 0, 0, 0], [0, 2, 0, 0],
                                                            [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert new._compiled is None


# ---------------------------------------------------------------------------
# polynomial evaluation over a dense table


@pytest.mark.parametrize("alg", [DENSE, DENSE_WIDE], ids=IDS[-2:])
def test_evaluation_over_a_dense_table_matches_the_oracles(alg):
    rng = random.Random(2302)
    for _ in range(8):
        nvars = rng.randint(1, 2)
        raw = draw_terms(rng, alg, nvars, count=4)
        f, terms = NCPoly(alg, nvars, raw), oracle_terms(raw)
        x, v, a = ([draw_element(rng, alg) for _ in range(nvars)] for _ in range(3))
        assert f.evaluate(x) == oracle_value(alg, terms, x)
        assert gateaux(f, x, a) == oracle_gateaux(alg, terms, x, a)
        assert gateaux2(f, x, v, a) == oracle_gateaux2(alg, terms, x, v, a)
