"""Differential tests of the compiled structure-constant product.

`algebra._product` runs a straight-line function generated once per table
support and bound to the algebra's constants on its first product.  Every
product here is compared with an inline copy of the loop it replaced,
which walks the integer terms (i, j, k, c) of the table once per product.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from divring.algebra import (
    BasisChange,
    Element,
    _mul_add,
    _product,
    _product_factory,
    _reduced,
    _support,
    change_basis,
    complex_algebra,
    mul,
    quaternion_algebra,
    rational_algebra,
)
from test_algebra import split_complex_algebra
from test_kernel import MOVED, matrix_algebra

H = quaternion_algebra()
# basis changes whose inverses have large denominators: the constants in
# the new basis are large integers over a large common denominator
WIDE = change_basis(H, BasisChange([
    [Fraction(99991, 7), 1, 0, 0],
    [0, Fraction(-1, 65537), 3, 0],
    [1, 0, Fraction(1000003, 17), 2],
    [0, 5, 0, Fraction(-7, 999983)],
]))
WIDE_COMPLEX = change_basis(complex_algebra(), BasisChange([[Fraction(1, 10**9 + 7), 3],
                                                            [2, Fraction(-10**12, 13)]]))
PRODUCT_ALGEBRAS = [rational_algebra(), complex_algebra(), H, split_complex_algebra(),
                    matrix_algebra(), MOVED, WIDE, WIDE_COMPLEX]
PRODUCT_IDS = ["rational", "complex", "quaternion", "split-complex", "M2(Q)",
               "moved-quaternion", "wide-quaternion", "wide-complex"]


def loop_product(a, b):
    """The former `_product`: one pass over the integer table terms."""
    out = [0] * a.algebra.dim
    for i, j, k, c in a.algebra._terms:
        out[k] += a._num[i] * b._num[j] * c
    return out


def oracle_mul(a, b):
    alg = a.algebra
    return _reduced(alg, loop_product(a, b), a._den * b._den * alg._den)


def draw(rng, alg):
    """Zero, a basis vector, or small, 10**12-sized or fractional coordinates."""
    kind = rng.randrange(5)
    if kind == 0:
        return alg.zero
    if kind == 1:
        return alg.basis_element(rng.randrange(alg.dim))
    if kind == 2:
        return alg.element([rng.randint(-6, 6) for _ in range(alg.dim)])
    if kind == 3:
        return alg.element([rng.randint(-10**12, 10**12) for _ in range(alg.dim)])
    return alg.element([Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
                        for _ in range(alg.dim)])


@pytest.mark.parametrize("alg", PRODUCT_ALGEBRAS, ids=PRODUCT_IDS)
def test_compiled_product_matches_the_loop(alg):
    rng = random.Random(2206)
    for _ in range(150):
        a, b = draw(rng, alg), draw(rng, alg)
        assert list(_product(a, b)) == loop_product(a, b)
        assert mul(a, b) == oracle_mul(a, b)
    assert alg._compiled is not None
    assert mul(alg.zero, alg.zero) == alg.zero


@pytest.mark.parametrize("alg", PRODUCT_ALGEBRAS, ids=PRODUCT_IDS)
def test_mul_add_is_the_reduced_sum_of_the_mul_terms(alg):
    rng = random.Random(2207)
    for _ in range(40):
        acc = draw(rng, alg)
        terms = [(rng.choice([0, 1, -3, Fraction(rng.randint(-9, 9), rng.randint(1, 9))]),
                  draw(rng, alg), draw(rng, alg) if rng.randrange(3) else None)
                 for _ in range(rng.randrange(5))]
        want = acc
        for q, a, b in terms:
            want = want + (oracle_mul(a, b) if b is not None else a).scale(q)
        assert _mul_add(acc, terms) == want


def test_algebra_compiles_its_product_lazily():
    alg = change_basis(H, BasisChange([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 3]]))
    assert alg._compiled is None
    assert not (alg.basis_element(1) + alg.basis_element(2)).is_zero()
    assert alg._compiled is None
    x = alg.basis_element(1)
    assert mul(x, x) == oracle_mul(x, x) and alg._compiled is not None


def scaled_quaternions(scales):
    """Quaternions on e'_0 = d * 1: one support, d-dependent constants."""
    return [change_basis(H, BasisChange([[d, 0, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]])) for d in scales]


def test_one_support_binds_each_algebras_own_constants():
    two, three = scaled_quaternions([2, 3])
    assert _support(two) == _support(three) and two._terms != three._terms
    rng = random.Random(2208)
    for _ in range(50):
        coords = [[rng.randint(-10**6, 10**6) for _ in range(4)] for _ in range(2)]
        for alg in (three, two):
            a, b = (alg.element(c) for c in coords)
            assert mul(a, b) == oracle_mul(a, b)
    assert mul(*(two.element(c) for c in coords)) != mul(*(three.element(c) for c in coords))


def test_many_algebras_of_one_support_compile_once():
    _product_factory.cache_clear()
    algebras = scaled_quaternions(range(2, 22))
    assert len({_support(alg) for alg in algebras}) == 1
    for alg in algebras:
        x, y = alg.element([1, 2, 3, 4]), alg.element([5, -6, 7, -8])
        assert mul(x, y) == oracle_mul(x, y)
    assert _product_factory.cache_info().currsize == 1
    assert len({alg._compiled for alg in algebras}) == len(algebras)


@pytest.mark.parametrize("alg", [H, MOVED, WIDE], ids=["quaternion", "moved-quaternion",
                                                       "wide-quaternion"])
@pytest.mark.parametrize("clone", [
    lambda e: pickle.loads(pickle.dumps(e)),
    lambda e: pickle.loads(pickle.dumps(e, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"])
def test_elements_copy_and_pickle_after_multiplying(alg, clone):
    x = alg.element([1, Fraction(-2, 3), 5, 7])
    y = alg.element([Fraction(4, 9), 0, -1, 10**12])
    xy = mul(x, y)
    assert alg._compiled is not None
    cx, cy = clone(x), clone(y)
    assert type(cx) is Element and cx == x and cy == y
    assert cx.algebra == alg and hash(cx.algebra) == hash(alg)
    assert mul(cx, cy) == xy and mul(cy, cx) == mul(y, x)
    assert clone(alg) == alg and mul(clone(xy), x) == mul(xy, x)


@pytest.mark.parametrize("alg", [H, MOVED, WIDE], ids=["quaternion", "moved-quaternion",
                                                       "wide-quaternion"])
@pytest.mark.parametrize("clone", [
    lambda a: pickle.loads(pickle.dumps(a)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_basis_elements_are_made_once_and_rebuilt_by_copies(alg, clone):
    basis = alg.basis()
    assert [b._num for b in basis] == [tuple(int(i == j) for i in range(alg.dim))
                                       for j in range(alg.dim)]
    assert all(alg.basis_element(i) is b for i, b in enumerate(basis))
    other = clone(alg)
    assert other == alg and other._basis is None
    copied = other.basis()
    assert copied == basis and all(b.algebra is other for b in copied)
