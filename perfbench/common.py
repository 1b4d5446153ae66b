"""Pieces shared by the workload modules."""

from __future__ import annotations

import random
from fractions import Fraction


class CheckFailed(Exception):
    """A job's result disagrees with the benchmark's oracle."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def stratified(rng: random.Random, values, count: int) -> list:
    """`count` draws that cycle through `values` in a seeded order, so
    every seed gets the same mix of sizes and only the contents vary."""
    out = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5))


def large_rational(rng: random.Random) -> Fraction:
    """Numerators of up to five digits over a two-digit denominator."""
    return Fraction(rng.randint(-10**5 + 1, 10**5 - 1), rng.randint(11, 99))


def quaternion(rng: random.Random, large: bool = False, nonzero: bool = False) -> tuple:
    draw = large_rational if large else small_rational
    while True:
        coords = tuple(draw(rng) for _ in range(4))
        if not nonzero or any(coords):
            return coords
