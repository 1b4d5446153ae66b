"""Differential test of the literal parsers and the element formatter.

`divring.io` parses and prints on integer numerators.  The oracle below is
the Fraction-based code it replaced, copied verbatim: every coordinate a
`fractions.Fraction`, built and summed one term at a time.  Seeded random
literals (signs, spacing, repeated units, zeros, leading zeros, 40-digit
values, zero denominators and stray characters) must give the same element
or the same ParseError text under both.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

import divring.io as dio
from divring.algebra import (
    Algebra,
    BasisChange,
    Element,
    change_basis,
    complex_algebra,
    quaternion_algebra,
    rational_algebra,
)
from divring.errors import ParseError
from divring.ncpoly import NCPoly

H = quaternion_algebra()
MOVED = change_basis(H, BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]]))
ALGEBRAS = [H, complex_algebra(), rational_algebra(), MOVED]
IDS = ["quaternion", "complex", "rational", "moved"]


# ---------------------------------------------------------------------------
# the Fraction oracle


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_RAT = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _fraction(text: str) -> Fraction:
    """A matched literal "p" or "p/q"; q = 0 is a ParseError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT.match(text):
        raise ParseError(f"not a rational: {text!r}")
    return _fraction(text)


def _is_standard_quaternions(alg: Algebra) -> bool:
    return alg == quaternion_algebra()


_UNIT_NAMES = ("1", "i", "j", "k")


def format_element(e: Element) -> str:
    if _is_standard_quaternions(e.algebra):
        parts = []
        for coord, unit in zip(e.coords, _UNIT_NAMES):
            if not coord:
                continue
            mag = format_rational(abs(coord))
            body = mag if unit == "1" else ("" if mag == "1" else mag) + unit
            if not parts:
                parts.append(body if coord > 0 else "-" + body)
            else:
                parts.append(("+ " if coord > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"
    return ",".join(format_rational(c) for c in e.coords)


_QTERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\s*([ijk1]?)")


def parse_quaternion_literal(text: str) -> Element:
    alg = quaternion_algebra()
    coords = [Fraction(0)] * 4
    pos = 0
    text = text.strip()
    if not text:
        raise ParseError("empty element literal")
    if text == "0":
        return alg.zero
    while pos < len(text):
        m = _QTERM.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad quaternion literal near {text[pos:]!r}")
        sign, mag, unit = m.groups()
        if not mag and not unit:
            raise ParseError(f"bad quaternion literal near {text[pos:]!r}")
        value = _fraction(mag) if mag else Fraction(1)
        if sign == "-":
            value = -value
        idx = _UNIT_NAMES.index(unit) if unit else 0
        coords[idx] += value
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return Element(alg, coords)


def parse_element(alg: Algebra, text: str) -> Element:
    text = text.strip()
    if "," in text:
        parts = [parse_rational(p) for p in text.split(",")]
        if len(parts) != alg.dim:
            raise ParseError(f"expected {alg.dim} coordinates, got {len(parts)}")
        return Element(alg, parts)
    if _is_standard_quaternions(alg):
        return parse_quaternion_literal(text)
    if alg.dim == 1:
        return Element(alg, [parse_rational(text)])
    raise ParseError(f"cannot parse element {text!r} for {alg!r}")


# ---------------------------------------------------------------------------
# random literals


BIG = 10 ** 40


def number(rng) -> str:
    """A number token without sign: zeros, leading zeros, small or 40-digit
    values, and now and then a zero denominator."""
    kind = rng.randrange(9)
    if kind == 0:
        return "0"
    if kind == 1:
        return f"0/{rng.randint(1, 9)}"
    if kind == 2:
        return "0" * rng.randint(1, 3) + str(rng.randint(0, 99))
    if kind == 3:
        return f"{rng.randint(0, 99)}/0{rng.randint(1, 99)}"
    if kind == 4:
        return str(rng.randint(0, BIG))
    if kind == 5:
        return f"{rng.randint(0, BIG)}/{rng.randint(1, BIG)}"
    if kind == 6 and rng.randrange(3) == 0:
        return rng.choice(["1/0", "7/00", f"{rng.randint(0, BIG)}/0"])
    return f"{rng.randint(0, 20)}/{rng.randint(1, 12)}"


def space(rng) -> str:
    return rng.choice(["", "", " ", "  ", "\t"])


def noisy(rng, text: str) -> str:
    """text, once in twelve with a stray character put in."""
    if rng.randrange(12):
        return text
    pos = rng.randint(0, len(text))
    return text[:pos] + rng.choice("x*(,;/.+-") + text[pos:]


def quaternion_literal(rng) -> str:
    """One to five terms with signs, spacing and repeated units."""
    out = space(rng)
    for t in range(rng.randint(1, 5)):
        sign = rng.choice(["", "-", "+"]) if t == 0 else rng.choice(["+", "-"])
        unit = rng.choice(["", "1", "i", "j", "k", "i", "j"])
        mag = number(rng) if not unit or rng.randrange(3) else ""
        out += (space(rng) if t else "") + sign + space(rng) + mag + space(rng) + unit
    return noisy(rng, out + space(rng))


def coordinate_list(rng, dim: int) -> str:
    """dim coordinates, now and then one more or one fewer, with signs and
    spacing around each."""
    count = dim + rng.choice([0, 0, 0, 0, 1, -1])
    coords = [space(rng) + rng.choice(["", "-", "+"]) + number(rng) + space(rng)
              for _ in range(max(count, 1))]
    return noisy(rng, ",".join(coords))


def big_element(rng, alg) -> Element:
    def coord():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        if kind == 2:
            return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return alg.element([coord() for _ in range(alg.dim)])


def outcome(parse, *args):
    """A parsed Fraction, a parsed element as its algebra and integer form,
    or the ParseError text."""
    try:
        value = parse(*args)
    except ParseError as exc:
        return "ParseError", str(exc)
    if type(value) is Fraction:
        return value
    return value.algebra, value._num, value._den


# ---------------------------------------------------------------------------
# tests


def test_quaternion_literals_match_the_fraction_oracle():
    rng = random.Random(2501)
    errors = set()
    for _ in range(4000):
        text = quaternion_literal(rng)
        want = outcome(parse_quaternion_literal, text)
        assert outcome(dio.parse_quaternion_literal, text) == want, text
        assert outcome(dio.parse_element, H, text) == outcome(parse_element, H, text), text
        if want[0] == "ParseError":
            errors.add(want[1].split(" ")[0])
    # values, zero denominators and malformed literals all occur
    assert errors == {"zero", "bad"}


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_coordinate_lists_match_the_fraction_oracle(alg):
    rng = random.Random(2502 + alg.dim)
    seen = set()
    for _ in range(3000):
        text = coordinate_list(rng, alg.dim)
        want = outcome(parse_element, alg, text)
        assert outcome(dio.parse_element, alg, text) == want, text
        seen.add(want[1].split(" ")[0] if want[0] == "ParseError" else "value")
        if "," not in text:
            assert outcome(dio.parse_rational, text) == outcome(parse_rational, text), text
    # values, zero denominators, malformed and miscounted coordinates all occur
    assert {"value", "zero", "not", "expected"} <= seen


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_formatted_elements_match_the_fraction_oracle(alg):
    rng = random.Random(2503 + alg.dim)
    for _ in range(1500):
        e = big_element(rng, alg)
        text = dio.format_element(e)
        assert text == format_element(e)
        assert dio.parse_element(alg, text) == e
        for q in e.coords:
            assert dio.format_rational(q) == format_rational(q)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_number_tokens_of_polynomials_are_scalars(alg):
    rng = random.Random(2504 + alg.dim)
    for _ in range(300):
        text = number(rng)
        try:
            want = NCPoly.scalar_const(alg, 1, _fraction(text))
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                dio.parse_poly(alg, 1, text)
            assert str(info.value) == str(exc)
            continue
        assert dio.parse_poly(alg, 1, text) == want
