"""Text and file formats.

Rationals print as "p" or "p/q" with positive denominator.  Elements of
the standard quaternion algebra print in literal syntax ("1/2 - 3i + k");
every other algebra uses comma-separated coordinate lists.  Vectors of
elements join components with "; ".  All writers are deterministic so
repeated runs are byte-identical.

Literals are read and written on integers.  Every number token "p/q" is
split into the integers p and q; an element's numerators are collected
over one common denominator and reduced once, and an element prints from
its integer numerators and denominator with one gcd per coordinate.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .algebra import (
    Algebra,
    BUILTIN_ALGEBRAS,
    Element,
    _reduced,
    quaternion_algebra,
)
from .errors import DivRingError, ParseError
from .forms import BilinearMatrix
from .ncpoly import NCPoly
from .omega import FiniteOmegaAlgebra, Representation, Signature
from .towers import Tower
from .calculus import Chart
from .affine import AffineMap, Plane

# ---------------------------------------------------------------------------
# rationals


def _ratio_text(p: int, q: int) -> str:
    """The rational p/q, q > 0, as "p" or "p/q" in lowest terms."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def format_rational(q: Fraction) -> str:
    return _ratio_text(q.numerator, q.denominator)


_RAT = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _split(text: str) -> tuple[int, int]:
    """The integers p and q > 0 of a matched literal "p" or "p/q"; q = 0
    is a ParseError."""
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    if not q:
        raise ParseError(f"zero denominator in {text!r}")
    return p, q


def _rational(text: str) -> tuple[int, int]:
    text = text.strip()
    if not _RAT.match(text):
        raise ParseError(f"not a rational: {text!r}")
    return _split(text)


def parse_rational(text: str) -> Fraction:
    return Fraction(*_rational(text))


# ---------------------------------------------------------------------------
# elements


def _is_standard_quaternions(alg: Algebra) -> bool:
    return alg == quaternion_algebra()


_UNIT_NAMES = ("1", "i", "j", "k")


def format_element(e: Element) -> str:
    num, den = e._num, e._den
    if _is_standard_quaternions(e.algebra):
        parts = []
        for x, unit in zip(num, _UNIT_NAMES):
            if not x:
                continue
            mag = _ratio_text(abs(x), den)
            body = mag if unit == "1" else ("" if mag == "1" else mag) + unit
            if not parts:
                parts.append(body if x > 0 else "-" + body)
            else:
                parts.append(("+ " if x > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"
    return ",".join([_ratio_text(x, den) for x in num])


def _collect(alg: Algebra, terms) -> Element:
    """The sum of (p/q) e_idx over the (idx, p, q) terms: the numerators
    are kept over one common denominator and reduced once."""
    num = [0] * alg.dim
    den = 1
    for idx, p, q in terms:
        if den % q:
            scale = q // gcd(den, q)
            num = [x * scale for x in num]
            den *= scale
        num[idx] += p * (den // q)
    return _reduced(alg, num, den)


_QTERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\s*([ijk1]?)")


def parse_quaternion_literal(text: str) -> Element:
    alg = quaternion_algebra()
    terms = []
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
        p, q = _split(mag) if mag else (1, 1)
        terms.append((_UNIT_NAMES.index(unit) if unit else 0, -p if sign == "-" else p, q))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return _collect(alg, terms)


def parse_element(alg: Algebra, text: str) -> Element:
    text = text.strip()
    if "," in text:
        parts = [_rational(p) for p in text.split(",")]
        if len(parts) != alg.dim:
            raise ParseError(f"expected {alg.dim} coordinates, got {len(parts)}")
        return _collect(alg, [(idx, p, q) for idx, (p, q) in enumerate(parts)])
    if _is_standard_quaternions(alg):
        return parse_quaternion_literal(text)
    if alg.dim == 1:
        p, q = _rational(text)
        return _reduced(alg, [p], q)
    raise ParseError(f"cannot parse element {text!r} for {alg!r}")


def format_vector(vec: Sequence[Element]) -> str:
    return "; ".join(format_element(e) for e in vec)


def parse_vector(alg: Algebra, text: str) -> tuple:
    return tuple(parse_element(alg, p) for p in text.split(";"))


# ---------------------------------------------------------------------------
# noncommutative polynomials


_SIMPLE_TOKEN = re.compile(r"(?:(?P<var>x\d+)|(?P<num>\d+(?:/\d+)?)|(?P<name>[ijk])|(?P<op>[+\-*]))")


def _tokenize_poly(text: str) -> list:
    """Tokens: ("var", name) | ("num", str) | ("name", letter) |
    ("op", char) | ("elem", raw literal taken verbatim from parentheses)."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "(":
            close = text.find(")", pos + 1)
            if close < 0:
                raise ParseError("unbalanced parenthesis in polynomial")
            tokens.append(("elem", text[pos + 1 : close].strip()))
            pos = close + 1
            continue
        m = _SIMPLE_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad polynomial near {text[pos:]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(0)))
        pos = m.end()
    return tokens


def parse_poly(alg: Algebra, nvars: int, text: str) -> NCPoly:
    """Grammar: sum of products; factors are x<k>, rational constants,
    quaternion unit letters, or parenthesized element literals."""
    tokens = _tokenize_poly(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor() -> NCPoly:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial")
        kind, value = tok
        if kind == "op" and value in "+-":
            negate = False
            while peek() in (("op", "+"), ("op", "-")):
                negate ^= take()[1] == "-"
            inner = parse_factor()
            return -inner if negate else inner
        if kind == "var":
            take()
            idx = int(value[1:]) - 1
            if not 0 <= idx < nvars:
                raise ParseError(f"variable {value} out of range")
            return NCPoly.var(alg, nvars, idx)
        if kind == "num":
            take()
            return NCPoly.scalar_const(alg, nvars, Fraction(*_split(value)))
        if kind == "name":
            take()
            if not _is_standard_quaternions(alg):
                raise ParseError("unit letters need the quaternion algebra")
            return NCPoly.const(alg, nvars, parse_quaternion_literal(value))
        if kind == "elem":
            take()
            return NCPoly.const(alg, nvars, parse_element(alg, value))
        raise ParseError(f"unexpected token {value!r}")

    def parse_term() -> NCPoly:
        acc = parse_factor()
        while True:
            tok = peek()
            if tok is not None and tok == ("op", "*"):
                take()
                acc = acc * parse_factor()
            else:
                return acc

    def parse_sum() -> NCPoly:
        # a leading sign is parse_factor's unary sign: -1 is central
        acc = parse_term()
        while True:
            tok = peek()
            if tok is None:
                return acc
            if tok == ("op", "+"):
                take()
                acc = acc + parse_term()
            elif tok == ("op", "-"):
                take()
                acc = acc - parse_term()
            else:
                raise ParseError(f"unexpected token {tok[1]!r}")

    return parse_sum()


def format_poly(p: NCPoly) -> str:
    terms = p.terms
    if not terms:
        return "0"
    alg = p.algebra
    basis = alg.basis()

    def const_str(idx: int, coeff: Fraction) -> str:
        body = format_element(basis[idx].scale(coeff))
        if body in ("i", "j", "k") or _RAT.match(body):
            return body
        return f"({body})"

    parts = []
    for (vars_, bs), coeff in sorted(terms.items()):
        factors = [const_str(bs[0], coeff)]
        for pos, v in enumerate(vars_):
            factors.append(f"x{v + 1}")
            factors.append(const_str(bs[pos + 1], Fraction(1)))
        # interior and edge unit factors are redundant under multiplication
        cleaned = [f for f in factors if f != "1"] or ["1"]
        parts.append(" * ".join(cleaned))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# JSON files


def _load_json(path: str) -> dict:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def dump_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _file_loader(load):
    """A loader whose document of the wrong shape, or whose file cannot be
    read, ends as ParseError naming the file; domain errors, ParseError
    among them, pass unchanged.  A source that is no path, such as a value
    read from another document, is reported as a malformed value without
    a name."""

    @functools.wraps(load)
    def checked(source, *args, **kwargs):
        try:
            return load(source, *args, **kwargs)
        except DivRingError:
            raise
        except OSError as exc:
            raise ParseError(f"{exc.filename or source}: {exc.strerror or exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            detail = f"({type(exc).__name__}: {exc})"
            if isinstance(source, (str, os.PathLike)):
                raise ParseError(f"{source}: malformed file {detail}") from exc
            raise ParseError(f"malformed value {detail}") from exc

    return checked


def _document_algebra(source, doc: dict) -> Algebra:
    """The algebra a document names under "algebra", quaternions by
    default; a malformed value is reported under the document's file."""
    value = doc.get("algebra", "quaternion")
    try:
        return load_algebra(value)
    except ParseError as exc:
        if isinstance(value, (str, os.PathLike)):
            raise
        raise ParseError(f"{source}: algebra: {exc}") from exc


@_file_loader
def load_algebra(source: str) -> Algebra:
    """Accepts a built-in name or a JSON file path."""
    if source in BUILTIN_ALGEBRAS:
        return BUILTIN_ALGEBRAS[source]()
    doc = _load_json(source)
    dim = int(doc["dim"])
    unit = int(doc.get("unit", 0))
    unit_coords = doc.get("unit_coords")
    if unit_coords is not None:
        unit_coords = [parse_rational(str(x)) for x in unit_coords]
    constants = [
        [[parse_rational(str(x)) for x in row] for row in plane]
        for plane in doc["constants"]
    ]
    # a table or unit of the wrong shape raises ValueError
    return Algebra(dim, constants, unit, unit_coords)


def algebra_payload(alg: Algebra) -> dict:
    """The JSON document load_algebra reads back.  A unit that is not a
    basis vector is written as its coordinates, `unit_coords`."""
    payload = {
        "dim": alg.dim,
        "constants": [
            [[format_rational(c) for c in row] for row in plane]
            for plane in alg.constants
        ],
    }
    if alg.unit_index is not None:
        payload["unit"] = alg.unit_index
    else:
        payload["unit_coords"] = [format_rational(c) for c in alg.unit_coords]
    return payload


@_file_loader
def load_form(source: str) -> tuple[Algebra, BilinearMatrix]:
    doc = _load_json(source)
    alg = _document_algebra(source, doc)
    rows = [[parse_element(alg, cell) for cell in row] for row in doc["matrix"]]
    return alg, BilinearMatrix(rows)


@_file_loader
def load_element_matrix(source: str) -> tuple[Algebra, tuple]:
    doc = _load_json(source)
    alg = _document_algebra(source, doc)
    rows = tuple(
        tuple(parse_element(alg, cell) for cell in row) for row in doc["rows"]
    )
    return alg, rows


@_file_loader
def load_affine_map(source: str, hand: str = "right") -> tuple[Algebra, AffineMap]:
    doc = _load_json(source)
    alg = _document_algebra(source, doc)
    linear = [[parse_element(alg, cell) for cell in row] for row in doc["linear"]]
    shift = [parse_element(alg, cell) for cell in doc["shift"]]
    return alg, AffineMap(linear, shift, hand)


@_file_loader
def load_plane(source: str) -> tuple[Algebra, Plane]:
    doc = _load_json(source)
    alg = _document_algebra(source, doc)
    anchor = [parse_element(alg, cell) for cell in doc["anchor"]]
    span = [[parse_element(alg, cell) for cell in row] for row in doc["span"]]
    return alg, Plane(anchor, span)


def _freeze(label):
    """A JSON value with every list, nested ones too, made a tuple; each
    list is one comprehension, entered again only for a list inside it."""
    if isinstance(label, list):
        return tuple([_freeze(x) if isinstance(x, list) else x for x in label])
    return label


def _positional(what: str, node, carriers: Sequence) -> dict:
    """A table or action given by carrier position, nested lists one level
    per carrier in carrier order, as the dict from cells of labels to its
    values; ValueError unless every level is a list of its carrier's length."""
    values = [node]
    for carrier in carriers:
        if not all(isinstance(v, list) and len(v) == len(carrier) for v in values):
            raise ValueError(f"{what}: every level must be a list of its carrier's length")
        values = [x for v in values for x in v]
    return dict(zip(itertools.product(*carriers), _freeze(values)))


def _omega_algebra_from_doc(doc: dict, name=None) -> FiniteOmegaAlgebra:
    carrier = [_freeze(x) for x in doc["carrier"]]
    signature = Signature([(op, int(ar)) for op, ar in doc["signature"]])
    tables = {op: _positional(f"table for {op!r}", doc["tables"][op], [carrier] * arity)
              for op, arity in signature.ops}
    return FiniteOmegaAlgebra(carrier, signature, tables, name=name,
                              carrier_bound=max(len(carrier), 64))


def load_representation(source: str) -> Representation:
    doc = _load_json(source)
    acting = _omega_algebra_from_doc(doc["acting"], name="acting")
    acted = _omega_algebra_from_doc(doc["acted"], name="acted")
    action = _positional("action", doc["action"], [acting.carrier, acted.carrier])
    return Representation(acting, acted, action, rep_kind=doc.get("kind", "raw"),
                          handedness=doc.get("hand", "left"))


@_file_loader
def load_tower(source: str, max_product: Optional[int] = None) -> Tower:
    doc = _load_json(source)
    base = os.path.dirname(os.path.abspath(source))
    reps = []
    for rel in doc["levels"]:
        path = rel if os.path.isabs(rel) else os.path.join(base, rel)
        reps.append(load_representation(path))
    tower = Tower(reps)
    if max_product is not None:
        product = 1
        for alg in tower.algebras:
            product *= max(len(alg.carrier), 1)
        if product > max_product:
            raise ParseError(
                f"carrier product {product} exceeds the bound {max_product}"
            )
    return tower


@_file_loader
def load_chart(source: str) -> Chart:
    doc = _load_json(source)
    alg = _document_algebra(source, doc)
    nvars = int(doc["vars"])
    comps = [parse_poly(alg, nvars, s) for s in doc["components"]]
    inverse = None
    if "inverse" in doc:
        inverse = [parse_poly(alg, nvars, s) for s in doc["inverse"]]
    return Chart(comps, inverse)


def format_label(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(format_label(x) for x in label) + ")"
    return str(label)
