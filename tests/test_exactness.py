"""Source guard: every result of the library stays exact.

The library computes over the rationals with Fractions and integer
numerators, so no float may enter: no float or complex literal, no use of
the `float` or `complex` names and no true division `/`, which turns two
integers into a float.  Integer numerators divide with `//`, Fractions
are built with `Fraction(a, b)`.  Invariants are checked by raising,
never by `assert`, which `python -O` strips.  The same holds for the
product code that `algebra` generates from each table support, which
must also hold no literal at all: constants are arguments, never text.
"""

from __future__ import annotations

import ast
from pathlib import Path

import divring
from divring.algebra import _product_source, _support
from test_product import PRODUCT_ALGEBRAS

SOURCES = sorted(Path(divring.__file__).parent.glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
    return found


def test_guard_finds_each_forbidden_construct():
    code = "x = 0.5\ny = float(x)\nassert y\nz = 1 / 2\nz /= 3\nw = 2j\nq = 7 // 2\n"
    assert sorted(inexact_nodes(ast.parse(code))) == [
        (1, "literal 0.5"), (2, "name float"), (3, "assert statement"),
        (4, "true division"), (5, "true division"), (6, "literal 2j"),
    ]


def test_library_source_is_exact():
    assert len(SOURCES) > 10
    found = [(path.name, line, what)
             for path in SOURCES
             for line, what in inexact_nodes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_generated_products_are_exact_and_hold_no_constant():
    for alg in PRODUCT_ALGEBRAS:
        tree = ast.parse(_product_source(_support(alg)))
        assert inexact_nodes(tree) == []
        # index digits live in names such as a3 and c12, never in literals
        assert [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)] == []
