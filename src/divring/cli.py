"""Batch command-line front end.

Every command reads files or literals, calls the library and prints a
canonical deterministic result: no timestamps, no unordered iteration.
Exit codes: 0 success, 1 malformed input, 2 domain errors (a "none"
outcome of the two-sided equation is a result, not an error).  A usage
error (unknown verb, missing required option, bad `--hand`) also exits 2,
with argparse's `divring ...: error:` line, not the program's `error:` line.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial
from typing import Optional, Sequence

from . import affine as aff
from . import calculus as calc
from . import forms
from . import io as dio
from . import omega
from . import towers
from .errors import DivRingError, ParseError
from .omega import Act, App, Gen, Sub


def _split_outside_parens(text: str, sep: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _resolve_labels(carrier, text: str) -> list:
    by_name = {dio.format_label(x): x for x in carrier}
    out = []
    for name in _split_outside_parens(text, ","):
        if name not in by_name:
            raise ParseError(f"unknown carrier label {name!r}")
        out.append(by_name[name])
    return out


def format_word(word) -> str:
    """Closure words print as terms; a superposed word prints its body
    followed by the substitution of each level up to its own, lowest level
    first: `body[g := w, ...; ...]`."""
    if isinstance(word, Sub):
        levels = "; ".join(
            ", ".join(f"{dio.format_label(k)} := {format_word(w)}" for k, w in t.items())
            for t in word.tables[: word.level - 1]
        )
        return f"{format_word(word.body)}[{levels}]"
    if isinstance(word, Gen):
        return dio.format_label(word.key)
    if isinstance(word, App):
        return f"{word.op}({', '.join(format_word(c) for c in word.children)})"
    if isinstance(word, Act):
        actor = (
            format_word(word.actor)
            if isinstance(word.actor, (Gen, App, Act, Sub))
            else dio.format_label(word.actor)
        )
        return f"act[{actor}]({format_word(word.child)})"
    raise TypeError(f"not a word: {word!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_algebra_check(args) -> int:
    alg = dio.load_algebra(args.source)
    unital = "unital" if alg.unit_index is not None else "unital (composite unit)"
    print(f"ok: associative, {unital}, dim {alg.dim}")
    return 0


def _cmd_form_diagonalize(args) -> int:
    _, matrix = dio.load_form(args.source)
    quad = forms.quadratic_from_bilinear(matrix)
    diag = forms.diagonalize(quad, try_all_pivots=args.try_all_pivots)
    print(f"rank: {diag.residual_rank}")
    for pos, (d, cov) in enumerate(zip(diag.diagonal, diag.substitution)):
        print(f"diagonal[{pos}]: {dio.format_element(d)}")
        print(f"covector[{pos}]: {dio.format_vector(cov)}")
    if diag.extra_linear is not None:
        rows = [
            ",".join(dio.format_rational(x) for x in row)
            for row in diag.extra_linear
        ]
        print("pre-transform: " + "; ".join(rows))
    return 0


def _cmd_form_solve_axxa(args) -> int:
    alg = dio.load_algebra(args.algebra)
    a = dio.parse_element(alg, args.a)
    b = dio.parse_element(alg, args.b)
    outcome = forms.solve_axxa(a, b)
    if outcome.kind == "none":
        print("none")
    elif outcome.kind == "unique":
        print(f"unique: {dio.format_element(outcome.witness)}")
    else:
        print(
            f"infinite: witness {dio.format_element(outcome.witness)}, "
            f"nullspace dim {outcome.nullspace_dim}"
        )
    return 0


def _cmd_rep_closure(args) -> int:
    rep = dio.load_representation(args.source)
    gens = _resolve_labels(rep.acted.carrier, args.gens)
    clo = omega.closure(rep, gens)
    print("closure: " + ",".join(dio.format_label(m) for m in clo.members))
    print("full: " + ("yes" if clo.is_full else "no"))
    if args.words:
        for m in clo.members:
            print(f"word {dio.format_label(m)} = {format_word(clo.word_of[m])}")
    return 0


def _cmd_rep_basis(args) -> int:
    rep = dio.load_representation(args.source)
    gens = _resolve_labels(rep.acted.carrier, args.gens)
    basis = omega.extract_basis(rep, gens)
    print("basis: " + ",".join(dio.format_label(x) for x in basis))
    return 0


def _cmd_rep_classify(args) -> int:
    rep = dio.load_representation(args.source)
    flags = omega.classify(rep)

    def yn(v):
        return "yes" if v else "no"

    print(
        f"effective: {yn(flags.effective)}; transitive: {yn(flags.transitive)}; "
        f"single-transitive: {yn(flags.single_transitive)}"
    )
    return 0


def _parse_tower_gens(tower: towers.Tower, text: str) -> list:
    gens = [[] for _ in range(tower.height - 1)]
    for chunk in _split_outside_parens(text, ";"):
        level_str, _, labels = chunk.partition(":")
        try:
            level = int(level_str)
        except ValueError as exc:
            raise ParseError(f"bad tower generator chunk {chunk!r}") from exc
        if not 2 <= level <= tower.height:
            raise ParseError(f"level {level} out of range")
        gens[level - 2].extend(
            _resolve_labels(tower.algebras[level - 1].carrier, labels)
        )
    return gens


def _cmd_tower_closure(args) -> int:
    tower = dio.load_tower(args.source, max_product=args.max_product)
    gens = _parse_tower_gens(tower, args.gens)
    clo = towers.tower_closure(tower, gens)
    for li in range(1, tower.height):
        labels = ",".join(dio.format_label(m) for m in clo.members[li])
        print(f"level {li + 1}: {labels}")
    print("full: " + ("yes" if clo.is_full else "no"))
    return 0


def _cmd_tower_basis(args) -> int:
    tower = dio.load_tower(args.source, max_product=args.max_product)
    gens = _parse_tower_gens(tower, args.gens)
    basis = towers.tower_basis(tower, gens)
    for li, level in enumerate(basis):
        labels = ",".join(dio.format_label(x) for x in level)
        print(f"level {li + 2}: {labels}")
    return 0


def _cmd_tower_classify(args) -> int:
    tower = dio.load_tower(args.source, max_product=args.max_product)
    for li, rep in enumerate(tower.reps):
        flags = omega.classify(rep)
        bits = []
        if flags.effective:
            bits.append("effective")
        if flags.transitive:
            bits.append("transitive")
        if flags.single_transitive:
            bits.append("single-transitive")
        print(f"level {li + 1}->{li + 2}: " + (", ".join(bits) if bits else "none"))
    return 0


def _cmd_affine_compose(args) -> int:
    _, m1 = dio.load_affine_map(args.m1, hand=args.hand)
    _, m2 = dio.load_affine_map(args.m2, hand=args.hand)
    composed = aff.compose_affine(m1, m2)
    for r, row in enumerate(composed.linear):
        print(f"linear[{r}]: {dio.format_vector(row)}")
    print(f"shift: {dio.format_vector(composed.shift)}")
    return 0


def _cmd_affine_plane_contains(args) -> int:
    alg, plane = dio.load_plane(args.plane)
    point = dio.parse_vector(alg, args.point)
    print("yes" if aff.plane_contains(plane, point) else "no")
    return 0


def _cmd_affine_rank(args) -> int:
    _, rows = dio.load_element_matrix(args.source)
    print(f"rank: {aff.nc_rank(rows)}")
    return 0


def _cmd_calc_pushforward(args) -> int:
    chart = dio.load_chart(args.chart)
    point = dio.parse_vector(chart.algebra, args.point)
    vec = dio.parse_vector(chart.algebra, args.vector)
    out = calc.pushforward_vector(chart, point, vec)
    print(f"vector: {dio.format_vector(out)}")
    return 0


def _cmd_calc_connection(args) -> int:
    chart = dio.load_chart(args.chart)
    gamma = calc.chart_connection(chart)
    point = dio.parse_vector(chart.algebra, args.point)
    v = dio.parse_vector(chart.algebra, args.v)
    a = dio.parse_vector(chart.algebra, args.a)
    out = gamma.apply(point, v, a)
    print(f"gamma: {dio.format_vector(out)}")
    return 0


def _cmd_calc_field(op, label, args) -> int:
    """`calc parallel` and `calc covariant`: `op` names the calculus
    function, looked up when called, and `label` the output line."""
    chart = dio.load_chart(args.chart)
    gamma = calc.chart_connection(chart)
    field = [
        dio.parse_poly(chart.algebra, chart.n, s)
        for s in _split_outside_parens(args.field, ";")
    ]
    point = dio.parse_vector(chart.algebra, args.point)
    direction = dio.parse_vector(chart.algebra, args.direction)
    res = getattr(calc, op)(gamma, field, point, direction,
                            sign=args.sign_convention)
    print(f"{label}: {dio.format_vector(res)}")
    return 0


def _cmd_calc_geodesic(args) -> int:
    chart = dio.load_chart(args.chart)
    gamma = calc.chart_connection(chart)
    path = [
        dio.parse_poly(chart.algebra, 1, s)
        for s in _split_outside_parens(args.path, ";")
    ]
    t0 = dio.parse_element(chart.algebra, args.t0)
    dt = dio.parse_element(chart.algebra, args.dt)
    res = calc.geodesic_residual(gamma, path, t0, dt, sign=args.sign_convention)
    print(f"residual: {dio.format_vector(res)}")
    return 0


# ---------------------------------------------------------------------------
# parser

# One row (group, verb, handler, arguments) per verb, in help order.  An argument
# is a positional name, "--x" for a required option, or (name, add_argument keywords).
_MAX_PRODUCT = ("--max-product", {"type": int, "default": 10_000})
_FIELD = ("--chart", "--field", "--point", "--direction")
_VERBS = (
    ("algebra", "check", _cmd_algebra_check, ("source",)),
    ("form", "diagonalize", _cmd_form_diagonalize,
     ("source", ("--try-all-pivots", {"action": "store_true"}))),
    ("form", "solve-axxa", _cmd_form_solve_axxa,
     (("--algebra", {"default": "quaternion"}), "--a", "--b")),
    ("rep", "closure", _cmd_rep_closure,
     ("source", "--gens", ("--words", {"action": "store_true"}))),
    ("rep", "basis", _cmd_rep_basis, ("source", "--gens")),
    ("rep", "classify", _cmd_rep_classify, ("source",)),
    ("tower", "closure", _cmd_tower_closure, ("source", "--gens", _MAX_PRODUCT)),
    ("tower", "basis", _cmd_tower_basis, ("source", "--gens", _MAX_PRODUCT)),
    ("tower", "classify", _cmd_tower_classify, ("source", _MAX_PRODUCT)),
    ("affine", "compose", _cmd_affine_compose, ("--m1", "--m2")),
    ("affine", "plane-contains", _cmd_affine_plane_contains, ("--plane", "--point")),
    ("affine", "rank", _cmd_affine_rank, ("source",)),
    ("calc", "pushforward", _cmd_calc_pushforward, ("--chart", "--point", "--vector")),
    ("calc", "connection", _cmd_calc_connection, ("--chart", "--point", "--v", "--a")),
    ("calc", "parallel",
     partial(_cmd_calc_field, "parallel_residual", "residual"), _FIELD),
    ("calc", "covariant",
     partial(_cmd_calc_field, "covariant_derivative", "derivative"), _FIELD),
    ("calc", "geodesic", _cmd_calc_geodesic, ("--chart", "--path", "--t0", "--dt")),
)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; parsing does not modify it."""
    parser = argparse.ArgumentParser(
        prog="divring",
        description="exact geometry over finite-dimensional division rings",
    )
    parser.add_argument("--hand", choices=("left", "right"), default="right",
                        help="multiplication-side convention for affine maps")
    parser.add_argument("--sign-convention", choices=("8.2", "9.1"),
                        default="8.2", dest="sign_convention",
                        help="sign relating connections to transport equations")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {g: top.add_parser(g).add_subparsers(dest="verb", required=True)
              for g in dict.fromkeys(row[0] for row in _VERBS)}
    for group, verb, handler, arguments in _VERBS:
        p = groups[group].add_parser(verb)
        for arg in arguments:
            if isinstance(arg, str):
                arg = (arg, {"required": True} if arg.startswith("--") else {})
            p.add_argument(arg[0], **arg[1])
        p.set_defaults(func=handler)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivRingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
