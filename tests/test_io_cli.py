import json
import os
import random
from fractions import Fraction

import pytest

from divring.algebra import (
    BasisChange,
    change_basis,
    complex_algebra,
    quaternion_algebra,
    rational_algebra,
)
from divring.affine import AffineMap, Plane
from divring.calculus import Chart
from divring.cli import main
from divring.errors import ParseError
from divring.forms import BilinearMatrix
from divring.ncpoly import NCPoly
from divring.io import (
    algebra_payload,
    dump_json,
    format_element,
    format_poly,
    format_rational,
    format_vector,
    load_affine_map,
    load_algebra,
    load_chart,
    load_element_matrix,
    load_form,
    load_plane,
    load_representation,
    load_tower,
    parse_element,
    parse_poly,
    parse_quaternion_literal,
    parse_rational,
    parse_vector,
)
from conftest import random_element

H = quaternion_algebra()
DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")


def data(name):
    return os.path.join(DATA, name)


# ---------------------------------------------------------------------------
# text formats


def test_rational_round_trip():
    for q in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
        assert parse_rational(format_rational(q)) == q
    with pytest.raises(ParseError):
        parse_rational("1.5")


def test_quaternion_literal_examples():
    e = parse_quaternion_literal("1/2 - 3i + k")
    assert e.coords == (Fraction(1, 2), -3, 0, 1)
    assert parse_quaternion_literal("0").is_zero()
    assert parse_quaternion_literal("-j").coords == (0, 0, -1, 0)
    assert parse_quaternion_literal("2i + i").coords == (0, 3, 0, 0)


def test_element_round_trip(rng):
    for _ in range(30):
        e = random_element(rng, H)
        assert parse_element(H, format_element(e)) == e
    r = rational_algebra()
    assert parse_element(r, "-5/3") == r.scalar(Fraction(-5, 3))


def test_generic_coordinate_lists():
    e = parse_element(H, "1,-2,0,1/3")
    assert e.coords == (1, -2, 0, Fraction(1, 3))
    with pytest.raises(ParseError):
        parse_element(H, "1,2")


def test_vector_round_trip(rng):
    vec = tuple(random_element(rng, H) for _ in range(3))
    assert parse_vector(H, format_vector(vec)) == vec


FUZZ_ALGEBRAS = [H, complex_algebra(), rational_algebra()]
FUZZ_TOKENS = ["x1", "0", "1", "2", "7", "/", "i", "j", "k", "+", "-", "*", "(", ")", ",", ";", " "]


def parse_outcome(call):
    """("ok", value of call()), or ParseError; any other exception escapes."""
    try:
        return "ok", call()
    except ParseError:
        return ParseError


@pytest.mark.parametrize("alg", FUZZ_ALGEBRAS, ids=["quaternion", "complex", "rational"])
def test_literal_parsers_end_in_a_value_or_parse_error(alg):
    rng = random.Random(1800 + alg.dim)
    for _ in range(4000):
        text = "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 12)))
        parse_outcome(lambda: parse_rational(text))
        parse_outcome(lambda: parse_quaternion_literal(text))
        parse_outcome(lambda: parse_element(alg, text))
        parse_outcome(lambda: parse_vector(alg, text))
        parse_outcome(lambda: parse_poly(alg, 2, text))


@pytest.mark.parametrize("alg", FUZZ_ALGEBRAS, ids=["quaternion", "complex", "rational"])
def test_leading_minus_negates_a_single_term(alg):
    rng = random.Random(1900 + alg.dim)
    factors = ["x1", "x2", "3", "2/7", "i", "k", "(1/2 - j)", "(1,2)", "(0,1,0,3)", "(5)", "-x1"]
    parsed = 0
    for _ in range(300):
        term = " * ".join(rng.choice(factors) for _ in range(rng.randint(1, 3)))
        want = parse_outcome(lambda: parse_poly(alg, 2, term))
        got = parse_outcome(lambda: parse_poly(alg, 2, "-" + term))
        if want is ParseError:
            assert got is ParseError
        else:
            assert got == ("ok", -want[1])
            parsed += 1
    assert parsed > 0


# after this basis change the constants are fractional and the unit is no
# longer a basis vector
MOVED = change_basis(H, BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]]))


def test_algebra_payload_round_trip(tmp_path):
    assert MOVED.unit_index is None
    assert any(c.denominator != 1 for plane in MOVED.constants for row in plane for c in row)
    from_file = load_algebra(data("quaternion.json"))
    for alg in (H, complex_algebra(), rational_algebra(), from_file, MOVED):
        path = tmp_path / "alg.json"
        dump_json(str(path), algebra_payload(alg))
        again = load_algebra(str(path))
        assert again == alg
        assert again.unit_index == alg.unit_index and again.unit_coords == alg.unit_coords
    assert "unit_coords" in algebra_payload(MOVED) and "unit" not in algebra_payload(MOVED)


def big_element(rng, alg, digits=40):
    """An element whose coordinates have numerators and denominators of up
    to `digits` digits; one coordinate in four is zero."""
    top = 10 ** digits
    return alg.element([Fraction(rng.randint(-top, top), rng.randint(1, top))
                        if rng.randrange(4) else 0 for _ in range(alg.dim)])


@pytest.mark.parametrize("alg", [H, complex_algebra(), rational_algebra(), MOVED],
                         ids=["quaternion", "complex", "rational", "moved"])
def test_big_elements_and_vectors_round_trip(alg):
    rng = random.Random(2500 + alg.dim)
    digits = set()
    for _ in range(40):
        e = big_element(rng, alg)
        assert parse_element(alg, format_element(e)) == e
        vec = tuple(big_element(rng, alg) for _ in range(rng.randint(1, 4)))
        assert parse_vector(alg, format_vector(vec)) == vec
        digits.update(len(str(abs(n))) for q in e.coords for n in (q.numerator, q.denominator))
    assert max(digits) >= 40


def document_algebra(tmp_path, alg):
    """The "algebra" entry of a document over alg: a built-in name, or the
    path of the algebra's payload written beside it."""
    if alg == H:
        return "quaternion"
    path = str(tmp_path / "algebra.json")
    dump_json(path, algebra_payload(alg))
    return path


def written(tmp_path, alg, **fields):
    """The path of a document over alg with the given fields."""
    path = str(tmp_path / "doc.json")
    dump_json(path, {"algebra": document_algebra(tmp_path, alg), **fields})
    return path


def element_rows(rows):
    return [[format_element(e) for e in row] for row in rows]


@pytest.mark.parametrize("alg", [H, MOVED], ids=["quaternion", "moved"])
def test_documents_round_trip(tmp_path, alg):
    rng = random.Random(2600 + (alg is MOVED))
    for _ in range(3):
        n = rng.randint(1, 3)
        grid = [[big_element(rng, alg) for _ in range(n)] for _ in range(n)]
        form = BilinearMatrix(grid)
        again = load_form(written(tmp_path, alg, matrix=element_rows(form.entries)))
        assert again == (alg, form)
        rows = tuple(tuple(big_element(rng, alg) for _ in range(n + 1)) for _ in range(n))
        assert load_element_matrix(written(tmp_path, alg, rows=element_rows(rows))) == (alg, rows)
        shift = [big_element(rng, alg) for _ in range(n)]
        for hand in ("right", "left"):
            amap = AffineMap(grid, shift, hand)
            path = written(tmp_path, alg, linear=element_rows(amap.linear),
                           shift=[format_element(e) for e in amap.shift])
            assert load_affine_map(path, hand) == (alg, amap)
        # n - 1 independent directions in n + 1 coordinates
        plane = Plane([big_element(rng, alg) for _ in range(n + 1)], [row + [alg.zero] for row in grid[:-1]])
        path = written(tmp_path, alg, anchor=[format_element(e) for e in plane.anchor],
                       span=element_rows(plane.span))
        assert load_plane(path) == (alg, plane)


@pytest.mark.parametrize("name", ["chart_mixing.json", "chart_quadratic.json"])
def test_chart_round_trip(tmp_path, name):
    chart = load_chart(data(name))
    path = written(tmp_path, chart.algebra, vars=chart.n,
                   components=[format_poly(c) for c in chart.components],
                   inverse=[format_poly(c) for c in chart.inverse])
    again = load_chart(path)
    assert (again.algebra, again.n) == (chart.algebra, chart.n)
    assert again.components == chart.components and again.inverse == chart.inverse


def test_complex_chart_with_big_coefficients_round_trips(tmp_path):
    alg = complex_algebra()
    rng = random.Random(2700)
    x1, x2 = (NCPoly.var(alg, 2, v) for v in range(2))
    c, t = (NCPoly.const(alg, 2, big_element(rng, alg, digits=20)) for _ in range(2))
    chart = Chart([x1 + t, x2 + x1 * c * x1], [x1 - t, x2 - (x1 - t) * c * (x1 - t)])
    path = written(tmp_path, alg, vars=2,
                   components=[format_poly(f) for f in chart.components],
                   inverse=[format_poly(f) for f in chart.inverse])
    again = load_chart(path)
    assert again.components == chart.components and again.inverse == chart.inverse


def test_algebra_file_with_malformed_unit_is_parse_error(tmp_path):
    payload = algebra_payload(H)
    del payload["unit"]
    for unit_coords in (["1", "0"], 5):
        payload["unit_coords"] = unit_coords
        path = tmp_path / "alg.json"
        dump_json(str(path), payload)
        with pytest.raises(ParseError):
            load_algebra(str(path))


# ---------------------------------------------------------------------------
# Omega-structure documents


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def freeze(x):
    return tuple(freeze(y) for y in x) if isinstance(x, list) else x


def nested_read(node, carriers):
    """(cell, value) pairs of a table or action given as nested lists, one
    level per carrier, read depth first."""
    if not carriers:
        return [((), freeze(node))]
    return [((carriers[0][i],) + cell, value) for i, sub in enumerate(node)
            for cell, value in nested_read(sub, carriers[1:])]


@pytest.mark.parametrize("name", ["c6.json", "c6_translation.json", "mod3_scalars.json",
                                  "mod3_translations.json", "mod3_tower.json"])
def test_omega_documents_load_as_their_nested_lists(name):
    doc = read_json(data(name))
    if "levels" in doc:
        reps = load_tower(data(name)).reps
        docs = [read_json(data(level)) for level in doc["levels"]]
    else:
        reps, docs = [load_representation(data(name))], [doc]
    for rep, doc in zip(reps, docs):
        for alg, part in ((rep.acting, doc["acting"]), (rep.acted, doc["acted"])):
            assert alg.carrier == freeze(part["carrier"])
            assert list(alg.tables) == [op for op, _ in part["signature"]]
            for op, arity in alg.signature.ops:
                want = nested_read(part["tables"][op], [alg.carrier] * arity)
                assert list(alg.tables[op].items()) == want
        want = nested_read(doc["action"], [rep.acting.carrier, rep.acted.carrier])
        assert list(rep.action.items()) == want


def level_with(tmp_path, where, row):
    """mod3_scalars.json with row 0 of its action or acting add table
    replaced by row(old row), and a tower over it and mod3_translations."""
    doc = read_json(data("mod3_scalars.json"))
    rows = doc["action"] if where == "action" else doc["acting"]["tables"]["add"]
    rows[0] = row(rows[0])
    level = tmp_path / "level.json"
    dump_json(str(level), doc)
    tower = tmp_path / "tower.json"
    dump_json(str(tower), {"levels": ["level.json", os.path.abspath(data("mod3_translations.json"))]})
    return str(level), str(tower)


ROWS = {"short": lambda row: row[:-1], "long": lambda row: row + row[:1],
        "string": lambda row: "0" * len(row)}


@pytest.mark.parametrize("where", ["action", "table"])
@pytest.mark.parametrize("shape", sorted(ROWS))
def test_row_of_wrong_shape_is_value_error(tmp_path, capsys, where, shape):
    level, tower = level_with(tmp_path, where, ROWS[shape])
    with pytest.raises(ValueError, match="must be a list of its carrier's length"):
        load_representation(level)
    code, out, err = run_cli(capsys, "tower", "classify", tower)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["action", "table"])
def test_json_object_cell_leaves_the_carrier(tmp_path, capsys, where):
    level, tower = level_with(tmp_path, where, lambda row: [{"x": 0}] + row[1:])
    code, out, err = run_cli(capsys, "tower", "classify", tower)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "leaves the carrier" in err


@pytest.mark.parametrize("signs", [2000, 2001])
def test_long_run_of_leading_signs_is_folded(signs):
    x1 = NCPoly.var(H, 1, 0)
    want = -x1 if signs % 2 else x1
    assert parse_poly(H, 1, "-" * signs + "x1") == want
    assert parse_poly(H, 1, "+-" * signs + "x1") == want
    assert parse_poly(H, 1, "2 * " + "-" * signs + "x1") == want.scale(2)


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_check(capsys):
    code, out, _ = run_cli(capsys, "algebra", "check", data("quaternion.json"))
    assert code == 0
    assert out == "ok: associative, unital, dim 4\n"
    code, out, _ = run_cli(capsys, "algebra", "check", "quaternion")
    assert code == 0 and "dim 4" in out


def test_algebra_check_detects_corruption(tmp_path, capsys):
    payload = algebra_payload(H)
    payload["constants"][1][2][3] = "-1"
    bad = tmp_path / "bad.json"
    dump_json(str(bad), payload)
    code, _, err = run_cli(capsys, "algebra", "check", str(bad))
    assert code == 2
    assert "AssociativityViolation" in err


def test_solve_axxa_outputs(capsys):
    code, out, _ = run_cli(capsys, "form", "solve-axxa",
                           "--algebra", "quaternion", "--a", "i", "--b", "j")
    assert code == 0 and out == "none\n"
    code, out, _ = run_cli(capsys, "form", "solve-axxa",
                           "--a", "i", "--b", "2i")
    assert code == 0
    assert out == "infinite: witness 1, nullspace dim 2\n"
    code, out, _ = run_cli(capsys, "form", "solve-axxa",
                           "--a", "1", "--b", "j")
    assert out == "unique: 1/2j\n"


def test_rep_commands(capsys):
    code, out, _ = run_cli(capsys, "rep", "basis", data("c6.json"),
                           "--gens", "a2,a3")
    assert code == 0 and out == "basis: a2,a3\n"
    code, out, _ = run_cli(capsys, "rep", "basis", data("c6.json"),
                           "--gens", "a1,a2,a3")
    assert out == "basis: a1\n"
    code, out, _ = run_cli(capsys, "rep", "closure", data("c6.json"),
                           "--gens", "a2")
    assert out.splitlines()[0] == "closure: a0,a2,a4"
    code, out, _ = run_cli(capsys, "rep", "classify",
                           data("c6_translation.json"))
    assert out == "effective: yes; transitive: yes; single-transitive: yes\n"


def test_tower_commands(capsys):
    code, out, _ = run_cli(capsys, "tower", "closure", data("mod3_tower.json"),
                           "--gens", "2:(1,0),(0,1);3:(0,0)")
    assert code == 0
    assert out.splitlines()[-1] == "full: yes"
    code, out, _ = run_cli(capsys, "tower", "basis", data("mod3_tower.json"),
                           "--gens", "2:(1,0),(0,1),(1,1);3:(0,0),(1,0)")
    lines = out.splitlines()
    assert lines[0] == "level 2: (0,1),(1,0)"
    assert lines[1] == "level 3: (0,0)"
    code, out, _ = run_cli(capsys, "tower", "classify", data("mod3_tower.json"))
    assert "single-transitive" in out


def test_form_diagonalize(capsys):
    code, out, _ = run_cli(capsys, "form", "diagonalize",
                           data("form_case2.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank: 2"
    assert "pre-transform" in lines[-1]


def test_diagonalize_pivot_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "form.json"
    dump_json(str(bad), {"algebra": "quaternion",
                         "matrix": [["i", "j"], ["j", "0"]]})
    code, _, err = run_cli(capsys, "form", "diagonalize", str(bad))
    assert code == 2
    assert "PivotConditionFailed" in err


def test_affine_commands(capsys):
    code, out, _ = run_cli(capsys, "affine", "compose",
                           "--m1", data("map_a.json"), "--m2", data("map_b.json"))
    assert code == 0
    assert out == "linear[0]: k\nshift: j + k\n"
    code, out, _ = run_cli(capsys, "affine", "rank", data("rank2.json"))
    assert out == "rank: 2\n"
    code, out, _ = run_cli(capsys, "affine", "plane-contains",
                           "--plane", data("plane_line.json"),
                           "--point", "1 + j; i; 0")
    assert out == "yes\n"
    code, out, _ = run_cli(capsys, "affine", "plane-contains",
                           "--plane", data("plane_line.json"),
                           "--point", "1; i; 1")
    assert out == "no\n"


@pytest.mark.parametrize("rows", [[["1", "i"], ["j"]], [["1"], ["j", "k"]]])
def test_rank_of_rows_of_unequal_length_exits_2(tmp_path, capsys, rows):
    doc = tmp_path / "rows.json"
    dump_json(str(doc), {"algebra": "quaternion", "rows": rows})
    code, out, err = run_cli(capsys, "affine", "rank", str(doc))
    assert code == 2 and out == ""
    assert err == "error: DimensionMismatch: rows differ in length\n"


def test_left_hand_compose_of_left_singular_map_exits_2(tmp_path, capsys):
    # (j, -1) P = 0 under the left-hand convention; the right hand inverts P
    doc = tmp_path / "map.json"
    dump_json(str(doc), {"algebra": "quaternion", "linear": [["1", "i"], ["j", "k"]],
                         "shift": ["0", "0"]})
    code, out, err = run_cli(capsys, "--hand", "left", "affine", "compose",
                             "--m1", str(doc), "--m2", str(doc))
    assert code == 2 and out == ""
    assert err == "error: SingularLinearPart: linear part is singular\n"
    code, out, _ = run_cli(capsys, "affine", "compose", "--m1", str(doc), "--m2", str(doc))
    assert code == 0 and out.startswith("linear[0]: ")


def test_calc_commands(capsys):
    code, out, _ = run_cli(capsys, "calc", "pushforward",
                           "--chart", data("chart_mixing.json"),
                           "--point", "1; i", "--vector", "j; k")
    assert code == 0 and out.startswith("vector: ")
    code, out, _ = run_cli(capsys, "calc", "connection",
                           "--chart", data("chart_quadratic.json"),
                           "--point", "0; 0", "--v", "j; 0", "--a", "j; 0")
    assert out == "gamma: 0; 2\n"  # -(jj + jj) = 2
    code, out, _ = run_cli(capsys, "calc", "parallel",
                           "--chart", data("chart_quadratic.json"),
                           "--field", "i; (2k)", "--point", "1; 1",
                           "--direction", "1; 0")
    assert code == 0 and out.startswith("residual: ")
    code, out, _ = run_cli(capsys, "calc", "geodesic",
                           "--chart", data("chart_quadratic.json"),
                           "--path", "x1 * (j); x1 * x1 * (-1)",
                           "--t0", "1", "--dt", "1")
    assert code == 0 and out == "residual: 0; 0\n"


def test_geodesic_image_of_straight_line(capsys):
    # the image of (t j, t k) under x'2 = x2 + x1 x1 is (t j, t k - t^2)
    code, out, _ = run_cli(capsys, "calc", "geodesic",
                           "--chart", data("chart_quadratic.json"),
                           "--path", "x1 * (j); x1 * (k) + x1 * x1 * (-1)",
                           "--t0", "3", "--dt", "1/2")
    assert code == 0 and out == "residual: 0; 0\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "form", "solve-axxa", "--a", "zz", "--b", "j")
    assert code == 1
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "algebra", "check", "no-such-file.json")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["tower", "classify", "{}"],
    ["algebra", "check", "{}"],
    ["form", "diagonalize", "{}"],
    ["affine", "rank", "{}"],
    ["affine", "compose", "--m1", "{}", "--m2", data("map_b.json")],
    ["affine", "plane-contains", "--plane", "{}", "--point", "0; 0; 0"],
    ["calc", "pushforward", "--chart", "{}", "--point", "1; 2", "--vector", "0; 1"],
])
def test_directory_is_parse_error_naming_it(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *(a.format(tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1


def test_tower_level_naming_a_directory_is_parse_error(tmp_path, capsys):
    tower = tmp_path / "tower.json"
    dump_json(str(tower), {"levels": [os.path.abspath(data("c6.json")), str(tmp_path)]})
    code, out, err = run_cli(capsys, "tower", "classify", str(tower))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, doc", [
    (["affine", "rank", "{}"], {"algebra": "quaternion"}),
    (["affine", "rank", "{}"], []),
    (["affine", "plane-contains", "--plane", "{}", "--point", "1"], {"span": [["1"]]}),
    (["affine", "compose", "--m1", "{}", "--m2", "{}"], {"shift": ["1"]}),
    (["calc", "pushforward", "--chart", "{}", "--point", "1", "--vector", "1"],
     {"vars": 1}),
    (["tower", "classify", "{}"], {"levels": 3}),
    (["form", "diagonalize", "{}"], {"algebra": []}),
    # an integer is no path: open() would read that file descriptor
    (["form", "diagonalize", "{}"], {"algebra": 0, "matrix": [["1"]]}),
    (["form", "diagonalize", "{}"], {"matrix": [1]}),
    (["algebra", "check", "{}"], {"dim": 1, "constants": []}),
])
def test_malformed_file_is_parse_error(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    dump_json(str(path), doc)
    code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, doc", [
    (["form", "diagonalize", "{}"], {"algebra": [], "entries": [[1]]}),
    (["form", "diagonalize", "{}"], {"algebra": 0, "matrix": [["1"]]}),
    (["affine", "rank", "{}"], {"algebra": {"dim": 1}, "rows": [["1"]]}),
    (["calc", "pushforward", "--chart", "{}", "--point", "1", "--vector", "1"],
     {"algebra": [1], "vars": 1, "components": ["x1"]}),
])
def test_nested_malformed_value_names_the_file(tmp_path, capsys, argv, doc):
    path = tmp_path / "f.json"
    dump_json(str(path), doc)
    code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: algebra: malformed value (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["1/0", "3/00", " 7/0 "])
def test_zero_denominator_is_parse_error_at_each_literal_site(text):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational(text)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational("-" + text.strip())
    with pytest.raises(ParseError, match="zero denominator"):
        parse_quaternion_literal(f"2 + {text.strip()}j")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly(H, 2, f"x1 + {text.strip()} * x2")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element(H, f"1,{text},0,0")


@pytest.mark.parametrize("point, components", [
    ("1/0,2", None),  # a coordinate list: parse_rational
    ("1/0 + i; 2", None),  # a quaternion literal
    ("1; 2", ["x1 + 1/0", "x1 + x2"]),  # a polynomial factor in the chart file
])
def test_zero_denominator_exits_with_one_error_line(tmp_path, capsys, point, components):
    chart = data("chart_mixing.json")
    if components is not None:
        chart = str(tmp_path / "chart.json")
        dump_json(chart, {"algebra": "quaternion", "components": components, "vars": 2})
    code, out, err = run_cli(capsys, "calc", "pushforward", "--chart", chart,
                             "--point", point, "--vector", "0; 1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err and err.count("\n") == 1


@pytest.mark.parametrize("components, inverse, code, err", [
    (["-" * 3000 + "x1", "x1 + x2"], None, 0, ""),
    (["x1 + x2", "x2"], ["x1 - x2 + 1", "x2"], 2,
     "error: NoInverseChart: inverse after chart is not the identity map\n"),
])
def test_pushforward_on_a_written_chart(tmp_path, capsys, components, inverse, code, err):
    chart = str(tmp_path / "chart.json")
    doc = {"algebra": "quaternion", "components": components, "vars": 2}
    if inverse is not None:
        doc["inverse"] = inverse
    dump_json(chart, doc)
    got_code, out, got_err = run_cli(capsys, "calc", "pushforward", "--chart", chart,
                                     "--point", "1; 2", "--vector", "0; 1")
    assert (got_code, got_err) == (code, err)
    assert out.startswith("vector: ") if code == 0 else out == ""


def test_pushforward_on_a_complex_chart_with_a_reordered_inverse(tmp_path, capsys):
    # x1 (0,1) x1 and (0,1) x1 x1 are one map over the complex numbers
    chart = str(tmp_path / "chart.json")
    dump_json(chart, {"algebra": "complex", "components": ["x1", "x2 + x1 * (0,1) * x1"],
                      "inverse": ["x1", "x2 - (0,1) * x1 * x1"], "vars": 2})
    assert run_cli(capsys, "calc", "pushforward", "--chart", chart, "--point", "1,0; 2,0",
                   "--vector", "0,0; 1,0") == (0, "vector: 0,0; 1,0\n", "")


@pytest.mark.parametrize("argv", [
    ["pushforward", "--point", "1; 2; 3", "--vector", "1; 2; 3"],
    ["pushforward", "--point", "1; 2", "--vector", "1"],
    ["connection", "--point", "1", "--v", "1; 2", "--a", "1; 2"],
    ["parallel", "--field", "x1", "--point", "1; 2", "--direction", "1; 2"],
    ["covariant", "--field", "x1; x2", "--point", "1; 2", "--direction", "1"],
    ["geodesic", "--path", "x1", "--t0", "1", "--dt", "1"],
])
def test_wrong_length_calc_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, "calc", argv[0], "--chart", data("chart_quadratic.json"),
                             *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: DimensionMismatch: vector length does not match the chart\n"


def test_outputs_are_reproducible(capsys):
    first = run_cli(capsys, "form", "diagonalize", data("form_norm.json"))
    second = run_cli(capsys, "form", "diagonalize", data("form_norm.json"))
    assert first == second
    a = run_cli(capsys, "tower", "basis", data("mod3_tower.json"),
                "--gens", "2:(1,0),(0,1),(1,1);3:(0,0),(1,0)")
    b = run_cli(capsys, "tower", "basis", data("mod3_tower.json"),
                "--gens", "2:(1,0),(0,1),(1,1);3:(0,0),(1,0)")
    assert a == b


@pytest.mark.parametrize("argv, err", [
    (["algebra", "check", "{brace}"], "error: {brace}: Expecting property name"),
    (["tower", "classify", data("mod3_tower.json"), "--max-product", "10"],
     "error: carrier product 243 exceeds the bound 10\n"),
    (["rep", "closure", data("c6.json"), "--gens", "zz"],
     "error: unknown carrier label 'zz'\n"),
    (["tower", "closure", data("mod3_tower.json"), "--gens", "9:a"],
     "error: level 9 out of range\n"),
    (["tower", "closure", data("mod3_tower.json"), "--gens", "x:a"],
     "error: bad tower generator chunk 'x:a'\n"),
])
def test_bad_cli_input_exits_1_with_one_error_line(tmp_path, capsys, argv, err):
    brace = tmp_path / "brace.json"
    brace.write_text("{", encoding="utf-8")
    code, out, got = run_cli(capsys, *(a.format(brace=brace) for a in argv))
    assert code == 1 and out == ""
    assert got.startswith(err.format(brace=brace)) and got.count("\n") == 1


@pytest.mark.parametrize("dt", ["1", "i", "1 + j", "-2/3 + k"])
def test_geodesic_sign_convention_flips_the_connection_term(capsys, dt):
    # along the flat line (t, t) the second derivative vanishes, and the
    # chart x'2 = x2 + x1 x1 has Gamma(v)(a) = (0, -(v a + a v)), so the
    # residual is second -/+ Gamma = (0, +/- 2 dt dt) under "9.1" / "8.2"
    argv = ["calc", "geodesic", "--chart", data("chart_quadratic.json"),
            "--path", "x1; x1", "--t0", "5/7", "--dt", dt]
    step = parse_element(H, dt)
    second = (H.zero, H.zero)
    gamma = (H.zero, -(step * step + step * step))
    for sign, flip in (("9.1", -1), ("8.2", 1)):
        want = tuple(s + g.scale(flip) for s, g in zip(second, gamma))
        assert run_cli(capsys, "--sign-convention", sign, *argv) == (
            0, f"residual: {format_vector(want)}\n", "")
    if dt == "1":
        assert run_cli(capsys, "--sign-convention", "9.1", *argv)[1] == "residual: 0; 2\n"
        assert run_cli(capsys, *argv)[1] == "residual: 0; -2\n"
