import json
import os
from fractions import Fraction

import pytest

from divring.algebra import BasisChange, change_basis, quaternion_algebra, rational_algebra
from divring.cli import main
from divring.errors import ParseError
from divring.io import (
    algebra_payload,
    dump_json,
    format_element,
    format_rational,
    format_vector,
    load_algebra,
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


def test_algebra_payload_round_trip(tmp_path):
    # after this basis change the constants are fractional and the unit is
    # no longer a basis vector
    moved = change_basis(H, BasisChange([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 3]]))
    assert moved.unit_index is None
    assert any(c.denominator != 1 for plane in moved.constants for row in plane for c in row)
    for alg in (H, moved):
        path = tmp_path / "alg.json"
        dump_json(str(path), algebra_payload(alg))
        again = load_algebra(str(path))
        assert again == alg


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


def test_outputs_are_reproducible(capsys):
    first = run_cli(capsys, "form", "diagonalize", data("form_norm.json"))
    second = run_cli(capsys, "form", "diagonalize", data("form_norm.json"))
    assert first == second
    a = run_cli(capsys, "tower", "basis", data("mod3_tower.json"),
                "--gens", "2:(1,0),(0,1),(1,1);3:(0,0),(1,0)")
    b = run_cli(capsys, "tower", "basis", data("mod3_tower.json"),
                "--gens", "2:(1,0),(0,1),(1,1);3:(0,0),(1,0)")
    assert a == b
