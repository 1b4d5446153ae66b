"""Record the golden CLI transcript used by the `cli` workload.

    python3 perfbench/record_golden.py

Runs every corpus command in-process against the library in src/ and
writes perfbench/golden/cli.json: argv, exit code and stdout of each.
The corpus is fixed (its literals come from a constant seed); the
benchmark's --seed only orders it.  Re-record only when a change is meant
to alter CLI output, and say so in the change.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS_SEED = 20091001
D = "demos/data/"


def _q(rng):
    """A quaternion literal such as '2 - 1/3i + k'."""
    parts = []
    for unit in ("", "i", "j", "k"):
        c = rng.choice([0, 0, 1, -1, 2, -3, "1/2", "-2/3", 5])
        if c == 0:
            continue
        text = str(c)
        sign = "-" if text.startswith("-") else "+"
        mag = text.lstrip("-")
        body = (mag if unit == "" or mag != "1" else "") + unit
        parts.append((sign, body))
    if not parts:
        return "0"
    first = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return " ".join([first] + [f"{s} {b}" for s, b in parts[1:]])


def _vec(rng, n=2):
    return "; ".join(_q(rng) for _ in range(n))


def corpus() -> list:
    """(verb, argv) pairs: every verb on demos/data/, plus error paths."""
    rng = random.Random(CORPUS_SEED)
    out = [("algebra check", ["algebra", "check", src])
           for src in (D + "quaternion.json", "quaternion", "complex", "rational")]
    for src in ("form_case2.json", "form_norm.json"):
        out.append(("form diagonalize", ["form", "diagonalize", D + src]))
        out.append(("form diagonalize", ["form", "diagonalize", D + src, "--try-all-pivots"]))
    for _ in range(8):
        # pure imaginary a makes the equation degenerate
        a = rng.choice(["i", "2j", "-k", "1/2i"]) if rng.random() < 0.4 else _q(rng)
        out.append(("form solve-axxa", ["form", "solve-axxa", "--a", a, "--b", _q(rng)]))
    c6 = [f"a{i}" for i in range(6)]
    for _ in range(4):
        gens = ",".join(rng.sample(c6, rng.randint(1, 3)))
        out.append(("rep closure", ["rep", "closure", D + "c6.json", "--gens", gens]))
        out.append(("rep closure", ["rep", "closure", D + "c6.json", "--gens", gens, "--words"]))
    for gens in ("a1,a2,a3", "a2,a3", "a5,a4", "a1"):
        out.append(("rep basis", ["rep", "basis", D + "c6.json", "--gens", gens]))
    for src in ("c6.json", "c6_translation.json", "mod3_scalars.json", "mod3_translations.json"):
        out.append(("rep classify", ["rep", "classify", D + src]))
    tower = D + "mod3_tower.json"
    for gens in ("2:(1,0),(0,1);3:(0,0)", "2:(1,1),(0,2);3:(2,1)", "2:(1,0);3:(0,0)"):
        out.append(("tower closure", ["tower", "closure", tower, "--gens", gens]))
    for gens in ("2:(1,0),(0,1),(1,1);3:(0,0),(1,0)", "2:(2,2),(1,0),(0,1);3:(1,1)"):
        out.append(("tower basis", ["tower", "basis", tower, "--gens", gens]))
    out.append(("tower classify", ["tower", "classify", tower]))
    for hand in ("right", "left"):
        for first, second in (("map_a", "map_b"), ("map_b", "map_a")):
            out.append(("affine compose", ["--hand", hand, "affine", "compose",
                                           "--m1", D + first + ".json", "--m2", D + second + ".json"]))
    for point in ("1 + j; i; 0", "1; i; 1", "3; i; 0", "1/2 - k; i; 0", "1; 0; 0"):
        out.append(("affine plane-contains", ["affine", "plane-contains",
                                              "--plane", D + "plane_line.json", "--point", point]))
    out.append(("affine rank", ["affine", "rank", D + "rank2.json"]))
    for chart in ("chart_mixing.json", "chart_quadratic.json"):
        for _ in range(3):
            out.append(("calc pushforward", ["calc", "pushforward", "--chart", D + chart,
                                             "--point", _vec(rng), "--vector", _vec(rng)]))
    quad = D + "chart_quadratic.json"
    for _ in range(3):
        out.append(("calc connection", ["calc", "connection", "--chart", quad, "--point", _vec(rng),
                                        "--v", _vec(rng), "--a", _vec(rng)]))
    for verb in ("parallel", "covariant"):
        for field in ("i; (2k)", "x1 * (j); x2 + 1", "x1 * x1; (1/2) * x2 * i"):
            out.append((f"calc {verb}", ["calc", verb, "--chart", quad, "--field", field,
                                         "--point", _vec(rng), "--direction", _vec(rng)]))
    for path, t0, dt in (("x1 * (j); x1 * x1 * (-1)", "1", "1"),
                         ("x1 * (j); x1 * (k) + x1 * x1 * (-1)", "3", "1/2"),
                         ("x1; x1 * x1", "2", "-1"),
                         ("x1 * (i) + 1; x1 * (k)", "1/3", "2")):
        out.append(("calc geodesic", ["calc", "geodesic", "--chart", quad, "--path", path,
                                      "--t0", t0, "--dt", dt]))
    for a, b in (("i", "2i"), ("1", "j"), ("j", "i + 3j")):
        out.append(("form solve-axxa", ["form", "solve-axxa", "--a", a, "--b", b]))
    out.append(("form solve-axxa", ["form", "solve-axxa", "--a", "zz", "--b", "j"]))
    return out


# Defects of the I/O boundary: both should end with exit 1 and an
# `error:` line, but escape main() as KeyError and IsADirectoryError.
KNOWN_DEFECTS = [
    ("rep classify", ["rep", "classify", "perfbench/data/rep_missing_tables.json"]),
    ("rep classify", ["rep", "classify", "demos/data"]),
]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import types

    import divring.cli
    import wl_cli

    lib = types.SimpleNamespace(cli=divring.cli)
    transcript = []
    for verb, argv in corpus():
        code, out, _ = wl_cli.run_cli(lib, {"argv": argv})
        transcript.append({"verb": verb, "argv": argv, "exit": code, "stdout": out})
    doc = {
        "transcript": transcript,
        "known_defects": [{"verb": verb, "argv": argv, "exit": 1, "stdout": ""}
                          for verb, argv in KNOWN_DEFECTS],
    }
    with open(wl_cli.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(transcript)} commands to {os.path.relpath(wl_cli.GOLDEN, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
