"""`cli`: the batch front end, `divring.cli.main(argv)` run in-process.

Every verb runs on the files in demos/data/ with stdout captured.  Stdout
and exit code must match, byte for byte, the transcript in
golden/cli.json, recorded with record_golden.py.  Argument parsing, JSON
loading, literal parsing and formatting dominate here, and nowhere else.

`cli-defects` adds two error-path jobs that escape `main` as Python
exceptions instead of ending with exit 1 and an `error:` line, so they
fail until the I/O boundary catches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from common import require, stratified

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "cli.json")
POOL_SIZE = 600


def expected_outcomes(lib) -> tuple:
    return ()


def load_golden(path=GOLDEN) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pool(rng, entries, size):
    return [(f"{'verb' if e['exit'] == 0 else 'error'}/{e['verb']}", e)
            for e in (entries[i] for i in stratified(rng, range(len(entries)), size))]


def setup(lib, rng, size=POOL_SIZE) -> list:
    return _pool(rng, load_golden()["transcript"], size)


def setup_with_defects(lib, rng, size=POOL_SIZE) -> list:
    golden = load_golden()
    return _pool(rng, golden["transcript"] + golden["known_defects"], size)


def run_cli(lib, entry):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(entry["argv"]))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_cli(lib, entry, result):
    code, out, err = result
    require(code == entry["exit"], f"{' '.join(entry['argv'])}: exit {code}, golden {entry['exit']}")
    require(out == entry["stdout"], f"{' '.join(entry['argv'])}: stdout differs from the golden transcript")
    if code:
        require(any(line.startswith("error:") for line in err.splitlines()),
                f"{' '.join(entry['argv'])}: no 'error:' line on stderr")


JOBS = {"verb": (run_cli, check_cli), "error": (run_cli, check_cli)}
