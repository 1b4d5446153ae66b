"""Tests of the benchmark itself (stdlib unittest, no library test deps).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import re
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.chdir(ROOT)

import layers  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402
from common import CheckFailed  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def _tiny(name):
    """A pool holding every job kind of the workload at least once."""
    if name.startswith("cli"):
        golden = wl_cli.load_golden()
        return len(golden["transcript"]) + len(golden["known_defects"]) * (name == "cli-defects")
    return len(importlib.import_module(run.WORKLOADS[name][0]).PATTERN)


class SmokeTest(unittest.TestCase):
    """Every job kind of every workload runs once and passes its check."""

    def test_each_workload_once(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                workload, lib, jobs, raw, scaled = run.set_up(name, 7, _tiny(name))
                self.assertEqual([len(raw), len(scaled)], [run.SETUP_REPEATS] * 2)
                loop = run.Loop(workload, lib, jobs)
                for _ in jobs:
                    loop.step()
                if name == "cli-defects":
                    # exactly the two known I/O-boundary defects fail
                    self.assertEqual(loop.failed, 2, loop.failures)
                else:
                    self.assertEqual(loop.failed, 0, loop.failures)

    def test_end_to_end_metrics(self):
        metrics, loop, record = run.measure("cli", 3, 0.1, trace=0, size=20)
        self.assertEqual(list(metrics), [name for name, _ in run.END_TO_END])
        self.assertTrue(all(value > 0 for value, _ in metrics.values()))
        self.assertGreaterEqual(loop.issued, run.MIN_JOBS)
        for key in ("seed", "commit", "python", "nproc", "loadavg_start", "loadavg_end"):
            self.assertIn(key, record)

    def test_traced_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.tsv")
            metrics, loop, record = run.measure("calculus", 3, 0, trace=1, size=6, span_path=path)
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().split()
                rows = sum(1 for _ in fh)
        self.assertEqual(header, ["span", "name", "parent", "job", "start_ns", "end_ns", "ok"])
        self.assertEqual(rows, record["spans"])
        self.assertEqual(list(metrics), [name for name, _, _ in layers.PER_LAYER])
        for name in ("algebra.self_s", "ncpoly.self_s", "calculus.chart_init.busy_s",
                     "ncpoly.evaluate.calls", "ncpoly.terms_mean"):
            self.assertGreater(metrics[name][0], 0, name)
        self.assertEqual(metrics["omega.closure.calls"][0], 0)
        self.assertEqual(loop.failed, 0)


class CalibrationTest(unittest.TestCase):
    def test_scale_follows_the_calibrations_near_each_job(self):
        cal = [run.CAL_REF_S] * 20 + [2 * run.CAL_REF_S] * 20
        got = run.scales(cal, window=3)
        self.assertEqual(got[:17], [1.0] * 17)
        self.assertEqual(got[23:], [0.5] * 17)

    def test_calibrate_calls_no_library_code(self):
        self.assertNotIn("divring", run.calibrate.__code__.co_names)
        self.assertGreater(run.calibrate(), 0)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.lib = run.load_library()

    def test_rebinds_every_namespace_and_restores(self):
        lib = self.lib
        orig = lib.algebra.mul
        tracer = Tracer(layers.TARGETS)
        tracer.install()
        try:
            for module in (lib.algebra, lib.ncpoly, lib.forms, lib.affine, lib.calculus):
                self.assertIsNot(module.mul, orig, module.__name__)
                self.assertIs(module.mul, lib.algebra.mul)
            self.assertIsNot(lib.ncpoly.NCPoly.__mul__, None)
        finally:
            tracer.uninstall()
        for module in (lib.algebra, lib.ncpoly, lib.forms, lib.affine, lib.calculus):
            self.assertIs(module.mul, orig)

    def test_recursion_records_outermost_span_only(self):
        lib = self.lib
        rep = lib.samples.generation_rep(6)
        clo = lib.omega.closure(rep, [1])
        word = clo.word_of[5]
        tracer = Tracer(layers.TARGETS)
        tracer.install()
        try:
            tracer.active = True
            value = lib.omega.eval_word(rep, word, {1: 1})
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertEqual(value, 5)
        names = [s[0] for s in tracer.spans()]
        self.assertEqual(names, ["omega.eval_word"])

    def test_self_time_subtracts_children(self):
        inner_mod = types.ModuleType("fakepkg.inner")
        outer_mod = types.ModuleType("fakepkg.outer")
        sys.modules.update({"fakepkg": types.ModuleType("fakepkg"),
                            "fakepkg.inner": inner_mod, "fakepkg.outer": outer_mod})
        try:
            exec("def leaf(x):\n    return sum(range(x))\n", inner_mod.__dict__)
            exec("from fakepkg.inner import leaf\n"
                 "def top(x):\n    return [leaf(x) for _ in range(3)]\n", outer_mod.__dict__)
            targets = [Target("outer.top", "outer", "top"), Target("inner.leaf", "inner", "leaf")]
            tracer = Tracer(targets, package="fakepkg")
            tracer.install()
            tracer.active = True
            outer_mod.top(20000)
            tracer.active = False
            tracer.uninstall()
            summary = tracer.summary({"outer.top": "outer", "inner.leaf": "inner"}, {-1: 1})
        finally:
            for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
                del sys.modules[name]
        self.assertEqual(summary["calls"], {"outer.top": 1, "inner.leaf": 3})
        busy, self_ns = summary["busy_ns"], summary["self_ns"]
        self.assertEqual(self_ns["inner"], busy["inner.leaf"])
        self.assertEqual(self_ns["outer"], busy["outer.top"] - busy["inner.leaf"])
        self.assertGreater(self_ns["outer"], 0)


class CheckerTest(unittest.TestCase):
    """Each checker rejects a deliberately corrupted result."""

    def _job(self, name, kind):
        workload, lib, jobs, _, _ = run.set_up(name, 11, _tiny(name))
        kind_jobs = [j for j in jobs if j[0].split("/")[0] == kind]
        inputs = kind_jobs[0][1]
        run_fn, check = workload.JOBS[kind]
        result = run_fn(lib, inputs)
        check(lib, inputs, result)  # the honest result passes
        return lib, inputs, result, check

    def test_flipped_coordinate(self):
        lib, inputs, (inverses, products), check = self._job("ring", "quat")
        bad = list(inverses)
        coords = list(bad[0].coords)
        coords[2] += 1
        bad[0] = bad[0].algebra.element(coords)
        with self.assertRaises(CheckFailed):
            check(lib, inputs, (bad, products))

    def test_swapped_transcript_line(self):
        lib = run.load_library()
        entry = next(e for e in wl_cli.load_golden()["transcript"]
                     if len(set(e["stdout"].splitlines())) > 2)
        code, out, err = wl_cli.run_cli(lib, entry)
        wl_cli.check_cli(lib, entry, (code, out, err))
        lines = out.splitlines(keepends=True)
        lines[0], lines[1] = lines[1], lines[0]
        with self.assertRaises(CheckFailed):
            wl_cli.check_cli(lib, entry, (code, "".join(lines), err))

    def test_wrong_closure_member(self):
        lib, inputs, result, check = self._job("words", "rep_closure")
        i = next(i for i, c in enumerate(result) if not c.is_full)
        rep, clo = inputs[i][0], result[i]
        extra = next(m for m in rep.acted.carrier if m not in clo.members)
        members = tuple(m for m in rep.acted.carrier if m in clo.members or m == extra)
        bad = list(result)
        bad[i] = dataclasses.replace(clo, members=members)
        with self.assertRaises(CheckFailed):
            check(lib, inputs, bad)

    def test_wrong_pushforward(self):
        lib, inputs, (trips, pushed), check = self._job("calculus", "mixing_chart")
        first = pushed[0]
        bad = [(first[1], first[0])] + list(pushed[1:])
        with self.assertRaises(CheckFailed):
            check(lib, inputs, (trips, bad))


class OracleTest(unittest.TestCase):
    def test_hamilton_product_matches_library_table(self):
        H = run.load_library().algebra.quaternion_algebra()
        for i, ei in enumerate(O.BASIS):
            for j, ej in enumerate(O.BASIS):
                want = tuple(H.constants[i][j])
                self.assertEqual(O.qmul(ei, ej), want)

    def test_ring_rank(self):
        a, b = O.q((1, 2, 0, -1)), O.q((0, 1, 3, 1))
        self.assertEqual(O.ring_rank([[a, b], [O.qmul(a, a), O.qmul(a, b)]]), 1)
        self.assertEqual(O.ring_rank([[a, b], [b, a]]), 2)


class ContractTest(unittest.TestCase):
    """BENCHMARK.json matches what run.py prints."""

    def test_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual([w["name"] for w in spec["workloads"]][:4],
                         ["words", "ring", "calculus", "cli"])
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         layers.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], name)


if __name__ == "__main__":
    unittest.main()
