"""Closed-loop benchmark of the divring library.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0

One process, one single-threaded client: the next seeded job is issued
only when the previous one has returned.  A job is a batch of library
calls; its result is checked by benchmark-owned code outside the job's
timer.  Workloads: words, ring, calculus, cli (see README.md), and
cli-defects, which is cli plus two error-path jobs that fail until the
I/O boundary is hardened.

--trace 0 reports the end-to-end metrics.  --trace 1 runs whole passes
over the job pool untraced, then the same passes with spans recorded
around the library's public functions (tracer.py), reports the per-layer
metrics per pass and writes the spans to .perfbench/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Times are reported at a reference machine speed.  After every job, and
around every set-up, the client times `calibrate()`, a fixed piece of
pure-Python work that calls no divring code.  Each measured time is
scaled by CAL_REF_S over the median calibration time around it.  On a
shared 2-core machine the speed of the same code moved by up to 2x
between runs, and calibration followed it; the raw times are kept in
the record line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = {
    "words": ("wl_words", "setup"),
    "ring": ("wl_ring", "setup"),
    "calculus": ("wl_calculus", "setup"),
    "cli": ("wl_cli", "setup"),
    "cli-defects": ("wl_cli", "setup_with_defects"),
}
LIBRARY = ("errors", "ratlin", "algebra", "forms", "omega", "towers", "samples",
           "affine", "ncpoly", "calculus", "io", "cli")
SETUP_REPEATS = 7
MIN_JOBS = 100     # job_p90_ms then has at least ten samples beyond it
MAX_SECONDS = 150  # hard stop well inside the 180 s limit
END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))
CAL_REF_S = 0.0005  # times are scaled to a machine on which calibrate() takes 0.5 ms
CAL_WINDOW = 5      # calibrations on each side of a job that set its scale


def calibrate() -> float:
    """Seconds taken by fixed Fraction and dict work (no divring code)."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(1, i % 17 + 1) * Fraction(i % 13, 7)
        seen[i, i % 5] = acc
    return time.perf_counter() - t0


def latency_metrics(lat) -> dict:
    return {"jobs_per_s": len(lat) / sum(lat),
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3}


def scales(calibrations, window=CAL_WINDOW) -> list:
    """Per job, CAL_REF_S over the median of the calibrations near it."""
    out = []
    for i in range(len(calibrations)):
        near = sorted(calibrations[max(0, i - window): i + window + 1])
        out.append(CAL_REF_S / near[len(near) // 2])
    return out


def load_library():
    """Import divring afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "divring" or n.startswith("divring.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"divring.{m}") for m in LIBRARY})


class Loop:
    """Runs jobs in a closed loop and keeps the books."""

    def __init__(self, workload, lib, jobs):
        self.workload, self.lib, self.jobs = workload, lib, jobs
        self.expected = workload.expected_outcomes(lib)
        self.tracer = None
        self.latencies = []
        self.calibrations = []
        self.by_kind = {}
        self.failures = []
        self.issued = 0

    def step(self):
        kind, inputs = self.jobs[self.issued % len(self.jobs)]
        run, check = self.workload.JOBS[kind.split("/")[0]]
        tracer = self.tracer
        if tracer is not None:
            tracer.job = self.issued
            tracer.active = True
        outcome, error = "ok", None
        t0 = time.perf_counter()
        try:
            result = run(self.lib, inputs)
        except self.expected as exc:
            outcome = type(exc).__name__
        except Exception as exc:  # any other escape is a failed job
            outcome, error = "failed", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.calibrations.append(calibrate())
        if outcome == "ok":
            try:
                check(self.lib, inputs, result)
            except Exception as exc:  # a malformed result fails its check too
                outcome, error = "failed", f"{type(exc).__name__}: {exc}"
        self.latencies.append(elapsed)
        counts = self.by_kind.setdefault(kind, {})
        counts[outcome] = counts.get(outcome, 0) + 1
        if error is not None and len(self.failures) < 10:
            self.failures.append(f"job {self.issued} ({kind}): {error}")
        self.issued += 1

    @property
    def failed(self) -> int:
        return sum(c.get("failed", 0) for c in self.by_kind.values())

    def scaled_latencies(self) -> list:
        return [t * f for t, f in zip(self.latencies, scales(self.calibrations))]


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def read_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload_name, seed, size=None):
    """SETUP_REPEATS fresh set-ups; returns the last one, every raw set-up
    time and every set-up time scaled by the calibrations around it."""
    module_name, setup_name = WORKLOADS[workload_name]
    workload = importlib.import_module(module_name)
    setup = getattr(workload, setup_name)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(CAL_WINDOW)]
        t0 = time.perf_counter()
        lib = load_library()
        jobs = setup(lib, random.Random(seed), size) if size else setup(lib, random.Random(seed))
        raw.append(time.perf_counter() - t0)
        near = sorted(before + [calibrate() for _ in range(CAL_WINDOW)])
        scaled.append(raw[-1] * CAL_REF_S / statistics.median(near))
    gc.collect()
    return workload, lib, jobs, raw, scaled


def measure(workload_name, seed, seconds, trace, size=None, span_path=None):
    """One benchmark run; returns (metrics {name: (value, unit)}, loop, record)."""
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(bool(trace)), "commit": read_commit(),
              "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
              "loadavg_start": read_loadavg()}
    workload, lib, jobs, setup_raw, setup_scaled = set_up(workload_name, seed, size)
    record["pool_jobs"] = len(jobs)
    record["setup_raw_s"] = setup_raw
    loop = Loop(workload, lib, jobs)
    if not trace:
        start = time.perf_counter()
        while True:
            loop.step()
            wall = time.perf_counter() - start
            if (wall >= seconds and loop.issued >= MIN_JOBS) or wall >= MAX_SECONDS:
                break
        metrics = latency_metrics(loop.scaled_latencies())
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (metrics[name], unit) for name, unit in END_TO_END}
        record["raw"] = latency_metrics(loop.latencies)
        record["raw"]["setup_s"] = statistics.median(setup_raw)
    else:
        from layers import TARGETS, LAYER_OF, per_layer_metrics
        from tracer import Tracer

        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds / 2:
            for _ in jobs:
                loop.step()
            passes += 1
        first = loop.issued
        tracer = Tracer(TARGETS)
        tracer.install()
        try:
            loop.tracer = tracer
            for _ in range(passes * len(jobs)):
                loop.step()
        finally:
            tracer.uninstall()
        job_scale = scales(loop.calibrations)
        lat = loop.scaled_latencies()
        summary = tracer.summary(LAYER_OF, job_scale)
        metrics = per_layer_metrics(summary, passes, sum(lat[first:]) / sum(lat[:first]) - 1)
        record["passes"] = passes
        record["spans"] = len(summary["spans"])
        if span_path:
            os.makedirs(os.path.dirname(span_path), exist_ok=True)
            Tracer.write(summary["spans"], span_path)
            record["span_file"] = os.path.relpath(span_path, ROOT)
    record["calibration_ms_median"] = statistics.median(loop.calibrations) * 1e3
    record["loadavg_end"] = read_loadavg()
    record["attempted"] = loop.issued
    record["failed"] = loop.failed
    record["failed_frac"] = loop.failed / loop.issued
    record["outcomes"] = loop.by_kind
    record["failures"] = loop.failures
    return metrics, loop, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divring", "__init__.py")):
        print(f"error: no divring sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    span_path = os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.tsv")
    metrics, loop, record = measure(args.workload, args.seed, args.seconds, args.trace,
                                    span_path=span_path)
    print("record " + json.dumps(record, sort_keys=True))
    for line in loop.failures:
        print("failure " + line)
    print(f"failed_frac {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.issued,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
