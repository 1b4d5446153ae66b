"""Spans around library calls, recorded from outside the library.

`install` rebinds every target function in every `divring` module
namespace that holds it (a function imported by name into four modules is
rebound in all four) and on its class for methods, so no library file is
edited.  Callers must reach the library through module attributes, as the
workload modules do, for their own calls to be traced.

A span is recorded only while no span of its group is open.  Recursive
functions therefore record their outermost call only, and a family such
as io's load_* functions counts one span per outermost load.  Spans live
in flat arrays (name, parent span, job id, start, end, outcome) and are
written out once, at the end of the run.  A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import array
import fnmatch
import sys
import time
from functools import wraps
from typing import Callable, NamedTuple, Optional


class Target(NamedTuple):
    key: str              # metric name, e.g. "algebra.mul"
    module: str           # divring submodule that defines it
    attr: str             # "mul", "NCPoly.__mul__" or a pattern such as "load_*"
    probe: Optional[Callable] = None  # (args, result) -> ((counter, amount), ...)


class Tracer:
    def __init__(self, targets, package: str = "divring"):
        self.targets = list(targets)
        self.package = package
        self.keys = sorted({t.key for t in self.targets})
        self._gid = {k: i for i, k in enumerate(self.keys)}
        self._depth = [0] * len(self.keys)
        self.active = False
        self.job = -1
        self._stack = [-1]
        self.name = array.array("H")
        self.parent = array.array("i")
        self.jobs = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.ok = array.array("b")
        self.counters: dict = {}
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        for target in self.targets:
            owner = sys.modules[f"{pkg}.{target.module}"]
            cls_name, _, name = target.attr.rpartition(".")
            gid = self._gid[target.key]
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[name]
                self._patch(cls, name, self._wrap(orig, gid, target.probe))
                continue
            names = [n for n, v in vars(owner).items()
                     if fnmatch.fnmatchcase(n, name) and callable(v)
                     and getattr(v, "__module__", None) == owner.__name__
                     and not isinstance(v, type)]
            if not names:
                raise LookupError(f"{owner.__name__} has no function matching {name!r}")
            for n in names:
                orig = getattr(owner, n)
                wrapper = self._wrap(orig, gid, target.probe)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._patch(m, k, wrapper)

    def _patch(self, obj, name, value) -> None:
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, name, orig = self._patches.pop()
            setattr(obj, name, orig)

    def _wrap(self, fn, gid, probe):
        tracer = self
        depth = self._depth
        stack = self._stack
        names, parents, jobs = self.name, self.parent, self.jobs
        starts, ends, oks = self.start, self.end, self.ok
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or depth[gid]:
                return fn(*args, **kwargs)
            depth[gid] = 1
            idx = len(names)
            names.append(gid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            starts.append(0)
            ends.append(0)
            oks.append(0)
            stack.append(idx)
            ok = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
            finally:
                t1 = clock()
                stack.pop()
                depth[gid] = 0
                starts[idx] = t0
                ends[idx] = t1
                oks[idx] = ok
            if probe is not None:
                counters = tracer.counters
                for counter, amount in probe(args, result):
                    counters[counter] = counters.get(counter, 0) + amount
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def spans(self):
        """(key, parent, job, start_ns, end_ns, ok) per span, in open order."""
        keys = self.keys
        return [(keys[g], p, j, t0, t1, ok) for g, p, j, t0, t1, ok
                in zip(self.name, self.parent, self.jobs, self.start, self.end, self.ok)]

    def summary(self, layer_of, job_scale) -> dict:
        """Per key: calls, busy_ns, failures; per layer: self_ns.  Each
        span's duration is multiplied by the scale of its job."""
        spans = self.spans()
        dur = [(s[4] - s[3]) * job_scale[s[2]] for s in spans]
        covered = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                covered[s[1]] += dur[i]
        calls, busy, failed, self_ns = {}, {}, {}, {}
        for i, (key, _, _, _, _, ok) in enumerate(spans):
            calls[key] = calls.get(key, 0) + 1
            busy[key] = busy.get(key, 0) + dur[i]
            failed[key] = failed.get(key, 0) + (not ok)
            layer = layer_of[key]
            self_ns[layer] = self_ns.get(layer, 0) + dur[i] - covered[i]
        return {"calls": calls, "busy_ns": busy, "failed": failed, "self_ns": self_ns,
                "counters": dict(self.counters), "spans": spans}

    @staticmethod
    def count_under(spans, key, ancestor) -> int:
        """Spans of `key` with a span of `ancestor` above them."""
        n = 0
        for s in spans:
            if s[0] != key:
                continue
            p = s[1]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][1]
            n += p >= 0
        return n

    @staticmethod
    def write(spans, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tjob\tstart_ns\tend_ns\tok\n")
            origin = min((s[3] for s in spans), default=0)
            for i, (key, parent, job, t0, t1, ok) in enumerate(spans):
                fh.write(f"{i}\t{key}\t{parent}\t{job}\t{t0 - origin}\t{t1 - origin}\t{ok}\n")
