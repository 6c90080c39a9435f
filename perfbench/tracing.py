"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps every public function defined in the traced
modules and rebinds the wrapper wherever a module of the package refers to
the original, so calls made through ``from .bayes import ...`` bindings are
traced too.  Spans (name, start, end, parent, phase, summary) stay in
memory until the run ends; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("model", "kernels", "bayes", "sgp", "identify", "baselines", "benchmark")


def _sgp_summary(out, args, kwargs):
    """(iterations, backtracks, steps at alpha_max, accepted steps, Armijo trials)."""
    params = args[2] if len(args) > 2 else kwargs.get("params")
    if params is None:
        params = importlib.import_module("hankelid.sgp").SgpParams()
    backtracks = at_max = accepted = trials = 0
    for d in out.diagnostics:
        ok = d["backtracks"] <= params.max_backtracks
        backtracks += d["backtracks"]
        at_max += d["alpha"] >= params.alpha_max
        accepted += ok
        trials += d["backtracks"] + 1 if ok else d["backtracks"]
    return (out.n_iter, backtracks, at_max, accepted, trials)


def _admm_summary(out, args, kwargs):
    return (out.n_iter, out.converged)


def _identify_summary(out, args, kwargs):
    tests = [rec for rec in out.trace if rec.stage != "initial"]
    return (len(tests), sum(rec.accepted for rec in tests), out.n)


SUMMARIES = {
    "sgp.sgp_minimize": _sgp_summary,
    "baselines.nn_admm": _admm_summary,
    "identify.identify": _identify_summary,
}


PACKAGE = "hankelid"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        summary = SUMMARIES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                info = summary(out, args, kwargs) if summary and out is not None else None
                spans[idx] = (name, start, end, parent, self.phase, info)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def aggregate(spans, phase: str) -> dict:
    """Per-name calls, inclusive seconds, self seconds, durations and summaries.

    Self time is a span's duration minus the durations of its direct
    children, so nested calls are never counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, ph, info in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, ph, info) in enumerate(spans):
        if ph != phase:
            continue
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "durations": [], "summaries": []})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child[i]
        rec["durations"].append(end - start)
        if info is not None:
            rec["summaries"].append(info)
    return out
