"""Span tracing of grayfuzz from outside the library.

Wrappers are built at start-up from each module's ``__all__`` and installed
under every name that any ``grayfuzz`` module binds the function to, so a
call from one module into another (``pipeline`` -> ``fuzzy.generate_rules``)
and a call inside a module (``threshold_report`` -> ``compute_threshold``)
are both caught.  Methods and classes are not wrapped: their time counts as
self time of the public function that called them.

Spans live in memory as (name, start, end, parent, op, raised) and are
written out by the caller when the run ends.  A span's self time is its
duration minus the time its child spans cover.

In allocation mode the wrappers track ``tracemalloc`` peaks per module
instead of time: the peak of traced memory during a call, above what was
traced when the call began.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = ("image_core", "thresholding", "fuzzy", "pipeline", "metrics", "cli")
OP_SPAN = "op"


def _count_extract(result):
    return {
        "pipeline.no_rule_pixels": result.no_rule_pixels,
        "pipeline.pixels": result.extracted.width * result.extracted.height,
    }


# Counts recorded at the boundary where the work happens.  A function missing
# here (or renamed) keeps its spans; only the count is lost.
COUNTERS = {
    "fuzzy.generate_rules": lambda rules: {"fuzzy.training_pairs": len(rules)},
    "fuzzy.combine": lambda base: {"fuzzy.rules": len(base), "fuzzy.rule_bases": 1},
    "pipeline.extract": _count_extract,
}


def public_functions():
    """{"module.function": function} for every function in each __all__."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"grayfuzz.{short}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{short}.{attr}"] = obj
    return found


class Tracer:
    """Installs span wrappers into the grayfuzz package; collects spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, raised]
        self.counts = defaultdict(int)
        self.alloc_peak = defaultdict(int)  # module -> bytes
        self.alloc = False
        self._stack = []  # indices of open spans
        self._mem = []  # [base, peak] per open span, allocation mode only
        self._op = -1
        self.functions = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        self._bindings = []  # (module, attribute, original, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "grayfuzz" and not mod_name.startswith("grayfuzz."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    self._bindings.append((module, attr, value, wrappers[id(value)]))

    # -- installation -------------------------------------------------------

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._enter(name)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer._exit(index, raised)
            if counter is not None:
                for key, value in counter(result).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, False])
        self._stack.append(index)
        return index

    def _exit(self, index, raised):
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        span[5] = raised
        self._stack.pop()
        if self.alloc:
            _, peak = tracemalloc.get_traced_memory()
            base, seen = self._mem.pop()
            seen = max(seen, peak)
            module = span[0].split(".", 1)[0]
            self.alloc_peak[module] = max(self.alloc_peak[module], seen - base)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], seen)
            tracemalloc.reset_peak()

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside a root span; returns (result, seconds)."""
        self._op = op_id
        index = self._enter(OP_SPAN)
        raised = True
        try:
            result = fn(*args)
            raised = False
        finally:
            self._exit(index, raised)
        span = self.spans[index]
        return result, span[2] - span[1]

    def start_alloc(self):
        self.alloc = True
        tracemalloc.start()

    def stop_alloc(self):
        tracemalloc.stop()
        self.alloc = False

    # -- results ------------------------------------------------------------

    def self_times(self, ops):
        """Per-function totals over the given op ids:
        {name: [calls, self_s, errors]}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0])
        for i, (name, start, end, parent, op, raised) in enumerate(self.spans):
            if op not in ops:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
            entry[2] += int(raised)
        return dict(totals)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "raised": raised,
                }) + "\n")
