"""Spans around the program's public functions, for the traced run.

install() replaces every binding of a traced function in the loaded
edcycles modules, including the names one module imports from another
(edcycles.spectrum.partitionable, edcycles.gfunction.rate_matrix), with a
wrapper that records a span: name, start, end, parent span and outcome.
Spans stay in memory; totals() turns them into per-name call counts, self
time (duration minus the time covered by child spans) and inclusive time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "edcycles"


def _g_value_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    if mode == "numeric":
        return "gfunction.g_value.numeric"
    return "gfunction.g_value." + ("decomposed" if kwargs.get("decompose", True) else "joint")


# (module, function, span name or a function of the call's arguments,
#  outcome of a result: True for sat, False for unsat, None when it has none)
TRACED = (
    ("graphs", "partitionable", "graphs.partitionable", bool),
    ("spectrum", "power_cycle_spectrum", "spectrum.power_cycle_spectrum", None),
    ("spectrum", "gamma", "spectrum.gamma", None),
    ("embed", "find_embedding", "embed.find_embedding", lambda phi: phi is not None),
    ("gfunction", "g_value", _g_value_name, None),
    ("gfunction", "is_p_core", "gfunction.is_p_core", None),
    ("gfunction", "g_endpoint", "gfunction.g_endpoint", None),
    ("crg", "rate_matrix", "crg.rate_matrix", None),
    ("crg", "component_sets", "crg.component_sets", None),
    ("crg", "sub_crg", "crg.sub_crg", None),
    ("curves", "gamma_closed", "curves.gamma_closed", None),
    ("curves", "curve_samples", "curves.curve_samples", None),
    ("curves", "branch_crossings", "curves.branch_crossings", None),
    ("curves", "max_point", "curves.max_point", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, outcome, args)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, outcome):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, None, args)
            if outcome is not None:
                spans[index] = (span_name, start, end, parent, outcome(result), args)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module_name, attr, name, outcome in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(original, name, outcome)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def totals(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans[first:last]: calls, self_s, total_s, and
        sat_s / unsat_s for spans with an outcome."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, _, outcome, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[k]
            if outcome is not None:
                entry["sat_s" if outcome else "unsat_s"] += end - start - child[k]
        return out

    def dump(self) -> list[list]:
        return [[name, start, end, parent, outcome] for name, start, end, parent, outcome, _ in self.spans]
