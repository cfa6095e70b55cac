"""Span recording for the traced run, installed from outside the program.

Every public function of each ``surgerycalc`` module (the layers) is
replaced, in every module namespace that refers to it, by a wrapper
that records one span: name, start, end, parent span and request id.
Spans stay in memory until the run ends. Per-entry helpers
(``as_rational``, ``parse_rational``, ``format_rational``) are left
alone: they run once per matrix entry, and wrapping them would trace
the tracer. ``cli.entry`` only wraps ``main`` for the console script.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

LAYERS = ("diagram", "expansion", "exact", "invariants", "classify", "cli", "selftest")
SKIP = {"as_rational", "parse_rational", "format_rational", "entry"}

# Counts recorded at the boundary, from arguments and result.
HOOKS = {
    "exact.det": lambda args, result: {"dim": args[0].dimension,
                                       "bits": abs(result.numerator).bit_length()},
    "exact.solve": lambda args, result: {"dim": args[0].dimension},
    "expansion.negative_continued_fraction": lambda args, result: {"digits": len(result)},
    "diagram.parse_diagram": lambda args, result: {"components": len(result.components)},
}
for _name in ("expand_diagram", "expand_negative_rational", "expand_positive_rational",
              "expand_positive_unit_fraction"):
    HOOKS[f"expansion.{_name}"] = lambda args, result: {
        "curves": len(result.derived_diagram.components)}

# A span row: [name, start_ns, end_ns, parent_index, request_id, attrs]
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0

    def open(self, name: str) -> list:
        span = [name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
                self.request, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self.close(span)
                span[ATTRS] = {"error": type(error).__name__}
                raise
            self.close(span)
            if hook is not None:
                span[ATTRS] = hook(args, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every layer's public functions; returns how many were wrapped."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"surgerycalc.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if (attr in SKIP or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name == "surgerycalc" or name.startswith("surgerycalc."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])
        return len(wrappers)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
