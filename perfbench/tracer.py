"""Per-layer tracing from outside the library.

Each listed public function is replaced, at every ``swapsim`` module that
binds it, by a wrapper that records a span: the function's key, the index
of the span that was open when it was called, and its start and end times.
The names are re-imported between modules with ``from .x import y``, so
wrapping only the defining module would miss most calls.

Spans are kept in memory; :func:`self_times` turns them into call counts
and self times (span time minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "swapsim"

# layer (module of src/swapsim) -> public functions traced in it
TARGETS = {
    "config": ("validate_config",),
    "cli": ("main",),
    "recipes": ("run", "run_oracle_draws"),
    "protocol": (
        "build_inputs",
        "propagate",
        "bsm",
        "swap",
        "closed_form_rho",
        "success_probability",
        "optimal_inputs",
        "random_input_pair",
    ),
    "loss": ("dilate",),
    "states": ("tensor", "partial_trace", "project", "validate"),
    "metrics": (
        "concurrence_wootters",
        "concurrence_closed_form",
        "fringe_scan",
        "visibility_analytic",
        "bell_fidelity",
    ),
    "experiment": (
        "spdc_input",
        "synth_counts",
        "estimate_visibility",
        "normalized_success",
    ),
}

KEYS = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

# span layout: [key, parent index or -1, start ns, end ns]
KEY, PARENT, START, END = range(4)


def self_times(spans):
    """Calls and self time (ns) per key from a list of finished spans.

    A span's self time is its duration minus the durations of the spans
    whose parent it is. Parents precede their children in the list.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    calls, self_ns = {}, {}
    for i, span in enumerate(spans):
        key = span[KEY]
        calls[key] = calls.get(key, 0) + 1
        self_ns[key] = self_ns.get(key, 0) + span[END] - span[START] - child_ns[i]
    return calls, self_ns


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps every binding of the traced functions; records spans while installed.

    ``problems`` collects every way the wrapping could miss calls: a traced
    function that is missing or defined elsewhere, one held in a module-level
    container, or a binding that appeared after the tracer was built.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.problems = set()
        self._originals = {}  # id(original) -> (key, original)
        self._bindings = []  # (module, attribute name, original, wrapper)
        wrappers = {}
        for key in KEYS:
            layer, fn = key.split(".")
            orig = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), fn, None)
            if not callable(orig):
                self.problems.add(f"{PACKAGE}.{key} is missing")
                continue
            if getattr(orig, "__module__", None) != f"{PACKAGE}.{layer}":
                self.problems.add(
                    f"{PACKAGE}.{key} is defined in {orig.__module__}, not {PACKAGE}.{layer}"
                )
            self._originals[id(orig)] = (key, orig)
            wrappers[id(orig)] = self._wrap(key, orig)
        for module, attr, orig in self._scan():
            self._bindings.append((module, attr, orig, wrappers[id(orig)]))

    def _scan(self):
        """(module, attribute, original) for every binding of a traced original."""
        found = []
        for module in _package_modules():
            for attr, value in vars(module).items():
                if self._traced(value):
                    found.append((module, attr, value))
                elif isinstance(value, (dict, list, tuple, set, frozenset)):
                    items = value.values() if isinstance(value, dict) else value
                    for item in items:
                        if self._traced(item):
                            self.problems.add(
                                f"{module.__name__}.{attr} holds {PACKAGE}."
                                f"{self._originals[id(item)][0]}, so calls "
                                "through it are not traced"
                            )
        return found

    def _traced(self, value):
        entry = self._originals.get(id(value))
        return entry is not None and entry[1] is value

    def _wrap(self, key, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        """Restore the originals, first reporting any binding left unwrapped."""
        for module, attr, _ in self._scan():
            self.problems.add(f"{module.__name__}.{attr} was not wrapped")
        for module, attr, orig, _ in self._bindings:
            setattr(module, attr, orig)

    def take(self):
        """Counts and self times of the spans recorded so far; clears them."""
        if self._stack:
            raise RuntimeError("spans still open")
        result = self_times(self.spans)
        self.spans.clear()
        return result
