"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces every public function defined in a
``spincorr`` module, in every ``spincorr`` module namespace that binds it
(``decompose`` is bound in ``bloch``, ``measures`` and ``oracle``), with a
wrapper that records one span per call: function, start, end, parent span,
the exception type that escaped (if any), and ``evaluations`` when the
result carries one (the oracle's ``OracleResult``). ``uninstall()``
restores the original bindings; the tracer can be installed again, and
its spans accumulate in memory until they are read or written out.

Self time of a span is its duration minus the time covered by its child
spans. Calls run on one thread, so children never overlap and the covered
time is the sum of their durations. Time spent in private helpers and in
methods counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Span fields, stored as lists for speed.
FN, START, END, PARENT, RAISED, EVALS = range(6)


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "spincorr" or name.startswith("spincorr."))
    ]


def _is_public_function(name: str, value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and not name.startswith("_")
        and not value.__name__.startswith("_")
        and value.__module__.startswith("spincorr")
    )


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self):
        self.functions: list = []  # index -> original function
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, name, original, wrapper)

    def install(self) -> None:
        if not self._bindings:
            wrappers = {}
            for module in _package_modules():
                for name, value in list(vars(module).items()):
                    if not _is_public_function(name, value):
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, len(self.functions))
                        self.functions.append(value)
                    self._bindings.append((module, name, value, wrappers[value]))
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._bindings:
            setattr(module, name, original)

    def _wrap(self, fn, index: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc)
                raise
            finally:
                span[END] = clock()
                stack.pop()
            span[EVALS] = getattr(result, "evaluations", None)
            return result

        return traced

    def module_of(self, span) -> str:
        return self.functions[span[FN]].__module__.rpartition(".")[2]

    def name_of(self, span) -> str:
        return self.functions[span[FN]].__name__

    def self_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write_csv(self, path: str) -> None:
        """Write the spans as CSV: index, module, function, start_ns,
        end_ns, parent, raised, evaluations."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,module,function,start_ns,end_ns,parent,raised,evaluations\n")
            for i, s in enumerate(self.spans):
                raised = s[RAISED].__name__ if s[RAISED] else ""
                evals = "" if s[EVALS] is None else s[EVALS]
                fh.write(
                    f"{i},{self.module_of(s)},{self.name_of(s)},{s[START]},{s[END]},"
                    f"{s[PARENT]},{raised},{evals}\n"
                )
