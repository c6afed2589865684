"""In-memory span tracing of widomlab's public functions, from outside the package.

A :class:`Tracer` replaces each public function of the traced modules (every
function a module defines under a name without a leading underscore) with a
wrapper that records a span (name, start, end, parent span) and restores the
originals on exit.  A module that did ``from widomlab.minimax import solve``
holds its own reference, so the wrapper is bound into every ``widomlab``
namespace that holds the same function object, not only the defining module.

Spans stay in memory while the traced code runs; :func:`summarise` turns
them into per-name call counts, total and self times after the run.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

__all__ = ["PACKAGE", "Span", "Tracer", "self_times", "summarise"]

PACKAGE = "widomlab"


@dataclass(slots=True)
class Span:
    """One call of a traced function; ``parent`` is an index into the span list or -1."""

    name: str
    start: float
    parent: int
    end: float = float("nan")
    info: dict | None = None


class Tracer:
    """Wraps the public functions of ``modules`` (short names under PACKAGE).

    ``annotators`` maps a span name to a callable ``(result, exc) -> dict``
    whose output is stored in the span's ``info``; exactly one of ``result``
    and ``exc`` is not None.  A span whose call raised has ``info["raised"]``
    set to the exception's class name.  Use as a context manager: wrappers are installed
    on entry and removed on exit, also when the body raises.
    """

    def __init__(self, modules, annotators=None):
        self.modules = tuple(modules)
        self.annotators = dict(annotators or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = self.annotators.get(name)

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.info = {"raised": type(exc).__name__}
                if annotate is not None:
                    span.info.update(annotate(None, exc))
                raise
            span.end = clock()
            stack.pop()
            if annotate is not None:
                span.info = annotate(result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def public_functions(self):
        """(span name, function) for every public function defined in a traced module."""
        found = []
        for short in self.modules:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    found.append((f"{short}.{attr}", obj))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.public_functions()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def summarise(spans) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``p50_ms`` of durations."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_sum[span.name] = self_sum.get(span.name, 0.0) + own
    return {
        name: {
            "calls": len(ds),
            "total_s": sum(ds),
            "self_s": self_sum[name],
            "p50_ms": 1e3 * statistics.median(ds),
        }
        for name, ds in durations.items()
    }
