"""Run-time spans around every public quasilin function, installed from outside.

`Tracer.install` wraps each function listed in a module's `__all__` and
rebinds the wrapper in every quasilin namespace that holds the same object
(`composite.validate` is `model.validate`, so both names get one wrapper
that reports as `model.validate`).  The scipy `expm` bound in `qsde`,
`second_moment`, `decoherence` and `oracle` is wrapped per binding and
reports as `<layer>.expm`.  No source file changes; `uninstall` restores
every binding.

Spans are recorded only while an analysis is open, so the benchmark's own
input generation and output checks never count.  Each span keeps its name,
start, end, parent span and analysis id in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("cli", "model", "qsde", "second_moment", "modes", "decoherence", "weak", "composite", "oracle")
EXPM_LAYERS = ("qsde", "second_moment", "decoherence", "oracle")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    analysis: int
    error: bool = False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def is_kernel(name: str) -> bool:
    return name.endswith(".expm")


class Tracer:
    """Collects spans for the analyses opened with `begin`/`end`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._analysis: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, analysis: int) -> None:
        self._analysis = analysis
        self._stack.clear()

    def end(self) -> None:
        self._analysis = None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._analysis is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer._analysis)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module("quasilin." + name) for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("quasilin")]
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap("%s.%s" % (layer, attr), fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._rebind(ns, bound, wrapper)
        for layer in EXPM_LAYERS:
            mod = modules[layer]
            if hasattr(mod, "expm"):
                self._rebind(mod, "expm", self.wrap(layer + ".expm", mod.expm))

    def _rebind(self, ns, attr, new):
        self._restore.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, old in reversed(self._restore):
            setattr(ns, attr, old)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out
