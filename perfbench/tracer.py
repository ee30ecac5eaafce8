"""Span and counter wrappers installed around the program's layers at
run time, for the traced run only.

The layers are the modules of ``hurwitzdiv``.  Modules call each other
through names bound at import time (``from .trace import
phi_pull_lambda``) or through module objects (``trace.delta_tau(k)``),
so wrapping a function in its defining module alone would miss those
calls.  ``install`` therefore rebinds, in every importing module, each
imported function to a span wrapper and each imported module to a proxy
whose functions are span wrappers.  The ``lru_cache`` builders are also
rebound in their own module, so that builder-to-builder calls inside a
layer (``p_phi_lambda`` -> ``p_push``) are spans too.  Class-level
methods (``ClassMap.apply``/``compose``, ``AffineExpr.substitute``) get
spans, and the constructors of ``AffineExpr`` and ``DivisorClass`` get
counters.  Nothing under ``src/`` changes.

Spans are kept in memory as tuples ``(op, span, parent, label, start_ns,
end_ns)``; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

LAYERS = (
    "core",
    "bases",
    "m0b",
    "trace",
    "pushforward",
    "slopes",
    "serialize",
    "checks",
    "cli",
)
PACKAGE = "hurwitzdiv"


def is_cached(value) -> bool:
    return hasattr(value, "cache_info") and hasattr(value, "cache_clear")


def find_caches() -> dict[str, object]:
    """Every module-level ``lru_cache`` builder of the package, keyed
    ``layer.name``."""
    caches = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for key, value in vars(module).items():
            if is_cached(value) and _layer_of(value) == layer:
                caches[f"{layer}.{key}"] = value
    return caches


def _layer_of(value) -> str | None:
    """The layer a function (or a module object) belongs to."""
    if isinstance(value, types.ModuleType):
        module = value.__name__
    else:
        module = getattr(value, "__module__", None) or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType) or is_cached(value)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = [-1]
        self._next_id = 0

    def span(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, label, start, end))

        functools.update_wrapper(wrapper, fn)
        wrapper.perfbench_span = label
        return wrapper

    def counted(self, label: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def spanned(self, layer: str, name: str, value):
        if getattr(value, "perfbench_span", None):
            return value
        return self.span(f"{layer}.{name}", value)


class _ModuleProxy:
    """Stands in for a module object bound in another layer; its public
    functions come back as span wrappers."""

    def __init__(self, tracer: Tracer, layer: str, module: types.ModuleType):
        self._tracer = tracer
        self._layer = layer
        self._module = module
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        if name.startswith("_") or not _is_function(value) or _layer_of(value) != self._layer:
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.spanned(self._layer, name, value)
        return self._wrapped[name]


def install(tracer: Tracer) -> None:
    """Install every wrapper; it stays for the life of the process."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    # builders in their own module first, so importers bind the same wrapper
    for layer, module in modules.items():
        for key, value in list(vars(module).items()):
            if is_cached(value) and _layer_of(value) == layer:
                setattr(module, key, tracer.spanned(layer, key, value))
    for layer, module in modules.items():
        for key, value in list(vars(module).items()):
            if isinstance(value, types.ModuleType):
                target = _layer_of(value)
                if target is not None and target != layer:
                    setattr(module, key, _ModuleProxy(tracer, target, value))
                continue
            source = _layer_of(value)
            if _is_function(value) and source is not None and source != layer:
                name = value.__name__
                current = getattr(modules[source], name, None)
                if not getattr(current, "perfbench_span", None):
                    current = value
                setattr(module, key, tracer.spanned(source, name, current))

    core, bases = modules["core"], modules["bases"]
    core.AffineExpr.__init__ = tracer.counted("core.affine_built", core.AffineExpr.__init__)
    core.AffineExpr.substitute = tracer.spanned("core", "substitute", core.AffineExpr.substitute)
    bases.DivisorClass.__init__ = tracer.counted(
        "bases.classes_built", bases.DivisorClass.__init__
    )
    raw = bases.DivisorClass._raw.__func__
    bases.DivisorClass._raw = classmethod(tracer.counted("bases.classes_built", raw))
    bases.ClassMap.apply = tracer.spanned("bases", "apply", bases.ClassMap.apply)
    bases.ClassMap.compose = tracer.spanned("bases", "compose", bases.ClassMap.compose)
    pushforward = modules["pushforward"]
    pushforward.ExternalCoeffs.apply = tracer.spanned(
        "pushforward", "ExternalCoeffs.apply", pushforward.ExternalCoeffs.apply
    )

    checks = modules["checks"]
    for name, check in list(checks.CHECKS.items()):
        checks.CHECKS[name] = _check_span(tracer, name, check)


def _check_span(tracer: Tracer, name: str, check):
    # a check is a generator function; its work happens while it is consumed
    def consume(k, externals):
        return list(check(k, externals))

    return tracer.span(f"checks.{name}", consume)


class SpanIndex:
    """Derived times over the recorded spans, in seconds per pass, each
    span scaled by the speed factor of its operation."""

    def __init__(self, spans, factors: list[float], passes: int):
        self.parent_of = {}
        self.label_of = {}
        self.seconds = {}
        for op, sid, parent, label, start, end in spans:
            self.parent_of[sid] = parent
            self.label_of[sid] = label
            self.seconds[sid] = (end - start) * 1e-9 * factors[op] / passes
        self.calls = Counter(self.label_of.values())

    def self_time(self, layer: str) -> float:
        """Time in spans of ``layer`` minus the time of their children."""
        children = Counter()
        for sid, parent in self.parent_of.items():
            children[parent] += self.seconds[sid]
        return sum(
            t - children[sid]
            for sid, t in self.seconds.items()
            if self.label_of[sid].split(".", 1)[0] == layer
        )

    def outermost_time(self, labels) -> float:
        """Time inside spans of ``labels``, counting a span only when no
        ancestor is also one of ``labels``."""
        total = 0.0
        for sid, label in self.label_of.items():
            if label not in labels:
                continue
            parent = self.parent_of[sid]
            while parent != -1 and self.label_of[parent] not in labels:
                parent = self.parent_of[parent]
            if parent == -1:
                total += self.seconds[sid]
        return total
