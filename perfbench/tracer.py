"""Layer tracing from outside the package.

The tracer replaces each traced function of the package's modules with a
wrapper that records one span (name, start, end, parent) per call.  The
wrapper is installed on every module that binds the function, so calls
through `from .prng import ctx_rng` style imports are counted too, and on
the class for methods and properties.  Spans stay in memory; `summary`
reduces them to call counts, inclusive seconds and per-module self time,
and `dump` writes them out.

A target that no longer exists in the package is simply not wrapped; the
caller reports it as absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# The package's modules, one layer each.  `cli` is not driven.
LAYERS = ("ring", "sharing", "crypto", "protocol", "dropout", "program", "params", "prng", "dp", "ideal")

# Private helpers that carry a layer's hot loop and are worth a span of
# their own; every public function and method is traced as well.
PRIVATE_TARGETS = {
    "ring": ("_ntt", "_intt"),
    "protocol": ("_derive_key_share",),
    "dropout": ("_distribute_mask_shares", "_uniform_zq"),
}

# Arithmetic operators of ring elements: cheap per call but frequent, so
# without them ring work would show up as the caller's self time.
RING_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__")


class Tracer:
    """Span recorder for the package's layers (one module = one layer).

    One tracer records one traced run: install, run, uninstall, summarize.
    """

    def __init__(self, package, layers: tuple[str, ...]):
        self.package = package
        self.modules = {name: getattr(package, name) for name in layers}
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = active[name] == 0
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outer)

        return traced

    def _targets(self):
        """(owner, attribute, traced name, original) for every target."""
        for mod_name, mod in self.modules.items():
            private = PRIVATE_TARGETS.get(mod_name, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if (not attr.startswith("_") or attr in private) and not (
                        inspect.isgeneratorfunction(obj)
                    ):
                        yield mod, attr, f"{mod_name}.{attr}", obj
                elif isinstance(obj, type) and not attr.startswith("_"):
                    for m_attr, m_obj in list(vars(obj).items()):
                        public = not m_attr.startswith("_")
                        operator = mod_name == "ring" and m_attr in RING_OPERATORS
                        if public or operator:
                            yield obj, m_attr, f"{mod_name}.{attr}.{m_attr}", m_obj

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        bindings = [self.package, *self.modules.values()]
        for owner, attr, name, obj in list(self._targets()):
            if isinstance(owner, type):
                wrapped = self._wrap_member(name, obj)
                if wrapped is not None:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, obj)
            for mod in bindings:
                for bound, value in list(vars(mod).items()):
                    if value is obj:
                        self._patches.append((mod, bound, obj))
                        setattr(mod, bound, wrapped)

    def _wrap_member(self, name: str, obj):
        if isinstance(obj, property):
            if obj.fget is None:
                return None
            return property(self._wrap(name, obj.fget), obj.fset, obj.fdel, obj.__doc__)
        if isinstance(obj, classmethod):
            return classmethod(self._wrap(name, obj.__func__))
        if isinstance(obj, staticmethod):
            return staticmethod(self._wrap(name, obj.__func__))
        if isinstance(obj, types.FunctionType) and not inspect.isgeneratorfunction(obj):
            return self._wrap(name, obj)
        return None

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def traced_names(self) -> set[str]:
        return {name for _, _, name, _ in self._targets()}

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, True)

    def summary(self) -> dict[str, float]:
        """Counts, inclusive seconds and module self time of the spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for idx, (name, start, end, parent, outer) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            if outer:
                out[f"{name}.s"] += end - start
            out[f"{name.split('.', 1)[0]}.self_s"] += end - start - child[idx]
        return dict(out)

    def dump(self, path: Path, header: dict) -> None:
        """Write the recorded spans as [name, start_us, end_us, parent] rows."""
        names: dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = []
        for name, start, end, parent, _ in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent])
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, names=list(names), spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")))

