"""Span recording around the package's public functions, from outside it.

`Tracer.install` replaces every public function (and public method of a
public class) defined in the layer modules with a recording wrapper, both
where it is defined and under every name other package modules import it
by (e.g. `cli.mle_reconstruct`, `distillation.coherent_state`), including
dispatch tables such as `cli.COMMANDS`.  `uninstall` puts the originals
back.  Spans are kept in memory and written out by `write`.

Calls between wrapped functions nest synchronously in one thread, so child
spans never overlap and a span's self time is its duration minus the sum
of its children's durations.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
import types
from collections import defaultdict

PACKAGE = "photondistill"
LAYERS = ("cli", "cavity", "distillation", "fockspace", "tomography", "photonstats",
          "calibration")


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, round, name, start_ns, end_ns, self_ns)
        self.counters: dict[str, float] = defaultdict(float)
        self.round = -1
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patches: list[tuple] = []  # (namespace, key, original, is_dict)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans.append(
                    (span_id, parent, tracer.round, name, start, end, end - start - frame[1])
                )
            if hook is not None:
                try:
                    hook(tracer.counters, result, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # a changed signature or result type loses the count, not the run
                    tracer.counters["hook_errors"] += 1
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, hooks: dict):
        """Wrap the layer modules' public callables; see the module docstring.

        hooks maps a span name to f(counters, result, args, kwargs), called
        after each successful call to record counts.
        """
        modules = _package_modules()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:  # a layer the package no longer has reports zeros
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
            for cls_name, cls in list(vars(mod).items()):
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != mod.__name__:
                    continue
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{attr}"
                    if inspect.isfunction(vars(mod).get(attr)):
                        name = f"{layer}.{cls_name}.{attr}"
                    self._set(cls, attr, self.wrap(name, fn, hooks.get(name)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrapped:
                            self._patches.append((obj, key, value, True))
                            obj[key] = wrapped[id(value)]

    def count_draws(self, layer: str, counter: str):
        """Count, under `counter`, the variates of generators `layer` creates."""
        mod = _package_modules().get(f"{PACKAGE}.{layer}")
        if mod is not None and hasattr(mod, "np"):
            self._set(mod, "np", _counting_numpy(mod.np, self.counters, counter))

    def _set(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr), False))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, key, original, is_dict in reversed(self._patches):
            if is_dict:
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                                               "self_s": 0.0})
        for _, _, _, name, start, end, self_ns in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += (end - start) * 1e-9
            entry["self_s"] += self_ns * 1e-9
        return dict(out)

    def write(self, path):
        """Spans as gzip'd CSV: id,parent,round,name,start_ns,end_ns,self_ns."""
        tmp = f"{path}.tmp"
        with gzip.open(tmp, "wt", compresslevel=1) as fh:
            fh.write("id,parent,round,name,start_ns,end_ns,self_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(map(str, span)) + "\n")
        os.replace(tmp, path)


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the variates it returns."""

    def __init__(self, gen, counters, key):
        self._gen = gen
        self._counters = counters
        self._key = key

    def __getattr__(self, attr):
        target = getattr(self._gen, attr)
        if not callable(target):
            return target
        counters, key = self._counters, self._key

        def draw(*args, **kwargs):
            out = target(*args, **kwargs)
            counters[key] += getattr(out, "size", 1)
            return out

        return draw


class _Forward(types.ModuleType):
    """Module stand-in that forwards every attribute it lacks to `_target`."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__)
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _counting_numpy(np_module, counters, key):
    """A stand-in for `numpy` whose `random.default_rng` counts variates."""

    def default_rng(*args, **kwargs):
        return _CountingGenerator(np_module.random.default_rng(*args, **kwargs), counters, key)

    return _Forward(np_module, random=_Forward(np_module.random, default_rng=default_rng))
