"""Span recording for the traced benchmark run.

The traced run swaps the public functions of the treezeta modules, at every
name that binds them inside the package, for shims that record one span per
call: name, parent span, start and end (``perf_counter_ns``) and a few
attributes read off the result.  Spans stay in memory; the worker summarises
them and writes them out when it ends.  Nothing here is imported by the
timed run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from typing import Any, Callable

LAYERS = ("exact", "special_values", "genfun", "spectral", "dyck", "verify", "cli")

# Called once per enumerated word by the brute-force oracle (2.5 M times at
# n = 9); a span each would cost more than the oracle and hold gigabytes.
UNTRACED = frozenset({"dyck.word_weight", "dyck.weight_profile"})


def _catalan_words(args: tuple, kwargs: dict, result: Any) -> dict:
    n = args[0] if args else kwargs["n"]
    return {"words": math.comb(2 * n, n) // (n + 1) * 2**n}


def _zeta_eval(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"nodes": result.nodes, "converged": result.converged}


# Attributes kept per span, by span name.
HOOKS: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "spectral.zeta_numeric": _zeta_eval,
    "dyck.weight_polynomial.bruteforce": _catalan_words,
}


class Tracer:
    """In-memory span store.  Single-threaded: one stack of open spans."""

    def __init__(self) -> None:
        # each span: [name, parent index or -1, start_ns, end_ns, attrs or None]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]

    def wrap(self, base: str, fn: Callable) -> Callable:
        """A shim around ``fn`` recording one span per call.

        Functions taking a ``method`` argument get it appended to the span
        name, so the routes of one function are told apart.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name_of = _namer(base, fn)

        def shim(*args, **kwargs):
            name = name_of(args, kwargs)
            rec = [name, stack[-1], clock(), 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            hook = HOOKS.get(name)
            if hook is not None:
                rec[4] = hook(args, kwargs, out)
            return out

        return shim

    def install(self) -> Callable[[], None]:
        """Shim every public treezeta function at each name that binds it.

        Returns a function that puts the originals back.
        """
        modules = [importlib.import_module(f"treezeta.{m}") for m in LAYERS]
        origins = {f"treezeta.{m}" for m in LAYERS}
        shims: dict[int, Callable] = {}
        undo: list[tuple[Any, str, Any]] = []

        def shim_for(obj):
            if id(obj) not in shims:
                shims[id(obj)] = self.wrap(_span_name(obj), obj)
            return shims[id(obj)]

        def traceable(name: str, obj: Any) -> bool:
            return (
                not name.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) in origins
                # a generator's span would close before any of its work is done
                and not inspect.isgeneratorfunction(obj)
                and _span_name(obj) not in UNTRACED
            )

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if traceable(name, obj):
                    undo.append((mod, name, obj))
                    setattr(mod, name, shim_for(obj))
        # run_battery dispatches through this table, not through module names
        checks = importlib.import_module("treezeta.verify").ALL_CHECKS
        originals = dict(checks)
        for key, fn in originals.items():
            checks[key] = shim_for(fn)

        def restore() -> None:
            for mod, name, obj in undo:
                setattr(mod, name, obj)
            checks.update(originals)

        return restore

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each call of ``name``, outermost calls only."""
        spans = self.spans
        out = []
        for rec in spans:
            if rec[0] == name and not self._inside(rec, name):
                out.append((rec[3] - rec[2]) * 1e-9)
        return out

    def _inside(self, rec: list, name: str) -> bool:
        parent = rec[1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def attrs(self, name: str, key: str) -> list:
        return [rec[4][key] for rec in self.spans if rec[0] == name and rec[4]]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by that span's children, in seconds."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        out = {layer: 0.0 for layer in LAYERS}
        for i, rec in enumerate(self.spans):
            layer = rec[0].split(".", 1)[0]
            out[layer] += (rec[3] - rec[2] - child[i]) * 1e-9
        return out

    def entries(self, layer: str) -> list[float]:
        """Durations of the calls that enter ``layer`` from outside it."""
        spans = self.spans
        prefix = layer + "."
        out = []
        for rec in spans:
            if rec[0].startswith(prefix) and (
                rec[1] < 0 or not spans[rec[1]][0].startswith(prefix)
            ):
                out.append((rec[3] - rec[2]) * 1e-9)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "parent", "start_ns", "end_ns", "attrs"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def _span_name(fn: Callable) -> str:
    return f"{fn.__module__.removeprefix('treezeta.')}.{fn.__name__}"


def _namer(base: str, fn: Callable) -> Callable[[tuple, dict], str]:
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        params = []
    for idx, p in enumerate(params):
        if p.name == "method":
            default = p.default

            def name_of(args, kwargs, idx=idx, default=default):
                method = kwargs.get("method", args[idx] if len(args) > idx else default)
                return f"{base}.{method}"

            return name_of
    return lambda args, kwargs: base

