"""Span tracer that wraps structlogic's public functions from outside the package.

`Tracer.install()` replaces every public function of each layer module, in
every structlogic module namespace that binds the same function object, with
a wrapper that records one span (name, start, end, parent) per call.  A few
methods are patched on their classes.  Spans live in flat arrays until the
process ends; `summary()` turns them into per-name calls and self time, where
self time is a span's duration minus the time its child spans cover.

Nothing under src/ is modified; uninstalling is not needed because every
traced run is its own process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "structures",
    "syntax",
    "semantics",
    "classspec",
    "closure",
    "axiomatizer",
    "translate",
    "formats",
    "sexpr",
    "reports",
    "cli",
)

# Hot helpers (per subformula evaluated or per sort comparison): a span per
# call would cost more than the work it measures, so they are only counted.
COUNT_ONLY = {
    "syntax.free_vars",
    "syntax.check_kappa",
    "syntax.sort_key",
    "structures.decorated",
}

METHODS = {
    "classspec": {
        "DefinedClass": ("members", "contains", "le"),
        "ExplicitClass": ("members", "contains", "le"),
    },
    "axiomatizer": {"ExpansionMap": ("expand",), "MorleyizationMap": ("expand",)},
    "reports": {"VerificationReport": ("render",)},
}

# normalize is split by argument size: brute-force labelling costs m! steps,
# cheap up to 5 points and dominant from 6 on
NORMALIZE = "structures.normalize"
SMALL_MAX = 5

# Generators whose items are isomorphism types; normalize calls made while one
# of them runs count as enumeration work.
ENUMERATIONS = {"structures.enumerate_structures", "semantics.enumerate_models"}


def _is_function(value) -> bool:
    """Plain functions and lru_cache-wrapped ones (free_vars is cached)."""
    return inspect.isfunction(value) or hasattr(value, "cache_info")


def cache_counts() -> dict[str, list[int]]:
    """Hits and misses so far of every lru cache in the layers, per layer.

    Only reads cache_info(), so it changes nothing; a cached function that
    the tracer has wrapped is found through the wrapper's __wrapped__.
    """
    out: dict[str, list[int]] = {}
    seen: set[int] = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"structlogic.{layer}")
        for value in vars(mod).values():
            while not hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if not hasattr(value, "cache_info") or id(value) in seen:
                continue
            if not getattr(value, "__module__", "").startswith("structlogic."):
                continue
            seen.add(id(value))
            info = value.cache_info()
            acc = out.setdefault(value.__module__.split(".", 1)[1], [0, 0])
            acc[0] += info.hits
            acc[1] += info.misses
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.truthy: dict[str, int] = {}
        self.yields: dict[str, int] = {}
        self.enum_depth = 0
        self.first_call: float | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans opened by the benchmark itself (one per job) -----------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    # -- wrappers -------------------------------------------------------------

    def _error(self, name: str, exc: BaseException) -> None:
        key = f"{name}.errors.{type(exc).__name__}"
        self.errors[key] = self.errors.get(key, 0) + 1

    def _wrap(self, fn, name: str):
        if name in COUNT_ONLY:
            return self._wrap_count(fn, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        tracer = self
        clock = time.perf_counter
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack,
        )
        if name == NORMALIZE:
            small, large = self._id(name + ".small"), self._id(name + ".large")
            self.counts["structures.enumerate.normalize"] = 0

            def pick(args):
                if tracer.enum_depth:
                    tracer.counts["structures.enumerate.normalize"] += 1
                return small if args[0].size <= SMALL_MAX else large
        else:
            nid = self._id(name)

            def pick(args):
                return nid
        count_truth = name == "classspec.le"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.first_call is None:
                tracer.first_call = time.monotonic()
            i = len(start)
            name_of.append(pick(args))
            parent.append(stack[-1] if stack else -1)
            stack.append(i)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(name, exc)
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if count_truth and result:
                tracer.truthy[name] = tracer.truthy.get(name, 0) + 1
            return result

        return wrapper

    def _wrap_count(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_generator(self, fn, name: str):
        """One span per resumption, so the consumer's own time stays outside.

        Items count as yielded only from the outermost running enumeration,
        so enumerate_models over enumerate_structures counts each type once.
        """
        tracer = self
        depth = 1 if name in ENUMERATIONS else 0
        self.yields[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.first_call is None:
                tracer.first_call = time.monotonic()
            inner = fn(*args, **kwargs)
            while True:
                i = tracer.open(name)
                tracer.enum_depth += depth
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception as exc:
                    tracer._error(name, exc)
                    raise
                finally:
                    tracer.enum_depth -= depth
                    tracer.close(i)
                if not tracer.enum_depth:
                    tracer.yields[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every public function and the listed methods of every layer."""
        modules = {layer: importlib.import_module(f"structlogic.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not _is_function(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                wrapped[id(value)] = self._wrap(value, f"{layer}.{attr}")
        # rebind in every namespace that holds the same function object,
        # whatever local name it goes by there (cli imports eval as eval_formula)
        for mod in [*modules.values(), importlib.import_module("structlogic")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and _is_function(value):
                    setattr(mod, attr, wrapped[id(value)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for method in methods:
                    setattr(cls, method, self._wrap(getattr(cls, method), f"{layer}.{method}"))

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self time and outermost inclusive time, plus counters."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        incl_s = [0.0] * len(names)
        name_of = self.name_of
        for i in range(n):
            k = name_of[i]
            calls[k] += 1
            self_s[k] += dur[i] - covered[i]
            p = parent[i]
            while p >= 0 and name_of[p] != k:
                p = parent[p]
            if p < 0:
                incl_s[k] += dur[i]
        functions = {
            names[k]: {"calls": calls[k], "self_s": self_s[k], "incl_s": incl_s[k]}
            for k in range(len(names))
            if calls[k]
        }
        return {
            "functions": functions,
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "truthy": dict(self.truthy),
            "yields": dict(self.yields),
            "spans": n,
        }

    def write(self, path: str) -> None:
        """Header line of JSON (names, span count), then the four raw arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.start),
                "arrays": ["name_of:i", "parent:i", "start:d", "end:d"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
