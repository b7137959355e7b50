"""Per-layer spans, recorded by wrapping the library's public functions.

The layers are the modules of gridletters.  `Tracer.install` wraps every
public module-level function of each layer and rebinds it at every name a
caller looks it up by: the defining module, the package namespace, and any
module that imported it by name (pipeline's `find_gridding`, for instance).
Generator functions are left alone; their work is counted in the span of
whichever wrapped function consumes them.  Private helpers are not wrapped,
so their time counts as self time of the nearest wrapped caller.

Spans are kept in memory as (name, start, end, parent, found, item) and
written out once, at the end.  A span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

SETUP = -2  # Tracer.item while the first-use tables are built

LAYERS = ("perm", "graphs", "letters", "gridding", "geometry", "pipeline", "oracle", "render", "cli")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        fn = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        if inspect.isgeneratorfunction(fn):
            continue
        yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.lettering_graphs: list = []  # first argument of every find_lettering call
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gridletters.{layer}")
            for name, obj in _public_functions(module):
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gridletters" and not mod_name.startswith("gridletters."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        kept = self.lettering_graphs if name == "letters.find_lettering" else None
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            found = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                found = result is not None and result is not False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, found, tracer.item)
                if kept is not None:
                    kept.append(args[0] if args else None)

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        """Per function: [calls, self seconds, found count], for the body and,
        apart, for spans recorded while `item` was SETUP; plus the body's
        root total (the sum of all its self times)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, found, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        phases: dict[bool, dict[str, list]] = {False: {}, True: {}}
        roots = 0.0
        for i, (name, start, end, parent, found, item) in enumerate(self.spans):
            entry = phases[item == SETUP].setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
            entry[2] += 1 if found else 0
            if parent < 0 and item != SETUP:
                roots += end - start
        return {
            "functions": phases[False],
            "setup_functions": phases[True],
            "root_s": roots,
            "spans": len(self.spans),
        }

    def write(self, path, origin: float) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, found, item in self.spans:
                row = [name, round(start - origin, 9), round(end - origin, 9), parent, found, item]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")


def repeat_share(graph_list) -> tuple[int, int]:
    """(calls whose graph is isomorphic to an earlier call's graph, calls).

    Run with tracing uninstalled, after the timed body.
    """
    from gridletters import graphs

    buckets: dict[tuple, list] = {}
    repeats = 0
    for g in graph_list:
        invariant = (g.order, len(g.edges), tuple(sorted(g.degree(v) for v in range(1, g.order + 1))))
        bucket = buckets.setdefault(invariant, [])
        if any(graphs.find_isomorphism(g, rep) is not None for rep in bucket):
            repeats += 1
        else:
            bucket.append(g)
    return repeats, len(graph_list)
