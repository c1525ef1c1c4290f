"""Per-layer timing for the traced benchmark run.

Each public function in `LAYERS` is replaced by a wrapper: every global of
every `knfrag.*` module that refers to the function is rebound before the
benchmark's own modules import it, so calls between modules, and names
imported with `from .semantics import check`, are timed too.  A direct
recursive call (`to_nnf` calling `to_nnf`) stays inside its caller's span.
Generator functions are timed inside each `next()`, and the items they
yield are counted.

Only calls made while a query runs are traced, not those the benchmark
makes to build inputs or to read answers.  A span is opened at each wrapped
call and closed when it returns.  Spans are kept in memory while the loop
runs: the query-level spans one by one, and the layer spans folded, as they
close, into one record per (parent layer, layer) with calls, items, total
and self time.  The layer spans of one pass run to millions (one per
`check`), which is why they are folded.  Self time is span time minus the
time of the child spans it contains.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    ("solver", "sat_bruteforce"),
    ("solver", "sat_tableau"),
    ("solver", "to_nnf"),
    ("solver", "tree_model_bound"),
    ("semantics", "check"),
    ("semantics", "enumerate_models"),
    ("semantics", "enumerate_extensions"),
    ("semantics", "model_from_json"),
    ("expressiveness", "enumerate_fragment"),
    ("expressiveness", "search_weak_translation"),
    ("expressiveness", "weak_equiv_check"),
    ("expressiveness", "strong_translation_check"),
    ("expressiveness", "replay_theorem"),
    ("syntax", "parse"),
    ("syntax", "to_text"),
    ("syntax", "recognize_clausal"),
    ("syntax", "classify"),
    ("translate", "krom_to_krom_box"),
    ("translate", "krom_to_krom_diamond"),
    ("combinators", "intersect"),
    ("combinators", "product"),
    ("combinators", "override_valuation"),
    ("combinators", "add_successor_world"),
    ("cli", "main"),
    ("hierarchy", "hierarchy_dot"),
)
ROOT = "query"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m}.{f}" for m, f in LAYERS]
        self.stack = []  # open spans: [layer, start, child time]
        self.top = -1  # layer of the innermost open span
        self._undo = []
        self.edges = {}  # (parent layer, layer) -> [calls, items, total s, self s]
        self.queries = []  # query spans: (key, start, end)
        self.fresh_letters = 0

    def open(self, layer):
        self.stack.append([layer, perf_counter(), 0.0])
        self.top = layer

    def close(self, item=False):
        end = perf_counter()
        layer, start, child = self.stack.pop()
        duration = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_layer = parent[0]
        else:
            parent_layer = -1
        self.top = parent_layer
        record = self.edges.get((parent_layer, layer))
        if record is None:
            record = self.edges[(parent_layer, layer)] = [0, 0, 0.0, 0.0]
        record[0] += 1
        record[1] += item
        record[2] += duration
        record[3] += duration - child
        return start, end

    def run_query(self, key, run, args):
        self.open(0)
        try:
            return run(*args)
        finally:
            start, end = self.close()
            self.queries.append((key, start, end))

    # --- installation ---

    def _wrap(self, layer, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return _TracedIterator(tracer, layer, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if tracer.top == layer or not tracer.stack:
                    return fn(*args, **kwargs)
                tracer.open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Rebind every `knfrag.*` global that names a layer function to its
        wrapper.  Modules that import these names afterwards get the wrappers."""
        originals = {}
        for layer, (module, function) in enumerate(LAYERS, start=1):
            fn = getattr(importlib.import_module(f"knfrag.{module}"), function)
            originals[id(fn)] = self._wrap(layer, fn)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "knfrag" or name.startswith("knfrag."))]
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)
        source = sys.modules["knfrag.translate"].FreshLetterSource
        fresh_next = source.next

        def counted_next(letters):
            self.fresh_letters += bool(self.stack)
            return fresh_next(letters)

        self._undo.append((source, "next", fresh_next))
        source.next = counted_next

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo = []

    # --- results ---

    def summary(self, scale=1.0) -> dict:
        """Per-layer calls, items and self time, plus the edges between layers;
        times are multiplied by `scale`."""
        layers = {}
        for (parent, layer), (calls, items, total, self_s) in self.edges.items():
            entry = layers.setdefault(self.names[layer],
                                      {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["items"] += items
            entry["total_s"] += total * scale
            entry["self_s"] += self_s * scale
        edges = [
            {"parent": self.names[p] if p >= 0 else None, "layer": self.names[l],
             "calls": c, "items": i, "total_s": t * scale, "self_s": s * scale}
            for (p, l), (c, i, t, s) in sorted(self.edges.items())
        ]
        return {"layers": layers, "edges": edges, "fresh_letters": self.fresh_letters}


class _TracedIterator:
    """A generator whose every `next()` is a span of its layer."""

    __slots__ = ("tracer", "layer", "gen")

    def __init__(self, tracer, layer, gen):
        self.tracer, self.layer, self.gen = tracer, layer, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.stack:
            return next(self.gen)
        tracer.open(self.layer)
        try:
            item = next(self.gen)
        except BaseException:
            tracer.close()
            raise
        tracer.close(item=True)
        return item
