"""Traced run: time the package's public functions from outside, as spans.

Every public function of the package is replaced, for the length of a traced
operation, by a timing wrapper at each layer module that binds it, so calls
made inside the package are timed too and no file under ``src/`` changes.  A span
is ``(name id, start ns, end ns, parent span index, op id)``; spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import eulergraph

LAYERS = ("genio", "hypergraph", "incidence", "matching", "family", "interchange", "solver")
OP = "op"


def _count_gadget(counts: Counter, gg) -> None:
    counts["matching.gadget_nodes"] += len(gg.adj)
    counts["matching.gadget_edges"] += sum(map(len, gg.adj)) // 2


def _count_linking_hit(counts: Counter, cycle) -> None:
    if cycle is not None:
        counts["interchange.find_linking_cycle.hits"] += 1


# Counts read off return values, keyed by span name.
COUNTS = ("matching.gadget_nodes", "matching.gadget_edges", "interchange.find_linking_cycle.hits")
HOOKS = {
    "matching.reduce_to_matching": _count_gadget,
    "interchange.find_linking_cycle": _count_linking_hit,
}


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.op = -1

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name_id, start, end, parent, self.op)
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper


def _targets() -> set[str]:
    genio = importlib.import_module("eulergraph.genio")
    return set(eulergraph.__all__) | {n for n in vars(genio) if not n.startswith("_")}


def bindings(rec: Recorder) -> list[tuple[object, str, object, object]]:
    """``(module, name, function, wrapper)`` for each public package function at each
    layer module that binds it; one wrapper per function, recording into ``rec``."""
    modules = [eulergraph] + [importlib.import_module(f"eulergraph.{m}") for m in LAYERS]
    wrappers: dict[object, object] = {}
    out = []
    for name in sorted(_targets()):
        for mod in modules:
            fn = vars(mod).get(name)
            if not inspect.isfunction(fn) or not fn.__module__.startswith("eulergraph."):
                continue
            if fn not in wrappers:
                wrappers[fn] = rec.timed(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", fn)
            out.append((mod, name, fn, wrappers[fn]))
    return out


@contextmanager
def installed(binds):
    """Put the wrappers of ``bindings`` in place, and the functions back afterwards."""
    for mod, name, _, wrapper in binds:
        setattr(mod, name, wrapper)
    try:
        yield
    finally:
        for mod, name, fn, _ in binds:
            setattr(mod, name, fn)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(names: list[str], spans) -> tuple[dict[str, int], dict[str, int]]:
    """Summed self time (ns) and call count per span name."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        name = names[span[0]]
        self_ns[name] += own
        calls[name] += 1
    return dict(self_ns), dict(calls)
