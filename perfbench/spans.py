"""Spans around calls into turan3's public functions, recorded from outside.

`install(tracer)` replaces each function in TRACED by a wrapper at every
turan3 module attribute that refers to it. Modules import these names
directly (`from .graphs import contains_sub`), so rebinding only the defining
module would miss most calls.

Most calls become a span (id, name, start, end, parent id). The functions in
HOT are called about 10^6 times per program pass; each of their calls is
folded into a (function, parent span) aggregate of call count and seconds,
which keeps memory bounded. HOT functions call no other traced function, so
they never parent a span.

A span's self time is its duration minus the part of it that its child spans
cover, and minus the time of aggregated calls made directly under it.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

TRACED = (
    "graphs.canonical_data",
    "graphs.contains_sub",
    "graphs.exhaustive_containment_scan",
    "graphs.induced_subgraph",
    "enumeration.rooted_canonical_key",
    "enumeration.type_embeddings",
    "enumeration.enumerate_flags",
    "enumeration.enumerate_free",
    "density.pair_density_table",
    "density.p",
    "sdp.assemble",
    "sdp.model_to_text",
    "sdp.model_from_text",
    "sdp.round_solution",
    "certificate.verify",
    "certificate.psd_check",
    "certificate.inner_product",
    "certificate.certificate_from_text",
    "constructions.build",
    "constructions.density_report",
    "partition.maxcut_local_search",
    "partition.bad_missing",
    "partition.is_locally_maximal",
    "partition.prop33_expr",
    "partition.lemma22_gap",
)

HOT = frozenset(
    {
        "graphs.canonical_data",
        "graphs.contains_sub",
        "graphs.induced_subgraph",
        "enumeration.rooted_canonical_key",
    }
)

MODULES = (
    "graphs",
    "enumeration",
    "density",
    "sdp",
    "certificate",
    "constructions",
    "partition",
    "families",
    "cli",
)


def _family_signature(family, induced_flags=None) -> tuple:
    return tuple((g.n, g.edges) for g in family), tuple(induced_flags or ())


class Tracer:
    """Span and aggregate store for one job process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.hot: dict[tuple[str, int | None], list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.enumerate_args: set = set()
        self.tables: dict[int, int] = {}  # id(table) -> nonzero entries
        self._stack: list[int | None] = [None]
        self._next_id = 0

    def span(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        stack = self._stack
        hot = self.hot
        count_true = name == "graphs.contains_sub"
        counts = self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            key = (name, stack[-1])
            slot = hot.get(key)
            if slot is None:
                hot[key] = [1, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
            if count_true and result:
                counts["graphs.contains_sub.found"] += 1
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [
                [name, parent, calls, secs] for (name, parent), (calls, secs) in self.hot.items()
            ],
            "counts": dict(self.counts),
            "enumerate_args": len(self.enumerate_args),
            "table_nonzeros": sum(self.tables.values()),
        }


def _observe_enumerate_free(tracer, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    family = args[1] if len(args) > 1 else kwargs.get("family", ())
    flags = args[2] if len(args) > 2 else kwargs.get("induced_flags")
    tracer.enumerate_args.add((m, _family_signature(family, flags)))
    tracer.counts["enumeration.enumerate_free.returned"] += len(result)


def _observe_table(tracer, args, kwargs, result):
    if id(result) not in tracer.tables:
        tracer.tables[id(result)] = sum(
            1 for mat in result.matrices for row in mat for x in row if x
        )


def _observe_model_text(tracer, args, kwargs, result):
    tracer.counts["sdp.emit_bytes"] += len(result.encode())


_OBSERVERS = {
    "enumeration.enumerate_free": _observe_enumerate_free,
    "density.pair_density_table": _observe_table,
    "sdp.model_to_text": _observe_model_text,
}


def install(tracer: Tracer) -> None:
    modules = [importlib.import_module(f"turan3.{name}") for name in MODULES]
    for qualname in TRACED:
        mod_name, fn_name = qualname.split(".")
        original = getattr(importlib.import_module(f"turan3.{mod_name}"), fn_name)
        make = tracer.aggregate if qualname in HOT else tracer.span
        wrapper = make(qualname, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans, hot) -> dict[str, list]:
    """Per function name: [calls, self seconds], from spans and hot aggregates."""
    children: dict = defaultdict(list)
    hot_under: dict = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        children[parent].append((start, end))
    for _name, parent, _calls, secs in hot:
        hot_under[parent] += secs
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, name, start, end, _parent in spans:
        acc = out[name]
        acc[0] += 1
        acc[1] += (end - start) - _covered(children[sid], start, end) - hot_under[sid]
    for name, _parent, calls, secs in hot:
        acc = out[name]
        acc[0] += calls
        acc[1] += secs
    return dict(out)
