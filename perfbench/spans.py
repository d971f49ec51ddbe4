"""Span recorder and the wrappers that time each layer's public calls.

A span is ``(request id, name, start ns, end ns, parent index)``.  The
first span opened on an empty stack is a request's root and mints its
id; spans opened inside it inherit the id.  Requests on one connection
are served one at a time, so the client and the server mint the same
ids in the same order, and the two processes' spans join on them.

The wrappers are installed on *instances* (and, for the map's dunder
``__setitem__``, on a subclass swapped onto the instance), so nothing in
the program changes.  A disabled recorder passes every call straight
through.
"""

from __future__ import annotations

import threading
import time
from collections import Counter


class SpanRecorder:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []
        #: ``(root span name, counter name) -> amount``.
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._next_rid = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, materialize: bool = False):
        """``fn`` timed as span ``name``; ``materialize`` drains a returned
        iterator inside the span, so a lazy scan's work is timed."""
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent, rid, root = stack[-1]
            else:
                self._next_rid += 1
                parent, rid, root = -1, self._next_rid, name
            spans.append(None)
            index = len(spans) - 1
            stack.append((index, rid, root))
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (rid, name, start, end, parent)

        return traced

    def add(self, name: str, amount=1) -> None:
        """Count ``amount`` of ``name`` against the open request's root."""
        if self.enabled:
            stack = self._stack()
            root = stack[-1][2] if stack else None
            self.counts[(root, name)] += amount

    def counting(self, name: str, fn):
        """``fn`` with each call counted (no span: too fine-grained)."""

        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def shard_factory(self, factory):
        """A ``shard_factory=`` that times every shard build as
        ``shard.build`` and each built shard's ``insert`` and ``bulk_load``
        (the refill of a rebuilt shard; a shard without its own bulk load
        inserts one element at a time, so those inserts count too)."""
        build = self.wrap("shard.build", factory)

        def build_traced(capacity):
            shard = build(capacity)
            self.add("rshell.init_cost", sum(
                embedding.shell.initialization_cost
                for embedding in embeddings_of(shard)
            ))
            insert = self.wrap("shard.insert", shard.insert)

            def counted_insert(rank, element):
                result = insert(rank, element)
                self.add("shard.moves", result.cost)
                return result

            shard.insert = counted_insert
            shard.bulk_load = self.wrap("shard.bulk_load", shard.bulk_load)
            return shard

        return build_traced


def traced_factory(algorithm: str):
    """``(registry, recorder, shard factory)`` for a traced process.

    The registry is installed globally as well as injected: the physical
    arrays read the global registry, the rest of the stack the injected
    one.  The recorder starts disabled."""
    from repro import obs
    from repro.store.factories import resolve_factory

    registry = obs.MetricsRegistry()
    obs.set_registry(registry)
    recorder = SpanRecorder()
    return registry, recorder, recorder.shard_factory(resolve_factory(algorithm))


def embeddings_of(labeler) -> list:
    """Every ``F ⊳ R`` embedding in a shard: the outer one and, through
    its R-shell, the inner ones (empty for non-embedding shards)."""
    from repro.core.embedding import Embedding

    found = []
    while isinstance(labeler, Embedding):
        found.append(labeler)
        labeler = labeler.shell.reliable
    return found


def instrument_service(recorder: SpanRecorder, service) -> None:
    """Wrap the public entry points of the service → store → WAL → map →
    sharded-labeler stack behind ``service``."""
    store = service.store
    for name in ("get", "put", "range_scan"):
        setattr(service, name, recorder.wrap(f"service.{name}", getattr(service, name)))
    store.get = recorder.wrap("store.get", store.get)
    store.put = recorder.wrap("store.put", store.put)
    store.range = recorder.wrap("store.range", store.range, materialize=True)
    store.compact = recorder.wrap("store.compact", store.compact)
    store.wal.append = recorder.wrap("wal.append", store.wal.append)
    base = type(store.map)
    store.map.__class__ = type(
        "Traced" + base.__name__,
        (base,),
        {
            "__setitem__": recorder.wrap("map.set", base.__setitem__),
            "get": recorder.wrap("map.get", base.get),
            "range": recorder.wrap("map.range", base.range, materialize=True),
        },
    )
    labeler = store.labeler
    labeler.insert = recorder.wrap("sharded.insert", labeler.insert)
    labeler.select = recorder.counting("sharded.select", labeler.select)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0] * len(spans)
    for rid, name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (end - start) - covered[index]
        for index, (rid, name, start, end, parent) in enumerate(spans)
    ]
