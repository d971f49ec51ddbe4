"""The ``corollary11`` shard factory clones one pristine template per
(capacity, physical array class) instead of rebuilding every shard.

A clone must be indistinguishable from a fresh
``make_corollary11_labeler(capacity, seed=7)``: the same slot layout on
both embeddings' physical arrays, the same lemma counters and R-shell
costs, the same move log under a seeded stream, counters reported into the
registry live when it was made, and the same recovered labels in a durable
store.  The template itself must never change.  Runs on the slab array
always, and on the vector array when numpy imports.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro import obs
from repro.core.embedding import default_physical_factory
from repro.core.layered import make_corollary11_labeler
from repro.store import factories
from repro.store.store import DurableStore

CAPACITY = 128

BACKENDS = sorted({"slab", default_physical_factory().name})


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """The physical array the default selection picks for the test."""
    if request.param == "slab":
        monkeypatch.setitem(sys.modules, "repro.core.physical_vector", None)
    assert default_physical_factory().name == request.param
    return request.param


@pytest.fixture
def templates(monkeypatch):
    """An empty template cache, so each test also covers the first build."""
    cache: dict = {}
    monkeypatch.setattr(factories, "_COROLLARY11_TEMPLATES", cache)
    return cache


def clone(capacity: int = CAPACITY):
    return factories.resolve_factory("corollary11")(capacity)


def fresh(capacity: int = CAPACITY):
    return make_corollary11_labeler(capacity, seed=7)


def fingerprint(labeler) -> tuple:
    """Everything a clone must share with a fresh build."""
    parts = []
    for embedding in (labeler, labeler.inner_embedding):
        shell = embedding.shell
        parts.append((
            embedding.physical_backend,
            tuple(embedding.physical.kinds()),
            tuple(embedding.physical.slots()),
            embedding.fast_operations,
            embedding.slow_operations,
            embedding.max_buffered_elements,
            shell.initialization_cost,
            shell.token_cost,
            shell.element_cost,
        ))
    return tuple(parts)


def move_log(labeler, seed: int, steps: int = 300) -> list:
    """Drive a seeded insert/delete stream; return every operation's moves."""
    rng = random.Random(seed)
    size = 0
    log = []
    for step in range(steps):
        if size and (size == labeler.capacity or rng.random() < 0.3):
            result = labeler.delete(rng.randint(1, size))
            size -= 1
        else:
            result = labeler.insert(rng.randint(1, size + 1), step)
            size += 1
        log.append(list(result.moves))
    return log


def test_clone_matches_fresh_build(backend, templates):
    copy, reference = clone(), fresh()
    assert copy.physical_backend == backend
    assert fingerprint(copy) == fingerprint(reference)
    assert move_log(copy, seed=3) == move_log(reference, seed=3)
    assert fingerprint(copy) == fingerprint(reference)
    # A second clone comes from the cached template, not a rebuild.
    assert len(templates) == 1
    assert fingerprint(clone()) == fingerprint(fresh())


def test_template_unchanged_by_mutated_clone(backend, templates):
    first = clone()
    ((template, _),) = templates.values()
    pristine = fingerprint(template)
    assert template is not first
    move_log(first, seed=5, steps=120)
    assert fingerprint(template) == pristine
    assert fingerprint(clone()) == pristine


def test_clone_reports_into_live_registry(backend, templates):
    clone()  # build the template under the default (null) registry
    counts = []
    for build in (clone, fresh):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            labeler = build()
        finally:
            obs.set_registry(previous)
        move_log(labeler, seed=9, steps=150)
        counts.append({
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("physical.")
        })
    assert counts[0] == counts[1]
    assert counts[0]["physical.chain_moves"] > 0


def test_template_follows_the_physical_array(monkeypatch, templates):
    """A template built for one physical array never serves another."""
    if "vector" not in BACKENDS:
        pytest.skip("numpy unavailable")
    assert clone().physical_backend == "vector"
    monkeypatch.setitem(sys.modules, "repro.core.physical_vector", None)
    assert clone().physical_backend == "slab"
    assert len(templates) == 2


def test_store_recovers_same_labels_as_fresh_builds(backend, templates, tmp_path):
    path = tmp_path / "store"
    store = DurableStore(
        path, algorithm="corollary11", shard_capacity=32, sync_policy="never"
    )
    rng = random.Random(17)
    keys = rng.sample(range(10_000), 150)
    for index, key in enumerate(keys):
        store.put(key, index)
        if index == 75:
            store.snapshot()
    store.close()

    labels = []
    for shard_factory in (None, fresh):
        reopened = DurableStore(path, shard_factory=shard_factory, sync_policy="never")
        try:
            reopened.verify()
            labels.append(reopened.labeler.labels())
        finally:
            reopened.close()
    assert labels[0] == labels[1]
    assert sorted(labels[0]) == sorted(keys)
