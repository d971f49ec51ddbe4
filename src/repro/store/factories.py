"""Named shard-factory registry for reopenable stores.

A durable store must be *reopenable*: recovery rebuilds shards through the
same factory that built them, so the factory has to be resolvable from the
store's on-disk config — a name, not a closure.  This registry maps the
names the test-suite's ``ALGORITHM_FACTORIES`` uses to ``factory(capacity)``
callables; every entry is deterministic (fixed seeds, salt-hashed
predictors), which is what makes crash recovery reproduce the uninterrupted
run bit-for-bit.

Custom factories still work: pass ``shard_factory=`` to
:class:`repro.store.store.DurableStore` together with ``algorithm=`` naming
it; reopening then requires passing the same callable again (the config
records the name so a mismatch is caught, not silently mis-recovered).
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Callable

from repro import obs
from repro.algorithms import (
    AdaptivePMA,
    ClassicalPMA,
    DeamortizedPMA,
    LearnedLabeler,
    NaiveLabeler,
    NoisyPredictor,
    RandomizedPMA,
    SparseNaiveLabeler,
)
from repro.core.embedding import PhysicalFactory, default_physical_factory
from repro.core.interface import ListLabeler
from repro.core.layered import make_corollary11_labeler


def _learned(capacity: int) -> LearnedLabeler:
    keys = [Fraction(i) for i in range(1, capacity + 1)]
    return LearnedLabeler(
        capacity,
        predictor=NoisyPredictor(keys, eta=max(1, capacity // 64)),
    )


#: Pristine empty ``corollary11`` shards, one per (capacity, physical array),
#: each with the ``physical.*`` counts its construction produced.
_COROLLARY11_TEMPLATES: dict[
    tuple[int, PhysicalFactory], tuple[ListLabeler, dict[str, int]]
] = {}


def _corollary11_template(
    capacity: int, physical_factory: PhysicalFactory
) -> tuple[ListLabeler, dict[str, int]]:
    """Build the pristine shard, tallying its physical arrays' counters in a
    private registry so each clone can report them as a fresh build would."""
    tally = obs.MetricsRegistry()

    def tallied(num_slots: int):
        physical = physical_factory(num_slots)
        physical._bind_obs(tally)
        return physical

    template = make_corollary11_labeler(
        capacity, seed=7, physical_factory=tallied
    )
    return template, tally.snapshot()["counters"]


def _corollary11(capacity: int) -> ListLabeler:
    """An empty ``corollary11`` shard, deep-copied from a pristine template.

    Building one replays the R-shells' Θ(n) token inserts (~175 ms at
    capacity 128); the build is deterministic, so every call after the first
    copies the same empty structure instead (a few ms).  The copy moves
    exactly as a fresh build would, and the live registry receives the same
    ``physical.*`` counts.  The template itself is never handed out.  Keying
    on the physical array class keeps a template built under one
    interpreter choice from serving another.
    """
    physical_factory = default_physical_factory()
    key = (capacity, physical_factory)
    entry = _COROLLARY11_TEMPLATES.get(key)
    if entry is None:
        # Two threads racing here build two equal templates; either serves.
        entry = _COROLLARY11_TEMPLATES[key] = _corollary11_template(
            capacity, physical_factory
        )
    template, build_counts = entry
    shard = copy.deepcopy(template)
    registry = obs.get_registry()
    if registry.enabled:
        for name, amount in build_counts.items():
            registry.counter(name).inc(amount)
    return shard


#: name -> deterministic ``factory(capacity)`` usable as a store shard.
SHARD_FACTORIES: dict[str, Callable[[int], ListLabeler]] = {
    "naive": lambda capacity: NaiveLabeler(capacity),
    "sparse-naive": lambda capacity: SparseNaiveLabeler(capacity),
    "classical": lambda capacity: ClassicalPMA(capacity),
    "deamortized": lambda capacity: DeamortizedPMA(capacity),
    "randomized": lambda capacity: RandomizedPMA(capacity, seed=1234),
    "adaptive": lambda capacity: AdaptivePMA(capacity),
    "learned": _learned,
    "corollary11": _corollary11,
}

#: The production default: classical PMA shards (O(log² n) amortized,
#: cheap snapshots, exact restore).
DEFAULT_ALGORITHM = "classical"

#: Factories whose structures restore through the ``elements`` fallback
#: (bulk_load) rather than an exact physical-layout snapshot.
ELEMENTS_FALLBACK_ALGORITHMS = frozenset({"corollary11"})

#: Every algorithm with an exact snapshot format — the universe of the
#: crash-injection differential (tests and benchmark derive from this, and
#: the test-suite's ALGORITHM_FACTORIES is built from it, so the name sets
#: can never drift apart).
EXACT_SNAPSHOT_ALGORITHMS = tuple(
    sorted(set(SHARD_FACTORIES) - ELEMENTS_FALLBACK_ALGORITHMS)
)


def resolve_factory(name: str) -> Callable[[int], ListLabeler]:
    try:
        return SHARD_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown shard algorithm {name!r} (registered: "
            f"{', '.join(sorted(SHARD_FACTORIES))})"
        ) from None
