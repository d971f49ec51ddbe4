"""E-SHARD — the sharding engine: unbounded capacity at bounded local cost.

Two claims, both beyond what any monolithic structure in this library can
do, plus one on what a shard costs to build:

* **Scale** — a :class:`~repro.core.sharded.ShardedLabeler` over classical
  PMA shards absorbs ``n ≥ 8×`` a single shard's capacity (here 64×),
  paying only local per-shard rebalances plus the directory's split/merge
  traffic, while a monolithic classical PMA of the same total size pays
  array-wide cascades — and simply cannot be built without knowing ``n``
  up front.
* **Batching** — the per-shard sub-batch execution composes with the PR 1
  batch engine: on bulk loads the batched sharded runs land far below the
  singleton sharded runs in total element moves.
* **Construction** — the registry's ``corollary11`` factory deep-copies a
  pristine empty shard instead of replaying the R-shells' Θ(n) token
  inserts, so a shard build is ≥ 10× faster than a fresh
  ``make_corollary11_labeler`` (a ratio measured within one run).
"""

from __future__ import annotations

import time

from benchmarks.conftest import QUICK, emit, expect, scaled
from repro.algorithms import ClassicalPMA
from repro.analysis import run_workload
from repro.core import ShardedLabeler
from repro.core.layered import make_corollary11_labeler
from repro.store.factories import resolve_factory
from repro.workloads import RandomWorkload
from repro.workloads.bulk import BulkLoadWorkload

#: Shrunk with the quick-mode n so the n ≥ 8× shard-capacity claim stays
#: meaningful at smoke sizes too.
SHARD_CAPACITY = 16 if QUICK else 64


def _sharded():
    return ShardedLabeler(
        lambda cap: ClassicalPMA(cap), shard_capacity=SHARD_CAPACITY
    )


def test_sharded_scales_past_any_single_shard(run_once):
    sizes = sorted({scaled(n) for n in (512, 1024, 2048, 4096)})

    def experiment():
        rows = []
        for n in sizes:
            sharded = _sharded()
            run = run_workload(sharded, RandomWorkload(n, n, seed=17))
            monolithic = run_workload(
                ClassicalPMA(n), RandomWorkload(n, n, seed=17)
            )
            summary = run.summary()
            rows.append(
                {
                    "n": n,
                    "n / shard_capacity": round(n / SHARD_CAPACITY, 1),
                    "sharded amortized": run.amortized_cost,
                    "monolithic amortized": monolithic.amortized_cost,
                    "shards": int(summary["shards"]),
                    "splits": int(summary["splits"]),
                    "restructure_moves": int(summary["restructure_moves"]),
                }
            )
        return rows

    rows = run_once(experiment)
    emit(
        "E-SHARD: sharded (classical shards of %d) vs monolithic classical PMA,"
        " uniform random" % SHARD_CAPACITY,
        rows,
        note="Expected shape: the sharded amortized cost stays flat as n "
        "grows (every operation is local to one ~%d-element shard) while "
        "the monolithic cost keeps growing with log² n.  The monolithic "
        "structure also needs n declared up front — the sharded engine "
        "does not." % SHARD_CAPACITY,
    )
    # Unbounded capacity: the largest run must dwarf one shard.
    largest = rows[-1]
    assert largest["n"] >= 8 * SHARD_CAPACITY
    assert largest["shards"] >= largest["n"] // SHARD_CAPACITY
    expect(
        rows[-1]["sharded amortized"] < rows[-1]["monolithic amortized"],
        "local shard rebalances should beat array-wide cascades at scale",
    )
    # Flatness: sharded cost must grow slower than the monolithic cost.
    sharded_growth = rows[-1]["sharded amortized"] / max(rows[0]["sharded amortized"], 1e-9)
    monolithic_growth = rows[-1]["monolithic amortized"] / max(
        rows[0]["monolithic amortized"], 1e-9
    )
    expect(
        sharded_growth < monolithic_growth,
        "sharded amortized cost should flatten relative to the monolithic curve",
    )


def test_batched_bulk_load_beats_singleton_on_sharded(run_once):
    n = scaled(4096)

    def experiment():
        singleton = run_workload(
            _sharded(), BulkLoadWorkload(n, batch_size=64, seed=23)
        )
        rows = [
            {
                "execution": "singleton",
                "total_moves": singleton.total_cost,
                "amortized": singleton.amortized_cost,
                "splits": singleton.tracker.structure_statistics().get("splits", 0),
            }
        ]
        for batch_size in (16, 64, 256):
            batched = run_workload(
                _sharded(),
                BulkLoadWorkload(n, batch_size=64, seed=23),
                batch_size=batch_size,
            )
            assert batched.final_keys == singleton.final_keys
            rows.append(
                {
                    "execution": f"batched({batch_size})",
                    "total_moves": batched.total_cost,
                    "amortized": batched.amortized_cost,
                    "splits": batched.tracker.structure_statistics().get("splits", 0),
                }
            )
        return rows

    rows = run_once(experiment)
    emit(
        "E-SHARD-BATCH: bulk-load onto the sharded engine, n = %d "
        "(%d× one shard's capacity), total element moves" % (n, n // SHARD_CAPACITY),
        rows,
        note="Batches are partitioned through the shard directory and each "
        "sub-batch is absorbed with one merged per-shard rebalance.",
    )
    singleton_total = rows[0]["total_moves"]
    for row in rows[1:]:
        # This is the acceptance claim of the sharding engine and it holds
        # at any size: one merged rebalance per shard always beats one
        # cascade per element.
        assert row["total_moves"] < singleton_total, (
            f"{row['execution']} should move fewer elements than singleton "
            "execution on bulk loads"
        )


def _best_ms(build, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def test_template_clone_beats_fresh_corollary11_build(run_once):
    capacity = 128
    factory = resolve_factory("corollary11")

    def experiment():
        factory(capacity)  # builds the template
        fresh_ms = _best_ms(
            lambda: make_corollary11_labeler(capacity, seed=7), repeats=3
        )
        clone_ms = _best_ms(lambda: factory(capacity), repeats=10)
        return [
            {
                "capacity": capacity,
                "fresh build ms": fresh_ms,
                "template clone ms": clone_ms,
                "fresh / clone": fresh_ms / clone_ms,
            }
        ]

    rows = run_once(experiment)
    emit(
        "E-SHARD-BUILD: one empty corollary11 shard, fresh build vs "
        "template clone (best of 3 / 10)",
        rows,
        note="A fresh build replays the R-shells' token inserts; a clone "
        "deep-copies the finished empty structure.",
    )
    expect(
        rows[0]["fresh / clone"] >= 10,
        "a template clone should build a corollary11 shard >= 10x faster",
    )
