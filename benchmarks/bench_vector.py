"""Vector-backend experiment: numpy bitboards vs the slab physical array.

The vector backend's claim is pure wire-speed behind the differential
wall: bit-identical move logs (the PR 3 differential oracle extended to a
third implementation) at a fraction of the slab's wall-clock.  Two
scenarios pin it down:

* the insert-heavy embedding trace (chain moves, shell replays, relabels)
  — the mutation path, where the bitboard XOR updates and the 1–2-word
  popcount fast path for single-element chain moves pay off, and
* batched point lookups (``elements_at_ranks``) against the state that
  trace builds — the read path, where one ``flatnonzero`` + gather
  replaces thousands of interpreted Fenwick selects.

Both hard-assert move-log / answer equality at every size (the speedups
are :func:`expect` shape claims, demoted to notes in quick mode).  The
whole module is skipped when numpy is unavailable — the slab default must
keep the no-dependency install fully benchmarkable.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, expect, scaled

from repro.core.embedding import default_physical_factory
from repro.perf.scenarios import run_insert_heavy, run_point_lookup_core

pytestmark = pytest.mark.skipif(
    default_physical_factory().name != "vector",
    reason="numpy unavailable (slab-only install)",
)


def test_vector_insert_heavy_replay(run_once):
    n = scaled(4096)
    metrics = run_once(lambda: run_insert_heavy(n, seed=20260730))
    emit(
        "E-VECTOR: insert-heavy trace replay, vector vs slab vs reference",
        [
            {
                "backend": name,
                "n": n,
                "trace_ops": metrics["trace_ops"],
                "elapsed_s": metrics[f"{prefix}elapsed_seconds"],
                "ops_per_s": metrics[f"{prefix}ops_per_second"],
            }
            for name, prefix in (
                ("reference", "reference_"),
                ("slab", ""),
                ("vector", "vector_"),
            )
        ],
    )
    assert metrics["vector_matches_slab"], (
        "vector and slab move logs diverged on the insert-heavy trace"
    )
    assert metrics["vector_moves"] == metrics["moves"]
    expect(
        metrics["vector_vs_slab_speedup"] >= 2.0,
        f"vector {metrics['vector_vs_slab_speedup']:.2f}x < 2x over slab on "
        f"insert-heavy (n={n})",
    )
    expect(
        metrics["vector_speedup"] >= 4.0,
        f"vector {metrics['vector_speedup']:.2f}x < 4x over the reference on "
        f"insert-heavy (n={n})",
    )


def test_vector_point_lookups(run_once):
    n = scaled(4096)
    metrics = run_once(lambda: run_point_lookup_core(n, seed=20260730))
    emit(
        "E-VECTOR: batched point lookups (elements_at_ranks), "
        f"{metrics['operations']} lookups over {metrics['element_count']} keys",
        [
            {
                "backend": name,
                "n": n,
                "elapsed_s": metrics[f"{prefix}elapsed_seconds"],
                "lookups_per_s": metrics[f"{prefix}ops_per_second"],
            }
            for name, prefix in (
                ("reference", "reference_"),
                ("slab", ""),
                ("vector", "vector_"),
            )
        ],
    )
    assert metrics["reads_match"], "slab and reference lookup answers diverged"
    assert metrics["vector_matches_slab"], (
        "vector and slab lookup answers diverged"
    )
    expect(
        metrics["vector_vs_slab_speedup"] >= 3.0,
        f"vector {metrics['vector_vs_slab_speedup']:.2f}x < 3x over slab on "
        f"batched point lookups (n={n})",
    )


if __name__ == "__main__":  # pragma: no cover - manual run helper
    print(run_insert_heavy(scaled(4096), seed=20260730))
    print(run_point_lookup_core(scaled(4096), seed=20260730))
