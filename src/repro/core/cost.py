"""Cost accounting: amortized, worst-case and lightly-amortized statistics.

Section 2 of the paper defines three cost notions that the theorems
distinguish carefully:

* **amortized expected cost** ``O(C)``: on every prefix of the input the
  average cost per operation is ``O(C)``;
* **worst-case cost**: the maximum cost of any single operation;
* **lightly-amortized expected cost** ``O(C)``: on *any contiguous
  subsequence* of ``T`` operations the total cost is ``O(TC + n)``.

:class:`CostTracker` records the per-operation costs produced by a run and
exposes all three, including the windowed statistic needed to check light
amortization empirically.

Two distributional views coexist:

* the **per-operation** view (:meth:`CostTracker.percentile`,
  :meth:`~CostTracker.tail_fraction`) weights every event by the number of
  logical operations it served — a batch of ``w`` operations with total
  cost ``c`` contributes ``w`` operations of cost ``c / w`` — so a batched
  run and its singleton equivalent report percentiles on the same
  per-operation scale as :attr:`~CostTracker.amortized`;
* the **per-event** view (:meth:`CostTracker.event_percentile`,
  :meth:`~CostTracker.event_tail_fraction`, :attr:`~CostTracker.worst_case`)
  treats each recorded event — a whole batch — as one sample, which is the
  right view for "how expensive can one call get".

Events may also carry a **wall-clock latency** (``latency=`` on the record
methods; the workload runner injects a clock), exposed through the same
weight-aware percentile machinery (:meth:`CostTracker.latency_percentile`)
so tail *time*, not just tail *moves*, is measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

@dataclass(frozen=True)
class WindowStatistics:
    """Cost statistics of the worst contiguous window of a fixed length."""

    window: int
    max_total: int
    max_start: int
    mean_total: float

    @property
    def max_average(self) -> float:
        """Average per-operation cost inside the worst window."""
        return self.max_total / self.window if self.window else 0.0


class CostTracker:
    """Accumulates per-operation costs and derives summary statistics.

    The tracker records *events*: a singleton operation is an event of
    weight 1; a batch recorded via :meth:`record_batch` is a single event
    whose weight is the number of logical operations it contained.  The
    element-level statistics (:attr:`operations`, :attr:`amortized`,
    :meth:`percentile`, :meth:`tail_fraction`) weight batches by their
    size, while the event-level statistics (:attr:`worst_case`,
    :meth:`event_percentile`, windows) treat each batch as one event —
    for singleton-only runs the two views coincide, so existing callers
    are unaffected.
    """

    def __init__(self) -> None:
        self._costs: list[int] = []
        self._weights: list[int] = []
        self._latencies: list[float | None] = []
        self._operations = 0
        self._total = 0
        self._max = 0
        self._restructures: dict[str, int] = {}
        self._restructure_moves: dict[str, int] = {}
        self._query_counts: dict[str, int] = {}
        self._query_items: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, cost: int, *, latency: float | None = None) -> None:
        """Record the cost of one operation (optionally its wall-clock latency)."""
        self._record_event(cost, 1, latency)

    def record_batch(
        self, total_cost: int, operations: int, *, latency: float | None = None
    ) -> None:
        """Record a batch of ``operations`` logical ops with one total cost.

        The batch appears as a single event in the event-level statistics
        and as ``operations`` operations in the element-level ones.
        ``latency`` is the wall-clock duration of the whole batch.

        A **zero-applied batch** (``operations == 0`` — e.g. a
        ``delete_many`` whose key set was empty) is recorded as a
        weight-0 event: it contributes nothing to the per-operation views
        (there is no operation to attribute its cost to), but it *is* a
        call that happened and took wall-clock time, so it stays visible
        to the event-level statistics — :meth:`event_percentile`,
        :meth:`event_latency_percentile`, :attr:`events` — where a no-op
        stall must not be able to hide from the tail percentiles.
        """
        if operations < 0:
            raise ValueError("batch size cannot be negative")
        self._record_event(total_cost, operations, latency)

    def _record_event(
        self, cost: int, weight: int, latency: float | None = None
    ) -> None:
        if cost < 0:
            raise ValueError("operation cost cannot be negative")
        if latency is not None and latency < 0:
            raise ValueError("latency cannot be negative")
        self._costs.append(cost)
        self._weights.append(weight)
        self._latencies.append(latency)
        self._operations += weight
        self._total += cost
        if cost > self._max:
            self._max = cost

    def record_many(self, costs: Iterable[int]) -> None:
        for cost in costs:
            self.record(cost)

    def record_recorder(
        self, recorder, operations: int = 1, *, latency: float | None = None
    ) -> None:
        """Consume a :class:`repro.core.operations.MoveRecorder` directly.

        The zero-alloc counterpart of summing ``Move.cost`` over a move
        list: the recorder keeps its total pre-aggregated, so charging a
        whole recorded run (or batch) to the tracker reads one integer and
        never materializes a ``Move``.  ``operations`` is the number of
        logical operations the recorded work served (a batch weight, as in
        :meth:`record_batch`).
        """
        self.record_batch(recorder.total_cost, operations, latency=latency)

    def record_query(self, kind: str, items: int = 1) -> None:
        """Record one read operation of the given kind.

        Reads never move elements, so they live outside the element-move
        statistics entirely: a query contributes to :attr:`queries` and
        :meth:`query_statistics` but not to :attr:`operations`,
        :attr:`total_cost` or any window/percentile view.  ``items`` is the
        read's *touch count* — 1 for a point lookup/select, the number of
        elements streamed for a range, the count returned by a count-range —
        which is what the read-throughput reports aggregate.
        """
        if items < 0:
            raise ValueError("query item count cannot be negative")
        self._query_counts[kind] = self._query_counts.get(kind, 0) + 1
        self._query_items[kind] = self._query_items.get(kind, 0) + items

    def record_restructure(self, kind: str, moves: int) -> None:
        """Record one structural event (a shard split/merge, a rebuild, …).

        Restructuring moves are already part of the operation costs that
        triggered them — this records a *breakdown* by event kind, not
        additional cost, so reports can separate steady-state traffic from
        structural maintenance (the sharding engine's splits and merges).
        """
        if moves < 0:
            raise ValueError("restructure moves cannot be negative")
        self._restructures[kind] = self._restructures.get(kind, 0) + 1
        self._restructure_moves[kind] = (
            self._restructure_moves.get(kind, 0) + moves
        )

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------
    @property
    def operations(self) -> int:
        """Number of logical operations recorded (batches count their size)."""
        return self._operations

    @property
    def events(self) -> int:
        """Number of recorded events (a whole batch is one event)."""
        return len(self._costs)

    @property
    def total_cost(self) -> int:
        return self._total

    @property
    def worst_case(self) -> int:
        """Maximum cost of a single event (operation, or whole batch)."""
        return self._max

    @property
    def amortized(self) -> float:
        """Average cost per logical operation over the whole run."""
        if not self._operations:
            return 0.0
        return self._total / self._operations

    # ------------------------------------------------------------------
    # Batch statistics
    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        """Number of recorded multi-operation batch events."""
        return sum(1 for weight in self._weights if weight > 1)

    def batch_statistics(self) -> dict[str, float]:
        """Per-batch cost statistics (empty dict when no batch was recorded)."""
        pairs = [
            (cost, weight)
            for cost, weight in zip(self._costs, self._weights)
            if weight > 1
        ]
        if not pairs:
            return {}
        total = sum(cost for cost, _ in pairs)
        elements = sum(weight for _, weight in pairs)
        return {
            "batches": float(len(pairs)),
            "mean_batch_size": elements / len(pairs),
            "amortized_per_batch": total / len(pairs),
            "amortized_per_element": total / elements,
            "worst_batch": float(max(cost for cost, _ in pairs)),
        }

    # ------------------------------------------------------------------
    # Query (read) statistics
    # ------------------------------------------------------------------
    @property
    def queries(self) -> int:
        """Total read operations recorded (all kinds)."""
        return sum(self._query_counts.values())

    @property
    def query_items(self) -> int:
        """Total elements touched by the recorded reads."""
        return sum(self._query_items.values())

    def query_statistics(self) -> dict[str, float]:
        """Per-kind read statistics (empty dict when no query was recorded)."""
        if not self._query_counts:
            return {}
        stats: dict[str, float] = {"queries": float(self.queries)}
        for kind in sorted(self._query_counts):
            stats[f"{kind}_queries"] = float(self._query_counts[kind])
            stats[f"{kind}_items"] = float(self._query_items[kind])
        return stats

    # ------------------------------------------------------------------
    # Structural (restructure) statistics
    # ------------------------------------------------------------------
    @property
    def restructures(self) -> int:
        """Total structural events recorded (splits + merges + …)."""
        return sum(self._restructures.values())

    @property
    def restructure_moves(self) -> int:
        """Total element moves attributed to structural events."""
        return sum(self._restructure_moves.values())

    def structure_statistics(self) -> dict[str, float]:
        """Per-kind structural statistics (empty dict when none recorded)."""
        stats: dict[str, float] = {}
        for kind in sorted(self._restructures):
            stats[f"{kind}s"] = float(self._restructures[kind])
            stats[f"{kind}_moves"] = float(self._restructure_moves[kind])
        return stats

    @property
    def costs(self) -> Sequence[int]:
        return tuple(self._costs)

    def prefix_amortized(self) -> list[float]:
        """Average cost on every prefix (the paper's amortized notion)."""
        averages: list[float] = []
        running = 0
        for index, cost in enumerate(self._costs, start=1):
            running += cost
            averages.append(running / index)
        return averages

    def max_prefix_amortized(self) -> float:
        """Largest prefix average — bounds the amortized cost of the run."""
        prefix = self.prefix_amortized()
        return max(prefix) if prefix else 0.0

    # ------------------------------------------------------------------
    # Light amortization
    # ------------------------------------------------------------------
    def window_statistics(self, window: int) -> WindowStatistics:
        """Statistics of the most expensive contiguous window of length ``window``.

        The lightly-amortized guarantee of the paper says the total cost on
        any window of ``T`` operations is ``O(TC + n)``; this method returns
        the empirical worst window so the bound can be checked.
        """
        if window < 1:
            raise ValueError("window must be positive")
        costs = self._costs
        if not costs:
            return WindowStatistics(window=window, max_total=0, max_start=0, mean_total=0.0)
        window = min(window, len(costs))
        current = sum(costs[:window])
        best = current
        best_start = 0
        totals_sum = current
        count = 1
        for start in range(1, len(costs) - window + 1):
            current += costs[start + window - 1] - costs[start - 1]
            totals_sum += current
            count += 1
            if current > best:
                best = current
                best_start = start
        return WindowStatistics(
            window=window,
            max_total=best,
            max_start=best_start,
            mean_total=totals_sum / count,
        )

    def lightly_amortized_bound(self, window: int, slack: int) -> float:
        """Empirical lightly-amortized constant.

        Returns the smallest ``C`` such that the worst window of length
        ``window`` has total cost ``≤ C * window + slack`` (``slack`` plays
        the role of the additive ``O(n)`` term).
        """
        stats = self.window_statistics(window)
        effective = max(stats.max_total - slack, 0)
        return effective / stats.window if stats.window else 0.0

    # ------------------------------------------------------------------
    # Distributional statistics
    # ------------------------------------------------------------------
    @staticmethod
    def _weighted_nearest_rank(
        pairs: list[tuple[float, int]], fraction: float
    ) -> float:
        """Nearest-rank percentile over a weighted multiset of values.

        ``pairs`` is ``(value, weight)``; the percentile is taken over the
        expanded multiset in which each value appears ``weight`` times —
        without materializing the expansion.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not pairs:
            return 0.0
        pairs = sorted(pairs)
        total = sum(weight for _, weight in pairs)
        target = max(1, math.ceil(fraction * total))
        cumulative = 0
        for value, weight in pairs:
            cumulative += weight
            if cumulative >= target:
                return value
        return pairs[-1][0]

    def percentile(self, fraction: float) -> float:
        """Per-operation cost percentile (``fraction`` in [0, 1], nearest-rank).

        Weight-aware: a batch event of weight ``w`` and total cost ``c``
        contributes ``w`` operations of cost ``c / w``, so batched and
        singleton runs report percentiles on the same per-operation scale
        (the scale of :attr:`amortized`).  For singleton-only runs this is
        exactly the historical event percentile.  See
        :meth:`event_percentile` for the whole-event view.
        """
        pairs = [
            (cost / weight, weight)
            for cost, weight in zip(self._costs, self._weights)
            if weight
        ]
        return self._weighted_nearest_rank(pairs, fraction)

    def event_percentile(self, fraction: float) -> int:
        """Cost percentile over recorded *events* (a whole batch = one sample)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not self._costs:
            return 0
        ordered = sorted(self._costs)
        index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[index]

    def tail_fraction(self, threshold: int) -> float:
        """Fraction of logical operations whose per-op cost is ≥ ``threshold``.

        Weight-aware, like :meth:`percentile`: a batch's operations each
        carry the batch's per-operation cost ``c / w``.
        """
        if not self._operations:
            return 0.0
        heavy = sum(
            weight
            for cost, weight in zip(self._costs, self._weights)
            if weight and cost / weight >= threshold
        )
        return heavy / self._operations

    def event_tail_fraction(self, threshold: int) -> float:
        """Fraction of recorded events whose total cost is ≥ ``threshold``."""
        if not self._costs:
            return 0.0
        heavy = sum(1 for cost in self._costs if cost >= threshold)
        return heavy / len(self._costs)

    # ------------------------------------------------------------------
    # Latency statistics
    # ------------------------------------------------------------------
    @property
    def latency_events(self) -> int:
        """Number of recorded events that carried a wall-clock latency."""
        return sum(1 for latency in self._latencies if latency is not None)

    @property
    def max_latency(self) -> float:
        """Largest single-event latency recorded (0.0 when none)."""
        observed = [
            latency for latency in self._latencies if latency is not None
        ]
        return max(observed) if observed else 0.0

    def latency_percentile(self, fraction: float) -> float:
        """Per-operation latency percentile (weight-aware nearest-rank).

        A batch event of weight ``w`` that took ``t`` seconds contributes
        ``w`` operations of latency ``t / w`` — the throughput-equivalent
        per-operation view, on the same scale for batched and singleton
        runs.  Events recorded without a latency are excluded.  See
        :meth:`event_latency_percentile` for whole-event latencies.
        """
        pairs = [
            (latency / weight, weight)
            for latency, weight in zip(self._latencies, self._weights)
            if latency is not None and weight
        ]
        return self._weighted_nearest_rank(pairs, fraction)

    def event_latency_percentile(self, fraction: float) -> float:
        """Latency percentile over whole events (a batch = one sample)."""
        pairs = [
            (latency, 1)
            for latency in self._latencies
            if latency is not None
        ]
        return self._weighted_nearest_rank(pairs, fraction)

    def latency_summary(self) -> dict[str, float]:
        """Latency percentile dict (empty when no latency was recorded).

        This is the **one** place latency keys are named, for every
        producer (the runner's scenario metrics, the service's
        ``latency_statistics()``, report tables): the canonical scheme is
        ``latency_p*`` for the weight-expanded per-operation view and
        ``latency_event_*`` for the whole-event view (a batch = one
        sample).

        All values are seconds and wall-clock derived — the benchmark
        comparator treats every ``latency_*`` metric as machine-dependent
        (warn-only), like ``elapsed_seconds``.
        """
        if not self.latency_events:
            return {}
        summary = {
            "latency_p50": self.latency_percentile(0.50),
            "latency_p99": self.latency_percentile(0.99),
            "latency_p999": self.latency_percentile(0.999),
            "latency_event_p50": self.event_latency_percentile(0.50),
            "latency_event_p99": self.event_latency_percentile(0.99),
            "latency_event_p999": self.event_latency_percentile(0.999),
            "latency_event_max": self.max_latency,
        }
        return summary

    # ------------------------------------------------------------------
    # Merging and summarizing
    # ------------------------------------------------------------------
    def merge(self, other: "CostTracker") -> "CostTracker":
        """Concatenate two runs into a new tracker (batch weights survive)."""
        merged = CostTracker()
        for tracker in (self, other):
            for cost, weight, latency in zip(
                tracker._costs, tracker._weights, tracker._latencies
            ):
                merged._record_event(cost, weight, latency)
            for kind, count in tracker._restructures.items():
                merged._restructures[kind] = (
                    merged._restructures.get(kind, 0) + count
                )
            for kind, moves in tracker._restructure_moves.items():
                merged._restructure_moves[kind] = (
                    merged._restructure_moves.get(kind, 0) + moves
                )
            for kind, count in tracker._query_counts.items():
                merged._query_counts[kind] = (
                    merged._query_counts.get(kind, 0) + count
                )
            for kind, items in tracker._query_items.items():
                merged._query_items[kind] = (
                    merged._query_items.get(kind, 0) + items
                )
        return merged

    def summary(self) -> dict[str, float]:
        """Dictionary summary used by the benchmark report tables."""
        data = {
            "operations": float(self.operations),
            "total_cost": float(self.total_cost),
            "amortized": self.amortized,
            "worst_case": float(self.worst_case),
            "p50": float(self.percentile(0.50)),
            "p99": float(self.percentile(0.99)),
            "p999": float(self.percentile(0.999)),
        }
        data.update(self.batch_statistics())
        data.update(self.structure_statistics())
        data.update(self.query_statistics())
        data.update(self.latency_summary())
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CostTracker(operations={self.operations}, amortized={self.amortized:.2f}, "
            f"worst_case={self.worst_case})"
        )
