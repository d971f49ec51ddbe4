"""The benchmark's server process: DurableStore → StoreService → StoreServer.

Run by ``run.py``, never by hand.  The store is served over TCP on
loopback; a control channel of JSON lines on stdin/stdout lets the
benchmark mark phases and collect the process's report:

* ``mark``      -> ``{"events": n}``: cost events the map has recorded;
* ``trace_on`` / ``trace_off``: start / stop recording spans and take a
  metrics-registry reading at each end (``--trace`` only);
* ``stop``      -> the report: the map's per-event move costs since the
  mark, peak RSS and, with ``--trace``, spans, counts and metric deltas.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from repro.store import DurableStore, ServerThread, StoreService

from spans import embeddings_of, instrument_service, traced_factory


def registry_delta(before: dict, after: dict) -> dict:
    """Counter increments and histogram count/sum increments."""
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    histograms = {}
    for name, reading in after["histograms"].items():
        base = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        histograms[name] = {
            "count": reading["count"] - base["count"],
            "sum": reading["sum"] - base["sum"],
        }
    return {"counters": counters, "histograms": histograms}


def shard_counters(labeler) -> dict:
    """The paper's lemma counters, summed over the live shards' embeddings."""
    totals = {
        "fast": 0, "slow": 0, "max_buffered": 0,
        "token_cost": 0, "element_cost": 0, "embeddings": 0,
    }
    for shard in labeler.shards:
        for embedding in embeddings_of(shard):
            totals["embeddings"] += 1
            totals["fast"] += embedding.fast_operations
            totals["slow"] += embedding.slow_operations
            totals["max_buffered"] = max(
                totals["max_buffered"], embedding.max_buffered_elements
            )
            totals["token_cost"] += embedding.shell.token_cost
            totals["element_cost"] += embedding.shell.element_cost
    return totals


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--shard-capacity", type=int, required=True)
    parser.add_argument("--compact-every", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    # Replies go to the real stdout; anything else the process prints
    # lands on stderr and cannot corrupt the channel.
    channel = sys.stdout
    sys.stdout = sys.stderr

    def reply(**message) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    registry = recorder = factory = None
    if args.trace:
        registry, recorder, factory = traced_factory(args.algorithm)

    started = time.perf_counter()
    store = DurableStore(
        args.dir,
        algorithm=args.algorithm,
        shard_factory=factory,
        shard_capacity=args.shard_capacity,
        sync_policy="always",
        compact_every=args.compact_every,
        registry=registry,
    )
    service = StoreService(store)
    if recorder is not None:
        instrument_service(recorder, service)
    server = ServerThread(service).start()
    mark = 0
    readings = {}
    try:
        reply(port=server.address[1], open_s=time.perf_counter() - started)
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "mark":
                mark = len(store.map.costs.costs)
                reply(events=mark)
            elif command == "trace_on":
                readings["before"] = registry.snapshot()
                recorder.enabled = True
                reply()
            elif command == "trace_off":
                recorder.enabled = False
                readings["after"] = registry.snapshot()
                reply()
            elif command == "stop":
                break
    finally:
        server.stop()
        service.close()

    report = {
        "costs": list(store.map.costs.costs[mark:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        report["spans"] = recorder.spans
        report["counts"] = [[root, name, n] for (root, name), n in recorder.counts.items()]
        report["metrics"] = registry_delta(readings["before"], readings["after"])
        report["shards"] = shard_counters(store.labeler)
    reply(**report)


if __name__ == "__main__":
    main()
