"""Reopen a closed store in a fresh process, as a restart would.

Run by ``run.py``.  Prints one JSON line: the seconds ``DurableStore()``
took (snapshot load + WAL tail replay) and the SHA-256 of the reopened
store's items.  With ``--trace`` the reopen goes through the same timing
``shard_factory=`` wrapper as the traced server, and the line also
carries its spans and the replayed-frame count.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.store import DurableStore

from ops import items_digest
from spans import traced_factory


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    registry = recorder = factory = None
    open_store = DurableStore
    if args.trace:
        registry, recorder, factory = traced_factory(args.algorithm)
        open_store = recorder.wrap("recovery.open", DurableStore)
        recorder.enabled = True
    started = time.perf_counter()
    store = open_store(args.dir, shard_factory=factory, registry=registry)
    open_s = time.perf_counter() - started
    try:
        if recorder is not None:
            recorder.enabled = False
        report = {"open_s": open_s, "items_sha256": items_digest(store.items())}
    finally:
        store.close()
    if recorder is not None:
        report["spans"] = recorder.spans
        report["frames_replayed"] = registry.counter(
            "store.recovery.frames_replayed"
        ).value
    print(json.dumps(report))


if __name__ == "__main__":
    main()
