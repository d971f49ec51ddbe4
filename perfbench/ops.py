"""Seeded op streams, the zipfian sampler and the answer model.

Every stream is a pure function of ``(workload, seed, op budget)``: the
server only ever sees the generated requests, and the same seed always
gives the same stream (checked through :func:`stream_digest`).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass

#: Shard capacity of every store the benchmark builds (the store default).
SHARD_CAPACITY = 128
#: ``range_scan`` page size.
SCAN_LIMIT = 64
#: Keys per ``put_many`` frame while preloading.
PRELOAD_BATCH = 1024
#: YCSB's request skew.
ZIPF_THETA = 0.99


@dataclass(frozen=True)
class Workload:
    name: str
    #: Shard algorithm of the store (a name in ``SHARD_FACTORIES``).
    algorithm: str
    #: Auto-compaction threshold in WAL frames.
    compact_every: int
    #: Keys loaded with ``put_many`` during set-up.
    preload: int
    #: Sizes a run: ``ops = round(ops_per_second * seconds)``.  A fixed op
    #: count (rather than a wall-clock cut-off) keeps every count the run
    #: reports -- moves, disk bytes, the state recovery rebuilds -- exactly
    #: repeatable for one seed.
    ops_per_second: float
    #: Exact shares of ``get`` and ``put``; the rest are scans.  Puts
    #: always write a new key.  Reads pick zipfian keys of the preload
    #: when there is one, else uniform keys among those put so far.
    get_frac: float
    put_frac: float


# The ingest workloads interleave reads of the keys put so far, so that
# every workload reports every latency and the read samples are spread
# over the whole run, not bunched in a short burst where one slow second
# of a shared machine moves the percentiles.  The shares and rates give
# every p99 more than 10 samples beyond it in a 20-second run; corollary11
# puts are ~20x dearer than reads, so reads are two thirds of its requests
# and puts still take most of the time.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("ycsb-b", "classical", 512, 16384, 3200.0, 0.90, 0.05),
        Workload("ingest-classical", "classical", 4096, 0, 1500.0, 0.10, 0.80),
        Workload("ingest-corollary11", "corollary11", 256, 0, 300.0, 1 / 3, 1 / 3),
    )
}


class Zipfian:
    """Zipfian ranks over ``[0, n)`` (Gray et al., as used by YCSB)."""

    def __init__(self, n: int, theta: float = ZIPF_THETA) -> None:
        self.n = n
        self.theta = theta
        self.alpha = 1.0 / (1.0 - theta)
        self.zetan = sum(1.0 / (i**theta) for i in range(1, n + 1))
        self.zeta2 = 1.0 + 0.5**theta
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self.zeta2 / self.zetan)

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return min(self.n - 1, int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha))


@dataclass
class Stream:
    preload: list  # [key, value] pairs
    measured: list  # ("get", key) | ("put", key, value) | ("scan", key)


def _fresh_key(rng: random.Random, used: set) -> str:
    while True:
        key = "user%016x" % rng.getrandbits(64)
        if key not in used:
            used.add(key)
            return key


def _value(rng: random.Random) -> str:
    return "%064x" % rng.getrandbits(256)


def build_stream(workload: Workload, seed: int, ops: int) -> Stream:
    """The op stream of one run: ``ops`` measured operations."""
    rng = random.Random(f"{workload.name}/{seed}")
    used: set = set()
    preload = [[_fresh_key(rng, used), _value(rng)] for _ in range(workload.preload)]
    zipf = Zipfian(len(preload)) if preload else None
    # Exact shares, shuffled: every seed writes the same number of WAL
    # frames, so compaction and the WAL tail a recovery replays line up
    # across seeds.
    gets = round(ops * workload.get_frac)
    puts = round(ops * workload.put_frac)
    kinds = ["get"] * gets + ["put"] * puts + ["scan"] * (ops - gets - puts)
    rng.shuffle(kinds)
    measured: list = []
    inserted: list = []
    for kind in kinds:
        if kind == "put":
            key = _fresh_key(rng, used)
            inserted.append(key)
            measured.append(("put", key, _value(rng)))
        elif zipf is not None:
            measured.append((kind, preload[zipf.sample(rng)][0]))
        elif inserted:
            measured.append((kind, rng.choice(inserted)))
        else:
            # Nothing put yet: a key that is never put (a miss).
            measured.append((kind, _fresh_key(rng, used)))
    return Stream(preload, measured)


def stream_digest(stream: Stream) -> str:
    body = json.dumps([stream.preload, stream.measured])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def items_digest(items) -> str:
    """SHA-256 of a store's ``(key, value)`` items in key order."""
    body = json.dumps([[key, value] for key, value in items])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class Model:
    """Sorted in-benchmark model of the store's contents."""

    def __init__(self, items) -> None:
        self.values = {key: value for key, value in items}
        self.keys = sorted(self.values)

    def put(self, key, value) -> None:
        if key not in self.values:
            bisect.insort(self.keys, key)
        self.values[key] = value

    def get(self, key):
        return self.values.get(key)

    def scan(self, start, limit: int = SCAN_LIMIT) -> list:
        index = bisect.bisect_left(self.keys, start)
        return [(key, self.values[key]) for key in self.keys[index : index + limit]]

    def items(self) -> list:
        return [(key, self.values[key]) for key in self.keys]

    def digest(self) -> str:
        return items_digest(self.items())
