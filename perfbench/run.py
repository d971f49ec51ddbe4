"""Served-store benchmark: one closed-loop client against a live server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 30 --trace 0

The server (``perfbench/server.py``: DurableStore → StoreService →
StoreServer, WAL fsync on every frame) runs in its own process; this
process is the only client and holds one connection.  Every answer is
checked against an in-benchmark model, ``VERIFY`` runs at the end, and
the store is reopened after shutdown and compared with the model.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a
half-length stream on an untraced and a traced server, in alternating
windows, and prints the per-layer metrics: self times from spans around each layer's public
calls, layer counters, and the tracing overhead.  The last line of
standard output is the JSON result; the exit code is 0 only when every
check passed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import (
    PRELOAD_BATCH, SCAN_LIMIT, SHARD_CAPACITY, WORKLOADS, Model, build_stream,
    stream_digest,
)
from spans import SpanRecorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
TRACE_OUT = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reopens per run: at least ``RECOVERY_MIN``, then more until they have
#: taken ``RECOVERY_BUDGET_S`` or numbered ``RECOVERY_MAX``.  A reopen is
#: the same work every time, so ``recover_s`` is the fastest of them, the
#: one least slowed by other tenants of a shared machine (as ``timeit``
#: reports); the median of a run's reopens follows the machine's slow
#: phases, which last seconds.
RECOVERY_MIN = 2
RECOVERY_MAX = 25
RECOVERY_BUDGET_S = 4.0
#: A run that has not finished by then is abandoned (exit code 3, as
#: for SIGTERM); its processes are stopped either way.
DEADLINE_S = 170

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "get_p50_us": "us",
    "put_p50_us": "us",
    "scan_p50_us": "us",
    "moves_per_put": "moves",
    "max_moves_per_put": "moves",
    "disk_bytes_per_user_byte": "ratio",
    "recover_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Printed in the table but left out of the JSON result: on a shared
#: 2-core VM, ten runs spread these by 0.3-0.7 of their median, beyond
#: any bound the result's metrics may carry (see README.md).
TABLE_ONLY_UNITS = {"get_p99_us": "us", "put_p99_us": "us", "scan_p99_us": "us"}

PER_LAYER_UNITS = {
    "server.requests": "count",
    "server.self_us_per_op": "us",
    "service.self_us_per_op": "us",
    "service.lock_wait_us_per_op": "us",
    "store.self_us_per_put": "us",
    "store.compactions": "count",
    "store.compact_ms": "ms",
    "wal.append_us_per_frame": "us",
    "wal.fsyncs_per_put": "ratio",
    "wal.bytes_per_put": "bytes",
    "map.self_us_per_put": "us",
    "map.select_calls_per_put": "ratio",
    "map.self_us_per_scan": "us",
    "sharded.self_us_per_insert": "us",
    "sharded.splits": "count",
    "sharded.restructure_moves_per_put": "moves",
    "sharded.shard_builds": "count",
    "sharded.build_ms_per_shard": "ms",
    "sharded.build_share_of_put": "ratio",
    "shard.self_us_per_insert": "us",
    "shard.moves_per_insert": "moves",
    "embedding.fast_frac": "ratio",
    "embedding.max_buffered": "count",
    "rshell.token_cost": "count",
    "rshell.element_cost": "count",
    "rshell.init_cost_per_build": "count",
    "physical.chain_moves_per_put": "moves",
    "physical.shell_moves_per_put": "moves",
    "physical.relabel_flips_per_put": "count",
    "recovery.frames_replayed": "count",
    "recovery.shard_builds": "count",
    "recovery.build_share": "ratio",
    "trace.client_us_per_op": "us",
    "trace.remainder_us_per_op": "us",
    "trace.untraced_ops_s": "ops/s",
    "trace.traced_ops_s": "ops/s",
    "trace.overhead_frac": "ratio",
}

KIND_OF_ROOT = {
    "client.get": "get", "client.put": "put", "client.range_scan": "scan",
    "service.get": "get", "service.put": "put", "service.range_scan": "scan",
}

def usable_cpus() -> list:
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def pin(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` (0: this one) to ``cpu``."""
    if pid == 0:
        os.sched_setaffinity(0, {cpu})
        return
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


class Abort(Exception):
    """The run was stopped: its deadline passed or it was terminated."""


def _abort(signum, frame):
    raise Abort(f"stopped by {signal.Signals(signum).name}")


def settle() -> None:
    """Move the client's own objects (stream, model) out of the garbage
    collector's reach before a timed phase, so its collections stay
    small and the client's pauses do not show as server latency."""
    gc.collect()
    gc.freeze()


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(sorted_values: list, fraction: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


class ServerProcess:
    """``server.py`` in its own process, driven over its control channel."""

    def __init__(self, command: list, env: dict) -> None:
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        self.port = self._read()["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": command}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        report = self.call("stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


class Run:
    """One benchmark run: its servers, its checks and its timings."""

    def __init__(self, workload, run_dir: Path, cpus: list) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.cpus = cpus
        self.turns = 0
        #: Measured ops between two core moves: about half a second.
        self.move_every = max(1, round(workload.ops_per_second / 2))
        self.servers: list[ServerProcess] = []
        self.failures: list[str] = []
        self.attempted = 0

    def child(self, script: str, store_dir: Path, trace: bool, *extra) -> tuple:
        """``(command, env)`` of a server-side process: ``server.py`` or
        ``reopen.py`` on ``store_dir``, pinned to the next core, to which
        this client moves too."""
        command = [
            sys.executable, str(HERE / script),
            "--dir", str(store_dir), "--algorithm", self.workload.algorithm, *extra,
        ]
        if trace:
            command.append("--trace")
        cpu = self.next_cpu()
        if cpu is not None:
            pin(0, cpu)
            command += ["--cpu", str(cpu)]
        return command, dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def reopen(self, store_dir: Path, *, trace: bool = False) -> dict:
        """Reopen the closed store in a fresh process (``reopen.py``)."""
        command, env = self.child("reopen.py", store_dir, trace)
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"reopen exited with code {done.returncode}")
        return json.loads(done.stdout.splitlines()[-1])

    # ------------------------------------------------------------------
    # Client and server run on one core at a time, and move together to
    # the next core every half second of measured ops, at each set-up and
    # at each reopen.  One connection in a closed loop never runs the two
    # at once, so one core costs no parallelism, and a round trip does not
    # pay for a cross-core wake-up.  The moves spread every phase of a run
    # over all cores: on a shared VM each core has slow phases of its own
    # (a fixed loop slows by up to ~1.5x for tens of seconds, with no
    # correlation between the two cores of the VM the benchmark was tuned
    # on), and a run on one core follows that core's phases.
    def next_cpu(self) -> int | None:
        if len(self.cpus) < 2:
            return None
        self.turns += 1
        return self.cpus[self.turns % len(self.cpus)]

    def move(self, server) -> None:
        cpu = self.next_cpu()
        if cpu is not None:
            pin(0, cpu)
            pin(server.proc.pid, cpu)

    # ------------------------------------------------------------------
    def setup(self, stream, name: str, *, trace: bool = False):
        """Start a server on a fresh store and preload it; returns
        ``(server, client, seconds)``."""
        from repro.store import StoreClient

        store_dir = self.run_dir / name
        started = time.perf_counter()
        server = ServerProcess(*self.child(
            "server.py", store_dir, trace,
            "--shard-capacity", str(SHARD_CAPACITY),
            "--compact-every", str(self.workload.compact_every),
        ))
        self.servers.append(server)
        client = StoreClient("127.0.0.1", server.port, timeout=60.0)
        for index in range(0, len(stream.preload), PRELOAD_BATCH):
            batch = stream.preload[index : index + PRELOAD_BATCH]
            if client.put_many(batch) != len(batch):
                self.failures.append(f"preload batch at {index} not fully applied")
        return server, client, time.perf_counter() - started

    def teardown(self, server, client) -> dict:
        client.close()
        report = server.stop()
        self.servers.remove(server)
        return report

    # ------------------------------------------------------------------
    def run_ops(self, server, client, ops, model, latencies) -> None:
        """Issue ``ops`` one at a time, timing each and checking its answer."""
        from repro.store import ProtocolError, StoreClientError

        clock = time.perf_counter_ns
        for index, op in enumerate(ops):
            if index % self.move_every == 0:
                self.move(server)
            kind, key = op[0], op[1]
            self.attempted += 1
            started = clock()
            try:
                if kind == "get":
                    answer = client.get(key, None)
                elif kind == "put":
                    answer = client.put(key, op[2])
                else:
                    answer = client.range_scan(key, limit=SCAN_LIMIT)
            except (StoreClientError, ProtocolError, OSError) as error:
                self.failures.append(f"{kind} {key}: {error!r}")
                continue
            elapsed = clock() - started
            if kind == "put":
                model.put(key, op[2])
                expected = None
            elif kind == "get":
                expected = model.get(key)
            else:
                expected = model.scan(key)
            if answer != expected:
                self.failures.append(f"{kind} {key}: wrong answer")
                continue
            latencies[kind].append(elapsed)

    def verify(self, client, model) -> None:
        from repro.store import ProtocolError, StoreClientError

        self.attempted += 1
        try:
            report = client.verify()
        except (StoreClientError, ProtocolError, OSError) as error:
            self.failures.append(f"VERIFY failed: {error!r}")
            return
        if report.get("keys") != len(model.keys):
            self.failures.append(
                f"VERIFY counted {report.get('keys')} keys, model has {len(model.keys)}"
            )

    def check_recovered(self, reopened: dict, model) -> None:
        self.attempted += 1
        if reopened["items_sha256"] != model.digest():
            self.failures.append("reopened store's contents differ from the model")

    def kill_all(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers.clear()


def disk_bytes(store_dir: Path) -> int:
    """WAL plus snapshot bytes of a closed store."""
    from repro.store.snapshot import snapshot_root
    from repro.store.store import WAL_FILENAME

    total = (store_dir / WAL_FILENAME).stat().st_size
    for directory, _, files in os.walk(snapshot_root(store_dir)):
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total


def user_bytes(stream) -> int:
    """Codec-encoded key + value bytes of every put the client sent."""
    from repro.store import codec

    items = list(stream.preload) + [op[1:] for op in stream.measured if op[0] == "put"]
    return sum(len(codec.dumps(key)) + len(codec.dumps(value)) for key, value in items)


def latency_metrics(latencies: dict) -> tuple[dict, list]:
    metrics, notes = {}, []
    for kind in ("get", "put", "scan"):
        samples = sorted(latencies[kind])
        if not samples:
            notes.append(f"no successful {kind} to time")
            continue
        beyond = len(samples) - math.ceil(0.99 * len(samples))
        metrics[f"{kind}_p50_us"] = percentile(samples, 0.50) / 1e3
        metrics[f"{kind}_p99_us"] = percentile(samples, 0.99) / 1e3
        notes.append(
            f"{kind}: {len(samples)} samples, {beyond} beyond p99"
            + ("" if beyond >= 10 else "  (fewer than 10: p99 is unsupported)")
        )
    return metrics, notes


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def run_end_to_end(run: Run, stream) -> tuple[dict, list]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        server, client, seconds = run.setup(stream, f"store{repeat}")
        setups.append(seconds)
        if repeat < SETUP_REPEATS - 1:
            run.teardown(server, client)
            shutil.rmtree(run.run_dir / f"store{repeat}")
    store_dir = run.run_dir / f"store{SETUP_REPEATS - 1}"

    model = Model(stream.preload)
    server.call("mark")
    latencies = {"get": [], "put": [], "scan": []}
    settle()
    started = time.perf_counter()
    run.run_ops(server, client, stream.measured, model, latencies)
    wall = time.perf_counter() - started
    run.verify(client, model)
    report = run.teardown(server, client)
    on_disk = disk_bytes(store_dir)

    recoveries = []
    while len(recoveries) < RECOVERY_MIN or (
        len(recoveries) < RECOVERY_MAX and sum(recoveries) < RECOVERY_BUDGET_S
    ):
        reopened = run.reopen(store_dir)
        recoveries.append(reopened["open_s"])
        if len(recoveries) == 1:
            run.check_recovered(reopened, model)

    costs = report["costs"]
    puts = sum(1 for op in stream.measured if op[0] == "put")
    if len(costs) != puts:
        run.failures.append(f"{len(costs)} cost events for {puts} puts")
    metrics, notes = latency_metrics(latencies)
    metrics.update(
        throughput_ops_s=len(stream.measured) / wall,
        moves_per_put=ratio(sum(costs), len(costs)),
        max_moves_per_put=max(costs, default=0),
        disk_bytes_per_user_byte=on_disk / user_bytes(stream),
        recover_s=min(recoveries),
        setup_s=statistics.median(setups),
        peak_rss_mb=report["peak_rss_mb"],
    )
    notes.append(
        f"{len(stream.measured)} measured ops in {wall:.2f} s; setups "
        + ", ".join(f"{s:.3f}" for s in setups)
        + " s; recoveries " + ", ".join(f"{s:.3f}" for s in recoveries) + " s"
    )
    return metrics, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def run_traced(run: Run, stream, out_path: Path) -> tuple[dict, list]:
    latencies = {"get": [], "put": [], "scan": []}
    # The same stream on two fresh servers, one untraced (the baseline for
    # the tracing overhead) and one traced, in alternating windows of
    # about half a second, so that both meet the same phases of a shared
    # machine.  Which goes first alternates too, so each server's windows
    # also alternate between the cores.
    plain, plain_client, _ = run.setup(stream, "untraced")
    server, client, _ = run.setup(stream, "traced", trace=True)
    plain_model, model = Model(stream.preload), Model(stream.preload)
    recorder = SpanRecorder()
    for name in ("get", "put", "range_scan"):
        setattr(client, name, recorder.wrap(f"client.{name}", getattr(client, name)))
    server.call("trace_on")
    settle()
    untraced_wall = traced_wall = 0.0
    for window, index in enumerate(range(0, len(stream.measured), run.move_every)):
        ops = stream.measured[index : index + run.move_every]
        for traced in (False, True) if window % 2 == 0 else (True, False):
            recorder.enabled = traced
            started = time.perf_counter()
            if traced:
                run.run_ops(server, client, ops, model, latencies)
                traced_wall += time.perf_counter() - started
            else:
                run.run_ops(plain, plain_client, ops, plain_model, latencies)
                untraced_wall += time.perf_counter() - started
    recorder.enabled = False
    server.call("trace_off")
    run.verify(plain_client, plain_model)
    run.teardown(plain, plain_client)
    run.verify(client, model)
    report = run.teardown(server, client)
    reopened = run.reopen(run.run_dir / "traced", trace=True)
    run.check_recovered(reopened, model)

    client_spans = recorder.spans
    server_spans = report["spans"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "fields": ["request_id", "name", "start_ns", "end_ns", "parent"],
        "client": client_spans,
        "server": server_spans,
        "recovery": reopened["spans"],
    }))

    # Join client and server requests on their ids.
    client_roots = {s[0]: s for s in client_spans if s[4] < 0}
    server_roots = {s[0]: s for s in server_spans if s[4] < 0}
    if sorted(client_roots) != sorted(server_roots) or any(
        KIND_OF_ROOT[client_roots[rid][1]] != KIND_OF_ROOT[server_roots[rid][1]]
        for rid in client_roots
    ):
        run.failures.append("client and server spans do not join on request ids")
        return {}, []
    requests = {"get": 0, "put": 0, "scan": 0}
    client_ns = {"get": 0, "put": 0, "scan": 0}
    for rid, span in client_roots.items():
        kind = KIND_OF_ROOT[span[1]]
        requests[kind] += 1
        client_ns[kind] += span[3] - span[2]
    total_requests = sum(requests.values())

    # Self time per (request kind, span name); "server" = the client's
    # round trip minus the service span: wire, protocol, codec, event loop.
    self_ns: dict = {}
    calls: dict = {}
    span_ns: dict = {}
    for span, own in zip(server_spans, self_times(server_spans)):
        key = (KIND_OF_ROOT[server_roots[span[0]][1]], span[1])
        self_ns[key] = self_ns.get(key, 0) + own
        calls[key] = calls.get(key, 0) + 1
        span_ns[key] = span_ns.get(key, 0) + span[3] - span[2]
    for rid, span in client_roots.items():
        key = (KIND_OF_ROOT[span[1]], "server")
        served = server_roots[rid]
        self_ns[key] = self_ns.get(key, 0) + (span[3] - span[2]) - (served[3] - served[2])

    def total(table, name):
        return sum(value for (kind, span), value in table.items() if span == name)

    def per(table, name, denominator, scale=1.0):
        return ratio(total(table, name), denominator) / scale

    counts: dict = {}
    for root, name, amount in report["counts"]:
        key = (KIND_OF_ROOT[root], name)
        counts[key] = counts.get(key, 0) + amount
    counters = report["metrics"]["counters"]
    lock_wait = report["metrics"]["histograms"].get(
        "service.lock_wait_seconds", {"count": 0, "sum": 0.0}
    )
    shards = report["shards"]
    puts, scans = requests["put"], requests["scan"]
    client_total = sum(client_ns.values())
    service_self = sum(
        total(self_ns, f"service.{name}") for name in ("get", "put", "range_scan")
    )
    builds = total(calls, "shard.build")
    reopen_builds = [s for s in reopened["spans"] if s[1] == "shard.build"]
    reopen_root = next(s for s in reopened["spans"] if s[1] == "recovery.open")
    metrics = {
        "server.requests": counters.get("server.requests", 0),
        "server.self_us_per_op": per(self_ns, "server", total_requests, 1e3),
        "service.self_us_per_op": ratio(service_self, total_requests) / 1e3,
        "service.lock_wait_us_per_op": ratio(lock_wait["sum"], lock_wait["count"]) * 1e6,
        "store.self_us_per_put": per(self_ns, "store.put", puts, 1e3),
        "store.compactions": counters.get("store.compactions", 0),
        "store.compact_ms": per(span_ns, "store.compact", total(calls, "store.compact"), 1e6),
        "wal.append_us_per_frame": per(span_ns, "wal.append", total(calls, "wal.append"), 1e3),
        "wal.fsyncs_per_put": ratio(counters.get("wal.fsyncs.always", 0), puts),
        "wal.bytes_per_put": ratio(counters.get("wal.bytes_appended", 0), puts),
        "map.self_us_per_put": per(self_ns, "map.set", puts, 1e3),
        "map.select_calls_per_put": ratio(counts.get(("put", "sharded.select"), 0), puts),
        "map.self_us_per_scan": per(self_ns, "map.range", scans, 1e3),
        "sharded.self_us_per_insert": per(
            self_ns, "sharded.insert", total(calls, "sharded.insert"), 1e3
        ),
        "sharded.splits": counters.get("sharded.splits", 0),
        "sharded.restructure_moves_per_put": ratio(
            counters.get("sharded.restructure_moves", 0), puts
        ),
        "sharded.shard_builds": builds,
        "sharded.build_ms_per_shard": per(span_ns, "shard.build", builds, 1e6),
        "sharded.build_share_of_put": ratio(
            span_ns.get(("put", "shard.build"), 0), client_ns["put"]
        ),
        "shard.self_us_per_insert": per(
            self_ns, "shard.insert", total(calls, "shard.insert"), 1e3
        ),
        "shard.moves_per_insert": per(counts, "shard.moves", total(calls, "shard.insert")),
        "embedding.fast_frac": ratio(shards["fast"], shards["fast"] + shards["slow"]),
        "embedding.max_buffered": shards["max_buffered"],
        "rshell.token_cost": shards["token_cost"],
        "rshell.element_cost": shards["element_cost"],
        "rshell.init_cost_per_build": per(counts, "rshell.init_cost", builds),
        "physical.chain_moves_per_put": ratio(counters.get("physical.chain_moves", 0), puts),
        "physical.shell_moves_per_put": ratio(counters.get("physical.shell_moves", 0), puts),
        "physical.relabel_flips_per_put": ratio(
            counters.get("physical.relabel_flips", 0), puts
        ),
        "recovery.frames_replayed": reopened["frames_replayed"],
        "recovery.shard_builds": len(reopen_builds),
        "recovery.build_share": ratio(
            sum(s[3] - s[2] for s in reopen_builds), reopen_root[3] - reopen_root[2]
        ),
        "trace.client_us_per_op": client_total / total_requests / 1e3,
        "trace.remainder_us_per_op": (traced_wall * 1e9 - client_total) / total_requests / 1e3,
        "trace.untraced_ops_s": len(stream.measured) / untraced_wall,
        "trace.traced_ops_s": len(stream.measured) / traced_wall,
        "trace.overhead_frac": 1.0 - untraced_wall / traced_wall,
    }
    notes = layer_table(self_ns, calls, requests, client_ns)
    notes.append(
        f"unattributed remainder (client loop, answer checks, span recording): "
        f"{metrics['trace.remainder_us_per_op']:.1f} us/op over {total_requests} ops"
    )
    notes.append(
        f"tracing overhead: {metrics['trace.untraced_ops_s']:.1f} ops/s untraced vs "
        f"{metrics['trace.traced_ops_s']:.1f} ops/s traced"
    )
    notes.append(f"spans written to {out_path.relative_to(ROOT)}")
    return metrics, notes


def layer_table(self_ns: dict, calls: dict, requests: dict, client_ns: dict) -> list:
    """Per request kind: each layer's self time per request, blocking path
    top to bottom, summing to the client-observed round trip."""
    order = [
        "server", "service.get", "service.put", "service.range_scan",
        "store.get", "store.put", "store.range", "store.compact", "wal.append",
        "map.get", "map.set", "map.range", "sharded.insert", "shard.build",
        "shard.bulk_load", "shard.insert",
    ]
    lines = []
    for kind in ("get", "put", "scan"):
        n = requests[kind]
        if not n:
            continue
        lines.append(f"{kind} ({n} requests)        self us/req    calls/req   share")
        round_trip = client_ns[kind] / n / 1e3
        accounted = 0.0
        for name in order:
            own = self_ns.get((kind, name))
            if own is None:
                continue
            per = own / n / 1e3
            accounted += per
            lines.append(
                f"  {name:<22}{per:>12.1f}{calls.get((kind, name), n) / n:>12.2f}"
                f"{ratio(per, round_trip):>8.1%}"
            )
        lines.append(f"  {'sum of self times':<22}{accounted:>12.1f}")
        lines.append(f"  {'client round trip':<22}{round_trip:>12.1f}")
    return lines


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "store" / "__init__.py").is_file():
        print(f"perfbench: the store's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    ops = max(1, round(workload.ops_per_second * args.seconds))
    if args.trace:
        ops = max(1, ops // 2)
    stream = build_stream(workload, args.seed, ops)
    digest = stream_digest(stream)

    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.alarm(DEADLINE_S)
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, run_dir, usable_cpus())
    try:
        if stream_digest(build_stream(workload, args.seed, ops)) != digest:
            run.failures.append("the op stream is not a function of the seed")
        if args.trace:
            out_path = TRACE_OUT / f"trace-{workload.name}-seed{args.seed}.json"
            metrics, notes = run_traced(run, stream, out_path)
            units = PER_LAYER_UNITS
        else:
            metrics, notes = run_end_to_end(run, stream)
            units = END_TO_END_UNITS
    except Abort as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        run.kill_all()
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  ops {ops}  "
          f"stream sha256 {digest[:16]}  shards {workload.algorithm}  "
          f"WAL fsync on every frame, compaction every {workload.compact_every} frames")
    for line in notes:
        print(line)
    table_units = {**TABLE_ONLY_UNITS, **units}
    for name, value in metrics.items():
        print(f"{name:<36}{value:>16.4f} {table_units[name]}")
    failed = len(run.failures)
    print(f"failed_frac{'':<25}{failed / max(1, run.attempted):>16.4f} ratio "
          f"({failed} of {run.attempted})")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
