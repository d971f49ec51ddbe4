"""Networked store and replication fences.

Four walls:

* **Protocol** — framing round-trips the full codec value space, rejects
  oversized and truncated messages instead of misreading them.
* **Serving** — every command works over the wire; errors come back typed
  (``KeyError`` parity with the local API, ``ReadOnlyError`` on replica
  writes); concurrent clients with disjoint key ranges merge exactly; a
  stalled connection delays no other, ``stop()`` returns whatever its
  peers are doing, and connection threads are reclaimed.
* **Replication convergence** — a seeded mixed workload runs on the
  primary while a replica streams; the replica is killed at parametrized
  points (mid-stream, mid-catch-up, behind a compaction horizon),
  restarted, and must converge to the primary's *byte-identical* state:
  same keys, same ``items()``, same composed labels, same per-shard
  physical layout — the same fingerprint the crash-injection differential
  uses.  The replica's WAL must be a verbatim suffix of the primary's.
* **Failover** — a promoted replica serves the primary's exact final
  state and accepts writes.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.store import codec
from repro.store.client import ReadOnlyError, StoreClient, StoreClientError
from repro.store.harness import apply_to_store, fingerprint, make_ops, state_digest
from repro.store.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode_body,
    encode_message,
    recv_message,
    send_message,
)
from repro.store.replica import Replica
from repro.store.server import ServerThread
from repro.store.service import StoreService
from repro.store.store import WAL_FILENAME, DurableStore


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def primary(tmp_path):
    """A served primary: (service, ServerThread) over a fresh store."""
    store = DurableStore(
        tmp_path / "primary", algorithm="classical", shard_capacity=32,
        sync_policy="never",
    )
    service = StoreService(store, stripes=8)
    with ServerThread(service) as server:
        yield service, server
    service.close()


def wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {message}")
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_round_trips_codec_value_space(self):
        from fractions import Fraction

        message = {
            "cmd": "PUT",
            "key": (1, Fraction(22, 7), "x"),
            "value": {b"\x00bytes": [None, True, -17, 3.5]},
            3: "int-keyed",
        }
        framed = encode_message(message)
        assert framed[:4] == len(framed[4:]).to_bytes(4, "big")
        assert decode_body(framed[4:]) == message

    def test_round_trips_over_a_real_socket(self):
        left, right = socket.socketpair()
        try:
            payload = {"cmd": "PING", "blob": "x" * 100_000}
            send_message(left, payload)
            assert recv_message(right) == payload
        finally:
            left.close()
            right.close()

    def test_oversized_length_prefix_is_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="length prefix"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_truncated_body_is_rejected(self):
        left, right = socket.socketpair()
        try:
            framed = encode_message({"cmd": "PING"})
            left.sendall(framed[: len(framed) - 3])
            left.close()
            with pytest.raises(ProtocolError, match="closed"):
                recv_message(right)
        finally:
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_non_object_body_is_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_body(codec.dumps([1, 2, 3]).encode())


# ---------------------------------------------------------------------------
# Serving: commands, typed errors, concurrent clients
# ---------------------------------------------------------------------------
class TestStoreServer:
    def test_every_command_round_trips(self, primary):
        service, server = primary
        with StoreClient(*server.address) as client:
            assert client.ping() == 0
            client.put("alice", 1)
            assert client.put_many([("bob", 2), ("carol", 3)]) == 2
            assert client.get("bob") == 2
            assert client.get("nope", "fallback") == "fallback"
            with pytest.raises(KeyError):
                client.get("nope")
            assert client.contains("alice")
            assert not client.contains("nope")
            assert client.size() == 3
            assert client.count_range("a", "bz") == 2
            assert client.range_scan("b", "z") == [("bob", 2), ("carol", 3)]
            assert client.range_scan(limit=2) == [("alice", 1), ("bob", 2)]
            pages = list(client.scan_pages(page_size=2))
            assert [len(page) for page in pages] == [2, 1]
            assert [pair for page in pages for pair in page] == [
                ("alice", 1), ("bob", 2), ("carol", 3),
            ]
            client.delete("alice")
            assert client.delete_many(["bob"]) == 1
            with pytest.raises(KeyError):
                client.delete("alice")
            report = client.verify()
            assert report["keys"] == 1
            stats = client.stats()
            assert stats["last_lsn"] == service.store.last_lsn

    def test_unknown_command_and_bad_page_size(self, primary):
        _, server = primary
        with StoreClient(*server.address) as client:
            with pytest.raises(StoreClientError, match="unknown command"):
                client._call("FROBNICATE")
            with pytest.raises(StoreClientError, match="page_size"):
                client._call("SCAN_PAGES", page_size=10**9)
            with pytest.raises(StoreClientError, match="page_size"):
                client._call("SCAN_PAGES", page_size=0)

    def test_non_string_command_is_a_bad_request(self, primary):
        """An unhashable ``cmd`` is refused like any unknown command, and
        the connection keeps serving."""
        _, server = primary
        with StoreClient(*server.address) as client:
            with pytest.raises(StoreClientError, match="unknown command"):
                client._call(["GET"])
            assert client.ping() == 0

    def test_values_survive_the_wire_exactly(self, primary):
        from fractions import Fraction

        _, server = primary
        with StoreClient(*server.address) as client:
            value = {"frac": Fraction(1, 3), "tup": (1, (2, b"\xff"))}
            client.put(7, value)
            assert client.get(7) == value

    def test_concurrent_clients_merge_exactly(self, primary):
        service, server = primary
        clients = 4
        keys_each = 60
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                with StoreClient(*server.address) as client:
                    base = slot * 10**6
                    for i in range(keys_each):
                        if i % 10 == 9:
                            client.put_many(
                                [(base + 10**5 + i * 4 + j, j) for j in range(4)]
                            )
                        else:
                            client.put(base + i, f"c{slot}-{i}")
                        if i % 7 == 6:
                            scan = client.range_scan(base, base + 10**5)
                            keys = [key for key, _ in scan]
                            assert keys == sorted(keys)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]

        # Disjoint key ranges: the union is exact, and every client's
        # writes are all present.
        with StoreClient(*server.address) as client:
            assert client.size() == service.size()
            report = client.verify()
        per_client = keys_each - keys_each // 10 + (keys_each // 10) * 4
        assert report["keys"] == clients * per_client

    def test_read_only_server_rejects_mutations(self, tmp_path):
        store = DurableStore(tmp_path / "ro", sync_policy="never")
        service = StoreService(store)
        with ServerThread(service, read_only=True) as server:
            with StoreClient(*server.address) as client:
                with pytest.raises(ReadOnlyError):
                    client.put("x", 1)
                with pytest.raises(ReadOnlyError):
                    client.delete_many(["x"])
                assert client.size() == 0  # reads still served
        service.close()

    def test_replicate_from_ahead_of_primary_is_rejected(self, primary):
        _, server = primary
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_message(sock, {"cmd": "REPLICATE", "after": 999})
            response = recv_message(sock)
            assert response["ok"] is False
            assert "ahead" in response["error"]
        finally:
            sock.close()


class TestConnectionThreads:
    def test_stop_returns_despite_idle_half_sent_and_replica_peers(self, tmp_path):
        store = DurableStore(tmp_path / "s", sync_policy="never")
        service = StoreService(store, registry=MetricsRegistry())
        server = ServerThread(service).start()
        idle = socket.create_connection(server.address, timeout=5)
        half = socket.create_connection(server.address, timeout=5)
        replica = socket.create_connection(server.address, timeout=5)
        try:
            # A served PING on each proves its thread is parked in recv.
            for sock in (idle, half):
                send_message(sock, {"cmd": "PING"})
                assert recv_message(sock)["ok"]
            framed = encode_message({"cmd": "PING"})
            half.sendall(framed[: len(framed) // 2])
            send_message(replica, {"cmd": "REPLICATE", "after": 0})
            assert recv_message(replica)["mode"] == "frames"
            wait_for(lambda: server.replica_count == 1, message="replica stream")

            stopper = threading.Thread(target=server.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive(), "stop() hung on a connected peer"
            for sock in (idle, half):
                try:
                    assert sock.recv(1) == b""
                except OSError:
                    pass
            assert server.replica_count == 0
            # Frames cut short by stop() are not the peers' protocol errors.
            assert server.error_counts() == {}
        finally:
            for sock in (idle, half, replica):
                sock.close()
            service.close()

    def test_half_sent_frame_does_not_delay_another_connection(self, primary):
        service, server = primary
        service.put("k", 1)
        stalled = socket.create_connection(server.address, timeout=5)
        try:
            framed = encode_message({"cmd": "GET", "key": "k"})
            stalled.sendall(framed[:-2])
            with StoreClient(*server.address, timeout=5) as client:
                started = time.monotonic()
                assert client.get("k") == 1
                assert time.monotonic() - started < 2.0
            stalled.sendall(framed[-2:])
            assert recv_message(stalled)["value"] == 1
        finally:
            stalled.close()

    def test_connection_threads_are_reclaimed(self, primary):
        _, server = primary
        before = threading.active_count()
        for _ in range(50):
            with StoreClient(*server.address) as client:
                client.ping()
        wait_for(
            lambda: threading.active_count() <= before,
            message="connection threads to exit",
        )

    def test_connection_churn_across_threads_leaves_no_entry(self, primary):
        """More connecting threads than cores, with a shortened switch
        interval: a lost update to the server's connection table would
        leave an entry (and a socket) behind."""
        _, server = primary
        before = threading.active_count()
        errors: list[BaseException] = []

        def churn() -> None:
            try:
                for _ in range(25):
                    with StoreClient(*server.address) as client:
                        client.ping()
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        wait_for(
            lambda: not server._connections
            and threading.active_count() <= before,
            message="every connection to be reclaimed",
        )

    def test_connections_disable_nagle(self, primary):
        _, server = primary
        with StoreClient(*server.address) as client:
            client.ping()
            (conn,) = server._connections
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


# ---------------------------------------------------------------------------
# Replication: bootstrap, streaming, kill-point convergence, catch-up
# ---------------------------------------------------------------------------
def _converged(service: StoreService, replica: Replica) -> None:
    """The byte-identical convergence assertion: same fingerprint."""
    replica.wait_caught_up(service.store.last_lsn)
    assert fingerprint(replica.service.store.map) == fingerprint(
        service.store.map
    )
    assert state_digest(replica.service.store.map) == state_digest(
        service.store.map
    )
    replica.service.verify()


class TestReplication:
    FRAMES = 90

    @pytest.mark.parametrize("kill_fraction", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("compact_between", [False, True])
    def test_kill_and_restart_converges_exactly(
        self, primary, tmp_path, kill_fraction, compact_between
    ):
        """Kill the replica at a workload point, write on, restart it.

        With ``compact_between`` the primary compacts while the replica is
        away, moving the durable horizon past the replica's LSN — the
        restart must fall back to snapshot bootstrap.  Either way the
        restarted replica converges to the primary's exact state.
        """
        service, server = primary
        ops = make_ops(self.FRAMES, seed=31 + int(kill_fraction * 10))
        kill_at = int(self.FRAMES * kill_fraction)

        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in ops[:kill_at]:
            apply_to_store(service, op)
        _converged(service, replica)
        replica.stop()
        wait_for(
            lambda: server.replica_count == 0, message="replica disconnect"
        )

        for op in ops[kill_at:]:
            apply_to_store(service, op)
        if compact_between:
            service.compact()
            assert service.store.durable_horizon == service.store.last_lsn

        restarted = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        restarted.wait_ready()
        _converged(service, restarted)
        if compact_between:
            # The log tail was gone: only a snapshot could bridge the gap.
            assert restarted.bootstrap_count == 1
        else:
            # The log still held the tail: no re-bootstrap, pure catch-up,
            # and the replica's WAL is a verbatim suffix of the primary's.
            assert restarted.bootstrap_count == 0
            primary_wal = (service.store.directory / WAL_FILENAME).read_bytes()
            replica_wal = (Path(tmp_path) / "replica" / WAL_FILENAME).read_bytes()
            assert replica_wal and primary_wal.endswith(replica_wal)
        restarted.stop()

    def test_kill_mid_catch_up_then_restart_converges(self, primary, tmp_path):
        """The CI smoke scenario: kill the puller *during* catch-up."""
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in make_ops(20, seed=76):
            apply_to_store(service, op)
        _converged(service, replica)
        base = replica.last_applied_lsn
        replica.stop()
        wait_for(
            lambda: server.replica_count == 0, message="replica disconnect"
        )

        for op in make_ops(150, seed=77):
            apply_to_store(service, op)

        restarted = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        # Kill as soon as catch-up has made *some* progress — with luck
        # mid-chunk (the puller checks its stop flag between frames); if
        # the stream already drained, the point still covers restart
        # safety after an abrupt stop.
        wait_for(
            lambda: restarted.last_applied_lsn > base,
            message="catch-up progress",
        )
        restarted.stop()
        assert base < restarted.last_applied_lsn <= service.store.last_lsn

        final = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        final.wait_ready()
        _converged(service, final)
        final.stop()

    def test_live_streaming_keeps_lag_bounded(self, primary, tmp_path):
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in make_ops(60, seed=5):
            apply_to_store(service, op)
        _converged(service, replica)
        assert replica.lag == 0
        assert replica.primary_lsn == service.store.last_lsn
        replica.stop()

    def test_replica_serves_reads_and_rejects_writes(self, primary, tmp_path):
        service, server = primary
        for op in make_ops(40, seed=9):
            apply_to_store(service, op)
        replica = Replica(
            tmp_path / "replica", server.address, serve=True,
            sync_policy="never",
        ).start()
        replica.wait_ready()
        replica.wait_caught_up(service.store.last_lsn)
        with StoreClient(*replica.address) as client:
            assert client.size() == service.size()
            scan = client.range_scan()
            assert scan == service.range_scan()
            with pytest.raises(ReadOnlyError):
                client.put("x", 1)
        replica.stop()

    def test_retention_floor_tracks_connected_replicas(self, primary, tmp_path):
        """Compaction keeps the tail a live replica still streams."""
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in make_ops(30, seed=13):
            apply_to_store(service, op)
        _converged(service, replica)
        acked = service.store.last_lsn
        for op in make_ops(10, seed=14, key_space=100):
            apply_to_store(service, op)
        # The replica acked `acked` at the latest; compaction must keep
        # the horizon at or below the floor, never past a live stream.
        service.compact()
        assert service.store.durable_horizon <= service.store.last_lsn
        assert service.store.durable_horizon >= 0
        _converged(service, replica)
        assert replica.bootstrap_count == 1  # only the initial bootstrap
        replica.stop()

    def test_promote_serves_the_primary_final_state(self, primary, tmp_path):
        """Failover: the promoted replica is the primary, exactly."""
        service, server = primary
        ops = make_ops(70, seed=21)
        replica = Replica(
            tmp_path / "replica", server.address, serve=True,
            sync_policy="never",
        ).start()
        replica.wait_ready()
        for op in ops:
            apply_to_store(service, op)
        _converged(service, replica)
        expected = fingerprint(service.store.map)

        promoted = replica.promote()
        # Exact final state of the old primary, by fingerprint.
        assert fingerprint(promoted.store.map) == expected
        # The write path is open — over the wire too.
        with StoreClient(*replica.address) as client:
            client.put(10**9 + 7, "written-after-promotion")
            assert client.get(10**9 + 7) == "written-after-promotion"
        assert promoted.get(10**9 + 7) == "written-after-promotion"
        promoted.verify()
        replica.stop()

    def test_promoted_replica_recovers_durably(self, primary, tmp_path):
        """Writes accepted after promotion survive a restart."""
        service, server = primary
        for op in make_ops(25, seed=3):
            apply_to_store(service, op)
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        _converged(service, replica)
        promoted = replica.promote()
        promoted.put(10**9 + 1, "after-failover")
        expected = fingerprint(promoted.store.map)
        replica.stop()

        reopened = DurableStore(tmp_path / "replica", sync_policy="never")
        assert fingerprint(reopened.map) == expected
        reopened.verify()
        reopened.close()
