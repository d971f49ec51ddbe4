"""Thread-per-connection TCP front-end serving a :class:`~repro.store.service.StoreService`.

:class:`ServerThread` listens on a TCP socket and speaks the
length-prefixed JSON protocol of :mod:`repro.store.protocol` over
blocking sockets.  An accept thread hands every connection a daemon
thread of its own, which reads a request, calls the matching
``StoreService`` method directly and writes the response.  Concurrent
connections overlap only on the striped read-write locking the service
already provides — the server adds networking, not a new concurrency
model.

**Replication.**  A ``REPLICATE`` request flips the connection into a
push stream.  The server decides how the replica starts:

* ``after >= durable_horizon`` — the log still holds everything the
  replica is missing: stream WAL frames with ``lsn > after``, verbatim;
* ``after < durable_horizon`` — compaction already dropped that tail:
  send the newest **snapshot** (manifest + shard files, checksums and
  all), then stream frames past its LSN.

Frames are shipped as the exact bytes the primary's WAL holds (validated
through the same ``_parse_frame`` recovery uses, so nothing a recovery
would reject is ever shipped), which is what makes a replica's state
byte-identical by construction.  Live tails push immediately — a WAL
commit listener wakes every replica feeder — and idle connections get
heartbeats carrying the primary's last LSN, which is how replicas measure
their lag.  Replicas acknowledge applied LSNs upstream on a second thread
per stream, which also notices the replica hanging up; the smallest
acknowledged LSN across connected replicas becomes the service's
**compaction retention floor**, so a live replica's catch-up stream never
loses its tail to a concurrent compaction (a *disconnected* replica holds
nothing hostage — it re-bootstraps from a snapshot).

``stop()`` cannot hang on a peer: it closes the listener, shuts down
every open connection (waking threads parked in ``recv`` or in a
``sendall`` to a replica that stopped reading), wakes every feeder and
joins the connection threads.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable

from repro import obs
from repro.store.protocol import (
    OversizedFrameError,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.store.service import StoreService

#: Frames per ``frames`` push message (bounds message size on big tails).
SHIP_CHUNK = 256

#: Idle heartbeat cadence for replication streams, seconds.
HEARTBEAT_SECONDS = 0.2

#: Largest page a single RANGE / SCAN_PAGES request may ask for.
PAGE_SIZE_LIMIT = 4096

_MISSING = object()


class ServerThread:
    """Serve one :class:`StoreService` over TCP, one thread per connection.

    The entry point tests, benchmarks and the CLI use::

        with ServerThread(service) as server:
            client = StoreClient(*server.address)
            ...

    ``start()`` binds the socket before it returns; exiting the context
    stops the server and joins its threads.  ``read_only=True`` (a
    replica serving read traffic) rejects every mutating command with the
    ``read_only`` error code; flipping the attribute to ``False`` is how a
    promotion opens the write path.
    """

    def __init__(
        self,
        service: StoreService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_only: bool = False,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self.read_only = read_only
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        #: Guards the two tables below, which connection threads mutate.
        self._lock = threading.Lock()
        #: Open connection sockets and the threads serving them.
        self._connections: dict[socket.socket, threading.Thread] = {}
        #: Per-replica-connection state: {id: {"event", "acked", "closed"}}.
        self._replicas: dict[int, dict] = {}
        self._next_replica_id = 0
        self._registry = service.registry
        self._obs_connections = self._registry.counter("server.connections")
        self._obs_requests = self._registry.counter("server.requests")
        self._obs_errors: dict[str, object] = {}

    # ------------------------------------------------------------------
    @property
    def service(self) -> StoreService:
        return self._service

    @property
    def registry(self):
        """The metrics registry this server records into."""
        return self._registry

    def _count_error(self, family: str):
        """Bump (and cache) the counter for one error family."""
        counter = self._obs_errors.get(family)
        if counter is None:
            counter = self._registry.counter(f"server.errors.{family}")
            self._obs_errors[family] = counter
        counter.inc()
        return counter

    def error_counts(self) -> dict[str, int]:
        """Per-family error counts observed so far (all zero when obs is off)."""
        return {
            family: counter.value
            for family, counter in sorted(self._obs_errors.items())
        }

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._listener is None:
            raise RuntimeError("server is not running")
        return self._listener.getsockname()[:2]

    @property
    def replica_count(self) -> int:
        """Connected replication streams."""
        return len(self._replicas)

    def replica_acks(self) -> list[int]:
        """The LSN each connected replica has acknowledged, ascending."""
        with self._lock:
            return sorted(entry["acked"] for entry in self._replicas.values())

    def replication_floor(self) -> int | None:
        """Smallest LSN acknowledged by every connected replica."""
        acks = self.replica_acks()
        return acks[0] if acks else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server((self._host, self._port))
        self._stopping = False
        self._service.add_commit_listener(self._wake_replicas)
        self._service.set_compaction_retainer(self.replication_floor)
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(self._listener,),
            name="repro-store-server",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        listener = self._listener
        if listener is None:
            return
        self._service.remove_commit_listener(self._wake_replicas)
        self._service.set_compaction_retainer(None)
        self._stopping = True
        try:
            # Wakes the accept thread parked in accept() (close alone
            # does not, on Linux).
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        listener.close()
        self._accept_thread.join()
        with self._lock:
            connections = dict(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already hung up
        self._wake_replicas()
        for thread in connections.values():
            thread.join()
        self._listener = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wake_replicas(self, lsn: int | None = None) -> None:
        """Wake every replica feeder (the WAL commit listener, on the
        thread that appended frame ``lsn``)."""
        with self._lock:
            for entry in self._replicas.values():
                entry["event"].set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                if self._stopping:
                    return
                # A peer reset before accept, or descriptors ran out:
                # back off briefly rather than spin, then keep serving.
                time.sleep(0.01)
                continue
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-store-connection",
                daemon=True,
            )
            with self._lock:
                self._connections[conn] = thread
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        self._obs_connections.inc()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                request = recv_message(conn)
                if request is None:
                    break
                cmd = request.get("cmd")
                if cmd == "REPLICATE":
                    self._serve_replication(request, conn)
                    break
                send_message(conn, self._dispatch(cmd, request))
        except OversizedFrameError:
            self._count_error("oversized_frame")
        except ProtocolError:
            if not self._stopping:  # stop() cuts half-sent frames short
                self._count_error("protocol")
        except OSError:
            pass  # the peer hung up, or stop() shut the socket down
        finally:
            with self._lock:
                self._connections.pop(conn, None)
            conn.close()

    def _dispatch(self, cmd, request: dict) -> dict:
        self._obs_requests.inc()
        if not isinstance(cmd, str):
            self._count_error("bad_command")
            return _error("bad_request", f"unknown command {cmd!r}")
        server_handler = _SERVER_HANDLERS.get(cmd)
        if server_handler is not None:
            try:
                return server_handler(self, request)
            except Exception as error:
                self._count_error("server_error")
                return _error("server_error", f"{type(error).__name__}: {error}")
        handler = _HANDLERS.get(cmd)
        if handler is None:
            self._count_error("bad_command")
            return _error("bad_request", f"unknown command {cmd!r}")
        if cmd in _MUTATING and self.read_only:
            self._count_error("read_only")
            return _error(
                "read_only", "this server is a replica; writes go to the primary"
            )
        try:
            return handler(self._service, request)
        except KeyError as error:
            self._count_error("not_found")
            return _error("not_found", f"key not found: {error.args[0]!r}")
        except (TypeError, ValueError) as error:
            self._count_error("bad_request")
            return _error("bad_request", str(error))
        except Exception as error:  # the store's own integrity errors
            self._count_error("server_error")
            return _error("server_error", f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # Replication stream
    # ------------------------------------------------------------------
    def _serve_replication(self, request: dict, conn: socket.socket) -> None:
        store = self._service.store
        after = int(request.get("after", -1))
        if after > store.last_lsn:
            send_message(
                conn,
                _error(
                    "bad_request",
                    f"replica is ahead of this primary "
                    f"(after={after} > last_lsn={store.last_lsn})",
                ),
            )
            return

        entry = {"event": threading.Event(), "acked": max(after, 0), "closed": False}
        # Registered before any horizon decision: from here on compaction
        # retains frames past the replica's cursor.
        with self._lock:
            replica_id = self._next_replica_id
            self._next_replica_id += 1
            self._replicas[replica_id] = entry
        try:
            bootstrap = None
            if after < self._service.durable_horizon or after < 0:
                # The log alone cannot (or, for a brand-new replica with
                # no config, should not) carry the replica to the present:
                # bootstrap from the newest checkpoint.
                lsn, files = self._service.snapshot_archive()
                bootstrap = {"kind": "snapshot", "lsn": lsn, "files": files}
                start = max(after, lsn)
            else:
                start = after
            entry["acked"] = max(entry["acked"], start)
            send_message(
                conn,
                {
                    "ok": True,
                    "mode": "snapshot" if bootstrap is not None else "frames",
                    "algorithm": store.algorithm,
                    "shard_capacity": store.shard_capacity,
                    "start_lsn": start,
                    "primary_lsn": store.last_lsn,
                },
            )
            if bootstrap is not None:
                send_message(conn, bootstrap)
                start = bootstrap["lsn"]

            # The ACK reader doubles as the disconnect detector: the
            # moment the replica's socket EOFs it stops the feeder — so a
            # dead replica stops pinning the compaction retention floor
            # immediately, not at the next failed heartbeat write.
            acks = threading.Thread(
                target=self._consume_acks,
                args=(conn, entry),
                name="repro-store-replica-acks",
                daemon=True,
            )
            acks.start()
            try:
                self._feed_frames(conn, entry, start)
            finally:
                try:
                    # Unblocks the ACK reader once the feeder is done.
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                acks.join()
        finally:
            with self._lock:
                self._replicas.pop(replica_id, None)

    def _consume_acks(self, conn: socket.socket, entry: dict) -> None:
        try:
            while (message := recv_message(conn)) is not None:
                if message.get("cmd") == "ACK":
                    entry["acked"] = max(entry["acked"], int(message["lsn"]))
        except (ProtocolError, OSError):
            pass
        finally:
            entry["closed"] = True
            entry["event"].set()

    def _feed_frames(self, conn: socket.socket, entry: dict, start: int) -> None:
        service = self._service
        event = entry["event"]
        cursor = start
        offset = 0
        epoch: int | None = None
        while True:
            # Cleared before looking for frames, so a commit landing
            # after the look wakes the wait below at once.
            event.clear()
            if entry["closed"] or self._stopping:
                return
            frames, offset, epoch = service.ship_frames(
                cursor, offset=offset, epoch=epoch
            )
            if frames and frames[0][0] != cursor + 1:
                # Compaction won a race and dropped the replica's tail
                # (possible only in the window before its first ACK):
                # tell it to reconnect — the handshake will send a
                # snapshot covering the gap.
                send_message(conn, {"kind": "restart"})
                return
            if frames:
                for index in range(0, len(frames), SHIP_CHUNK):
                    chunk = frames[index : index + SHIP_CHUNK]
                    send_message(
                        conn,
                        {
                            "kind": "frames",
                            "frames": [line for _, line in chunk],
                            "primary_lsn": service.store.last_lsn,
                        },
                    )
                cursor = frames[-1][0]
            elif not event.wait(HEARTBEAT_SECONDS):
                send_message(
                    conn,
                    {"kind": "heartbeat", "primary_lsn": service.store.last_lsn},
                )


# ---------------------------------------------------------------------------
# Request handlers (run on the connection's thread)
# ---------------------------------------------------------------------------
def _error(code: str, message: str) -> dict:
    return {"ok": False, "code": code, "error": message}


def _page_size(request: dict, key: str, default: int | None = None) -> int | None:
    value = request.get(key, default)
    if value is None:
        return None
    value = int(value)
    if value < 1 or value > PAGE_SIZE_LIMIT:
        raise ValueError(
            f"{key} must be between 1 and {PAGE_SIZE_LIMIT}, got {value}"
        )
    return value


def _handle_ping(service: StoreService, request: dict) -> dict:
    return {"ok": True, "last_lsn": service.store.last_lsn}


def _handle_get(service: StoreService, request: dict) -> dict:
    value = service.get(request["key"], _MISSING)
    if value is _MISSING:
        return {"ok": True, "found": False, "value": None}
    return {"ok": True, "found": True, "value": value}


def _handle_contains(service: StoreService, request: dict) -> dict:
    return {"ok": True, "contains": service.contains(request["key"])}


def _handle_put(service: StoreService, request: dict) -> dict:
    service.put(request["key"], request.get("value"))
    return {"ok": True}


def _handle_delete(service: StoreService, request: dict) -> dict:
    service.delete(request["key"])
    return {"ok": True}


def _handle_put_many(service: StoreService, request: dict) -> dict:
    items = [(key, value) for key, value in request.get("items", [])]
    return {"ok": True, "applied": service.put_many(items)}


def _handle_delete_many(service: StoreService, request: dict) -> dict:
    return {"ok": True, "applied": service.delete_many(request.get("keys", []))}


def _handle_range(service: StoreService, request: dict) -> dict:
    items = service.range_scan(
        request.get("low"),
        request.get("high"),
        limit=_page_size(request, "limit"),
        after=request.get("after"),
    )
    return {"ok": True, "items": [[key, value] for key, value in items]}


def _handle_count_range(service: StoreService, request: dict) -> dict:
    return {
        "ok": True,
        "count": service.count_range(request.get("low"), request.get("high")),
    }


def _handle_scan_pages(service: StoreService, request: dict) -> dict:
    """One page per request; the returned cursor resumes the scan.

    The page materializes under the service's structure lock exactly like
    :meth:`StoreService.scan_pages` holds it — per page — so a slow
    client paging a huge interval never pins writers out between its
    requests.
    """
    page_size = _page_size(request, "page_size", 256)
    page = service.range_scan(
        request.get("low"),
        request.get("high"),
        limit=page_size,
        after=request.get("after"),
    )
    cursor = page[-1][0] if len(page) == page_size else None
    return {
        "ok": True,
        "page": [[key, value] for key, value in page],
        "after": cursor,
    }


def _handle_size(service: StoreService, request: dict) -> dict:
    return {"ok": True, "size": service.size()}


def _handle_verify(service: StoreService, request: dict) -> dict:
    return {"ok": True, "report": service.verify()}


def _handle_stats(server: "ServerThread", request: dict) -> dict:
    """Enriched STATS: durability, compactor health, replication, shards.

    Runs as a *server* handler (not a service handler) so it can read the
    replica ack table and error counters only the server holds.
    """
    service = server.service
    store = service.store
    error = service.last_compactor_error
    acks = server.replica_acks()
    return {
        "ok": True,
        "last_lsn": store.last_lsn,
        "durable_horizon": store.durable_horizon,
        "wal_frames_since_snapshot": store.wal_frames_since_snapshot,
        "latency": service.latency_statistics(),
        "compactor_alive": service.compactor_alive,
        "last_compactor_error": (
            f"{type(error).__name__}: {error}" if error is not None else None
        ),
        "replica_count": server.replica_count,
        "replica_acks": acks,
        "replication_floor": acks[0] if acks else None,
        "shard_statistics": service.shard_statistics(),
        "physical_backend": service.physical_backend,
        "error_counts": server.error_counts(),
    }


def _handle_metrics(server: "ServerThread", request: dict) -> dict:
    """Whole-process metrics: snapshot, Prometheus text, slow-op traces."""
    registry = server.registry
    snapshot = registry.snapshot()
    return {
        "ok": True,
        "enabled": registry.enabled,
        "metrics": snapshot,
        "exposition": obs.render_prometheus(snapshot),
        "slow_ops": obs.get_tracer().slow_ops(),
    }


_HANDLERS: dict[str, Callable[[StoreService, dict], dict]] = {
    "PING": _handle_ping,
    "GET": _handle_get,
    "CONTAINS": _handle_contains,
    "PUT": _handle_put,
    "DELETE": _handle_delete,
    "PUT_MANY": _handle_put_many,
    "DELETE_MANY": _handle_delete_many,
    "RANGE": _handle_range,
    "COUNT_RANGE": _handle_count_range,
    "SCAN_PAGES": _handle_scan_pages,
    "SIZE": _handle_size,
    "VERIFY": _handle_verify,
}

#: Handlers that need the *server* (replica acks, error counters, the
#: registry) rather than just the service; checked before ``_HANDLERS``.
_SERVER_HANDLERS: dict[str, Callable[["ServerThread", dict], dict]] = {
    "STATS": _handle_stats,
    "METRICS": _handle_metrics,
}

_MUTATING = frozenset({"PUT", "DELETE", "PUT_MANY", "DELETE_MANY"})
