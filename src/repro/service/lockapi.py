"""The client-facing lock API: acquire/release multiplexed onto TME.

The paper's Client Spec (Section 3.2) constrains the *environment* of a
mutual exclusion program: request only while thinking, release eventually.
In the simulator the environment is modelled by the client tick actions;
in the live service the environment is real software -- the callers of
this API -- and the frontend implements the Client Spec on their behalf:

* a client's ``acquire`` arms the node's Request-CS guard by zeroing
  ``think_timer`` (the node then issues a protocol request on its own);
* when the node's phase reaches EATING, the frontend grants the lock to
  the head of its pending queue;
* the holder's ``release`` zeroes ``eat_timer``, enabling Release-CS (the
  protocol's release/reply messages follow from the program, untouched);
* a holder that disconnects is auto-released, so eating stays transient
  (CS Spec) even under misbehaving clients.

One node serves many concurrent clients: they serialize on the node's
single CS slot, and nodes serialize cluster-wide through the wrapped
protocol itself.  The frontend never touches protocol variables -- only
the two client workload timers, which belong to the environment by
construction.

Wire protocol (frames, see :mod:`repro.service.wire`):

========================== =============================================
``{"t": "acquire", "id"}`` client asks for the lock
``{"t": "grant", "id"}``   server: the lock is yours
``{"t": "release", "id"}`` client gives the lock back
``{"t": "released", "id"}``server: release completed (phase left CS)
========================== =============================================

Both ends read through :class:`~repro.service.wire.FrameProtocol`.  The
frontend is the transport's client handler: it is handed each client
frame from the read callback and told when the connection is gone; a
frame it cannot use (an ``id`` that is not a number) is refused with
:class:`~repro.service.wire.WireError`, which closes that connection and
releases its waiters and its hold through the ordinary disconnect path.
:class:`LockClient` resolves the future its ``acquire``/``release`` waits
on from the same callback.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.service.node import ServiceNode
from repro.service.wire import FrameProtocol, WireError, encode_frame
from repro.tme.interfaces import EATING, THINKING


def _request_id(frame: dict[str, Any], default: int) -> int:
    try:
        return int(frame.get("id", default))
    except (TypeError, ValueError) as exc:
        raise WireError(f"request id is not a number: {frame!r}") from exc


@dataclass
class _Waiter:
    """One outstanding acquire: which connection, which request id."""

    writer: asyncio.WriteTransport
    req_id: int
    conn_key: int
    gone: bool = False


@dataclass
class _Holder:
    """The current lock holder (if any) and its release progress."""

    writer: asyncio.WriteTransport
    req_id: int
    release_requested: bool = False
    gone: bool = False


@dataclass
class FrontendStats:
    """Counters the loadgen and the CI smoke assert on."""

    acquires: int = 0
    grants: int = 0
    releases: int = 0
    orphan_releases: int = 0
    queue_peak: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "acquires": self.acquires,
            "grants": self.grants,
            "releases": self.releases,
            "orphan_releases": self.orphan_releases,
            "queue_peak": self.queue_peak,
        }


@dataclass
class LockFrontend:
    """Per-node lock frontend (see module docstring)."""

    node: ServiceNode
    _pending: deque[_Waiter] = field(default_factory=deque)
    _holder: _Holder | None = None
    _conn_waiters: dict[int, list[_Waiter]] = field(default_factory=dict)
    stats: FrontendStats = field(default_factory=FrontendStats)

    # -- connection handling (the transport's client handler) -----------------

    def client_frame(
        self, writer: asyncio.WriteTransport, frame: dict[str, Any]
    ) -> None:
        """Serve one frame of the client connection ``writer``."""
        kind = frame.get("t")
        req_id = _request_id(frame, 0)
        if kind == "acquire":
            conn_key = id(writer)
            waiter = _Waiter(writer, req_id, conn_key)
            self._pending.append(waiter)
            self._conn_waiters.setdefault(conn_key, []).append(waiter)
            self.stats.acquires += 1
            self.stats.queue_peak = max(
                self.stats.queue_peak, len(self._pending)
            )
        elif kind == "release":
            holder = self._holder
            if (
                holder is not None
                and holder.writer is writer
                and holder.req_id == req_id
                and not holder.release_requested
            ):
                holder.release_requested = True
                self.node.runtime.variables["eat_timer"] = 0
                self.stats.releases += 1
        # Unknown frames are client garbage; ignore (the connection stays).
        self.node.kick()

    def client_lost(self, writer: asyncio.WriteTransport) -> None:
        """The connection closed: forget its waiters, orphan its hold."""
        for waiter in self._conn_waiters.pop(id(writer), []):
            waiter.gone = True
        holder = self._holder
        if holder is not None and holder.writer is writer:
            holder.gone = True
        self.node.kick()

    # -- the node's settle hook -----------------------------------------------

    def _send(
        self, writer: asyncio.WriteTransport, obj: dict[str, Any]
    ) -> None:
        # a write to a connection that is closing is discarded by asyncio;
        # client_lost() cleans up after it
        writer.write(encode_frame(obj))

    def _grant_next(self) -> bool:
        while self._pending:
            waiter = self._pending.popleft()
            live_waiters = self._conn_waiters.get(waiter.conn_key)
            if live_waiters is not None and waiter in live_waiters:
                live_waiters.remove(waiter)
            if waiter.gone:
                continue
            self._holder = _Holder(waiter.writer, waiter.req_id)
            self.stats.grants += 1
            self._send(waiter.writer, {"t": "grant", "id": waiter.req_id})
            return True
        return False

    def poll(self) -> bool:
        """Advance the frontend against the node's current phase; returns
        whether it changed node state (wired to ``node.on_settle``)."""
        runtime = self.node.runtime
        variables = runtime.variables
        phase = variables.get("phase")
        changed = False
        holder = self._holder
        if holder is not None:
            if holder.release_requested and phase != EATING:
                # Release-CS executed: the cycle is complete.
                if not holder.gone:
                    self._send(
                        holder.writer, {"t": "released", "id": holder.req_id}
                    )
                self._holder = None
                holder = None
                changed = True
            elif holder.gone and not holder.release_requested:
                # Orphaned holder: release on its behalf (CS Spec).
                holder.release_requested = True
                variables["eat_timer"] = 0
                self.stats.orphan_releases += 1
                changed = True
        if holder is None and phase == EATING:
            if self._grant_next():
                changed = True
            elif variables.get("eat_timer", 0) != 0:
                # Entered the CS with nobody waiting (every queued client
                # disconnected): give it straight back.
                variables["eat_timer"] = 0
                self.stats.orphan_releases += 1
                changed = True
        if (
            self._holder is None
            and phase == THINKING
            and any(not w.gone for w in self._pending)
            and variables.get("think_timer", 1) != 0
        ):
            # Demand exists: arm the Request-CS guard.
            variables["think_timer"] = 0
            changed = True
        return changed


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


class LockError(ConnectionError):
    """The server went away mid-operation."""


class _ClientConnection(FrameProtocol):
    """The client's end of the socket: replies resolve the pending call."""

    def __init__(self, client: "LockClient"):
        super().__init__()
        self._client = client
        #: resolved when the connection has closed
        self.closed: asyncio.Future[None] = (
            asyncio.get_running_loop().create_future()
        )

    def frame_received(self, frame: dict[str, Any]) -> None:
        self._client._on_frame(frame)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed.set_result(None)
        self._client._on_lost(self)


class LockClient:
    """One lock-API connection (one logical client of the service).

    The per-connection protocol is sequential -- acquire, hold, release --
    so at most one reply is awaited at a time; a client wanting
    overlapping requests opens more connections (which is what the load
    generator does).
    """

    def __init__(self) -> None:
        self._connection: _ClientConnection | None = None
        #: the reply being waited for: (kind, request id, its future)
        self._awaited: tuple[str, int, asyncio.Future[None]] | None = None
        self._next_id = 0

    async def connect(self, host: str, port: int) -> None:
        _writer, self._connection = (
            await asyncio.get_running_loop().create_connection(
                lambda: _ClientConnection(self), host, port
            )
        )

    async def close(self) -> None:
        connection = self._connection
        if connection is not None:
            connection.transport.close()
            await connection.closed

    def _on_frame(self, frame: dict[str, Any]) -> None:
        if self._awaited is None:
            return
        kind, req_id, reply = self._awaited
        if (
            frame.get("t") == kind
            and _request_id(frame, -1) == req_id
            and not reply.done()
        ):
            reply.set_result(None)

    def _on_lost(self, connection: _ClientConnection) -> None:
        if connection is not self._connection:
            return  # an earlier connection of this client
        self._connection = None
        if self._awaited is not None:
            kind, _req_id, reply = self._awaited
            if not reply.done():
                reply.set_exception(
                    LockError(f"server closed while awaiting {kind}")
                )

    async def _call(self, kind: str, req_id: int, reply_kind: str) -> None:
        """Send one request frame and wait for the matching reply."""
        if self._connection is None:
            raise LockError("not connected")
        reply = asyncio.get_running_loop().create_future()
        self._awaited = (reply_kind, req_id, reply)
        self._connection.transport.write(
            encode_frame({"t": kind, "id": req_id})
        )
        await reply

    async def acquire(self) -> int:
        """Request the lock and wait for the grant; returns the request id."""
        self._next_id += 1
        req_id = self._next_id
        await self._call("acquire", req_id, "grant")
        return req_id

    async def release(self, req_id: int) -> None:
        """Give the lock back and wait for the release to complete."""
        await self._call("release", req_id, "released")
