"""Sockets as a :class:`~repro.runtime.transport.Transport`.

Two implementations of the runtime's send/deliver contract live here:

:class:`SocketTransport`
    One node's view of the wire: a TCP server for inbound connections
    (peers and lock-API clients share one port; peers identify with a
    ``hello`` frame), one outbound connection per peer with automatic
    reconnect, and the per-link up/down masks the chaos layer flips.
    Sends are non-blocking -- a frame is written to the socket buffer or
    dropped (cut link, peer not connected), exactly the lossy-channel
    semantics of the fault model.  In-flight messages live in the kernel,
    so there is no queue to enumerate: this is a
    :class:`~repro.runtime.transport.Transport`, deliberately not a
    :class:`~repro.runtime.transport.ChannelTransport`.

:class:`ClusterNetwork`
    The cluster-wide facade over all node transports.  It exists so the
    pieces written against the simulator's ``Network`` -- the PR-5
    recovery manager, the campaign-style partition faults -- drive the
    live cluster unchanged: ``send`` routes through the owning node's
    socket, ``cut``/``heal_due`` push the masks to *both* endpoint
    transports (sender-side drops new frames, receiver-side discards
    frames that were already in flight when the link went down), and
    ``flush_all`` drains the node inboxes that registered a flush hook.

A directional link is down if either endpoint masks it; cuts are pushed
to both ends so a cut takes effect immediately even for frames already
buffered in the kernel.

Every connection is a :class:`~repro.service.wire.FrameProtocol`: frames
are parsed and handed on inside the socket's read callback, there is no
reader task per connection.  A write to a lost connection does not raise,
so a dead outbound link is noticed where asyncio reports it -- the
outbound protocol's ``connection_lost`` forgets the writer and schedules
the reconnect; until the new connection is up, sends to that peer count
as dropped.  A frame a peer sends that does not parse, or parses into
something that is not a message, is a lost message too: it is counted in
``total_dropped()`` and the connection is closed (the peer reconnects).
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Iterable
from typing import Any, Protocol

from repro.runtime.messages import Message
from repro.service.wire import (
    FrameProtocol,
    WireError,
    encode_frame,
    frame_message,
    message_frame,
)

#: Delay between outbound reconnect attempts (wall pacing of IO retries
#: only -- never a protocol decision).
RECONNECT_DELAY_S = 0.05

DeliverFn = Callable[[Message], None]


class ClientHandler(Protocol):
    """What serves the inbound connections that are not peers (the lock
    frontend).  ``writer`` identifies the connection and takes replies."""

    def client_frame(
        self, writer: asyncio.WriteTransport, frame: dict[str, Any]
    ) -> None:
        """One frame from the client; :class:`WireError` refuses it and
        closes the connection."""

    def client_lost(self, writer: asyncio.WriteTransport) -> None:
        """The connection is gone (called once, if any frame was served)."""


class _Inbound(FrameProtocol):
    """One accepted connection; its first frame says whether a peer
    (``hello``) or a lock client is on the other end."""

    def __init__(self, owner: "SocketTransport"):
        super().__init__()
        self._owner = owner
        self._is_peer = False
        self._is_client = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._owner._inbound.add(self)

    def frame_received(self, frame: dict[str, Any]) -> None:
        owner = self._owner
        if self._is_peer:
            owner._on_peer_frame(frame)
        elif self._is_client:
            owner.client_handler.client_frame(self.transport, frame)
        elif frame.get("t") == "hello":
            self._is_peer = True
        elif owner.client_handler is not None:
            self._is_client = True
            owner.client_handler.client_frame(self.transport, frame)
        else:
            raise WireError("no handler for a client connection")

    def frame_refused(self, error: WireError) -> None:
        if self._is_peer:
            # corrupted on the wire = lost, as in the fault model
            self._owner._dropped += 1
        super().frame_refused(error)

    def connection_lost(self, exc: Exception | None) -> None:
        self._owner._inbound.discard(self)
        if self._is_client:
            self._owner.client_handler.client_lost(self.transport)


class _Outbound(FrameProtocol):
    """This node's connection to one peer: written to, never read from
    (whatever arrives on it is ignored), watched for its loss."""

    def __init__(self, owner: "SocketTransport", peer: str):
        super().__init__()
        self._owner = owner
        self._peer = peer

    def frame_received(self, frame: dict[str, Any]) -> None:
        pass

    def connection_lost(self, exc: Exception | None) -> None:
        owner = self._owner
        if owner._writers.get(self._peer) is self.transport:
            del owner._writers[self._peer]
            owner._schedule_reconnect(self._peer)


class SocketTransport:
    """One node's socket endpoint (see module docstring)."""

    def __init__(
        self,
        pid: str,
        pids: Iterable[str],
        deliver: DeliverFn,
        client_handler: ClientHandler | None = None,
    ):
        self.pid = pid
        self.pids = tuple(sorted(pids))
        if pid not in self.pids:
            raise ValueError(f"{pid!r} not in {self.pids}")
        self._index = self.pids.index(pid)
        self._deliver = deliver
        #: serves non-peer connections; without one they are closed
        self.client_handler = client_handler
        self._server: asyncio.base_events.Server | None = None
        self._peer_addrs: dict[str, tuple[str, int]] = {}
        self._writers: dict[str, asyncio.WriteTransport] = {}
        self._reconnect_tasks: dict[str, asyncio.Task] = {}
        self._inbound: set[_Inbound] = set()
        self._closed = False
        # Message uids: node i allocates i+1, i+1+(n+1), ... -- disjoint
        # residues mod n+1 across nodes (residue 0 is the cluster facade's),
        # so uids stay globally unique without coordination.
        self._uid_next = self._index + 1
        self._uid_stride = len(self.pids) + 1
        # Link masks over links incident to this node, value = heal tick.
        self._down: dict[tuple[str, str], int | None] = {}
        self.sent_by_kind: dict[str, int] = {}
        self._dropped = 0
        self.delivered = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the node's server socket; returns the bound address."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), host=host, port=port
        )
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    def set_peers(self, addresses: dict[str, tuple[str, int]]) -> None:
        """Learn every peer's address (call once all servers are bound)."""
        self._peer_addrs = {
            k: tuple(v) for k, v in addresses.items() if k != self.pid
        }

    async def connect_peers(self) -> None:
        """Open the outbound connection to every peer (blocks until all
        are up; startup only -- later failures go through reconnect)."""
        for peer in sorted(self._peer_addrs):
            await self._connect(peer)

    async def _connect(self, peer: str) -> None:
        host, port = self._peer_addrs[peer]
        loop = asyncio.get_running_loop()
        while not self._closed:
            try:
                writer, _protocol = await loop.create_connection(
                    lambda: _Outbound(self, peer), host, port
                )
                break
            except OSError:
                await asyncio.sleep(RECONNECT_DELAY_S)
        else:
            return
        writer.write(encode_frame({"t": "hello", "pid": self.pid}))
        self._writers[peer] = writer

    def _schedule_reconnect(self, peer: str) -> None:
        if self._closed or peer in self._reconnect_tasks:
            return

        async def reconnect() -> None:
            try:
                await asyncio.sleep(RECONNECT_DELAY_S)
                await self._connect(peer)
            finally:
                self._reconnect_tasks.pop(peer, None)

        self._reconnect_tasks[peer] = asyncio.get_running_loop().create_task(
            reconnect()
        )

    async def stop(self) -> None:
        """Close the server, every connection, and all helper tasks."""
        self._closed = True
        for task in list(self._reconnect_tasks.values()):
            task.cancel()
        if self._server is not None:
            self._server.close()
        for connection in list(self._inbound):
            connection.transport.close()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        if self._server is not None:
            await self._server.wait_closed()

    # -- inbound --------------------------------------------------------------

    def _on_peer_frame(self, frame: dict[str, Any]) -> None:
        if frame.get("t") != "msg":
            return
        message = frame_message(frame)
        if (message.sender, self.pid) in self._down:
            # The link was cut while this frame was in flight.
            self._dropped += 1
            return
        self.delivered += 1
        self._deliver(message)

    # -- the Transport contract ----------------------------------------------

    def fresh_uid(self) -> int:
        """Allocate a globally unique physical message id (see __init__)."""
        uid = self._uid_next
        self._uid_next += self._uid_stride
        return uid

    def send(  # noqa: PLR0913 -- the Transport contract has this many fields
        self,
        kind: str,
        sender: str,
        receiver: str,
        payload: Any,
        send_event_uid: int | None = None,
        sender_clock: int | None = None,
    ) -> Message:
        """Write one frame to the receiver's connection (or drop it)."""
        if sender != self.pid:
            raise ValueError(f"{self.pid} cannot send as {sender}")
        if receiver not in self.pids or receiver == self.pid:
            raise KeyError(f"no link {sender}->{receiver}")
        message = Message(
            uid=self.fresh_uid(),
            kind=kind,
            sender=sender,
            receiver=receiver,
            payload=payload,
            send_event_uid=send_event_uid,
            sender_clock=sender_clock,
        )
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1
        writer = self._writers.get(receiver)
        if (
            (sender, receiver) in self._down
            or writer is None
            or writer.is_closing()
        ):
            # Cut link or no connection: the send happens but the frame is
            # lost on the wire (same contract as Network.send).
            self._dropped += 1
            return message
        writer.write(encode_frame(message_frame(message)))
        return message

    def _check_incident(self, src: str, dst: str) -> None:
        if src == dst or src not in self.pids or dst not in self.pids:
            raise KeyError(f"no link {src}->{dst}")
        if self.pid not in (src, dst):
            raise KeyError(
                f"link {src}->{dst} is not incident to node {self.pid}"
            )

    def link_up(self, src: str, dst: str) -> bool:
        """Is the link up, as far as this endpoint knows?"""
        return (src, dst) not in self._down

    def cut_link(self, src: str, dst: str, heal_at: int | None = None) -> None:
        """Mask one directional link incident to this node."""
        self._check_incident(src, dst)
        self._down[(src, dst)] = heal_at

    def heal_link(self, src: str, dst: str) -> bool:
        """Unmask one directional link; returns whether it was down."""
        return self._down.pop((src, dst), "absent") != "absent"

    def cut(
        self, side: Iterable[str], heal_at: int | None = None
    ) -> tuple[tuple[str, str], ...]:
        """Cut every crossing link incident to this node (a node-scoped
        transport has no authority over links between other nodes)."""
        side_set = frozenset(side)
        links = tuple(
            sorted(
                (a, b)
                for a in self.pids
                for b in self.pids
                if a != b
                and self.pid in (a, b)
                and (a in side_set) != (b in side_set)
            )
        )
        for link in links:
            self._down[link] = heal_at
        return links

    def heal_all(self) -> tuple[tuple[str, str], ...]:
        """Unmask every link; returns the links healed, sorted."""
        healed = tuple(sorted(self._down))
        self._down.clear()
        return healed

    def heal_due(self, step_index: int) -> tuple[tuple[str, str], ...]:
        """Unmask links whose scheduled heal tick has arrived."""
        due = tuple(
            sorted(
                link
                for link, heal_at in self._down.items()
                if heal_at is not None and heal_at <= step_index
            )
        )
        for link in due:
            del self._down[link]
        return due

    def down_links(self) -> tuple[tuple[str, str], ...]:
        """Currently masked links, sorted."""
        return tuple(sorted(self._down))

    def total_sent(self) -> int:
        """Messages sent by this node (all kinds, dropped included)."""
        return sum(self.sent_by_kind.values())

    def total_dropped(self) -> int:
        """Frames lost at this endpoint (cut links + dead connections)."""
        return self._dropped

    def flush_all(self) -> int:
        """Nothing to flush: in-flight frames live in the kernel."""
        return 0

    def __repr__(self) -> str:
        return (
            f"SocketTransport({self.pid}, sent={self.total_sent()}, "
            f"delivered={self.delivered}, down={len(self._down)})"
        )


class ClusterNetwork:
    """Cluster-wide Transport facade over the node transports."""

    def __init__(self, transports: dict[str, SocketTransport]):
        self.pids = tuple(sorted(transports))
        self._transports = dict(transports)
        self._down: dict[tuple[str, str], int | None] = {}
        self._uid_next = 0
        self._uid_stride = len(self.pids) + 1
        self._flush_hooks: list[Callable[[], int]] = []

    def transport(self, pid: str) -> SocketTransport:
        """One node's transport endpoint."""
        return self._transports[pid]

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register an inbox-drain callback for :meth:`flush_all`."""
        self._flush_hooks.append(hook)

    # -- the Transport contract ----------------------------------------------

    def fresh_uid(self) -> int:
        """Cluster-level uids: residue 0 mod n+1 (nodes use 1..n)."""
        self._uid_next += self._uid_stride
        return self._uid_next

    def send(  # noqa: PLR0913 -- the Transport contract has this many fields
        self,
        kind: str,
        sender: str,
        receiver: str,
        payload: Any,
        send_event_uid: int | None = None,
        sender_clock: int | None = None,
    ) -> Message:
        """Route the send through the owning node's socket."""
        return self._transports[sender].send(
            kind,
            sender,
            receiver,
            payload,
            send_event_uid=send_event_uid,
            sender_clock=sender_clock,
        )

    def _endpoints(self, src: str, dst: str) -> tuple[SocketTransport, ...]:
        if src == dst or src not in self._transports or dst not in self._transports:
            raise KeyError(f"no link {src}->{dst}")
        return (self._transports[src], self._transports[dst])

    def link_up(self, src: str, dst: str) -> bool:
        """Is the directional link up cluster-wide?"""
        return (src, dst) not in self._down

    def cut_link(self, src: str, dst: str, heal_at: int | None = None) -> None:
        """Cut one directional link at both endpoints."""
        for endpoint in self._endpoints(src, dst):
            endpoint.cut_link(src, dst, heal_at)
        self._down[(src, dst)] = heal_at

    def heal_link(self, src: str, dst: str) -> bool:
        """Heal one directional link at both endpoints."""
        for endpoint in self._endpoints(src, dst):
            endpoint.heal_link(src, dst)
        return self._down.pop((src, dst), "absent") != "absent"

    def cut(
        self, side: Iterable[str], heal_at: int | None = None
    ) -> tuple[tuple[str, str], ...]:
        """Partition fault: cut every crossing link, both directions."""
        side_set = frozenset(side)
        unknown = side_set - set(self.pids)
        if unknown:
            raise ValueError(
                f"unknown pids in partition side: {sorted(unknown)}"
            )
        links = tuple(
            sorted(
                (a, b)
                for a in self.pids
                for b in self.pids
                if a != b and (a in side_set) != (b in side_set)
            )
        )
        for link in links:
            self.cut_link(link[0], link[1], heal_at)
        return links

    def heal_all(self) -> tuple[tuple[str, str], ...]:
        """Heal every cut link; returns them sorted."""
        healed = tuple(sorted(self._down))
        for src, dst in healed:
            self.heal_link(src, dst)
        return healed

    def heal_due(self, step_index: int) -> tuple[tuple[str, str], ...]:
        """Heal every link whose scheduled heal tick has arrived."""
        due = tuple(
            sorted(
                link
                for link, heal_at in self._down.items()
                if heal_at is not None and heal_at <= step_index
            )
        )
        for src, dst in due:
            self.heal_link(src, dst)
        return due

    def down_links(self) -> tuple[tuple[str, str], ...]:
        """Currently cut links, sorted."""
        return tuple(sorted(self._down))

    def total_sent(self) -> int:
        """Messages sent cluster-wide."""
        return sum(t.total_sent() for t in self._transports.values())

    def total_dropped(self) -> int:
        """Frames lost cluster-wide."""
        return sum(t.total_dropped() for t in self._transports.values())

    def flush_all(self) -> int:
        """Drain every registered node inbox (the global-reset hook)."""
        return sum(hook() for hook in self._flush_hooks)

    def __repr__(self) -> str:
        return (
            f"ClusterNetwork(n={len(self.pids)}, sent={self.total_sent()}, "
            f"down={len(self._down)})"
        )
