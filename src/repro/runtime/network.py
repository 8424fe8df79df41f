"""The network: one FIFO channel per ordered process pair.

The TME system model assumes processes are connected; we use a complete
graph of directional FIFO channels.  The network also owns message-uid
allocation (so duplicates and corruptions get fresh physical identities) and
aggregate message accounting used by the overhead experiments.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.runtime.channel import FifoChannel
from repro.runtime.messages import Message


class Network:
    """All channels among a fixed set of process ids.

    This is the simulator's implementation of the
    :class:`~repro.runtime.transport.ChannelTransport` contract (and
    thereby of the medium-independent
    :class:`~repro.runtime.transport.Transport` send/deliver contract the
    live socket transport shares -- see :mod:`repro.service.transport`).
    """

    def __init__(self, pids: Iterable[str]):
        self.pids = tuple(sorted(pids))
        if len(self.pids) != len(set(self.pids)):
            raise ValueError("duplicate process ids")
        self._channels: dict[tuple[str, str], FifoChannel] = {
            (a, b): FifoChannel(a, b)
            for a in self.pids
            for b in self.pids
            if a != b
        }
        self._next_uid = 0
        self.sent_by_kind: dict[str, int] = {}
        # Link masks: a link present in _down is cut.  The value is the
        # simulator step index at which it heals automatically (None = stays
        # down until heal_link/heal_all).
        self._down: dict[tuple[str, str], int | None] = {}

    # -- identity allocation --------------------------------------------------

    def fresh_uid(self) -> int:
        """Allocate a unique physical message id."""
        self._next_uid += 1
        return self._next_uid

    # -- sending / delivery ---------------------------------------------------

    def channel(self, src: str, dst: str) -> FifoChannel:
        """The directional channel from ``src`` to ``dst``."""
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise KeyError(f"no channel {src}->{dst}") from None

    def channels(self) -> Iterator[FifoChannel]:
        """Iterate over every channel."""
        return iter(self._channels.values())

    def nonempty_channels(self) -> list[FifoChannel]:
        """Channels currently carrying at least one message."""
        return [c for c in self._channels.values() if not c.empty]

    def deliverable_channels(self) -> list[FifoChannel]:
        """Nonempty channels whose link is up (same order as
        :meth:`nonempty_channels`, so schedules stay comparable)."""
        # The simulator asks this before every step: read the queues
        # directly, and look links up only while some link is cut.
        nonempty = [c for c in self._channels.values() if c._queue]
        down = self._down
        if not down:
            return nonempty
        return [c for c in nonempty if (c.src, c.dst) not in down]

    # -- link masks (partitions) ----------------------------------------------

    def link_up(self, src: str, dst: str) -> bool:
        """Is the directional link ``src -> dst`` currently up?"""
        return (src, dst) not in self._down

    def cut_link(
        self, src: str, dst: str, heal_at: int | None = None
    ) -> None:
        """Cut one directional link.  Queued messages stay queued (they are
        in flight on the far side of the cut) but become undeliverable, and
        new sends over the link are dropped, until the link heals."""
        if (src, dst) not in self._channels:
            raise KeyError(f"no channel {src}->{dst}")
        self._down[(src, dst)] = heal_at

    def heal_link(self, src: str, dst: str) -> bool:
        """Heal one directional link; returns whether it was down."""
        return self._down.pop((src, dst), "absent") != "absent"

    def cut(
        self, side: Iterable[str], heal_at: int | None = None
    ) -> tuple[tuple[str, str], ...]:
        """Partition fault: cut every link crossing between ``side`` and its
        complement (both directions).  Returns the links cut, sorted."""
        side_set = frozenset(side)
        unknown = side_set - set(self.pids)
        if unknown:
            raise ValueError(f"unknown pids in partition side: {sorted(unknown)}")
        links = tuple(
            sorted(
                (a, b)
                for (a, b) in self._channels
                if (a in side_set) != (b in side_set)
            )
        )
        for link in links:
            self._down[link] = heal_at
        return links

    def heal_all(self) -> tuple[tuple[str, str], ...]:
        """Heal fault: bring every cut link back up; returns them sorted."""
        healed = tuple(sorted(self._down))
        self._down.clear()
        return healed

    def heal_due(self, step_index: int) -> tuple[tuple[str, str], ...]:
        """Heal every link whose scheduled heal time has arrived."""
        if not self._down:
            return ()
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
        """Currently cut links, sorted (used in global-state snapshots)."""
        return tuple(sorted(self._down))

    def send(  # noqa: PLR0913 -- a message has this many fields
        self,
        kind: str,
        sender: str,
        receiver: str,
        payload: Any,
        send_event_uid: int | None = None,
        sender_clock: int | None = None,
    ) -> Message:
        msg = Message(
            uid=self.fresh_uid(),
            kind=kind,
            sender=sender,
            receiver=receiver,
            payload=payload,
            send_event_uid=send_event_uid,
            sender_clock=sender_clock,
        )
        channel = self.channel(sender, receiver)
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1
        if (sender, receiver) in self._down:
            # The link is cut: the send happens (it counts as sent) but the
            # message is lost on the wire.
            channel.total_dropped += 1
            return msg
        channel.enqueue(msg)
        return msg

    def in_flight(self) -> int:
        """Total messages queued across all channels."""
        return sum(len(c) for c in self._channels.values())

    def flush_all(self) -> int:
        """Fault helper: drop every in-flight message everywhere."""
        return sum(c.clear() for c in self._channels.values())

    def fork(self) -> "Network":
        """An independent copy: channel queues are copied, the immutable
        :class:`Message` instances are shared, and uid allocation continues
        from the same point so forked runs never reuse a live uid."""
        clone = Network.__new__(Network)
        clone.pids = self.pids
        clone._channels = {
            pair: chan.fork() for pair, chan in self._channels.items()
        }
        clone._next_uid = self._next_uid
        clone.sent_by_kind = dict(self.sent_by_kind)
        clone._down = dict(self._down)
        return clone

    def fork_channels(
        self, pairs: Iterable[tuple[str, str]]
    ) -> "Network":
        """A clone for single-step branching: only the channels named in
        ``pairs`` get independent (copy-on-write) forks; every other
        channel *object* is shared with the parent and must not be mutated
        through the clone.  Use :meth:`fork` for a general-purpose copy.
        """
        clone = Network.__new__(Network)
        clone.pids = self.pids
        channels = dict(self._channels)
        for pair in pairs:
            channels[pair] = channels[pair].fork()
        clone._channels = channels
        clone._next_uid = self._next_uid
        clone.sent_by_kind = dict(self.sent_by_kind)
        clone._down = dict(self._down)
        return clone

    def snapshot(self) -> tuple[tuple[tuple[str, str], tuple[Message, ...]], ...]:
        """Hashable global channel snapshot (sorted by channel id)."""
        return tuple(
            (pair, chan.snapshot())
            for pair, chan in sorted(self._channels.items())
        )

    def total_sent(self) -> int:
        """Messages sent since construction (all kinds)."""
        return sum(self.sent_by_kind.values())

    def total_dropped(self) -> int:
        """Messages lost so far, across all channels (faults + cut links)."""
        return sum(c.total_dropped for c in self._channels.values())

    def total_corrupted(self) -> int:
        """Messages corrupted in place so far, across all channels."""
        return sum(c.total_corrupted for c in self._channels.values())

    def __repr__(self) -> str:
        return (
            f"Network(n={len(self.pids)}, in_flight={self.in_flight()}, "
            f"sent={self.total_sent()})"
        )
