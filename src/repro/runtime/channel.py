"""FIFO interprocess channels (Environment Spec: Communication Spec).

Communication Spec requires all channels to be FIFO; both RA_ME and
Lamport_ME assume it.  :class:`FifoChannel` preserves enqueue order and
exposes the mutation surface the fault model needs: dropping, duplicating,
and corrupting messages *in place* at any queue position, plus wholesale
replacement (improper initialization of channel contents).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator

from repro.runtime.messages import Message
from repro.runtime.scheduler import DeliverStep


class FifoChannel:
    """An unbounded FIFO queue of messages from ``src`` to ``dst``."""

    def __init__(self, src: str, dst: str):
        self.src = src
        self.dst = dst
        #: The one candidate step this channel ever offers (shared by forks).
        self.deliver_step = DeliverStep(src, dst)
        self._queue: deque[Message] = deque()
        self._shared = False
        self.total_enqueued = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.total_corrupted = 0

    def _own(self) -> None:
        # Copy-on-write: after fork() both sides share one deque until the
        # first mutation on either side.
        if self._shared:
            self._queue = deque(self._queue)
            self._shared = False

    # -- normal operation ---------------------------------------------------

    def enqueue(self, message: Message) -> None:
        """Append a message (must belong to this channel)."""
        if message.channel() != (self.src, self.dst):
            raise ValueError(
                f"message {message!r} does not belong on channel "
                f"{self.src}->{self.dst}"
            )
        self._own()
        self._queue.append(message)
        self.total_enqueued += 1

    def peek(self) -> Message | None:
        """The head message without removing it (None if empty)."""
        return self._queue[0] if self._queue else None

    def dequeue(self) -> Message:
        """Remove and return the head message (FIFO delivery)."""
        if not self._queue:
            raise IndexError(f"channel {self.src}->{self.dst} is empty")
        self._own()
        self.total_delivered += 1
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._queue)

    @property
    def empty(self) -> bool:
        """Is the queue empty?"""
        return not self._queue

    def snapshot(self) -> tuple[Message, ...]:
        """The queue contents, head first (used in global-state snapshots)."""
        return tuple(self._queue)

    def fork(self) -> "FifoChannel":
        """An independent copy of this channel.

        The queue is shared copy-on-write (materialised on the first
        mutation of either copy); the :class:`Message` instances themselves
        are immutable and always shared.
        """
        clone = FifoChannel.__new__(FifoChannel)
        clone.src = self.src
        clone.dst = self.dst
        clone.deliver_step = self.deliver_step
        clone._queue = self._queue
        clone._shared = True
        self._shared = True
        clone.total_enqueued = self.total_enqueued
        clone.total_delivered = self.total_delivered
        clone.total_dropped = self.total_dropped
        clone.total_corrupted = self.total_corrupted
        return clone

    # -- fault surface ------------------------------------------------------

    def drop_at(self, index: int) -> Message:
        """Fault: lose the message at queue position ``index``."""
        msg = self._queue[index]
        self._own()
        del self._queue[index]
        self.total_dropped += 1
        return msg

    def duplicate_at(self, index: int, new_uid: int) -> Message:
        """Fault: duplicate the message at ``index`` (copy inserted right
        behind the original, preserving FIFO of the two copies)."""
        dup = self._queue[index].duplicated(new_uid)
        self._own()
        self._queue.insert(index + 1, dup)
        return dup

    def corrupt_at(
        self, index: int, mutate: Callable[[Message], Message]
    ) -> Message:
        """Fault: replace the message at ``index`` with ``mutate(msg)``.

        The mutated copy must stay on this channel (same sender/receiver) --
        corruption rewrites content, not topology.
        """
        corrupted = mutate(self._queue[index])
        if corrupted.channel() != (self.src, self.dst):
            raise ValueError("corruption must not move a message across channels")
        self._own()
        self._queue[index] = corrupted
        self.total_corrupted += 1
        return corrupted

    def replace_contents(self, messages: Iterable[Message]) -> None:
        """Fault: improper initialization -- set the queue arbitrarily."""
        messages = list(messages)
        for m in messages:
            if m.channel() != (self.src, self.dst):
                raise ValueError(f"{m!r} does not belong on {self.src}->{self.dst}")
        self._queue = deque(messages)
        self._shared = False

    def clear(self) -> int:
        """Fault: lose everything in flight; returns the number lost."""
        n = len(self._queue)
        self._queue = deque()
        self._shared = False
        self.total_dropped += n
        return n

    def __repr__(self) -> str:
        return f"FifoChannel({self.src}->{self.dst}, depth={len(self._queue)})"
