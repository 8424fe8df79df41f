"""The out-of-core, kill-safe visited set of a checkpointed exploration.

``explore(space, store_dir=...)`` runs the one frontier loop
(:func:`repro.explore.engine.search`) over the two objects this module
builds (:func:`open_checkpoint`): :class:`WireKeys`, which renders the
space's dedup key as a self-contained wire blob plus its 128-bit digest,
and :class:`ShardStore`, which keeps only the digests in RAM (~16
B/state) and appends every state it admits to **one** journal in the run
directory:

* ``ADMIT`` -- ``digest || canonical blob``, at the state's BFS depth,
  with its admission rank in ``aux``;
* ``MEMBER`` -- directly after its ``ADMIT``, the first-seen orbit
  member's blob whenever symmetry rewriting made it differ from the
  canonical representative (exploration *expands* the member -- the
  successor function is not equivariant under pid renaming, so the
  canonical representative may behave differently from any state the
  system actually reaches);
* ``COMMIT`` -- appended when the loop reports a BFS level edge: every
  state of that level precedes it in the file.

The file is append-only, so "a level's admits are durable before its
commit" is just append order.  Expansions are deterministic from the
member blobs and never journalled: ``resume=True`` cuts the journal back
to the end of its last ``COMMIT`` (a torn tail, everything behind a frame
that fails its checksum, or the admits of a level a kill or a
``max_states`` cut left partial, go), replays the committed levels into
the digest set, and hands the last committed level back to the loop as
its frontier, which re-derives everything after it bit for bit -- a
flipped bit costs the levels behind it and never changes a digest.

The frame, the log, the valid-prefix replay and the run directory's
stamped ``meta.json`` are :mod:`repro.durable`'s; this module owns what
the records mean.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Hashable, Iterator
from dataclasses import replace
from typing import Any

from repro.durable import (
    AppendLog,
    NoMeta,
    iter_records,
    prefix_len,
    verify_meta,
    write_meta,
)
from repro.explore.engine import Exploration, ExplorationStats, NodeKeys
from repro.explore.spaces import StateSpace
from repro.explore.wire import (
    DIGEST_SIZE,
    REC_ADMIT,
    REC_COMMIT,
    REC_MEMBER,
    WireCodec,
    content_digest,
    wire_digest,
)

#: ``meta.json`` format of exploration run directories (4: checksummed
#: frames, stamped meta; a directory of any other format is refused).
META_FORMAT = 4

JOURNAL_NAME = "explore.log"

#: Packed-key -> digest memo bound (see :class:`WireKeys`).
_MEMO_MAX = 1 << 18


def _space_signature(space: StateSpace, max_depth: int | None) -> str:
    """A cheap fingerprint of the exploration *problem* -- pins a run
    directory to one space configuration and depth bound."""
    wire = WireCodec()
    xor = 0
    count = 0
    for root in space.roots():
        digest = wire_digest(wire.encode(space.key(root)))
        xor ^= int.from_bytes(digest, "little")
        count += 1
    group = len(getattr(space, "symmetry_group", ()) or ())
    return (
        f"{type(space).__name__}|roots={count}:{xor:032x}"
        f"|sym={group}|depth={max_depth}"
    )


# -- dedup keys for the wire, and the journalled visited set --------------


class WireKeys(NodeKeys):
    """:class:`~repro.explore.engine.NodeKeys` rendered for the journal.

    ``of(node) -> ((canonical wire blob, digest, member), rewritten)``:
    the space's dedup key in the self-contained encoding, with the
    128-bit digest the store deduplicates by; ``member`` is ``node`` when
    canonicalization rewrote its key -- the store journals
    :attr:`member_blob` of it beside a fresh admit -- and ``None``
    otherwise.

    Where the space's keys pack (``codec``), a bounded memo maps the
    packed dedup key to its digest, so duplicate successors -- the
    majority of examined edges -- cost one dict hit instead of a wire
    encode, and the blob of such a hit is ``None``: the loop admits every
    key it examines (or stops at it), so a key seen before is already in
    the store and only a first sighting needs its blob.
    """

    __slots__ = ("wire", "member_blob")

    def __init__(self, space: StateSpace):
        super().__init__(space, getattr(space, "codec", None))
        self.wire = wire = WireCodec()
        dedup_key_of, decode, key = self.of, self.decode, space.key
        memo: dict[bytes, bytes] = {}

        def of_key(node: Any):
            blob = wire.encode(dedup_key_of(node)[0])
            return (blob, wire_digest(blob), None), False

        def of_packed(node: Any):
            packed, rewritten = dedup_key_of(node)
            member = node if rewritten else None
            digest = memo.get(packed)
            if digest is not None:
                return (None, digest, member), rewritten
            if len(memo) >= _MEMO_MAX:
                memo.clear()
            blob = wire.encode(decode(packed) if rewritten else key(node))
            digest = memo[packed] = wire_digest(blob)
            return (blob, digest, member), rewritten

        self.of = of_packed if self.blobs else of_key
        self.blobs = False  # a wire key is no interned blob: ``add`` it
        self.decode = lambda wire_key: wire.decode(wire_key[0])
        self.member_blob = lambda node: wire.encode(key(node))


class ShardStore:
    """A journalled visited set: digests in RAM, states on disk.

    The visited-store interface of :func:`repro.explore.engine.search`
    (``add``, ``in``, ``len``, ``bytes_per_state``, ``commit_level``)
    over :class:`WireKeys` keys.  ``add`` appends the fresh state's
    ``ADMIT`` (and ``MEMBER``) record; nothing re-reads the journal
    during the run, and RAM keeps the 16-byte digests (dedup, and the
    XOR accumulator of the content digest).  A state admitted after
    level ``L``'s commit is at depth ``L + 1`` -- the loop is a BFS.
    """

    __slots__ = (
        "path",
        "digests",
        "payload_bytes",
        "xor",
        "committed",
        "frontier",
        "resumed_states",
        "_member_blob",
        "_log",
    )

    def __init__(
        self, path: str, member_blob: Callable[[Any], bytes], resume: bool
    ):
        self.path = path
        self.digests: set[bytes] = set()
        self.payload_bytes = 0
        self.xor = 0
        #: the deepest committed level (-1: none)
        self.committed = -1
        #: member blobs of level :attr:`committed` as replayed, in rank
        #: order: what a resumed loop expands first
        self.frontier: list[bytes] = []
        self._member_blob = member_blob
        # Cut to the committed prefix (a fresh run: to nothing) before
        # any append or replay: nothing behind a bad frame is read again,
        # and a partial level would be admitted twice.
        self._log = AppendLog(
            path, prefix_len(path, REC_COMMIT) if resume else 0
        )
        if resume:
            self._replay()
        #: states replayed from the journal
        self.resumed_states = len(self.digests)

    def _replay(self) -> None:
        """Admit every journalled state; the journal ends at a commit."""
        level: list[bytes] = []
        for tag, depth, _rank, payload in iter_records(self.path):
            if tag == REC_ADMIT and depth == self.committed + 1:
                self._admit(payload[:DIGEST_SIZE], len(payload) - DIGEST_SIZE)
                level.append(payload[DIGEST_SIZE:])
            elif tag == REC_MEMBER and level:
                level[-1] = payload
            elif (
                tag == REC_COMMIT
                and depth == self.committed + 1
                and int.from_bytes(payload, "little") == len(level)
            ):
                self.committed = depth
                self.frontier, level = level, []
            else:
                raise ValueError(
                    f"{self.path}: not an exploration journal (record "
                    f"{chr(tag)!r} at depth {depth} after committed "
                    f"level {self.committed})"
                )

    def _admit(self, digest: bytes, blob_len: int) -> None:
        self.digests.add(digest)
        self.payload_bytes += blob_len
        self.xor ^= int.from_bytes(digest, "little")

    def __len__(self) -> int:
        return len(self.digests)

    def __contains__(self, wire_key: tuple) -> bool:
        return wire_key[1] in self.digests

    def add(self, wire_key: tuple) -> tuple[int, bool]:
        """Admit ``(canonical blob, digest, member)`` unless already
        present: ``(rank, fresh)``, the rank being the admission index."""
        blob, digest, member = wire_key
        if digest in self.digests:
            return -1, False
        rank = len(self.digests)
        self._admit(digest, len(blob))
        depth = self.committed + 1
        self._log.append(REC_ADMIT, depth, rank, digest + blob)
        if member is not None:
            self._log.append(
                REC_MEMBER, depth, rank, self._member_blob(member)
            )
        return rank, True

    def commit_level(self, depth: int, size: int) -> None:
        """Level ``depth`` is fully admitted (``size`` states): append
        its ``COMMIT`` behind them and hand the lot to the kernel.  A
        level a resume replayed as committed is not committed again."""
        if depth > self.committed:
            self.committed = depth
            self._log.append(REC_COMMIT, depth, 0, size.to_bytes(8, "little"))
            self._log.flush()

    @property
    def bytes_per_state(self) -> float:
        """Mean wire payload bytes per admitted state (the durable
        encoding -- not the per-process interned packed form in-memory
        runs report)."""
        if not self.digests:
            return 0.0
        return self.payload_bytes / len(self.digests)

    def close(self) -> None:
        """Flush the uncommitted tail (a truncated run's partial level is
        part of its result) and close the journal."""
        self._log.close()

    def into_exploration(self, stats: ExplorationStats) -> Exploration:
        """The finished (closed) run as an :class:`Exploration` over the
        journal, its stats completed with the checkpoint counters."""
        stats = replace(
            stats,
            reexpansions=min(stats.expansions, len(self.frontier)),
            spill_bytes=self._log.bytes_written,
            resumed_states=self.resumed_states,
            journal_kept_bytes=self._log.kept,
            journal_discarded_bytes=self._log.discarded,
        )
        return Exploration(store=WireVisitedView(self), stats=stats)


class WireVisitedView:
    """The visited set of a finished journalled run, as an Exploration
    store: the 16-byte digests plus the journal to stream the states
    from.  Keys decode lazily to the canonical representatives -- the
    same states an in-memory symmetry-reduced exploration stores -- and
    membership re-encodes the probe without materialising anything.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ShardStore):
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return wire_digest(WireCodec().encode(key)) in self._store.digests

    def keys(self) -> Iterator[Hashable]:
        """Decode every journalled state (each was admitted once)."""
        decode = WireCodec().decode
        for tag, _depth, _rank, payload in iter_records(self._store.path):
            if tag == REC_ADMIT:
                yield decode(payload[DIGEST_SIZE:])

    def content_digest(self) -> str:
        return content_digest(self._store.xor, len(self._store))


def open_checkpoint(
    space: StateSpace, store_dir: str, max_depth: int | None, resume: bool
) -> tuple[WireKeys, ShardStore, Iterator[tuple[Any, int]] | None]:
    """``(keys, visited, frontier)`` for :func:`~repro.explore.engine.
    search` over the run directory ``store_dir``.

    ``frontier`` is ``None`` for a run that starts at the roots (fresh,
    or ``resume`` found no committed level); otherwise the last committed
    level's first-seen members, rebuilt from their journalled keys
    through the space's ``node_of_key`` hook (a space without one has
    nodes that are their keys).
    """
    keys = WireKeys(space)
    journal = os.path.join(store_dir, JOURNAL_NAME)
    identity = {
        "kind": "exploration-journal",
        "signature": _space_signature(space, max_depth),
    }
    try:
        verify_meta(store_dir, META_FORMAT, identity)
    except NoMeta as exc:
        # A kill before the first meta write leaves an empty directory;
        # records beside no meta cannot be attributed to any exploration.
        if any(iter_records(journal)):
            raise ValueError(
                f"{exc} -- yet a journal sits beside it; use a fresh "
                "--store-dir"
            ) from None
        write_meta(store_dir, META_FORMAT, identity)
    store = ShardStore(journal, keys.member_blob, resume)
    if store.committed < 0:
        return keys, store, None
    node_of = getattr(space, "node_of_key", None) or (lambda key: key)
    decode = keys.wire.decode
    return (
        keys,
        store,
        ((node_of(decode(blob)), store.committed) for blob in store.frontier),
    )
