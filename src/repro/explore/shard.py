"""Durable shard journals and stores for sharded exploration.

The sharded engine (:mod:`repro.explore.parallel`) hash-partitions the
canonical state space across worker processes by wire digest
(:func:`repro.explore.wire.shard_of`).  This module owns everything a
shard keeps *outside* the worker's message loop:

* :class:`ShardLog` -- an append-only journal of framed records
  (:func:`repro.explore.wire.pack_record`).  Each shard journals the
  states it admits: an ``ADMIT`` record carries ``digest || canonical
  blob`` with the state's global BFS rank in ``aux``, directly followed
  by a ``MEMBER`` record holding the first-seen orbit member's blob
  whenever symmetry rewriting made it differ from the canonical
  representative (exploration *expands* the member -- the successor
  function is not equivariant under pid renaming, so the canonical
  representative may behave differently from any state the system
  actually reaches).  After every shard has flushed a level's admits,
  the coordinator appends a ``COMMIT`` record for that level to its own
  journal.  Under ``kill -9`` the OS page cache survives the process,
  so "durable" means "accepted by the kernel" -- there is deliberately
  no fsync on the hot path (the model is process death, not power
  loss).

* :class:`ShardStore` -- one shard's visited set in RAM: the 16-byte
  wire digests plus (only when the shard has no journal) the canonical
  blob payloads.  With a journal, the ``ADMIT`` records *are* the blob
  storage and the store is out-of-core -- nothing re-reads them during
  the run.

* streaming replay -- :func:`last_committed_level` and
  :func:`replay_admits`.  Expansions are deterministic from the
  durable member blobs, so journals never record them: resume replays
  the admits of every *committed* level (records above the last
  committed level belong to a partially-admitted level and are
  discarded -- the resumed run re-derives them bit-identically) and
  simply re-expands the final committed level as its frontier.

* :class:`WireVisitedView` -- the :class:`~repro.explore.engine.
  Exploration`-facing visited set over collected canonical wire blobs
  (in RAM) or over the journals themselves (spilled shards ship only
  16-byte digests back to the coordinator), decoding states lazily
  when a caller actually iterates ``visited``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from repro.explore.wire import (
    DIGEST_SIZE,
    HEADER_SIZE,
    REC_ADMIT,
    REC_COMMIT,
    REC_MEMBER,
    WireCodec,
    content_digest,
    pack_record,
    unpack_header,
    wire_digest,
)

#: ``meta.json`` format stamp for run directories.
META_FORMAT = 2

COORDINATOR_LOG = "coordinator.log"


def shard_log_name(shard: int) -> str:
    return f"shard-{shard:04d}.log"


# -- run directory metadata -----------------------------------------------


def prepare_run_dir(store_dir: str, signature: str) -> None:
    """Create ``store_dir`` (if needed) and pin its space signature.

    A run directory is only meaningful for one exploration *problem*
    (space, symmetry, depth bound): replaying journals from a different
    problem would silently merge unrelated state sets, so the signature
    is written on first use and verified ever after.
    """
    os.makedirs(store_dir, exist_ok=True)
    meta_path = os.path.join(store_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format") != META_FORMAT:
            raise ValueError(
                f"{meta_path}: unsupported checkpoint format "
                f"{meta.get('format')!r}"
            )
        if meta.get("signature") != signature:
            raise ValueError(
                f"{meta_path}: checkpoint belongs to a different "
                f"exploration ({meta.get('signature')!r}, this run is "
                f"{signature!r}); use a fresh --store-dir"
            )
        return
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"format": META_FORMAT, "signature": signature}, fh)
        fh.write("\n")


def run_dir_logs(store_dir: str) -> list[str]:
    """Every journal in a run directory (coordinator first, then shards
    in name order -- a deterministic replay order)."""
    names = sorted(
        name
        for name in os.listdir(store_dir)
        if name.endswith(".log") and name != COORDINATOR_LOG
    )
    paths = []
    coord = os.path.join(store_dir, COORDINATOR_LOG)
    if os.path.exists(coord):
        paths.append(coord)
    paths.extend(os.path.join(store_dir, name) for name in names)
    return paths


# -- the append-only journal ----------------------------------------------


class ShardLog:
    """Append-only framed journal with buffered, unbuffered-on-flush IO.

    ``append`` only extends an in-process buffer; :meth:`flush` hands
    the buffer to ``os.write`` in one call.  Shards flush their level's
    ``ADMIT`` records before acknowledging the level to the
    coordinator, so a durable ``COMMIT`` implies every shard's admits
    for that level are durable too.
    """

    __slots__ = ("path", "_fd", "_buf", "bytes_written")

    def __init__(self, path: str):
        self.path = path
        self._fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._buf = bytearray()
        self.bytes_written = 0

    def append(self, tag: int, depth: int, aux: int, payload: bytes) -> None:
        self._buf += pack_record(tag, depth, aux, payload)

    def flush(self) -> None:
        if self._buf:
            os.write(self._fd, self._buf)
            self.bytes_written += len(self._buf)
            self._buf.clear()

    def close(self) -> None:
        self.flush()
        os.close(self._fd)


def iter_log_records(
    path: str, chunk_size: int = 1 << 20
) -> Iterator[tuple[int, int, int, bytes]]:
    """Stream ``(tag, depth, aux, payload)`` records from one journal.

    Constant memory in the journal size; a torn tail (header or payload
    cut short by a crash) ends iteration silently -- the coordinator
    never commits a level before its records are durable, so a
    truncated record only ever belongs to an uncommitted level that
    replay discards anyway.
    """
    with open(path, "rb") as fh:
        buf = b""
        while True:
            data = fh.read(chunk_size)
            if not data:
                return
            buf += data
            consumed = 0
            limit = len(buf)
            while limit - consumed >= HEADER_SIZE:
                tag, depth, aux, length = unpack_header(buf, consumed)
                start = consumed + HEADER_SIZE
                if limit - start < length:
                    break
                yield tag, depth, aux, buf[start : start + length]
                consumed = start + length
            buf = buf[consumed:]


def valid_prefix_len(path: str, chunk_size: int = 1 << 20) -> int:
    """Byte length of the longest whole-record prefix of a journal: the
    frames of exactly the records :func:`iter_log_records` yields.

    Appending a new run's records after a torn tail would misalign the
    framing for every later replay, so the coordinator truncates each
    journal to this length before any worker reopens it for append.
    """
    return sum(
        HEADER_SIZE + len(payload)
        for _tag, _depth, _aux, payload in iter_log_records(path, chunk_size)
    )


# -- streaming replay ------------------------------------------------------


def last_committed_level(store_dir: str) -> int:
    """The highest level the coordinator durably committed (-1: none).

    Levels are committed in order, so every level up to this one is
    fully admitted on every shard; admits above it belong to a level
    that was mid-admission when the run died and are discarded by
    :func:`replay_admits` (the resumed run re-derives them
    bit-identically by re-expanding the committed frontier).
    """
    path = os.path.join(store_dir, COORDINATOR_LOG)
    if not os.path.exists(path):
        return -1
    level = -1
    for tag, depth, _aux, _payload in iter_log_records(path):
        if tag == REC_COMMIT and depth > level:
            level = depth
    return level


def replay_admits(
    paths: Iterable[str], max_level: int
) -> Iterator[tuple[bytes, int, int, bytes, bytes | None]]:
    """Stream every committed admit once, with its first-seen member.

    Yields ``(digest, rank, depth, canonical_blob, member_blob)`` for
    each distinct digest admitted at ``depth <= max_level`` --
    ``member_blob`` is ``None`` when the first-seen member *is* the
    canonical representative.  A digest can appear in several journals
    (a partially-admitted level re-admitted by a resumed run carries
    identical records); the first sighting wins, and later duplicates
    are bit-identical by construction.
    """
    seen: set[bytes] = set()
    for path in paths:
        pending: tuple[bytes, int, int, bytes] | None = None
        for tag, depth, aux, payload in iter_log_records(path):
            if (
                tag == REC_MEMBER
                and pending is not None
                and pending[2] == depth
                and pending[1] == aux
            ):
                digest, rank, at, cblob = pending
                pending = None
                yield digest, rank, at, cblob, payload
                continue
            if pending is not None:
                yield pending + (None,)
                pending = None
            if tag != REC_ADMIT or depth > max_level:
                continue
            digest = payload[:DIGEST_SIZE]
            if digest in seen:
                continue
            seen.add(digest)
            pending = (digest, aux, depth, payload[DIGEST_SIZE:])
        if pending is not None:
            yield pending + (None,)


# -- one shard's visited set ----------------------------------------------


class ShardStore:
    """One shard's visited set: digests in RAM, blobs durable or in RAM.

    The worker loop drives all policy (winner selection, admission
    order, journalling); this class only owns the index structures:
    the 16-byte digest set (dedup and the XOR content-digest
    accumulator) plus the canonical blob payloads, kept only when the
    shard has no journal -- with one, ADMIT records hold them and RAM
    keeps ~16 B/state.
    """

    __slots__ = ("digests", "blobs", "payload_bytes", "xor")

    def __init__(self, keep_blobs: bool):
        self.digests: set[bytes] = set()
        self.blobs: list[bytes] | None = [] if keep_blobs else None
        self.payload_bytes = 0
        self.xor = 0

    def __len__(self) -> int:
        return len(self.digests)

    def __contains__(self, wire_key: tuple[bytes, bytes]) -> bool:
        return wire_key[1] in self.digests

    def admit(self, digest: bytes, blob: bytes) -> None:
        self.digests.add(digest)
        if self.blobs is not None:
            self.blobs.append(blob)
        self.payload_bytes += len(blob)
        self.xor ^= int.from_bytes(digest, "little")

    def add(self, wire_key: tuple[bytes, bytes]) -> tuple[int, bool]:
        """Admit ``(canonical blob, digest)`` unless already present:
        ``(rank, fresh)``.  With :meth:`__contains__`, ``len`` and
        :attr:`bytes_per_state` this is the visited-store interface of
        :func:`repro.explore.engine.search` (the warm start runs it over
        this store, so ``blobs[rank]`` is the state admitted ``rank``-th).
        """
        blob, digest = wire_key
        if digest in self.digests:
            return -1, False
        self.admit(digest, blob)
        return len(self.digests) - 1, True

    @property
    def bytes_per_state(self) -> float:
        """Mean wire payload bytes per admitted state."""
        if not self.digests:
            return 0.0
        return self.payload_bytes / len(self.digests)

    def digests_blob(self) -> bytes:
        """All admitted digests, concatenated (collection message for
        spilled shards -- 16 bytes per state instead of the payload)."""
        return b"".join(self.digests)


# -- the Exploration-facing visited view ----------------------------------


class WireVisitedView:
    """The merged visited set of a sharded run, as an Exploration store.

    Holds the 16-byte digests of every visited state plus either the
    canonical wire blobs themselves (in-RAM shards) or the journal
    paths to stream them from (spilled shards).  Keys decode lazily to
    the canonical representatives -- the same states a serial
    symmetry-reduced exploration stores -- and membership re-encodes
    the probe without materialising anything.
    """

    __slots__ = ("_digests", "_blobs", "_log_paths", "_payload_bytes", "_xor")

    def __init__(
        self,
        digests: set[bytes],
        blobs: list[bytes] | None,
        log_paths: list[str] | None,
        payload_bytes: int,
        xor: int,
    ):
        if (blobs is None) == (log_paths is None):
            raise ValueError("pass exactly one of blobs= or log_paths=")
        self._digests = digests
        self._blobs = blobs
        self._log_paths = log_paths
        self._payload_bytes = payload_bytes
        self._xor = xor

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, key: Hashable) -> bool:
        return wire_digest(WireCodec().encode(key)) in self._digests

    def keys(self) -> Iterator[Hashable]:
        codec = WireCodec()
        if self._blobs is not None:
            for blob in self._blobs:
                yield codec.decode(blob)
            return
        # Spilled: stream the journals.  ADMIT payloads carry the
        # canonical encoding after the digest; decode the first
        # sighting of each visited digest and skip the rest.
        remaining = set(self._digests)
        for path in self._log_paths:
            if not remaining:
                return
            for tag, _depth, _aux, payload in iter_log_records(path):
                if tag != REC_ADMIT:
                    continue
                digest = payload[:DIGEST_SIZE]
                if digest in remaining:
                    remaining.discard(digest)
                    yield codec.decode(payload[DIGEST_SIZE:])

    @property
    def bytes_per_state(self) -> float:
        """Mean wire payload bytes per visited state (the durable
        encoding -- not the per-process interned packed form serial
        runs report)."""
        if not self._digests:
            return 0.0
        return self._payload_bytes / len(self._digests)

    def content_digest(self) -> str:
        return content_digest(self._xor, len(self._digests))

    def into_exploration(self, stats: Any):
        from repro.explore.engine import Exploration

        return Exploration(store=self, stats=stats)
