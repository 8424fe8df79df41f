"""Self-contained wire encoding for exploration dedup keys.

The interned blobs of :mod:`repro.explore.store` are the *fastest*
representation of a state -- but their tokens index per-process interner
tables, so a blob means nothing to another process or another run and is
unusable on disk.  Two things need the opposite trade-off:

* **durability** -- a checkpointed exploration
  (:mod:`repro.explore.shard`) journals every admitted state (canonical
  blob plus, when it differs, the first-seen member blob that
  exploration actually expands) to an append-only log a later run
  replays, deduplicating by digest across runs;
* **the content digest** -- :meth:`repro.explore.engine.Exploration.
  content_digest` must come out the same for the same visited set in any
  process on any run, however the set was stored.

:class:`WireCodec` therefore packs a dedup key into a *self-contained*,
deterministic byte string: strings are inlined, frozensets are written
in :func:`~repro.explore.store.order_key` order (frozenset iteration
order varies with hash randomization), and the branch tags are the
codec's own tag table, so two equal keys encode identically in any
process on any run.  :func:`wire_digest` is the 128-bit BLAKE2b digest
of that encoding -- the journalled store's dedup index key and the
per-state contribution to a run's order-independent content digest.

The module also names the exploration journal's record tags.  The frame
they travel in, its checksum and the torn-tail-tolerant replay belong to
:mod:`repro.durable`, which the durable campaign journal
(:mod:`repro.campaign.journal`) appends through as well; tags are
coordinated across the two -- exploration owns ``A``/``M``/``C`` below,
campaigns own ``L``/``R``/``Q`` -- so a journal misfiled into the wrong
reader fails loudly instead of parsing.
"""

from __future__ import annotations

import pickle
import struct
from hashlib import blake2b
from typing import Any

from repro.clocks.timestamps import Timestamp
from repro.explore.store import (
    TAG_FSET,
    TAG_INT,
    TAG_NONE,
    TAG_OTHER,
    TAG_STR,
    TAG_TRUE,
    TAG_TS,
    TAG_TUPLE,
    order_key,
)
from repro.explore.store import TAG_FALSE as _TAG_FALSE
from repro.runtime.trace import GlobalState

#: Wire-only tags, continuing the codec tag table.
TAG_GSTATE = 9  #: a :class:`~repro.runtime.trace.GlobalState`
TAG_BIGINT = 10  #: an int outside the signed-64-bit range

_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: Bytes of a :func:`wire_digest` (128-bit: collisions are negligible at
#: any reachable state count, so digests stand in for full blobs in the
#: in-RAM dedup index of the journalled store).
DIGEST_SIZE = 16


class WireCodec:
    """Deterministic self-contained encoding of hashable dedup keys.

    Unlike :class:`~repro.explore.store.StateCodec` there is no shared
    interner: the encoding of a value is a pure function of the value.
    Repeated subtrees (per-process variable tuples, channel contents,
    timestamps) are still cheap because their encodings are memoized by
    value -- snapshots reuse a small set of distinct subtrees, so most
    of an encode is dict hits.

    The ``TAG_OTHER`` fallback pickles the value; pickle output is
    stable for the value shapes this repository stores, but exotic key
    types that pickle nondeterministically would break cross-run digest
    stability -- every type snapshots actually contain has a dedicated
    branch above the fallback.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[Any, bytes] = {}

    # -- encoding ---------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        """The canonical wire bytes of ``value``."""
        out = bytearray()
        self._write(value, out)
        return bytes(out)

    def _write(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(TAG_NONE)
        elif value is True:
            out.append(TAG_TRUE)
        elif value is False:
            out.append(_TAG_FALSE)
        elif type(value) is int:
            if _I64_MIN <= value <= _I64_MAX:
                out.append(TAG_INT)
                out += _I64.pack(value)
            else:
                raw = value.to_bytes(
                    (value.bit_length() + 8) // 8, "little", signed=True
                )
                out.append(TAG_BIGINT)
                out += _U32.pack(len(raw))
                out += raw
        elif type(value) is str:
            raw = value.encode()
            out.append(TAG_STR)
            out += _U32.pack(len(raw))
            out += raw
        elif isinstance(value, GlobalState):
            # Deliberately unmemoized, and so are its two top-level
            # tuples: snapshots are almost all distinct and each is
            # encoded once (a memo of them grows with the visited set),
            # while their *entries* repeat heavily and hit the memo below.
            out.append(TAG_GSTATE)
            self._write_tuple(value.processes, out)
            self._write_tuple(value.channels, out)
            self._write(value.down, out)
        else:
            enc = self._memo.get(value)
            if enc is None:
                enc = self._composite(value)
                self._memo[value] = enc
            out += enc

    def _write_tuple(self, items: tuple, out: bytearray) -> None:
        out.append(TAG_TUPLE)
        out += _U32.pack(len(items))
        for item in items:
            self._write(item, out)

    def _composite(self, value: Any) -> bytes:
        out = bytearray()
        if isinstance(value, Timestamp):
            raw = value.pid.encode()
            out.append(TAG_TS)
            out += _I64.pack(value.clock)
            out += _U32.pack(len(raw))
            out += raw
        elif isinstance(value, tuple):
            self._write_tuple(value, out)
        elif isinstance(value, frozenset):
            # order_key order, so equal sets encode identically under
            # any hash seed (frozenset iteration order is randomized).
            out.append(TAG_FSET)
            out += _U32.pack(len(value))
            for item in sorted(value, key=order_key):
                self._write(item, out)
        elif isinstance(value, bool):  # bool subclass-of-int edge
            out.append(TAG_TRUE if value else _TAG_FALSE)
        elif isinstance(value, int):
            out.append(TAG_INT)
            out += _I64.pack(int(value))
        elif isinstance(value, str):
            raw = value.encode()
            out.append(TAG_STR)
            out += _U32.pack(len(raw))
            out += raw
        else:
            raw = pickle.dumps(value, protocol=4)
            out.append(TAG_OTHER)
            out += _U32.pack(len(raw))
            out += raw
        return bytes(out)

    # -- decoding ---------------------------------------------------------

    def decode(self, blob: bytes) -> Any:
        """Reconstruct the value ``encode`` packed (exact round-trip)."""
        value, index = self._read(blob, 0)
        if index != len(blob):
            raise ValueError(
                f"trailing bytes in wire value ({len(blob) - index})"
            )
        return value

    def _read(self, blob: bytes, index: int) -> tuple[Any, int]:
        tag = blob[index]
        index += 1
        if tag == TAG_NONE:
            return None, index
        if tag == TAG_TRUE:
            return True, index
        if tag == _TAG_FALSE:
            return False, index
        if tag == TAG_INT:
            return _I64.unpack_from(blob, index)[0], index + 8
        if tag == TAG_BIGINT:
            (length,) = _U32.unpack_from(blob, index)
            index += 4
            raw = blob[index : index + length]
            return int.from_bytes(raw, "little", signed=True), index + length
        if tag == TAG_STR:
            (length,) = _U32.unpack_from(blob, index)
            index += 4
            return blob[index : index + length].decode(), index + length
        if tag == TAG_TS:
            (clock,) = _I64.unpack_from(blob, index)
            index += 8
            (length,) = _U32.unpack_from(blob, index)
            index += 4
            pid = blob[index : index + length].decode()
            return Timestamp(clock, pid), index + length
        if tag == TAG_TUPLE:
            (length,) = _U32.unpack_from(blob, index)
            index += 4
            items = []
            for _ in range(length):
                item, index = self._read(blob, index)
                items.append(item)
            return tuple(items), index
        if tag == TAG_FSET:
            (length,) = _U32.unpack_from(blob, index)
            index += 4
            items = []
            for _ in range(length):
                item, index = self._read(blob, index)
                items.append(item)
            return frozenset(items), index
        if tag == TAG_GSTATE:
            processes, index = self._read(blob, index)
            channels, index = self._read(blob, index)
            down, index = self._read(blob, index)
            return GlobalState(processes, channels, down), index
        if tag == TAG_OTHER:
            (length,) = _U32.unpack_from(blob, index)
            index += 4
            return pickle.loads(blob[index : index + length]), index + length
        raise ValueError(f"unknown tag {tag} in wire value")


def wire_digest(blob: bytes) -> bytes:
    """The 128-bit identity of a wire blob (dedup, content digests)."""
    return blake2b(blob, digest_size=DIGEST_SIZE).digest()


def content_digest(xor: int, count: int) -> str:
    """A run's visited-set content digest, as a hex string.

    ``xor`` is the XOR of :func:`wire_digest` over the *distinct*
    visited states -- order-independent, so in-memory, journalled and
    resumed explorations of the same space agree bit-for-bit -- and
    ``count`` pins the cardinality.
    """
    raw = count.to_bytes(8, "little") + xor.to_bytes(DIGEST_SIZE, "little")
    return blake2b(raw, digest_size=DIGEST_SIZE).hexdigest()


# -- exploration journal record tags ---------------------------------------

#: Record kinds (see :mod:`repro.explore.shard` for who writes what).
#: A level's expansions are deliberately *not* journalled: expansion is
#: deterministic from the durable member blobs, so resume simply
#: re-expands the last committed frontier level.
REC_ADMIT = ord("A")  #: payload ``digest || canonical blob``, aux = rank
REC_MEMBER = ord("M")  #: payload = first-seen member blob (when it
#: differs from the canonical representative), same depth/aux as the
#: ADMIT record it directly follows in the log
REC_COMMIT = ord("C")  #: level ``depth`` fully admitted, every one of
#: its records ahead of this one (payload = admitted count, u64)
