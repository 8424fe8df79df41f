"""Interned, packed storage for exploration visited sets.

The visited set is the memory high-water mark of a global exploration:
every distinct :class:`~repro.runtime.trace.GlobalState` is a deep tree
of tuples, strings, and timestamps, most of it identical between states
(pids, variable names, message kinds, small clocks).  This module packs
each dedup key into a flat ``bytes`` blob over an interning table --
every pid, variable name, kind, and repeated payload is interned to a
small integer exactly once -- and keeps only ``blob -> integer id`` in
the visited dict.  Hashing a blob is one pass over contiguous bytes
instead of a recursive tuple hash, and the per-state footprint drops
from a multi-kilobyte object graph to tens of bytes.

:class:`StateCodec` is value-shape agnostic (ints, bools, strings,
``None``, :class:`~repro.clocks.timestamps.Timestamp`, nested tuples,
frozensets, plus an interned fallback for anything else hashable), so
the same codec packs global snapshots and per-process local snapshots.
Decoding reconstructs the original key exactly; spaces expose it as
``encode_key``/``decode_key`` and the engine picks it up automatically.

The module also owns :func:`order_key`, the history-independent total
order over snapshot values that symmetry canonicalization minimizes:
its branch tags *are* the codec tags, so the packed encoding and the
canonical order can never drift apart (see
:mod:`repro.explore.packed`).
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Hashable, Iterator
from typing import Any

from repro.clocks.timestamps import Timestamp
from repro.runtime.trace import GlobalState

#: The value-type tag table.  This is the *single source of truth* for the
#: total order over the heterogeneous values snapshots carry: the codec
#: writes these tags into packed token streams, and
#: :func:`order_key` (re-exported as ``canon._order_key``) derives the
#: canonicalization order from the very same numbers, so a tag-wise
#: lexicographic comparison of two packed streams agrees with the
#: object-tree order wherever the stream tokens are order-faithful.
TAG_NONE = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_INT = 3
TAG_STR = 4
TAG_TS = 5
TAG_TUPLE = 6
TAG_FSET = 7
TAG_OTHER = 8

# Internal aliases (the module predates the public table).
_TAG_NONE = TAG_NONE
_TAG_FALSE = TAG_FALSE
_TAG_TRUE = TAG_TRUE
_TAG_INT = TAG_INT
_TAG_STR = TAG_STR
_TAG_TS = TAG_TS
_TAG_TUPLE = TAG_TUPLE
_TAG_FSET = TAG_FSET
_TAG_OTHER = TAG_OTHER

#: array typecode for packed token streams: signed 64-bit, so clocks,
#: timers, and payload integers fit without escaping.
_TYPECODE = "q"
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: CPython's default ``object.__repr__`` embeds the object's memory
#: address, which varies run to run; mask it so the :func:`order_key`
#: fallback never leaks per-run state into a canonical order.
_ADDR_RE = re.compile(r"0x[0-9a-fA-F]+")


def _stable_repr(value: Any) -> str:
    return _ADDR_RE.sub("0x0", repr(value))


def order_key(value: Any) -> tuple:
    """A history-independent total order over snapshot values.

    Branch tags come from the tag table above, so the order is *derived
    from the codec encoding* rather than maintained in parallel with it:
    ``None < False < True < ints < strs < timestamps < tuples <
    frozensets < everything else``.  It must not depend on any per-run
    state (interning order, object ids, hash seeds) so canonical orbit
    representatives agree across runs and across processes; the
    fallback therefore masks memory addresses out of ``repr`` (two
    distinct same-type objects whose reprs are both address-based
    compare equal, which keeps the order total and run-stable at the
    cost of an arbitrary-but-fixed tie).
    """
    if value is None:
        return (TAG_NONE,)
    if isinstance(value, bool):
        return (TAG_TRUE,) if value else (TAG_FALSE,)
    if isinstance(value, int):
        return (TAG_INT, value)
    if isinstance(value, str):
        return (TAG_STR, value)
    if isinstance(value, Timestamp):
        return (TAG_TS, value.clock, value.pid)
    if isinstance(value, tuple):
        return (TAG_TUPLE, len(value)) + tuple(order_key(v) for v in value)
    if isinstance(value, frozenset):
        # Sorted element keys: iteration order of a frozenset of strings
        # varies with hash randomization, so it must never leak into the
        # canonical order.
        return (TAG_FSET, len(value)) + tuple(
            sorted(order_key(v) for v in value)
        )
    return (TAG_OTHER, type(value).__name__, _stable_repr(value))


class Interner:
    """Bidirectional value <-> small-integer table (intern once, by
    ``==``: the codecs intern whole valuations, so ``('x', True)`` and
    ``('x', 1)`` share an id)."""

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    def intern(self, value: Hashable) -> int:
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._values)
            self._ids[value] = ident
            self._values.append(value)
        return ident

    def value(self, ident: int) -> Hashable:
        return self._values[ident]

    def __len__(self) -> int:
        return len(self._values)


class StateCodec:
    """Pack hashable snapshot values into flat ``bytes`` and back."""

    __slots__ = ("strings", "others")

    def __init__(self) -> None:
        self.strings = Interner()
        self.others = Interner()

    # -- encoding ---------------------------------------------------------

    def _flatten(self, value: Any, out: list[int]) -> None:
        if value is None:
            out.append(_TAG_NONE)
        elif value is True:
            out.append(_TAG_TRUE)
        elif value is False:
            out.append(_TAG_FALSE)
        elif isinstance(value, int) and not isinstance(value, bool):
            if _INT64_MIN < value <= _INT64_MAX:
                out.append(_TAG_INT)
                out.append(value)
            else:
                out.append(_TAG_OTHER)
                out.append(self.others.intern(value))
        elif isinstance(value, str):
            out.append(_TAG_STR)
            out.append(self.strings.intern(value))
        elif isinstance(value, Timestamp):
            out.append(_TAG_TS)
            out.append(value.clock)
            out.append(self.strings.intern(value.pid))
        elif isinstance(value, tuple):
            out.append(_TAG_TUPLE)
            out.append(len(value))
            for item in value:
                self._flatten(item, out)
        elif isinstance(value, frozenset):
            # Flattened in canonical (order_key) element order, so equal
            # sets encode identically regardless of hash randomization
            # and pid members stay visible to packed-token renaming.
            out.append(_TAG_FSET)
            out.append(len(value))
            for item in sorted(value, key=order_key):
                self._flatten(item, out)
        else:
            out.append(_TAG_OTHER)
            out.append(self.others.intern(value))

    def encode(self, value: Any) -> bytes:
        """Pack one hashable value into a flat byte blob."""
        tokens: list[int] = []
        self._flatten(value, tokens)
        return array(_TYPECODE, tokens).tobytes()

    # -- decoding ---------------------------------------------------------

    def decode(self, blob: bytes) -> Any:
        """Reconstruct the value ``encode`` packed (exact round-trip)."""
        tokens = array(_TYPECODE)
        tokens.frombytes(blob)
        value, index = self._read(tokens, 0)
        if index != len(tokens):
            raise ValueError(
                f"trailing tokens in packed state ({len(tokens) - index})"
            )
        return value

    def _read(self, tokens: "array[int]", index: int) -> tuple[Any, int]:
        tag = tokens[index]
        index += 1
        if tag == _TAG_NONE:
            return None, index
        if tag == _TAG_TRUE:
            return True, index
        if tag == _TAG_FALSE:
            return False, index
        if tag == _TAG_INT:
            return tokens[index], index + 1
        if tag == _TAG_STR:
            return self.strings.value(tokens[index]), index + 1
        if tag == _TAG_TS:
            clock = tokens[index]
            pid = self.strings.value(tokens[index + 1])
            return Timestamp(clock, pid), index + 2
        if tag == _TAG_TUPLE:
            length = tokens[index]
            index += 1
            items = []
            for _ in range(length):
                item, index = self._read(tokens, index)
                items.append(item)
            return tuple(items), index
        if tag == _TAG_FSET:
            length = tokens[index]
            index += 1
            items = []
            for _ in range(length):
                item, index = self._read(tokens, index)
                items.append(item)
            return frozenset(items), index
        if tag == _TAG_OTHER:
            return self.others.value(tokens[index]), index + 1
        raise ValueError(f"unknown tag {tag} in packed state")


class GlobalStateCodec(StateCodec):
    """A :class:`StateCodec` that round-trips :class:`GlobalState`.

    Rather than flattening the whole snapshot tree, it interns each
    process's variable tuple and each channel's content tuple as *one*
    id each: distinct per-process valuations number roughly the local
    state count -- the very gap between the per-process sum and the
    global product that Section 1 is about -- so the shared interner
    table stays small while each global state packs into a few dozen
    bytes of ids.
    """

    __slots__ = ()

    def encode_tokens(self, state: GlobalState) -> list[int]:
        """The packed token stream of ``state`` as a plain int list.

        Layout: ``[P, (pid_sid, vars_oid) * P, C, (src_sid, dst_sid,
        content_oid) * C]`` where ``sid`` indexes :attr:`strings` and
        ``oid`` indexes :attr:`others`.  This is the substrate the
        packed canonicalizer permutes (see
        :mod:`repro.explore.packed`); ``encode`` is the same stream
        serialized to bytes.  ``state.down`` has no slot in the layout,
        so a partitioned snapshot is rejected rather than packed to the
        blob of its all-links-up twin.
        """
        if state.down:
            raise ValueError(
                f"cannot pack a partitioned snapshot (down={state.down})"
            )
        strings = self.strings.intern
        others = self.others.intern
        tokens = [len(state.processes)]
        for pid, variables in state.processes:
            tokens.append(strings(pid))
            tokens.append(others(variables))
        tokens.append(len(state.channels))
        for (src, dst), content in state.channels:
            tokens.append(strings(src))
            tokens.append(strings(dst))
            tokens.append(others(content))
        return tokens

    @staticmethod
    def pack(tokens: list[int]) -> bytes:
        """A token stream (``encode_tokens`` layout) as a storable blob."""
        return array(_TYPECODE, tokens).tobytes()

    def encode(self, state: GlobalState) -> bytes:  # type: ignore[override]
        return self.pack(self.encode_tokens(state))

    def decode(self, blob: bytes) -> GlobalState:  # type: ignore[override]
        tokens = array(_TYPECODE)
        tokens.frombytes(blob)
        strings = self.strings.value
        others = self.others.value
        index = 1
        processes = []
        for _ in range(tokens[0]):
            processes.append(
                (strings(tokens[index]), others(tokens[index + 1]))
            )
            index += 2
        nchan = tokens[index]
        index += 1
        channels = []
        for _ in range(nchan):
            channels.append(
                (
                    (strings(tokens[index]), strings(tokens[index + 1])),
                    others(tokens[index + 2]),
                )
            )
            index += 3
        if index != len(tokens):
            raise ValueError(
                f"trailing tokens in packed state ({len(tokens) - index})"
            )
        return GlobalState(tuple(processes), tuple(channels))


class InternedStateStore:
    """The visited set as ``packed blob -> dense integer id``.

    ``add`` returns the state's id and whether it was fresh; membership
    and sizing never touch the original object graph.  ``keys()``
    decodes the packed blobs back into full dedup keys (insertion
    order), which only materialises the object graphs when a caller
    actually asks for them.
    """

    __slots__ = ("codec", "_ids", "_payload_bytes")

    def __init__(self, codec: StateCodec) -> None:
        self.codec = codec
        self._ids: dict[bytes, int] = {}
        self._payload_bytes = 0

    def add(self, key: Hashable) -> tuple[int, bool]:
        """Intern ``key``; returns ``(id, fresh)``."""
        blob = self.codec.encode(key)
        ident = self._ids.get(blob)
        if ident is not None:
            return ident, False
        ident = len(self._ids)
        self._ids[blob] = ident
        self._payload_bytes += len(blob)
        return ident, True

    def __contains__(self, key: Hashable) -> bool:
        return self.codec.encode(key) in self._ids

    def contains_packed(self, blob: bytes) -> bool:
        """Membership by already-packed blob (no re-encoding)."""
        return blob in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def keys(self) -> Iterator[Hashable]:
        """Decode every stored key, in insertion (visit) order."""
        decode = self.codec.decode
        return (decode(blob) for blob in self._ids)

    @property
    def bytes_per_state(self) -> float:
        """Mean packed payload bytes per stored state (the blob itself;
        dict-slot and ``bytes``-object overhead excluded)."""
        if not self._ids:
            return 0.0
        return self._payload_bytes / len(self._ids)

    def add_packed(self, blob: bytes) -> tuple[int, bool]:
        """Intern an already-packed blob (one packed by this store's own
        codec: interner ids are per-process)."""
        ident = self._ids.get(blob)
        if ident is not None:
            return ident, False
        ident = len(self._ids)
        self._ids[blob] = ident
        self._payload_bytes += len(blob)
        return ident, True

    def into_exploration(self, stats) -> "Exploration":
        from repro.explore.engine import Exploration

        return Exploration(store=self, stats=stats)


class PlainStateStore:
    """Visited keys in an ordinary set (spaces without a codec)."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: set[Hashable] = set()

    def add(self, key: Hashable) -> tuple[int, bool]:
        if key in self._keys:
            return 0, False
        self._keys.add(key)
        return 0, True

    def __contains__(self, key: Hashable) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._keys)

    @property
    def bytes_per_state(self) -> float:
        return 0.0

    def into_exploration(self, stats) -> "Exploration":
        from repro.explore.engine import Exploration

        return Exploration(visited=frozenset(self._keys), stats=stats)


def make_visited_store(codec: StateCodec | None):
    """The visited-set implementation for a space: interned when the
    space published a codec, a plain set otherwise."""
    if codec is None:
        return PlainStateStore()
    return InternedStateStore(codec)
