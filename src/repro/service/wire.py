"""Length-prefixed frames and the service's value codec.

Everything that crosses a socket in :mod:`repro.service` -- protocol
messages between nodes, lock-API requests from clients, monitor records
persisted to disk -- is one *frame*: a 4-byte big-endian length prefix
followed by that many bytes of UTF-8 JSON.

JSON alone cannot carry the protocol's payloads (a Ricart-Agrawala
REQUEST is a :class:`~repro.clocks.timestamps.Timestamp`; snapshots hold
tuples and frozensets), so values are *tagged*: containers and domain
types encode as single-key objects (``{"%ts": [clock, pid]}``,
``{"%tup": [...]}``, ``{"%fset": [...]}``, ``{"%map": [[k, v], ...]}``)
and decode back to the identical Python value.  The codec is total over
the state values the TME programs use; anything else raises rather than
silently degrading (a corrupted frame is the *fault model's* job, not
the codec's).

Reading is :class:`FrameProtocol`, the one frame parser of the service:
an :class:`asyncio.Protocol` that buffers what the socket hands it and
dispatches every complete frame of a chunk from ``data_received`` itself
-- no reader coroutine, no task, no future per frame.  Whatever is wrong
with a frame (a length prefix beyond :data:`MAX_FRAME_BYTES`, bytes that
are not UTF-8 JSON, a body that is not an object, fields a handler
cannot use) is a :class:`WireError`, and a :class:`WireError` closes the
connection quietly: the peer on the other end of a socket is outside the
program, so nothing it sends may reach the event loop's exception
handler.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from repro.clocks.timestamps import Timestamp
from repro.runtime.messages import Message

#: Frame length prefix: 4 bytes, big endian.
_LEN = struct.Struct(">I")

#: Upper bound on a single frame body; a larger prefix means a corrupt or
#: hostile stream and the connection is dropped.
MAX_FRAME_BYTES = 1 << 20

_TAG_TS = "%ts"
_TAG_TUPLE = "%tup"
_TAG_FSET = "%fset"
_TAG_MAP = "%map"
_TAGS = (_TAG_TS, _TAG_TUPLE, _TAG_FSET, _TAG_MAP)


class WireError(ValueError):
    """A frame or value that cannot be (de)serialized."""


# ---------------------------------------------------------------------------
# Value tagging
# ---------------------------------------------------------------------------


#: The kinds :func:`pack_value` tells apart, in the order a subclass is
#: matched against them (``bool`` before ``int``).
_SCALARS = (type(None), bool, int, float, str)
_KINDS = _SCALARS + (Timestamp, tuple, list, frozenset, dict)


def pack_value(value: Any) -> Any:
    """Encode one Python value as tagged, JSON-serializable data."""
    kind = type(value)
    if kind not in _KINDS:  # a subclass packs as the first kind it extends
        kind = next((k for k in _KINDS if isinstance(value, k)), None)
    if kind in _SCALARS:
        return value
    if kind is Timestamp:
        return {_TAG_TS: [value.clock, value.pid]}
    if kind is tuple:
        return {_TAG_TUPLE: [pack_value(v) for v in value]}
    if kind is list:
        return [pack_value(v) for v in value]
    if kind is frozenset:
        # Sorted by packed JSON text: deterministic without requiring the
        # members to be mutually orderable in Python.
        packed = [pack_value(v) for v in value]
        return {_TAG_FSET: sorted(packed, key=lambda p: json.dumps(p))}
    if kind is dict:
        if all(isinstance(k, str) and not k.startswith("%") for k in value):
            return {str(k): pack_value(v) for k, v in value.items()}
        return {
            _TAG_MAP: [[pack_value(k), pack_value(v)] for k, v in value.items()]
        }
    raise WireError(f"cannot encode {type(value).__name__}: {value!r}")


def unpack_value(data: Any) -> Any:
    """Decode tagged data back to the original Python value."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [unpack_value(v) for v in data]
    if isinstance(data, dict):
        if len(data) == 1:
            (tag, body), = data.items()
            if tag == _TAG_TS:
                clock, pid = body
                return Timestamp(int(clock), str(pid))
            if tag == _TAG_TUPLE:
                return tuple(unpack_value(v) for v in body)
            if tag == _TAG_FSET:
                return frozenset(unpack_value(v) for v in body)
            if tag == _TAG_MAP:
                return {unpack_value(k): unpack_value(v) for k, v in body}
        if any(k in _TAGS for k in data):
            raise WireError(f"malformed tagged value: {data!r}")
        return {k: unpack_value(v) for k, v in data.items()}
    raise WireError(f"cannot decode {data!r}")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


#: Compact JSON text of one record: one encoder for every frame on the
#: wire and every line of the trace file (``json.dumps`` with non-default
#: separators builds a fresh encoder per call).
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(obj: dict[str, Any]) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    body = compact_json(obj).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes | bytearray) -> dict[str, Any]:
    """Parse one frame body (without the prefix)."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON
        raise WireError(f"undecodable frame body: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError(f"frame body must be an object, got {type(obj).__name__}")
    return obj


class FrameProtocol(asyncio.Protocol):
    """The frame parser, run from the socket's read callback.

    Subclasses override :meth:`frame_received` (and ``connection_lost``).
    The buffer holds at most the unfinished tail of one chunk: complete
    frames are dispatched as soon as the chunk that completes them
    arrives, and an oversized length prefix is refused when its four
    bytes are in, before any of the body is buffered.
    """

    transport: asyncio.Transport | None = None

    def __init__(self) -> None:
        self._buffer = bytearray()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def frame_received(self, frame: dict[str, Any]) -> None:
        """Handle one decoded frame; a :class:`WireError` raised here
        refuses the frame like a malformed one."""
        raise NotImplementedError

    def frame_refused(self, error: WireError) -> None:
        """A frame was malformed or its handler refused it: the stream
        cannot be trusted any further, so the connection is closed."""
        self._buffer.clear()
        if self.transport is not None:
            self.transport.close()

    def buffered(self) -> int:
        """Bytes received but not yet dispatched (an unfinished frame)."""
        return len(self._buffer)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        start, size, prefix = 0, len(buffer), _LEN.size
        try:
            while size - start >= prefix:
                (length,) = _LEN.unpack_from(buffer, start)
                if length > MAX_FRAME_BYTES:
                    raise WireError(
                        f"frame length {length} exceeds {MAX_FRAME_BYTES}"
                    )
                end = start + prefix + length
                if end > size:
                    break
                frame = decode_body(buffer[start + prefix : end])
                start = end
                self.frame_received(frame)
        except WireError as error:
            self.frame_refused(error)
            return
        del buffer[:start]


# ---------------------------------------------------------------------------
# Protocol messages on the wire
# ---------------------------------------------------------------------------


def message_frame(message: Message) -> dict[str, Any]:
    """Encode a protocol :class:`Message` as a frame object."""
    return {
        "t": "msg",
        "uid": message.uid,
        "kind": message.kind,
        "src": message.sender,
        "dst": message.receiver,
        "payload": pack_value(message.payload),
        "clock": message.sender_clock,
    }


def frame_message(frame: dict[str, Any]) -> Message:
    """Decode a ``msg`` frame back into a :class:`Message`.

    ``send_event_uid`` is always ``None`` on the wire: happened-before
    event uids are simulator-local identities and do not travel.
    """
    try:
        clock = frame.get("clock")
        return Message(
            uid=int(frame["uid"]),
            kind=str(frame["kind"]),
            sender=str(frame["src"]),
            receiver=str(frame["dst"]),
            payload=unpack_value(frame["payload"]),
            send_event_uid=None,
            sender_clock=int(clock) if clock is not None else None,
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise WireError(f"malformed msg frame: {exc!r}") from exc
