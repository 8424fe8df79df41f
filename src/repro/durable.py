"""The one durable log under both journals, and the stamp on what runs publish.

A *run directory* is ``meta.json`` (which run this is) beside one
append-only journal (what it has done so far).  A checkpointed
exploration (:mod:`repro.explore.shard`) and a durable campaign
(:mod:`repro.campaign.journal`) differ in the records they append and in
what a resume does with them; everything underneath is here, once, and
imports nothing from either: the checksummed record frame, the buffered
:class:`AppendLog`, the valid prefix (:func:`iter_records`,
:func:`prefix_len`), the stamped meta (:func:`write_meta`,
:func:`verify_meta`), artifact stamps and the atomic :func:`write_json`.

A frame that fails its CRC is as absent as one ``kill -9`` cut short, and
cutting the journal there is sound because everything journalled is
deterministic to re-derive: trials re-run to bit-identical results,
levels re-expand from the last ``COMMIT`` (DESIGN section 3, decision 13).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterator, Mapping, Sequence
from zlib import crc32

# -- canonical JSON and artifact stamps -----------------------------------


def canonical_json(payload: object) -> str:
    """The one JSON encoding of ``payload`` every process agrees on."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Field names the stamp occupies in a stamped artifact.
STAMP_SCHEMA_FIELD = "schema_version"
STAMP_HASH_FIELD = "content_hash"
STAMP_EXCLUDES_FIELD = "content_hash_excludes"


def artifact_content_hash(payload: dict) -> str:
    """SHA-256 over the canonical JSON of the payload minus the hash
    field and any top-level fields the stamp declares volatile.

    Volatile fields (``content_hash_excludes``) exist for measurements
    that legitimately differ between bit-identical runs -- wall-clock
    timing, requeue counts.  Excluding them makes the content hash a
    pure function of the *deterministic* payload, which is what lets a
    kill-9'd-and-resumed campaign present the same digest as an
    uninterrupted one.  The excludes list itself **is** hashed, so it
    cannot be widened after the fact to hide tampering.
    """
    volatile = set(payload.get(STAMP_EXCLUDES_FIELD, ()))
    body = {
        k: v
        for k, v in payload.items()
        if k != STAMP_HASH_FIELD and k not in volatile
    }
    canonical = canonical_json(body)
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stamp_artifact(
    payload: dict,
    schema_version: int,
    volatile: Sequence[str] = (),
) -> dict:
    """A copy of ``payload`` carrying its schema version and content hash.

    ``volatile`` names top-level fields excluded from the content hash
    (recorded in the stamp, so verification applies the same exclusion).
    """
    stamped = dict(payload)
    stamped[STAMP_SCHEMA_FIELD] = schema_version
    if volatile:
        missing = [name for name in volatile if name not in stamped]
        if missing:
            raise ValueError(f"volatile field(s) not in payload: {missing}")
        stamped[STAMP_EXCLUDES_FIELD] = sorted(volatile)
    stamped[STAMP_HASH_FIELD] = artifact_content_hash(stamped)
    return stamped


def verify_stamp(payload: dict, expected_schema: int | None = None) -> None:
    """Validate a stamped artifact; raises ``ValueError`` on any mismatch."""
    if STAMP_SCHEMA_FIELD not in payload:
        raise ValueError("artifact has no schema_version stamp")
    if expected_schema is not None:
        found = payload[STAMP_SCHEMA_FIELD]
        if found != expected_schema:
            raise ValueError(
                f"artifact schema_version {found!r} != expected "
                f"{expected_schema}"
            )
    recorded = payload.get(STAMP_HASH_FIELD)
    if not recorded:
        raise ValueError("artifact has no content_hash stamp")
    actual = artifact_content_hash(payload)
    if actual != recorded:
        raise ValueError(
            f"artifact content hash mismatch: recorded {recorded}, "
            f"recomputed {actual}"
        )


def write_json(path: str | os.PathLike, payload: dict) -> None:
    """Atomically publish ``payload`` as pretty-printed JSON at ``path``."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


# -- run-directory metadata -----------------------------------------------

META_NAME = "meta.json"


class NoMeta(ValueError):
    """The directory's ``meta.json`` is absent, torn, or was never
    stamped: nothing beside it can be attributed to any run."""


def write_meta(
    store_dir: str | os.PathLike, fmt: int, identity: Mapping
) -> dict:
    """Create ``store_dir`` and pin the run it belongs to: its journal
    format (the stamp's schema version) and the ``identity`` fields a
    resume must present again -- the journal's ``kind`` first of all."""
    os.makedirs(store_dir, exist_ok=True)
    payload = stamp_artifact(dict(identity), fmt)
    write_json(os.path.join(store_dir, META_NAME), payload)
    return payload


def verify_meta(
    store_dir: str | os.PathLike, fmt: int, identity: Mapping
) -> dict:
    """The directory's meta, once it has proved to be this run's.

    Raises :class:`NoMeta` when there is none to judge, else a
    ``ValueError`` naming the file: another build's format, a failed
    stamp (truncated or hand-edited), or a differing identity field
    (another journal's kind included) -- replaying into a different
    problem would silently merge unrelated results.
    """
    path = os.path.join(store_dir, META_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (FileNotFoundError, ValueError):
        meta = None
    # "format": what unstamped exploration directories called it -- read
    # only so that they are refused by name.
    found = (
        meta.get(STAMP_SCHEMA_FIELD, meta.get("format"))
        if isinstance(meta, dict)
        else None
    )
    if found is None:
        raise NoMeta(f"{path}: no readable metadata, nothing to resume here")
    if found != fmt:
        raise ValueError(
            f"{path}: unsupported checkpoint format {found!r} "
            f"(this build reads format {fmt})"
        )
    try:
        verify_stamp(meta, fmt)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = dict(identity)
    found = {name: meta.get(name) for name in expected}
    if found != expected:
        raise ValueError(
            f"{path}: run directory belongs to a different experiment "
            f"({found} != {expected}); use a fresh store dir"
        )
    return meta


# -- the record frame and the append-only log -----------------------------

_FIELDS = struct.Struct("<BiiI")  # tag, a, b, payload length
_HEADER = struct.Struct("<BiiII")  # the fields, then crc32(fields + payload)

#: Bytes a record occupies beyond its payload.
FRAME_OVERHEAD = _HEADER.size

#: Buffered bytes that force a write (see :class:`AppendLog`).
_FLUSH_BYTES = 1 << 20


def pack_frame(tag: int, a: int, b: int, payload: bytes) -> bytes:
    """One framed record: checksummed header, then the payload."""
    fields = _FIELDS.pack(tag, a, b, len(payload))
    crc = crc32(payload, crc32(fields))
    return fields + crc.to_bytes(4, "little") + payload


def iter_records(
    path: str | os.PathLike, chunk_size: int = 1 << 20
) -> Iterator[tuple[int, int, int, bytes]]:
    """Stream the ``(tag, a, b, payload)`` records of a journal's valid
    prefix (none for a journal never started), in constant memory.

    Iteration ends silently at the first frame that is torn, claims more
    bytes than the file holds, or fails its checksum; nothing behind it
    is decoded -- frame boundaries past a bad length cannot be trusted.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        remaining = os.fstat(fh.fileno()).st_size
        buf = b""
        while data := fh.read(chunk_size):
            buf += data
            pos = 0
            while len(buf) - pos >= FRAME_OVERHEAD:
                tag, a, b, length, crc = _HEADER.unpack_from(buf, pos)
                start = pos + FRAME_OVERHEAD
                if FRAME_OVERHEAD + length > remaining:
                    return
                if len(buf) - start < length:
                    break
                payload = buf[start : start + length]
                if crc32(payload, crc32(buf[pos : pos + _FIELDS.size])) != crc:
                    return
                yield tag, a, b, payload
                remaining -= FRAME_OVERHEAD + length
                pos = start + length
            buf = buf[pos:]


def prefix_len(path: str | os.PathLike, through: int | None = None) -> int:
    """Byte length of the journal's valid prefix -- up to and including
    its last record tagged ``through``, when given (0: there is none).
    Records appended behind a bad frame would be hidden from every later
    replay, so a writer cuts the file to this length first: a campaign
    to its whole records, an exploration to its last ``COMMIT``.
    """
    offset = kept = 0
    for tag, _a, _b, payload in iter_records(path):
        offset += FRAME_OVERHEAD + len(payload)
        if through is None or tag == through:
            kept = offset
    return kept


class AppendLog:
    """Append-only framed journal with buffered, unbuffered-on-flush IO.

    Opening cuts the file back to its first ``keep`` bytes (a
    :func:`prefix_len`; 0 restarts it) and records how many were
    :attr:`kept` and :attr:`discarded`.  ``append`` extends an
    in-process buffer; :meth:`flush` hands it to ``os.write`` -- under
    ``kill -9`` the page cache survives the process, so durable means
    accepted by the kernel, and there is deliberately no fsync.  A
    writer flushes where a reader may rely on what was appended (a
    level's ``COMMIT``, a campaign result); in between the buffer is
    handed over past 1 MiB, so a wide BFS level neither sits in RAM nor
    outgrows one ``write`` call.
    """

    __slots__ = ("path", "_fd", "_buf", "bytes_written", "kept", "discarded")

    def __init__(self, path: str | os.PathLike, keep: int):
        self.path = path
        self._fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        size = os.fstat(self._fd).st_size
        self.kept = min(keep, size)
        self.discarded = size - self.kept
        os.ftruncate(self._fd, self.kept)
        self._buf = bytearray()
        self.bytes_written = 0

    def append(self, tag: int, a: int, b: int, payload: bytes) -> None:
        self._buf += pack_frame(tag, a, b, payload)
        if len(self._buf) >= _FLUSH_BYTES:
            self.flush()

    def flush(self) -> None:
        if self._buf:
            os.write(self._fd, self._buf)
            self.bytes_written += len(self._buf)
            self._buf.clear()

    def close(self) -> None:
        self.flush()
        os.close(self._fd)
