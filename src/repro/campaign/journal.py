"""The durable campaign journal: leases, results, requeues, resume.

Campaigns used to exist only in the coordinator's memory -- a crash at
trial 999,990 of a million lost everything.  This module gives a
campaign the durability story a checkpointed exploration has, on the
same machinery: records travel in :mod:`repro.durable`'s checksummed
frame through its :class:`~repro.durable.AppendLog` (buffered, flushed
to the kernel before anything downstream observes the event), and replay
reads the journal's valid prefix -- a torn or bit-flipped frame ends it,
and the trials behind the cut simply run again, to bit-identical
results.

One journal per campaign, one writer (the coordinator -- workers only
ever talk over pipes), three record kinds:

* ``LEASE``   -- task ``depth`` claimed for attempt ``aux`` by a worker
  (payload: worker id).  A lease without a later result is exactly the
  work a resumed run must redo.
* ``RESULT``  -- task ``depth`` finished attempt ``aux`` (payload: the
  canonical JSON of the :class:`~repro.campaign.trial.TrialResult`,
  minus its decision log -- decisions are re-derivable from
  ``(spec, trial_id)``).  Flushed before the result is surfaced, so a
  durable result is never re-run and a re-run result was never
  surfaced.
* ``REQUEUE`` -- attempt ``aux`` of task ``depth`` died environmentally
  (payload: death kind, exit code, backoff).  Replay restores the
  attempt counter so a coordinator crash cannot reset a trial's retry
  budget, and the requeue history survives into the final attempt log.

``meta.json`` pins the campaign's identity: :func:`repro.durable.
write_meta`'s stamped payload carrying the matrix digest of
:class:`~repro.campaign.spec.TrialMatrix`.  ``--resume`` verifies the
stamp and the digest before trusting a single record, so a journal can
never silently replay into a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.campaign.spec import TrialMatrix
from repro.campaign.trial import TrialResult
from repro.durable import (
    AppendLog,
    canonical_json,
    iter_records,
    prefix_len,
    verify_meta,
    write_json,
    write_meta,
)

#: Campaign record kinds, disjoint from the exploration journal's
#: ``A``/``M``/``C`` (:mod:`repro.explore.wire`): the frame is shared,
#: and a journal misfiled into the wrong reader must fail loudly.
REC_LEASE = ord("L")
REC_RESULT = ord("R")
REC_REQUEUE = ord("Q")

#: ``meta.json`` schema (stamped; 2: checksummed frames -- a directory
#: of any other version is refused).
META_SCHEMA_VERSION = 2

JOURNAL_NAME = "campaign.log"
PARTIAL_NAME = "partial.json"


# ---------------------------------------------------------------------------
# TrialResult <-> canonical JSON payloads
# ---------------------------------------------------------------------------

#: Every :class:`TrialResult` field but the decision log.
_RESULT_FIELDS = tuple(
    f.name for f in fields(TrialResult) if f.name != "decisions"
)


def encode_result(result: TrialResult) -> bytes:
    """The canonical JSON bytes of a result (decisions dropped).

    Decision logs are closures over live dataclasses and re-derivable
    from ``(spec, trial_id)`` (the shrinker re-runs the trial anyway),
    so the journal stores everything *else* -- every field the summary
    and the artifact consume round-trips exactly, floats included
    (JSON's shortest-repr float encoding is lossless).
    """
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    return canonical_json(payload).encode("utf-8")


def decode_result(raw: bytes) -> TrialResult:
    """The :class:`TrialResult` a ``RESULT`` payload encodes."""
    payload = json.loads(raw.decode("utf-8"))
    for name in ("detections", "recoveries"):
        payload[name] = tuple(payload[name])
    payload["recovery_stages"] = tuple(map(tuple, payload["recovery_stages"]))
    return TrialResult(**payload)


# ---------------------------------------------------------------------------
# The journal itself
# ---------------------------------------------------------------------------


class CampaignJournal(AppendLog):
    """Append-only campaign journal (single writer: the coordinator).

    Reopening after a crash cuts the file back to its valid prefix
    first (:func:`repro.durable.prefix_len`) -- records appended behind
    a torn or corrupt frame would be invisible to every later replay;
    :attr:`kept` and :attr:`discarded` say what that cost.
    """

    def __init__(self, store_dir: str | Path):
        path = str(Path(store_dir) / JOURNAL_NAME)
        super().__init__(path, prefix_len(path))

    def lease(self, task_id: int, attempt: int, worker: int) -> None:
        self.append(REC_LEASE, task_id, attempt, str(worker).encode())
        self.flush()

    def result(self, task_id: int, attempt: int, result: TrialResult) -> None:
        self.append(REC_RESULT, task_id, attempt, encode_result(result))
        self.flush()

    def requeue(
        self, task_id: int, attempt: int, kind: str,
        exitcode: int | None, backoff: float,
    ) -> None:
        payload = canonical_json(
            {"kind": kind, "exitcode": exitcode, "backoff": backoff}
        ).encode("utf-8")
        self.append(REC_REQUEUE, task_id, attempt, payload)
        self.flush()


@dataclass
class JournalState:
    """Everything a resumed coordinator learns from a replay."""

    #: task_id -> durable result (first sighting wins; duplicates are
    #: bit-identical by trial determinism).
    results: dict[int, TrialResult] = field(default_factory=dict)
    #: task_id -> environmental death history, in journal order.
    attempt_log: dict[int, list[dict]] = field(default_factory=dict)
    #: task_ids leased but never resulted (the lease-recovery set).
    orphaned: set[int] = field(default_factory=set)
    records: int = 0

    def attempts(self, task_id: int) -> int:
        """Worker deaths already charged against a task's retry budget."""
        return len(self.attempt_log.get(task_id, ()))


def replay_journal(store_dir: str | Path) -> JournalState:
    """Replay a campaign journal into a :class:`JournalState`.

    The scan covers the valid prefix: a record cut short by ``kill -9``
    was never acknowledged and one that fails its checksum is re-derived
    by running its trial again, so dropping both is exactly the crash
    semantics resume wants.  A whole record of a foreign tag is another
    reader's journal and raises.
    """
    state = JournalState()
    path = Path(store_dir) / JOURNAL_NAME
    for tag, task_id, attempt, payload in iter_records(path):
        state.records += 1
        if tag == REC_RESULT:
            if task_id not in state.results:
                state.results[task_id] = decode_result(payload)
            state.orphaned.discard(task_id)
        elif tag == REC_LEASE:
            if task_id not in state.results:
                state.orphaned.add(task_id)
        elif tag == REC_REQUEUE:
            info = json.loads(payload.decode("utf-8"))
            info["attempt"] = attempt
            state.attempt_log.setdefault(task_id, []).append(info)
        else:
            raise ValueError(
                f"{path}: not a campaign journal (record {chr(tag)!r} "
                f"for task {task_id})"
            )
    return state


# ---------------------------------------------------------------------------
# Run-directory metadata (stamped)
# ---------------------------------------------------------------------------


def _identity(matrix: TrialMatrix) -> dict:
    return {
        "kind": "campaign-journal",
        "name": matrix.name,
        "matrix_digest": matrix.matrix_digest,
        "tasks": len(matrix),
    }


def write_campaign_meta(store_dir: str | Path, matrix: TrialMatrix) -> dict:
    """Create ``store_dir`` and pin the campaign's identity in it."""
    return write_meta(store_dir, META_SCHEMA_VERSION, _identity(matrix))


def verify_campaign_meta(store_dir: str | Path, matrix: TrialMatrix) -> dict:
    """Validate ``meta.json`` against the matrix being resumed.

    Raises ``ValueError`` if the meta is missing, its stamp fails
    (truncated or hand-edited file), or the matrix digest differs (the
    journal belongs to a different experiment).
    """
    return verify_meta(store_dir, META_SCHEMA_VERSION, _identity(matrix))


def journal_exists(store_dir: str | Path) -> bool:
    return (Path(store_dir) / JOURNAL_NAME).exists()


def write_partial_artifact(store_dir: str | Path, payload: dict) -> None:
    """Atomically publish a streamed partial artifact, so a reader never
    observes a half-written JSON file."""
    write_json(Path(store_dir) / PARTIAL_NAME, payload)
