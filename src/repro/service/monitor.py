"""Online ME1-ME3 monitoring of the live cluster, plus trace persistence.

The cluster runs in one process, so its event trace has a total order: the
cluster stamps every executed node step (and every recovery or chaos
intervention that mutates state) with a global sequence number and feeds
the affected process's monitored variables to :class:`LiveMonitor`.

The monitor judges the same :class:`~repro.runtime.trace.GlobalState`
sequence the simulator would have recorded -- one state per event, each
differing from its predecessor in exactly one process's variables -- and
evaluates ME1, ME2, and ME3 *incrementally*, mirroring
:mod:`repro.tme.spec` check for check.  Because only the process that
moved can have changed, an event costs O(1) plus, at a CS entry, one look
at every other process: ME1 is a running count of eaters, ME2 asks the
mover's tracker alone (a phase that stood tells a tracker nothing new),
ME3 runs when the mover went hungry -> eating and reads the others'
stored projections.  The states themselves are built only under
``keep_states``.  The equivalence is not just claimed: every event is
also persisted as a JSONL frame, and :func:`revalidate_trace` rebuilds
the states offline and literally calls
:func:`~repro.tme.spec.check_tme_spec` on them, so a live run's verdict
can always be re-derived from its artifact (and the test suite asserts
the two verdicts agree, violating traces included).

Only the Lspec variables the TME spec reads are monitored: ``phase``
(ME1/ME2) and ``req``/``lc`` (ME3).  Channels are not part of live global
states -- in-flight frames live in kernel buffers -- which is sound
because no ME property reads channel contents.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any, TextIO

from repro.clocks.timestamps import Timestamp
from repro.runtime.trace import GlobalState, Trace
from repro.service.wire import compact_json, pack_value, unpack_value
from repro.tme.interfaces import EATING, HUNGRY
from repro.tme.spec import (
    FcfsViolation,
    Me2Report,
    TmeSpecReport,
    as_request,
    check_tme_spec,
)

#: The variables the TME spec reads, projected out of each process.
MONITORED_VARS = ("lc", "phase", "req")

#: Trace artifact schema (bumped on any incompatible record change).
TRACE_SCHEMA_VERSION = 1


def monitored_vars(variables: Mapping[str, Any]) -> dict[str, Any]:
    """Project one process's valuation onto the monitored variables."""
    return {k: variables.get(k) for k in MONITORED_VARS}


def _process_state(vars_by_pid: Mapping[str, Mapping[str, Any]]) -> GlobalState:
    processes = tuple(
        (pid, tuple(sorted(vars_by_pid[pid].items())))
        for pid in sorted(vars_by_pid)
    )
    return GlobalState(processes, ())


# ---------------------------------------------------------------------------
# Online monitoring
# ---------------------------------------------------------------------------


class _Me2Tracker:
    """Incremental h |-> e for one process (mirrors ``me2_reports``)."""

    def __init__(self) -> None:
        self.pending: int | None = None
        self.entries = 0
        self.max_latency = 0

    def observe(self, index: int, phase: Any) -> None:
        if phase == EATING and self.pending is not None:
            self.entries += 1
            self.max_latency = max(self.max_latency, index - self.pending)
            self.pending = None
        if phase == HUNGRY and self.pending is None:
            self.pending = index


class LiveMonitor:
    """Incremental TME-spec evaluation over the live event stream."""

    def __init__(
        self,
        initial_vars: Mapping[str, Mapping[str, Any]],
        keep_states: bool = False,
    ):
        self.pids = tuple(sorted(initial_vars))
        self._vars: dict[str, dict[str, Any]] = {
            pid: monitored_vars(initial_vars[pid]) for pid in self.pids
        }
        self.keep_states = keep_states
        self.states: list[GlobalState] = (
            [_process_state(self._vars)] if keep_states else []
        )
        self._index = 0  # index of the latest state
        self._eating = 0  # processes whose latest phase is EATING
        self.me1: list[int] = []
        self.me3: list[FcfsViolation] = []
        self._me2 = {pid: _Me2Tracker() for pid in self.pids}
        for pid in self.pids:
            phase = self._vars[pid]["phase"]
            self._eating += phase == EATING
            self._me2[pid].observe(0, phase)
        if self._eating >= 2:
            self.me1.append(0)

    def on_event(self, pid: str, variables: Mapping[str, Any]) -> None:
        """Consume one totally ordered event: ``pid``'s post-step state."""
        prev = self._vars[pid]
        cur = self._vars[pid] = monitored_vars(variables)
        index = self._index = self._index + 1
        if self.keep_states:
            self.states.append(_process_state(self._vars))
        was, phase = prev["phase"], cur["phase"]
        # ME1 (mirrors me1_violations).
        self._eating += (phase == EATING) - (was == EATING)
        if self._eating >= 2:
            self.me1.append(index)
        # ME2 (mirrors me2_reports): nobody else's phase moved.
        self._me2[pid].observe(index, phase)
        # ME3 (mirrors me3_violations on the prev->cur transition): only
        # ``pid`` can have entered, the others are where they were.
        if phase == EATING and was == HUNGRY:
            self._check_me3(pid, as_request(prev["req"]), index)

    def _check_me3(
        self, entered: str, entered_req: Timestamp | None, index: int
    ) -> None:
        if entered_req is None:
            return
        for j in self.pids:
            if j == entered:
                continue
            other = self._vars[j]
            if other["phase"] == HUNGRY:
                req_j = as_request(other["req"])
                if req_j is not None and req_j.lt(entered_req):
                    self.me3.append(
                        FcfsViolation(j, req_j, entered, entered_req, index)
                    )

    @property
    def events_seen(self) -> int:
        return self._index

    def report(self) -> TmeSpecReport:
        """The verdict so far, shaped exactly like the offline report."""
        length = self._index + 1
        me2 = tuple(
            Me2Report(
                pid,
                self._me2[pid].entries,
                self._me2[pid].max_latency,
                self._me2[pid].pending,
                length,
            )
            for pid in self.pids
        )
        return TmeSpecReport(
            start=0,
            trace_length=length,
            me1=tuple(self.me1),
            me2=me2,
            me3=tuple(self.me3),
        )


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------


class TraceWriter:
    """Streams the live event trace to a JSONL artifact.

    Records: a ``hdr`` line (schema, pids, initial monitored variables),
    one ``ev`` line per event (global seq, pid, action, post-step
    variables), and ``mark`` lines for interventions that did not change
    any process state (pure link cuts/heals) but matter for forensics.
    """

    def __init__(self, stream: TextIO):
        self._stream = stream

    @classmethod
    def open(cls, path: str | Path) -> "TraceWriter":
        return cls(Path(path).open("w", encoding="utf-8"))

    def _write(self, record: dict[str, Any]) -> None:
        self._stream.write(compact_json(record) + "\n")

    def header(self, initial_vars: Mapping[str, Mapping[str, Any]]) -> None:
        self._write(
            {
                "t": "hdr",
                "schema": TRACE_SCHEMA_VERSION,
                "pids": sorted(initial_vars),
                "vars": {
                    pid: pack_value(monitored_vars(initial_vars[pid]))
                    for pid in sorted(initial_vars)
                },
            }
        )

    def event(
        self, seq: int, pid: str, action: str, variables: Mapping[str, Any]
    ) -> None:
        self._write(
            {
                "t": "ev",
                "i": seq,
                "pid": pid,
                "act": action,
                "vars": {
                    name: pack_value(variables.get(name))
                    for name in MONITORED_VARS
                },
            }
        )

    def mark(self, seq: int, kind: str, detail: str) -> None:
        self._write({"t": "mark", "i": seq, "kind": kind, "detail": detail})

    def close(self) -> None:
        self._stream.close()


# ---------------------------------------------------------------------------
# Offline revalidation
# ---------------------------------------------------------------------------


def load_trace(path: str | Path) -> Trace:
    """Rebuild the global-state sequence from a persisted trace artifact."""
    trace = Trace()
    vars_by_pid: dict[str, dict[str, Any]] = {}
    with Path(path).open(encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("t")
            if kind == "hdr":
                schema = record.get("schema")
                if schema != TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"trace schema {schema!r} != {TRACE_SCHEMA_VERSION}"
                    )
                vars_by_pid = {
                    pid: dict(unpack_value(packed))
                    for pid, packed in record["vars"].items()
                }
                trace.states.append(_process_state(vars_by_pid))
            elif kind == "ev":
                if not vars_by_pid:
                    raise ValueError("trace event before header")
                vars_by_pid[record["pid"]] = dict(
                    unpack_value(record["vars"])
                )
                trace.states.append(_process_state(vars_by_pid))
            # "mark" records carry no state delta.
    if not trace.states:
        raise ValueError(f"no trace header in {path}")
    return trace


def revalidate_trace(path: str | Path, start: int = 0) -> TmeSpecReport:
    """Re-derive a live run's verdict offline: rebuild the states and run
    the very same :func:`~repro.tme.spec.check_tme_spec` the simulator
    campaigns use."""
    return check_tme_spec(load_trace(path), start=start)
