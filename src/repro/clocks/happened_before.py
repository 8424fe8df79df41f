"""Timestamp Spec over recorded events, judged in one pass.

Timestamp Spec: ``(forall e, f :: e hb f => ts:e < ts:f)``, where ``hb``
[Lamport 1978] is the transitive closure of

1. same-process program order, and
2. send -> matching receive,

over *every* recorded event.  Only clock events (steps that moved ``lc``)
carry a timestamp worth judging, but the causal chain runs through the
others too: the wrapper's ``correct`` action resends REQ without ticking
its clock, and the receive of that message is still causally after the
sender's past.

:func:`check_timestamp_spec` carries, for every event ``x`` in recorded
order, ``past(x)``: the clock event with the greatest timestamp in ``x``'s
causal past (``x`` itself if it is a clock event and exceeds it).
``Timestamp.<`` is a strict total order, so a clock event ``f`` has some
causal predecessor ``p`` with ``not ts:p < ts:f`` iff the maximum of its
predecessors' pasts is such a ``p``.  That decides the full closure in
O(events) without building it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.clocks.timestamps import Timestamp


@dataclass(frozen=True)
class RecordedEvent:
    """One event of an execution, as recorded by the runtime.

    ``uid`` is globally unique; ``send_uid`` is set on receive events and
    names the matching send event.
    """

    uid: int
    pid: str
    kind: str
    timestamp: Timestamp
    send_uid: int | None = None
    step_index: int | None = None
    clock_event: bool = True


@dataclass(frozen=True)
class HbViolation:
    """A pair ``e hb f`` whose timestamps are not increasing."""

    earlier: RecordedEvent
    later: RecordedEvent

    def describe(self) -> str:
        """Human-readable account of the violated pair."""
        return (
            f"{self.earlier.kind}@{self.earlier.pid} hb "
            f"{self.later.kind}@{self.later.pid} but "
            f"ts {self.earlier.timestamp} !< {self.later.timestamp}"
        )


def check_timestamp_spec(events: Sequence[RecordedEvent]) -> list[HbViolation]:
    """One violation per clock event whose timestamp does not exceed every
    clock event in its causal past; the witness ``earlier`` is the
    greatest of them.  Empty list == spec satisfied on this trace.

    ``events`` must be in an order consistent with causality (the
    runtime's recording order is).  A receive whose send is not listed
    earlier (forged by a fault, or cut off by the window) inherits no
    causal history from it.
    """
    past: dict[int, RecordedEvent | None] = {}
    last: dict[str, RecordedEvent | None] = {}
    violations = []
    for ev in events:
        top = last.get(ev.pid)
        sent = past.get(ev.send_uid)
        if sent is not None and (top is None or top.timestamp < sent.timestamp):
            top = sent
        if ev.clock_event:
            if top is None or top.timestamp < ev.timestamp:
                top = ev
            else:
                violations.append(HbViolation(top, ev))
        past[ev.uid] = last[ev.pid] = top
    return violations
