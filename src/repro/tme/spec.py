"""TME Spec (Section 3.1): ME1, ME2, ME3 as trace monitors.

::

    (ME1) Mutual Exclusion:      (forall j,k :: e.j /\\ e.k => j = k)
    (ME2) Starvation Freedom:    (forall j :: h.j |-> e.j)
    (ME3) First-Come First-Serve:
          (forall j,k : j != k :
              (h.j /\\ REQ_j hb REQ_k) |-> ts:(e.j) < ts:(e.k))

ME1 is a state predicate, checked on every snapshot.  ME2 is a leads-to,
monitored per process with pending-obligation reporting (finite traces).
For ME3 we monitor a slightly *stronger*, decidable-on-snapshots property:
whenever two processes are simultaneously hungry with ``REQ_j lt REQ_k``,
``j`` must enter the CS before ``k`` does.  Since Lamport clocks satisfy
``e hb f => ts:e lt ts:f``, the paper's antecedent (``REQ_j hb REQ_k``
while ``h.j``) implies ours, so any ME3 violation is caught; the converse
over-approximation can only make our monitor stricter, and both RA and
Lamport serve strictly in timestamp order, so fault-free runs stay clean.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.clocks.timestamps import Timestamp
from repro.runtime.trace import GlobalState, Trace
from repro.tme.interfaces import EATING, HUNGRY


def eating_pids(state: GlobalState) -> list[str]:
    """Processes currently in the critical section."""
    return [p for p in state.pids() if state.var(p, "phase") == EATING]


def hungry_pids(state: GlobalState) -> list[str]:
    """Processes currently requesting the critical section."""
    return [p for p in state.pids() if state.var(p, "phase") == HUNGRY]


# ---------------------------------------------------------------------------
# ME1
# ---------------------------------------------------------------------------


def me1_violations(states: Sequence[GlobalState]) -> list[int]:
    """Indices of states where two or more processes are eating."""
    return [i for i, s in enumerate(states) if len(eating_pids(s)) >= 2]


# ---------------------------------------------------------------------------
# ME2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Me2Report:
    """Starvation-freedom report for one process."""

    pid: str
    entries: int
    max_latency: int
    pending_since: int | None
    trace_length: int

    @property
    def pending_age(self) -> int:
        """Steps the oldest open hunger has lasted at trace end."""
        if self.pending_since is None:
            return 0
        return self.trace_length - 1 - self.pending_since

    def satisfied(self, grace: int = 0) -> bool:
        """No starvation: any open obligation is younger than ``grace``."""
        return self.pending_since is None or self.pending_age <= grace


def me2_reports(states: Sequence[GlobalState], start: int = 0) -> list[Me2Report]:
    """Per-process ``h |-> e`` over ``states[start:]``."""
    if not states:
        return []
    window = states[start:]
    reports = []
    for pid in states[0].pids():
        pending: int | None = None
        entries = 0
        max_latency = 0
        for i, s in enumerate(window):
            phase = s.var(pid, "phase")
            if phase == EATING and pending is not None:
                entries += 1
                max_latency = max(max_latency, i - pending)
                pending = None
            if phase == HUNGRY and pending is None:
                pending = i
        reports.append(
            Me2Report(pid, entries, max_latency, pending, len(window))
        )
    return reports


# ---------------------------------------------------------------------------
# ME3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FcfsViolation:
    """``loser`` entered the CS at ``entry_index`` although ``winner`` was
    simultaneously hungry with an earlier request."""

    winner: str
    winner_req: Timestamp
    loser: str
    loser_req: Timestamp
    entry_index: int


def as_request(value: object) -> Timestamp | None:
    """A ``req`` value as ME3 reads it: anything but a timestamp (a
    corrupted variable) is no request."""
    return value if isinstance(value, Timestamp) else None


def _req(state: GlobalState, pid: str) -> Timestamp | None:
    return as_request(state.var(pid, "req"))


def me3_violations(
    states: Sequence[GlobalState], start: int = 0
) -> list[FcfsViolation]:
    """FCFS check (see module docstring): at every CS entry ``k -> e``,
    no process may still be hungry with an earlier request than ``k``'s."""
    violations: list[FcfsViolation] = []
    window = states[start:]
    for i in range(1, len(window)):
        prev, cur = window[i - 1], window[i]
        for k in cur.pids():
            entered = (
                cur.var(k, "phase") == EATING
                and prev.var(k, "phase") == HUNGRY
            )
            if not entered:
                continue
            req_k = _req(prev, k)
            if req_k is None:
                continue
            for j in cur.pids():
                if j == k:
                    continue
                if (
                    prev.var(j, "phase") == HUNGRY
                    and cur.var(j, "phase") == HUNGRY
                ):
                    req_j = _req(prev, j)
                    if req_j is not None and req_j.lt(req_k):
                        violations.append(
                            FcfsViolation(j, req_j, k, req_k, start + i)
                        )
    return violations


# ---------------------------------------------------------------------------
# Aggregate verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TmeSpecReport:
    """TME Spec verdict over (a suffix of) a trace."""

    start: int
    trace_length: int
    me1: tuple[int, ...]
    me2: tuple[Me2Report, ...]
    me3: tuple[FcfsViolation, ...]

    def holds(self, liveness_grace: int = 0, check_fcfs: bool = True) -> bool:
        """Does TME Spec hold on the checked window?"""
        if self.me1:
            return False
        if check_fcfs and self.me3:
            return False
        return all(r.satisfied(liveness_grace) for r in self.me2)

    def summary(self) -> str:
        """One-line report for logs and benches."""
        worst_pending = max((r.pending_age for r in self.me2), default=0)
        return (
            f"ME1 violations: {len(self.me1)}; "
            f"ME3 violations: {len(self.me3)}; "
            f"CS entries: {sum(r.entries for r in self.me2)}; "
            f"oldest open hunger: {worst_pending} steps"
        )


def check_tme_spec(trace: Trace, start: int = 0) -> TmeSpecReport:
    """Evaluate ME1/ME2/ME3 on ``trace.states[start:]``."""
    states = trace.states
    return TmeSpecReport(
        start=start,
        trace_length=len(states),
        me1=tuple(i + start for i in me1_violations(states[start:])),
        me2=tuple(me2_reports(states, start)),
        me3=tuple(me3_violations(states, start)),
    )
