"""Lspec (Section 3.2): every clause as a runtime monitor over traces.

The nine clauses::

    Client Spec      Structural Spec, Flow Spec, CS Spec
    Program Spec     Request Spec, Reply Spec, CS Entry Spec, CS Release Spec
    Environment Spec Timestamp Spec, Communication Spec

*Everywhere implementation* is a property of an implementation's own
transitions, not of the states faults dump it into.  The monitors therefore
judge only **program steps**: a transition taken at a step where the fault
injector struck is the environment's doing and is skipped (the fault-free
runs of E8/E9 contain no such steps, so there nothing is skipped).

Liveness clauses (CS Spec, the send obligations of Request/Reply Spec, CS
Entry Spec) use finite-trace semantics: a violated run shows an obligation
*pending* at trace end; callers apply a grace horizon
(:meth:`LspecReport.ok`).

Monitors read the implementation's *published Lspec view* through its
adapter (:func:`repro.tme.interfaces.adapter_for`) -- the same graybox
boundary the wrapper uses -- except the Structural/Flow clauses, which by
definition speak about the raw phase variable.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.clocks.happened_before import check_timestamp_spec
from repro.clocks.timestamps import Timestamp
from repro.dsl.program import ProcessProgram
from repro.runtime.trace import Trace
from repro.tme.interfaces import (
    EATING,
    HUNGRY,
    PHASES,
    REPLY,
    REQUEST,
    THINKING,
    Adapter,
    LspecView,
    adapter_for,
)

CLAUSES = (
    "structural",
    "flow",
    "cs",
    "request",
    "reply",
    "cs_entry",
    "cs_release",
    "timestamp",
    "communication",
)


@dataclass(frozen=True)
class Violation:
    """A definite (safety) breach of one clause at one step."""

    clause: str
    pid: str | None
    index: int
    detail: str


@dataclass(frozen=True)
class Pending:
    """A liveness obligation still open at trace end."""

    clause: str
    pid: str | None
    since: int
    detail: str


@dataclass
class ClauseReport:
    """Verdict for a single Lspec clause."""

    clause: str
    violations: list[Violation] = field(default_factory=list)
    pending: list[Pending] = field(default_factory=list)
    checked: int = 0

    def ok(self, trace_length: int, grace: int = 0) -> bool:
        """No violations and no obligation older than ``grace``."""
        if self.violations:
            return False
        return all(
            trace_length - 1 - p.since <= grace for p in self.pending
        )


@dataclass
class LspecReport:
    """Per-clause verdicts for one trace."""

    clauses: dict[str, ClauseReport]
    trace_length: int

    def ok(self, grace: int = 0) -> bool:
        """Every clause passes under the grace horizon."""
        return all(
            rep.ok(self.trace_length, grace) for rep in self.clauses.values()
        )

    def failing_clauses(self, grace: int = 0) -> list[str]:
        """Names of clauses that do not pass."""
        return [
            name
            for name, rep in self.clauses.items()
            if not rep.ok(self.trace_length, grace)
        ]

    def total_violations(self) -> int:
        """Sum of definite violations across all clauses."""
        return sum(len(rep.violations) for rep in self.clauses.values())

    def summary(self) -> str:
        """Compact per-clause status line."""
        parts = []
        for name in CLAUSES:
            rep = self.clauses[name]
            mark = "ok"
            if rep.violations:
                mark = f"{len(rep.violations)} violations"
            elif rep.pending:
                mark = f"{len(rep.pending)} pending"
            parts.append(f"{name}={mark}")
        return ", ".join(parts)


def adapters_of(programs: Mapping[str, ProcessProgram]) -> dict[str, Adapter]:
    """The registered Lspec adapter for each process's program."""
    return {pid: adapter_for(prog.name) for pid, prog in programs.items()}


#: The transition-local safety clauses: one step of one process decides
#: each, so :func:`judge_step` is the whole of their definition.
STEP_CLAUSES = ("structural", "flow", "request", "cs_entry", "cs_release")

_FLOW = {
    THINKING: {THINKING, HUNGRY},
    HUNGRY: {HUNGRY, EATING},
    EATING: {EATING, THINKING},
}


def judge_step(
    pid: str,
    pre: Mapping[str, Any],
    post: Mapping[str, Any],
    pre_view: LspecView,
    post_view: LspecView,
    peers: tuple[str, ...],
) -> Iterator[tuple[str, str | None]]:
    """The transition-local safety clauses over one program step of ``pid``.

    ``pre``/``post`` are the acting process's raw valuations (Structural,
    Flow and CS Release speak about the raw ``phase``/``lc``/``req``),
    ``pre_view``/``post_view`` its adapter views.  Yields ``(clause,
    detail)`` for every clause the step is subject to; ``detail`` is
    ``None`` when the step satisfies it, else what it broke:

    * Structural -- the step leaves a valid phase;
    * Flow -- t unless h, h unless e, e unless t (a corrupted pre-phase
      leaves the step unconstrained: the program may recover to anything
      valid);
    * Request safety -- REQ is frozen across hungry-to-hungry steps;
    * CS Entry safety -- entering requires ``forall k : REQ_j lt j.REQ_k``;
    * CS Release -- an *event* (clock- or phase-changing step) that
      results in thinking sets ``REQ_j = ts:j``.
    """
    before, after = pre["phase"], post["phase"]
    yield "structural", None if after in PHASES else f"phase={after!r}"
    flows = _FLOW.get(before)
    yield "flow", (
        f"{before} -> {after}"
        if flows is not None and after in PHASES and after not in flows
        else None
    )
    if pre_view.phase == HUNGRY and post_view.phase == HUNGRY:
        yield "request", (
            None
            if pre_view.req == post_view.req
            else f"REQ changed while hungry: {pre_view.req} -> {post_view.req}"
        )
    if pre_view.phase == HUNGRY and post_view.phase == EATING:
        blocked = [k for k in peers if not pre_view.req.lt(pre_view.req_of[k])]
        yield "cs_entry", (
            f"entered CS while blocked by {blocked}" if blocked else None
        )
    lc_after = post["lc"]
    if after == THINKING and (pre["lc"] != lc_after or before != after):
        req_after = post["req"]
        expected = (
            Timestamp(lc_after, pid)
            if isinstance(lc_after, int) and lc_after >= 0
            else None
        )
        yield "cs_release", (
            None
            if expected is not None and req_after == expected
            else f"thinking with REQ={req_after!r}, ts:j={expected!r}"
        )


class LspecChecker:
    """Evaluates all Lspec clauses on one trace.

    ``adapters`` maps pid -> the implementation's Lspec adapter;
    ``start`` restricts checking to the suffix ``states[start:]`` (used to
    judge the fault-free tail of a faulty run).
    """

    def __init__(
        self,
        trace: Trace,
        adapters: Mapping[str, Adapter],
        start: int = 0,
    ):
        self.trace = trace
        self.adapters = dict(adapters)
        self.start = start
        self.pids = trace.states[0].pids() if trace.states else ()
        self.peers = {
            pid: tuple(p for p in self.pids if p != pid) for pid in self.pids
        }
        self._views: list[dict[str, LspecView]] = [
            {
                pid: self.adapters[pid](
                    state.process_vars(pid), pid, self.peers[pid]
                )
                for pid in self.pids
            }
            for state in trace.states
        ]

    # -- helpers --------------------------------------------------------------

    def _transitions(self):
        """Yield (i, step, pre_state, post_state) for non-fault program
        steps in the checked window.  ``steps[i]`` transforms ``states[i]``
        into ``states[i+1]``."""
        for i, step in enumerate(self.trace.steps):
            if i < self.start or i + 1 >= len(self.trace.states):
                continue
            if step.faults:
                continue
            yield i, step, self.trace.states[i], self.trace.states[i + 1]

    def view(self, index: int, pid: str) -> LspecView:
        """The adapter-derived Lspec view of ``pid`` at state ``index``."""
        return self._views[index][pid]

    def _raw_phase(self, index: int, pid: str):
        return self.trace.states[index].var(pid, "phase")

    # -- the transition-local safety clauses --------------------------------------

    def check_steps(self) -> dict[str, ClauseReport]:
        """:func:`judge_step` on every program step of the checked window:
        Structural, Flow, and the safety halves of Request, CS Entry and
        CS Release (:data:`STEP_CLAUSES`), in one pass."""
        reports = {name: ClauseReport(name) for name in STEP_CLAUSES}
        for i, step, pre, post in self._transitions():
            pid = step.pid
            if pid is None:
                reports["structural"].checked += 1
                continue
            verdicts = judge_step(
                pid,
                pre.process_vars(pid),
                post.process_vars(pid),
                self.view(i, pid),
                self.view(i + 1, pid),
                self.peers[pid],
            )
            for clause, detail in verdicts:
                rep = reports[clause]
                rep.checked += 1
                if detail is not None:
                    rep.violations.append(Violation(clause, pid, i + 1, detail))
        return reports

    # -- liveness ------------------------------------------------------------------

    def check_cs(self) -> ClauseReport:
        """CS Spec: ``e.j |-> ~e.j`` (eating is transient; client duty)."""
        rep = ClauseReport("cs")
        for pid in self.pids:
            since: int | None = None
            for i in range(self.start, len(self.trace.states)):
                phase = self._raw_phase(i, pid)
                if phase == EATING:
                    if since is None:
                        since = i
                else:
                    since = None
            if since is not None:
                rep.pending.append(
                    Pending("cs", pid, since, "still eating at trace end")
                )
        return rep

    def _request_sends(self, rep: ClauseReport) -> None:
        """Request Spec's liveness half: becoming hungry obliges a request
        send to every peer, eventually."""
        send_index: dict[tuple[str, str], list[int]] = {}
        for i, step in enumerate(self.trace.steps):
            if step.pid is None:
                continue
            for kind, receiver in step.sends:
                if kind == REQUEST:
                    send_index.setdefault((step.pid, receiver), []).append(i)
        for i, step, _pre, _post in self._transitions():
            if step.pid is None:
                continue
            pre_v = self.view(i, step.pid)
            post_v = self.view(i + 1, step.pid)
            if pre_v.phase != HUNGRY and post_v.phase == HUNGRY:
                for k in self.peers[step.pid]:
                    sends = send_index.get((step.pid, k), [])
                    if not any(s >= i for s in sends):
                        rep.pending.append(
                            Pending(
                                "request",
                                step.pid,
                                i,
                                f"no request sent to {k} after onset",
                            )
                        )

    def check_reply(self) -> ClauseReport:
        """Reply Spec: receiving an *earlier* request obliges a reply.

        Event-triggered: after a request from ``k`` is delivered to ``j``,
        if ``j``'s view shows ``received(j.REQ_k) /\\ j.REQ_k lt REQ_j``,
        a reply to ``k`` must follow (both RA and Lamport discharge it
        within the receive action itself)."""
        rep = ClauseReport("reply")
        reply_index: dict[tuple[str, str], list[int]] = {}
        for i, step in enumerate(self.trace.steps):
            if step.pid is None:
                continue
            for kind, receiver in step.sends:
                if kind == REPLY:
                    reply_index.setdefault((step.pid, receiver), []).append(i)
        for i, step, _pre, _post in self._transitions():
            if step.kind != "deliver" or step.delivered_kind != REQUEST:
                continue
            j, k = step.pid, step.delivered_from
            if j is None or k is None:
                continue
            rep.checked += 1
            post_v = self.view(i + 1, j)
            if post_v.received.get(k) and post_v.req_of[k].lt(post_v.req):
                replies = reply_index.get((j, k), [])
                if not any(r >= i for r in replies):
                    rep.pending.append(
                        Pending(
                            "reply",
                            j,
                            i,
                            f"earlier request from {k} never answered",
                        )
                    )
        return rep

    def _entry_taken(self, rep: ClauseReport) -> None:
        """CS Entry Spec's liveness half: a hungry process whose view
        satisfies ``forall k : REQ_j lt j.REQ_k`` eventually eats."""
        for pid in self.pids:
            since: int | None = None
            for i in range(self.start, len(self.trace.states)):
                v = self.view(i, pid)
                if v.phase == EATING:
                    since = None
                    continue
                enabled = v.phase == HUNGRY and all(
                    v.req.lt(v.req_of[k]) for k in self.peers[pid]
                )
                if enabled and since is None:
                    since = i
            if since is not None:
                rep.pending.append(
                    Pending(
                        "cs_entry",
                        pid,
                        since,
                        "entry condition held, CS never entered",
                    )
                )

    # -- Environment Spec --------------------------------------------------------

    def check_timestamp(self) -> ClauseReport:
        """Timestamp Spec: totally ordered domain (by construction of
        :class:`Timestamp`), and ``e hb f => ts:e < ts:f`` over the clock
        events of the checked window, with ``hb`` running through every
        window event."""
        rep = ClauseReport("timestamp")
        window_events = [
            e
            for e in self.trace.events
            if e.step_index is not None and e.step_index >= self.start
        ]
        rep.checked = sum(e.clock_event for e in window_events)
        for violation in check_timestamp_spec(window_events):
            rep.violations.append(
                Violation(
                    "timestamp",
                    violation.later.pid,
                    violation.later.step_index or 0,
                    violation.describe(),
                )
            )
        return rep

    def check_communication(self) -> ClauseReport:
        """Communication Spec: channels behave FIFO -- across every program
        step each channel changes only by one head removal and/or tail
        appends."""
        rep = ClauseReport("communication")
        for i, _step, pre, post in self._transitions():
            for (src, dst), before in pre.channels:
                after = post.channel_contents(src, dst)
                rep.checked += 1
                if not _fifo_step(before, after):
                    rep.violations.append(
                        Violation(
                            "communication",
                            None,
                            i + 1,
                            f"channel {src}->{dst} mutated non-FIFO",
                        )
                    )
        return rep

    # -- aggregate ---------------------------------------------------------------

    def check_all(self) -> LspecReport:
        """Evaluate every clause and bundle the verdicts."""
        clauses = self.check_steps()
        self._request_sends(clauses["request"])
        self._entry_taken(clauses["cs_entry"])
        clauses["cs"] = self.check_cs()
        clauses["reply"] = self.check_reply()
        clauses["timestamp"] = self.check_timestamp()
        clauses["communication"] = self.check_communication()
        return LspecReport(
            {name: clauses[name] for name in CLAUSES}, len(self.trace.states)
        )


def _fifo_step(before: tuple, after: tuple) -> bool:
    for drop in (0, 1):
        if drop > len(before):
            continue
        remaining = before[drop:]
        if after[: len(remaining)] == remaining:
            return True
    return False


def check_lspec(
    trace: Trace,
    programs: Mapping[str, ProcessProgram],
    start: int = 0,
) -> LspecReport:
    """Evaluate every Lspec clause on ``trace.states[start:]``."""
    return LspecChecker(trace, adapters_of(programs), start).check_all()
