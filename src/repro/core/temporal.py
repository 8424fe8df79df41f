"""UNITY temporal operators (Section 3.1) in two semantics.

The paper writes its specifications in UNITY [Chandy & Misra 1988]:

* ``p unless q`` -- if ``p /\\ ~q`` holds, the next state satisfies
  ``p \\/ q``;
* ``stable(p)``  -- ``p unless false``;
* ``q is invariant`` -- ``q`` holds initially and is stable;
* ``p |-> q`` (*leads to*) -- whenever ``p`` holds, ``q`` holds then or
  later;
* ``p ~-> q`` (*leads to always*, written ``,->`` in the paper) --
  ``(p |-> q) /\\ stable(q)``.

Two evaluation semantics are provided:

1. **Exact, over finite transition systems** (used by the core-layer theorem
   checks).  Safety operators inspect transitions.  ``leads_to`` is decided
   by the standard graph criterion: it fails iff from some ``p /\\ ~q``
   state there is an infinite walk avoiding ``q`` -- i.e. a cycle inside
   the ``~q`` region reachable from that state within ``~q``.  One SCC pass
   over the ``~q`` states and one backward reach from their cycles
   (:mod:`repro.core.graph`) answer it for every state at once.
2. **Finite-trace, over recorded executions.**  Safety violations are
   definite.  Liveness obligations still open at trace end are reported as
   *pending* rather than violated, with the index where the oldest
   obligation arose, so callers can apply a grace horizon.  Only tests
   call these and :class:`ObligationTracker` today (the runtime monitors
   judge traces with their own checkers); ROADMAP item 4 gives them one.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.system import StateLike, TransitionSystem

Predicate = Callable[[StateLike], bool]


# ---------------------------------------------------------------------------
# Exact semantics over finite transition systems
# ---------------------------------------------------------------------------


def holds_unless(system: TransitionSystem, p: Predicate, q: Predicate) -> bool:
    """``p unless q`` over all transitions of the system (everywhere)."""
    for s, t in system.edges():
        if p(s) and not q(s) and not (p(t) or q(t)):
            return False
    return True


def holds_stable(system: TransitionSystem, p: Predicate) -> bool:
    """``stable(p)`` == ``p unless false``."""
    return holds_unless(system, p, lambda _s: False)


def holds_invariant(system: TransitionSystem, p: Predicate) -> bool:
    """``p is invariant``: holds at every initial state and is stable."""
    return all(p(s) for s in system.initial) and holds_stable(system, p)


def holds_leads_to(
    system: TransitionSystem,
    p: Predicate,
    q: Predicate,
    from_anywhere: bool = True,
) -> bool:
    """``p |-> q``: on every computation, every ``p`` state is followed
    (inclusively) by a ``q`` state.

    With ``from_anywhere=True`` (matching *everywhere* specifications) all
    states are considered computation starts; otherwise only states reachable
    from the initial states are.
    """
    g = system.graph
    avoids_q = g.stays_forever(bytearray(not q(s) for s in g.nodes))
    domain = g.nodes if from_anywhere else system.reachable()
    return not any(avoids_q[g.index[s]] and p(s) for s in domain)


def holds_leads_to_always(
    system: TransitionSystem,
    p: Predicate,
    q: Predicate,
    from_anywhere: bool = True,
) -> bool:
    """``p ,-> q`` == ``(p |-> q) /\\ stable(q)`` (paper, Section 3.1)."""
    return holds_stable(system, q) and holds_leads_to(
        system, p, q, from_anywhere=from_anywhere
    )


# ---------------------------------------------------------------------------
# Finite-trace semantics (for simulation traces)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceVerdict:
    """Outcome of evaluating a temporal formula on a finite trace.

    ``violated_at`` is the index of the first definite violation (safety
    only); ``pending_since`` is the index of the oldest liveness obligation
    still open at trace end.  A formula *passes* a finite trace iff it is
    neither violated nor pending (pending may be acceptable under a grace
    horizon -- that policy belongs to the caller).
    """

    formula: str
    violated_at: int | None = None
    pending_since: int | None = None
    detail: str = ""

    @property
    def violated(self) -> bool:
        """A definite (safety) violation occurred."""
        return self.violated_at is not None

    @property
    def pending(self) -> bool:
        """A liveness obligation is still open at trace end."""
        return self.pending_since is not None

    @property
    def ok(self) -> bool:
        """Neither violated nor pending."""
        return not self.violated and not self.pending

    def pending_age(self, trace_length: int) -> int:
        """Steps the oldest obligation has been open at trace end."""
        if self.pending_since is None:
            return 0
        return trace_length - 1 - self.pending_since


def unless_on_trace(
    trace: Sequence[StateLike], p: Predicate, q: Predicate, formula: str = "p unless q"
) -> TraceVerdict:
    """``p unless q`` on a finite trace (safety: definite verdicts)."""
    for i in range(len(trace) - 1):
        s, t = trace[i], trace[i + 1]
        if p(s) and not q(s) and not (p(t) or q(t)):
            return TraceVerdict(
                formula, violated_at=i, detail=f"p held at {i}, neither p nor q at {i + 1}"
            )
    return TraceVerdict(formula)


def stable_on_trace(
    trace: Sequence[StateLike], p: Predicate, formula: str = "stable(p)"
) -> TraceVerdict:
    """``stable(p)`` == ``p unless false`` on a finite trace."""
    return unless_on_trace(trace, p, lambda _s: False, formula=formula)


def invariant_on_trace(
    trace: Sequence[StateLike], p: Predicate, formula: str = "invariant(p)"
) -> TraceVerdict:
    """Holds at the first state and stays stable thereafter."""
    if trace and not p(trace[0]):
        return TraceVerdict(formula, violated_at=0, detail="fails at first state")
    return stable_on_trace(trace, p, formula=formula)


def leads_to_on_trace(
    trace: Sequence[StateLike], p: Predicate, q: Predicate, formula: str = "p |-> q"
) -> TraceVerdict:
    """``p |-> q`` on a finite trace: unmet obligations are *pending*."""
    oldest_open: int | None = None
    for i, s in enumerate(trace):
        if q(s):
            oldest_open = None
        if p(s) and not q(s) and oldest_open is None:
            oldest_open = i
    if oldest_open is not None:
        return TraceVerdict(
            formula,
            pending_since=oldest_open,
            detail=f"obligation raised at {oldest_open} unmet by trace end",
        )
    return TraceVerdict(formula)


def leads_to_always_on_trace(
    trace: Sequence[StateLike],
    p: Predicate,
    q: Predicate,
    formula: str = "p ,-> q",
) -> TraceVerdict:
    """``p ,-> q`` == ``(p |-> q) /\\ stable(q)`` on a finite trace."""
    stable_part = stable_on_trace(trace, q, formula=formula)
    if stable_part.violated:
        return stable_part
    return leads_to_on_trace(trace, p, q, formula=formula)


@dataclass
class ObligationTracker:
    """Incremental (online) ``p |-> q`` monitor for streaming states.

    Feed states one at a time with :meth:`observe`; at any point,
    :attr:`pending_since` tells whether an obligation is open and since when,
    and :meth:`max_latency` the longest raise-to-discharge wait.
    """

    p: Predicate
    q: Predicate
    name: str = "p |-> q"
    pending_since: int | None = None
    discharged: list[tuple[int, int]] = field(default_factory=list)
    _step: int = 0

    def observe(self, state: StateLike) -> None:
        """Feed the next state of the stream."""
        if self.q(state) and self.pending_since is not None:
            self.discharged.append((self.pending_since, self._step))
            self.pending_since = None
        if self.p(state) and not self.q(state) and self.pending_since is None:
            self.pending_since = self._step
        self._step += 1

    @property
    def steps_observed(self) -> int:
        """How many states have been observed."""
        return self._step

    def max_latency(self) -> int:
        """Largest raise-to-discharge latency seen so far (discharged only)."""
        return max((b - a for a, b in self.discharged), default=0)
