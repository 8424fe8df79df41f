"""Graybox design of other dependability properties (Section 6).

The concluding remarks state: *"the approach is applicable for the design of
other dependability properties, for example, masking fault-tolerance and
fail-safe fault-tolerance ... our observation that local everywhere
specifications are amenable to graybox stabilization is also true for
graybox masking and graybox fail-safe."*

This module makes those claims executable on finite systems.  A *fault
class* is a set of extra transitions the environment may take (finitely
often).  Following the standard taxonomy (and the paper's parenthetical
definitions):

* **masking** tolerant: computations *in the presence of the faults*
  implement the specification -- faults never produce an observable
  deviation;
* **fail-safe** tolerant: computations in the presence of faults implement
  the *safety* part of the specification (liveness may be lost);
* **nonmasking** (stabilizing) tolerant: after the faults stop, every
  computation converges back to the specification.

For transition systems these are decidable; the graybox composition
theorems (the analogues of Theorem 1) transfer verbatim and are checked by
:func:`check_graybox_masking` / :func:`check_graybox_failsafe` -- the
property-based tests fuzz them the same way Theorem 1 is fuzzed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.box import box
from repro.core.relations import (
    RelationReport,
    everywhere_implements,
    implements,
    is_stabilizing_to,
)
from repro.core.system import StateLike, Transition, TransitionSystem
from repro.core.theorems import TheoremVerdict, _details


@dataclass(frozen=True)
class FaultClass:
    """A set of environment transitions (state perturbations).

    ``transitions`` may move the system anywhere inside the state space;
    the target states must exist in the system the faults are applied to.
    """

    name: str
    transitions: frozenset[Transition]

    def __init__(self, name: str, transitions: Iterable[Transition]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "transitions", frozenset(transitions))

    def __len__(self) -> int:
        return len(self.transitions)


def with_faults(system: TransitionSystem, faults: FaultClass) -> TransitionSystem:
    """The *fault span* transition system: program or fault at each step."""
    merged: dict[StateLike, set[StateLike]] = {
        s: set(succs) for s, succs in system.transitions.items()
    }
    for src, dst in faults.transitions:
        if src not in merged:
            raise ValueError(f"fault source {src!r} outside the state space")
        if dst not in merged:
            raise ValueError(f"fault target {dst!r} outside the state space")
        merged[src].add(dst)
    return TransitionSystem(
        f"({system.name} + {faults.name})", merged, system.initial
    )


def fault_span(system: TransitionSystem, faults: FaultClass) -> frozenset[StateLike]:
    """States reachable from the initial states when faults may strike."""
    return with_faults(system, faults).reachable()


# ---------------------------------------------------------------------------
# The three tolerance properties
# ---------------------------------------------------------------------------


def is_masking_tolerant(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    faults: FaultClass,
) -> RelationReport:
    """Masking: even *with* fault steps interleaved, every computation from
    the initial states is a computation of the specification.

    (Fault transitions themselves must be invisible, i.e. also allowed by
    the specification -- that is what "masking" means.)
    """
    faulty = with_faults(concrete, faults)
    reachable = faulty.reachable()
    bad = frozenset(
        (s, t)
        for s, t in faulty.edges()
        if s in reachable and not abstract.has_transition(s, t)
    )
    holds = not bad and concrete.initial <= abstract.initial
    reason = ""
    if bad:
        reason = f"{len(bad)} fault-span transitions leave the specification"
    elif not holds:
        reason = "initial states not shared with the specification"
    return RelationReport(
        "masking-tolerant-to",
        concrete.name,
        abstract.name,
        holds,
        reason=reason,
        witness_transitions=bad,
    )


def safety_violating_transitions(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    domain: frozenset[StateLike],
) -> frozenset[Transition]:
    """Program transitions from ``domain`` that step outside the
    specification (the finite-system notion of a safety violation: a
    prefix that is not a prefix of any specification computation)."""
    return frozenset(
        (s, t)
        for s, t in concrete.edges()
        if s in domain and not abstract.has_transition(s, t)
    )


def is_failsafe_tolerant(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    faults: FaultClass,
) -> RelationReport:
    """Fail-safe: in the presence of faults the *program's own* steps never
    violate safety -- from every fault-reachable state, every program
    transition stays inside the specification.  Liveness is not required
    (the system may sit still forever after a fault)."""
    span = fault_span(concrete, faults)
    bad = safety_violating_transitions(concrete, abstract, span)
    return RelationReport(
        "failsafe-tolerant-to",
        concrete.name,
        abstract.name,
        not bad,
        reason=(
            f"{len(bad)} program transitions violate safety inside the "
            f"fault span"
            if bad
            else ""
        ),
        witness_transitions=bad,
    )


def is_nonmasking_tolerant(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    faults: FaultClass,
) -> RelationReport:
    """Nonmasking (stabilizing): once the (finitely many) faults stop,
    every computation from the fault span converges to a legitimate
    suffix of the specification.

    Decided like :func:`repro.core.relations.is_stabilizing_to`, but
    quantifying only over fault-span states (the states faults can
    actually produce) rather than the whole space.
    """
    # A violating computation = a cycle of program transitions, reachable
    # from the span without faults, containing a non-good transition.  The
    # reachable set is closed under successors, so those are the cycles
    # that break plain stabilization and start inside it.
    span = fault_span(concrete, faults)
    reachable_from_span = concrete.reachable_from(span & concrete.states)
    bad_cycle_edges = frozenset(
        e
        for e in is_stabilizing_to(concrete, abstract).witness_transitions
        if e[0] in reachable_from_span
    )
    return RelationReport(
        "nonmasking-tolerant-to",
        concrete.name,
        abstract.name,
        not bad_cycle_edges,
        reason=(
            f"{len(bad_cycle_edges)} cycle transitions inside the fault "
            f"span never converge"
            if bad_cycle_edges
            else ""
        ),
        witness_transitions=bad_cycle_edges,
    )


# ---------------------------------------------------------------------------
# Graybox composition theorems for masking / fail-safe (Section 6 claims)
# ---------------------------------------------------------------------------


def check_graybox_masking(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    wrapper_impl: TransitionSystem,
    wrapper_spec: TransitionSystem,
    faults: FaultClass,
) -> TheoremVerdict:
    """Graybox masking: if ``[C => A]``, ``[C => A]init``, ``[W' => W]``,
    and ``A box W`` is masking tolerant to F, then ``C box W'`` is masking
    tolerant to F.

    (Unlike Theorem 1, masking constrains behaviour *from the initial
    states*, so the init-level refinement premise is needed as well.)"""
    p0 = implements(concrete, abstract)
    p1 = everywhere_implements(concrete, abstract)
    p2 = everywhere_implements(wrapper_impl, wrapper_spec)
    p3 = is_masking_tolerant(box(abstract, wrapper_spec), abstract, faults)
    conclusion = is_masking_tolerant(
        box(concrete, wrapper_impl), abstract, faults
    )
    return TheoremVerdict(
        "Graybox masking",
        premises_hold=bool(p0 and p1 and p2 and p3),
        conclusion_holds=bool(conclusion),
        details=_details(p0, p1, p2, p3, conclusion),
    )


def check_graybox_failsafe(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    wrapper_impl: TransitionSystem,
    wrapper_spec: TransitionSystem,
    faults: FaultClass,
) -> TheoremVerdict:
    """Graybox fail-safe: if ``[C => A]``, ``[C => A]init``, ``[W' => W]``,
    and ``A box W`` is fail-safe tolerant to F, then ``C box W'`` is
    fail-safe tolerant to F."""
    p0 = implements(concrete, abstract)
    p1 = everywhere_implements(concrete, abstract)
    p2 = everywhere_implements(wrapper_impl, wrapper_spec)
    p3 = is_failsafe_tolerant(box(abstract, wrapper_spec), abstract, faults)
    conclusion = is_failsafe_tolerant(
        box(concrete, wrapper_impl), abstract, faults
    )
    return TheoremVerdict(
        "Graybox fail-safe",
        premises_hold=bool(p0 and p1 and p2 and p3),
        conclusion_holds=bool(conclusion),
        details=_details(p0, p1, p2, p3, conclusion),
    )
