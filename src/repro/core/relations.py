"""The refinement and stabilization relations of Section 2.

All three relations of the paper are decided *exactly* on finite transition
systems (see :mod:`repro.core.system` for why transition systems faithfully
represent the paper's fusion-closed systems):

* ``[C => A]init``  (*C implements A*): every computation of C starting from
  an initial state of C is a computation of A starting from an initial state
  of A.
* ``[C => A]``      (*C everywhere implements A*): every computation of C is
  a computation of A.
* *C is stabilizing to A*: every computation of C has a suffix that is a
  suffix of some computation of A starting at an initial state of A.

For transition systems these reduce to graph conditions:

* ``[C => A]`` iff every state of C is a state of A and every transition of C
  is a transition of A (then every infinite C-walk is an infinite A-walk, and
  conversely a violating transition immediately yields a violating
  computation by totality).
* ``[C => A]init`` iff every initial state of C is an initial state of A and
  every transition of C *reachable from C's initial states* is a transition
  of A.
* *stabilizing*: a suffix of an A-init computation is precisely an infinite
  A-walk starting at a state reachable from A's initial states (fusion
  closure lets any such walk be glued onto an initial prefix).  Call a C
  transition *good* if it is an A transition between A-init-reachable
  states.  A computation of C stabilizes iff it eventually takes only good
  transitions.  In a finite graph, a computation taking non-good transitions
  infinitely often must traverse some cycle containing a non-good transition;
  conversely such a cycle yields a non-stabilizing computation.  An edge
  lies on a cycle iff its endpoints share a strongly connected component.
  Hence: *C is stabilizing to A iff no SCC of C holds a non-good transition
  between two of its own states.*
* *stabilizing under weak fairness* (UNITY's execution model, one
  constraint per action): what a computation visits and takes infinitely
  often is a strongly connected edge set inside one maximal SCC.  So a fair
  violating computation exists iff some maximal SCC holds a non-good
  transition and every action is taken on an edge inside it or disabled at
  one of its states (DESIGN §3, decision 16).

Each verdict is one SCC pass of the kernel in :mod:`repro.core.graph` over
C's dense-id index (:attr:`TransitionSystem.graph`); the legitimate states
come from the exploration engine (:meth:`TransitionSystem.reachable`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

from repro.core.system import StateLike, Transition, TransitionSystem


@dataclass(frozen=True)
class RelationReport:
    """Outcome of a relation check, with a machine-readable witness.

    ``holds`` is the verdict; when it is ``False``, ``witness_transitions``
    (and possibly ``witness_states``) identify why -- e.g. the C-transitions
    that are not A-transitions, or the cycle edges breaking stabilization.
    """

    relation: str
    left: str
    right: str
    holds: bool
    reason: str = ""
    witness_states: frozenset[StateLike] = field(default_factory=frozenset)
    witness_transitions: frozenset[Transition] = field(default_factory=frozenset)

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        """One-line human-readable verdict."""
        verdict = "HOLDS" if self.holds else "FAILS"
        text = f"{self.left} {self.relation} {self.right}: {verdict}"
        if self.reason:
            text += f" ({self.reason})"
        return text


def everywhere_implements(concrete: TransitionSystem, abstract: TransitionSystem) -> RelationReport:
    """Decide ``[C => A]``: every computation of C is a computation of A."""
    missing_states = concrete.states - abstract.states
    if missing_states:
        return RelationReport(
            "[=>]",
            concrete.name,
            abstract.name,
            False,
            reason=f"{len(missing_states)} C-states outside A's state space",
            witness_states=frozenset(missing_states),
        )
    bad = frozenset(
        (s, t) for s, t in concrete.edges() if not abstract.has_transition(s, t)
    )
    if bad:
        return RelationReport(
            "[=>]",
            concrete.name,
            abstract.name,
            False,
            reason=f"{len(bad)} C-transitions are not A-transitions",
            witness_transitions=bad,
        )
    return RelationReport("[=>]", concrete.name, abstract.name, True)


def implements(concrete: TransitionSystem, abstract: TransitionSystem) -> RelationReport:
    """Decide ``[C => A]init``: computations from C's initial states are
    computations of A from A's initial states."""
    bad_init = concrete.initial - abstract.initial
    if bad_init:
        return RelationReport(
            "[=>]init",
            concrete.name,
            abstract.name,
            False,
            reason="some initial states of C are not initial states of A",
            witness_states=frozenset(bad_init),
        )
    reachable = concrete.reachable()
    bad = frozenset(
        (s, t)
        for s, t in concrete.edges()
        if s in reachable and not abstract.has_transition(s, t)
    )
    if bad:
        return RelationReport(
            "[=>]init",
            concrete.name,
            abstract.name,
            False,
            reason=f"{len(bad)} init-reachable C-transitions not in A",
            witness_transitions=bad,
        )
    return RelationReport("[=>]init", concrete.name, abstract.name, True)


def legitimate_states(abstract: TransitionSystem) -> frozenset[StateLike]:
    """States on computations of A that start at an initial state of A.

    By totality, these are exactly the states reachable from A's initial
    states; any infinite A-walk from such a state is a suffix of an A-init
    computation (glue it onto a reaching prefix -- fusion closure)."""
    return abstract.reachable()


def good_transitions(
    concrete: TransitionSystem, abstract: TransitionSystem
) -> frozenset[Transition]:
    """C-transitions that are A-transitions between legitimate A-states."""
    legit = legitimate_states(abstract)
    return frozenset(
        (s, t)
        for s, t in concrete.edges()
        if s in legit and t in legit and abstract.has_transition(s, t)
    )


def _stabilization_report(
    relation: str,
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    fair: Iterable[Iterable[Transition]],
    reason: str,
) -> RelationReport:
    """Judge C's maximal SCCs (decision 16).  The witnesses are the
    non-good edges inside each SCC that carries a violating computation
    fair to every action in ``fair`` (no actions: every SCC that holds a
    non-good edge)."""
    g = concrete.graph
    nodes, index = g.nodes, g.index
    comp, comps = g.components()
    legit = legitimate_states(abstract)

    def bad(i: int, j: int) -> bool:
        s, t = nodes[i], nodes[j]
        return not (s in legit and t in legit and abstract.has_transition(s, t))

    # Two passes over the cycle edges keep memory O(states): the first
    # marks the components to judge, the second lists the witnesses.
    holds_bad = bytearray(len(comps))
    for i, j in g.internal_edges(comp):
        if not holds_bad[comp[i]] and bad(i, j):
            holds_bad[comp[i]] = 1

    def edge_ids(action: Iterable[Transition]) -> Iterator[tuple[int, int]]:
        for s, t in action:
            if not concrete.has_transition(s, t):
                raise ValueError(f"fair edge {(s, t)!r} is not a C-transition")
            yield index[s], index[t]

    fair_comps = g.fair_components(comp, (edge_ids(a) for a in fair))
    witnesses = frozenset(
        (nodes[i], nodes[j])
        for i, j in g.internal_edges(comp)
        if holds_bad[comp[i]] and fair_comps[comp[i]] and bad(i, j)
    )
    return RelationReport(
        relation,
        concrete.name,
        abstract.name,
        not witnesses,
        reason=f"{len(witnesses)} {reason}" if witnesses else "",
        witness_transitions=witnesses,
    )


def is_stabilizing_to(
    concrete: TransitionSystem, abstract: TransitionSystem
) -> RelationReport:
    """Decide *C is stabilizing to A*: no cycle of C holds a non-good
    transition (see the module docstring)."""
    return _stabilization_report(
        "stabilizing-to",
        concrete,
        abstract,
        (),
        "transitions on cycles of C are not legitimate A-transitions; "
        "looping them forever yields a computation with no legitimate suffix",
    )


def is_stabilizing_to_fair(
    concrete: TransitionSystem,
    abstract: TransitionSystem,
    fair: Iterable[Iterable[Transition]],
) -> RelationReport:
    """Stabilization under weak fairness, one constraint per action.

    UNITY (the paper's specification language) executes actions under weak
    fairness: an action continuously enabled is eventually executed.
    ``fair`` holds one set of C-transitions per weakly fair action (a
    ``ValueError`` otherwise); an action is enabled at a state with an
    outgoing edge in its set.  C is
    fair-stabilizing to A iff every computation fair to every action has a
    legitimate A-suffix.

    Graph criterion (DESIGN §3, decision 16): a violating fair computation
    exists iff some maximal SCC of C holds a non-good transition and every
    action is taken on an edge inside it or disabled at one of its states.
    """
    return _stabilization_report(
        "fair-stabilizing-to",
        concrete,
        abstract,
        fair,
        "non-legitimate transitions lie in components that hold a fair "
        "cycle (every fair action is taken inside the component or "
        "disabled at one of its states)",
    )


def is_self_stabilizing(system: TransitionSystem) -> RelationReport:
    """Classic self-stabilization: the system is stabilizing to itself."""
    return replace(is_stabilizing_to(system, system), relation="self-stabilizing")


def closure_and_convergence(
    system: TransitionSystem, invariant: frozenset[StateLike]
) -> tuple[bool, bool]:
    """The classical whitebox decomposition of self-stabilization.

    Returns ``(closed, converges)`` where *closed* means the invariant set is
    preserved by every transition from it, and *converges* means every
    computation from every state eventually reaches the invariant set
    (no cycle lies entirely outside it).

    Provided as the whitebox baseline that Section 1 argues against: it
    requires the full transition relation ("implementation"), whereas the
    graybox method needs only the specification.
    """
    closed = all(
        system.successors(s) <= invariant for s in invariant
    )
    outside = bytearray(s not in invariant for s in system.graph.nodes)
    # A cycle entirely outside the invariant set == a non-converging run.
    converges = not any(system.graph.stays_forever(outside))
    return closed, converges
