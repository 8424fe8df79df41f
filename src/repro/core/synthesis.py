"""Automatic synthesis of graybox stabilization wrappers (Section 6).

The paper closes with: *"Another direction we are pursuing is automatic
synthesis of graybox dependability."*  For finite everywhere specifications
the stabilization case is constructively solvable, and this module solves
it:

Given a specification ``A`` (with a non-empty initial set), compute its
legitimate states (those on computations from the initial states) and emit
a wrapper ``W`` whose transitions

* at every *illegitimate* state jump to a closest legitimate state
  (one recovery edge per bad state), and
* at every legitimate state simply follow ``A`` (so the composed system
  gains no new behaviour inside the legitimate region).

Then ``A box W`` is stabilizing to ``A`` under UNITY's weak fairness (the
recovery edges form one weakly fair action, which eventually fires if it
stays enabled; see
:func:`repro.core.relations.is_stabilizing_to_fair`), and the Theorem-1
argument yields: for every everywhere-implementation ``C`` of ``A``,
``C box W`` is fair-stabilizing to ``A``.  When the specification has no
cycles among illegitimate states the guarantee holds even without
fairness (``SynthesisResult.stabilizes_unfair``).  The synthesized wrapper
is graybox -- it is computed from the specification alone.

``minimal=True`` prunes the wrapper to only those illegitimate states that
cannot already reach the legitimate region under ``A``'s own transitions
with certainty; the default emits recovery for every illegitimate state
(simpler, and convergence takes one step from anywhere).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.box import box
from repro.core.relations import (
    is_stabilizing_to,
    is_stabilizing_to_fair,
    legitimate_states,
)
from repro.core.system import StateLike, TransitionSystem


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized wrapper plus diagnostics.

    ``stabilizes_unfair`` reports whether ``spec box W`` is stabilizing
    even without UNITY's weak fairness (true when the specification has no
    cycles among illegitimate states); the fairness-aware guarantee always
    holds -- synthesis fails loudly otherwise.
    """

    wrapper: TransitionSystem
    legitimate: frozenset[StateLike]
    recovery_edges: frozenset[tuple[StateLike, StateLike]]
    stabilizes_unfair: bool = True

    @property
    def recovery_count(self) -> int:
        """How many illegitimate states received a recovery action."""
        return len(self.recovery_edges)


class SynthesisError(ValueError):
    """The specification admits no stabilizing wrapper of this form."""


def _nearest_legit_targets(
    spec: TransitionSystem, legit: frozenset[StateLike]
) -> dict[StateLike, StateLike]:
    """For every illegitimate state, a legitimate state to recover to.

    Prefers a target reachable in few ``A``-steps (breadth-first from the
    legitimate region over reversed edges); falls back to the lexically
    smallest legitimate state for states with no path at all.
    """
    reverse: dict[StateLike, set[StateLike]] = {s: set() for s in spec.states}
    for s, t in spec.edges():
        reverse[t].add(s)
    target: dict[StateLike, StateLike] = {}
    queue: deque[StateLike] = deque(sorted(legit, key=repr))
    for s in legit:
        target[s] = s
    while queue:
        node = queue.popleft()
        for pred in sorted(reverse[node], key=repr):
            if pred not in target:
                target[pred] = target[node]
                queue.append(pred)
    default = min(legit, key=repr)
    return {
        s: target.get(s, default) for s in spec.states if s not in legit
    }


def synthesize_stabilizing_wrapper(
    spec: TransitionSystem, minimal: bool = False
) -> SynthesisResult:
    """Synthesize W such that ``spec box W`` is stabilizing to ``spec``.

    Raises :class:`SynthesisError` if ``spec`` has no initial states (then
    there is no legitimate region to recover to).
    """
    legit = legitimate_states(spec)
    if not legit:
        raise SynthesisError(
            f"{spec.name} has no initial states; nothing to stabilize to"
        )
    recovery = _nearest_legit_targets(spec, legit)
    if minimal:
        # Keep recovery only where A itself cannot guarantee convergence:
        # states from which some A-computation avoids the legit region
        # forever (i.e. reaches a cycle outside legit).
        g = spec.graph
        risky = g.stays_forever(bytearray(s not in legit for s in g.nodes))
        recovery = {s: t for s, t in recovery.items() if risky[g.index[s]]}
    transitions: dict[StateLike, set[StateLike]] = {}
    for s in spec.states:
        if s in recovery:
            transitions[s] = {recovery[s]}
        else:
            transitions[s] = set(spec.transitions[s])
    wrapper = TransitionSystem(f"synth-W({spec.name})", transitions, initial=())
    recovery_edges = frozenset(recovery.items())
    composed = box(spec, wrapper)
    plain = is_stabilizing_to(composed, spec)
    fair = is_stabilizing_to_fair(composed, spec, [recovery_edges])
    if not fair:
        raise SynthesisError(
            f"internal error: synthesized wrapper fails for {spec.name}: "
            f"{fair.reason}"
        )
    return SynthesisResult(
        wrapper=wrapper,
        legitimate=legit,
        recovery_edges=recovery_edges,
        stabilizes_unfair=bool(plain),
    )
