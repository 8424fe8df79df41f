"""Finite transition systems: the executable form of the paper's "system".

Section 2 defines::

    A *system* S is a set of (possibly infinite) sequences over Sigma, with
    at least one sequence starting from every state in Sigma, and a set of
    initial states chosen from Sigma.

and assumes computation sets are *fusion closed*.  A fusion-closed set of
sequences containing a sequence from every state is exactly the set of
infinite walks of a transition relation that is *total* (every state has at
least one successor).  :class:`TransitionSystem` is therefore a sound and
complete finite representation of the paper's systems, and all of Section 2's
relations (``implements``, ``everywhere implements``, ``stabilizing to``, the
box operator) become decidable graph problems -- see
:mod:`repro.core.relations` and :mod:`repro.core.box`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.computation import Lasso
from repro.core.graph import Graph

StateLike = Hashable
Transition = tuple[StateLike, StateLike]


class SystemError_(ValueError):
    """Raised for malformed transition systems (non-total, bad initial set)."""


@dataclass(frozen=True)
class TransitionSystem:
    """A finite, total transition system with explicit initial states.

    Parameters
    ----------
    name:
        Human-readable label used in reports.
    transitions:
        Mapping from each state to its (non-empty) set of successors.  The
        keys define the state space; every successor must itself be a key
        (totality -- the paper requires a computation from *every* state).
    initial:
        The initial states, a subset of the state space.  May be empty for
        pure "wrapper" systems that are only ever box-composed.
    """

    name: str
    transitions: Mapping[StateLike, frozenset[StateLike]] = field(hash=False)
    initial: frozenset[StateLike]

    def __init__(
        self,
        name: str,
        transitions: Mapping[StateLike, Iterable[StateLike]],
        initial: Iterable[StateLike] = (),
    ):
        frozen: dict[StateLike, frozenset[StateLike]] = {
            s: frozenset(succs) for s, succs in transitions.items()
        }
        states = frozenset(frozen)
        for s, succs in frozen.items():
            if not succs:
                raise SystemError_(
                    f"{name}: state {s!r} has no successor; systems must "
                    "have a computation starting from every state"
                )
            stray = succs - states
            if stray:
                raise SystemError_(
                    f"{name}: successors {set(stray)!r} of state {s!r} are "
                    "not in the state space"
                )
        init = frozenset(initial)
        stray_init = init - states
        if stray_init:
            raise SystemError_(
                f"{name}: initial states {set(stray_init)!r} are not in the "
                "state space"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "transitions", frozen)
        object.__setattr__(self, "initial", init)

    # -- basic structure ----------------------------------------------------

    @property
    def states(self) -> frozenset[StateLike]:
        """The state space (the keys of the transition relation)."""
        return frozenset(self.transitions)

    def successors(self, state: StateLike) -> frozenset[StateLike]:
        """Successor set of one state (non-empty by totality)."""
        return self.transitions[state]

    def has_transition(self, source: StateLike, target: StateLike) -> bool:
        """Is (source, target) a transition?"""
        succs = self.transitions.get(source)
        return succs is not None and target in succs

    def edges(self) -> Iterator[Transition]:
        """Iterate over every transition as a (source, target) pair."""
        for s, succs in self.transitions.items():
            for t in succs:
                yield (s, t)

    def edge_set(self) -> frozenset[Transition]:
        """The transition relation as a frozen set of pairs."""
        return frozenset(self.edges())

    # -- reachability -------------------------------------------------------

    def reachable_from(self, sources: Iterable[StateLike]) -> frozenset[StateLike]:
        """All states reachable (in >= 0 steps) from ``sources``.

        Runs on the unified exploration engine (:mod:`repro.explore`);
        unknown sources raise :class:`KeyError` as always.
        """
        from repro.explore import DFS, TransitionSystemSpace, explore

        return explore(
            TransitionSystemSpace(self, sources), strategy=DFS
        ).visited

    def reachable(self) -> frozenset[StateLike]:
        """States reachable from the initial states (the "legitimate" part:
        every reachable state lies on some computation from an initial
        state, by totality)."""
        return self.reachable_from(self.initial)

    # -- computations -------------------------------------------------------

    def is_lasso(self, lasso: Lasso) -> bool:
        """Is the lasso's unrolling a computation of this system?"""
        return all(self.has_transition(s, t) for s, t in lasso.transitions())

    def lassos_from(self, state: StateLike, max_states: int | None = None) -> Iterator[Lasso]:
        """Enumerate simple lassos (simple stem into a simple cycle) starting
        at ``state``.  Exhaustive for liveness checking on small systems:
        every violation of a lasso-checkable property occurs on a simple
        lasso."""
        limit = max_states if max_states is not None else len(self.transitions)

        def extend(path: list[StateLike], on_path: set[StateLike]) -> Iterator[Lasso]:
            last = path[-1]
            for nxt in sorted(self.transitions[last], key=repr):
                if nxt in on_path:
                    i = path.index(nxt)
                    yield Lasso(path[:i], path[i:])
                elif len(path) < limit:
                    path.append(nxt)
                    on_path.add(nxt)
                    yield from extend(path, on_path)
                    on_path.discard(nxt)
                    path.pop()

        yield from extend([state], {state})

    # -- graph analysis -----------------------------------------------------

    @cached_property
    def graph(self) -> Graph:
        """The dense-id index every exact verdict runs on, built once."""
        return Graph(self.transitions)

    def strongly_connected_components(self) -> list[frozenset[StateLike]]:
        """Tarjan's algorithm (see :mod:`repro.core.graph`), components in
        completion order."""
        nodes = self.graph.nodes
        _comp, comps = self.graph.components()
        return [frozenset(nodes[i] for i in members) for members in comps]

    def edges_on_cycles(self) -> frozenset[Transition]:
        """The transitions that lie on some cycle.

        An edge lies on a cycle iff both endpoints are in the same strongly
        connected component (self-loops trivially qualify).
        """
        nodes = self.graph.nodes
        comp, _comps = self.graph.components()
        return frozenset(
            (nodes[i], nodes[j]) for i, j in self.graph.internal_edges(comp)
        )

    # -- misc ---------------------------------------------------------------

    def renamed(self, name: str) -> "TransitionSystem":
        """The same system under a different display name."""
        return TransitionSystem(name, self.transitions, self.initial)

    def with_initial(self, initial: Iterable[StateLike]) -> "TransitionSystem":
        """The same transitions with a different initial set."""
        return TransitionSystem(self.name, self.transitions, initial)

    def __hash__(self) -> int:
        return hash((self.name, self.edge_set(), self.initial))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (
            self.transitions == other.transitions and self.initial == other.initial
        )

    def __repr__(self) -> str:
        return (
            f"TransitionSystem({self.name!r}, |states|={len(self.transitions)}, "
            f"|edges|={sum(len(v) for v in self.transitions.values())}, "
            f"|initial|={len(self.initial)})"
        )


def chain_system(
    name: str, states: list[StateLike], initial: Iterable[StateLike]
) -> TransitionSystem:
    """A linear chain ``s0 -> s1 -> ... -> sN`` closed with a self-loop on the
    last state (the standard finite encoding of the paper's
    ``s0, s1, s2, s3, ...`` pictures)."""
    if not states:
        raise ValueError("need at least one state")
    transitions: dict[StateLike, set[StateLike]] = {
        s: {t} for s, t in zip(states, states[1:])
    }
    transitions[states[-1]] = {states[-1]}
    return TransitionSystem(name, transitions, initial)
