"""Differentials that do not trust the graph kernel.

Every exact verdict that runs on :mod:`repro.core.graph` is compared here
with a reference that shares none of its code:

* fair stabilization against a definition-level oracle, which enumerates
  every edge subset of a small labelled system and looks for a strongly
  connected one that holds a non-good edge and is fair for every action;
* leads-to against the per-state DFS it replaced (``_can_avoid_forever``);
* the SCC list against the dict-of-sets Tarjan it replaced.

Three mutants of the kernel were checked by hand on a copy of the code; each
fails ``test_fair_verdict_matches_definition``:

* ``Graph.fair_components`` without its "taken inside C" test;
* ``Graph.fair_components`` without its "disabled somewhere in C" test;
* ``relations._violating_edges`` running Tarjan over the non-legitimate
  states instead of the full graph.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransitionSystem, holds_leads_to, is_stabilizing_to_fair


def _reach(start, succ):
    seen = {start}
    todo = [start]
    while todo:
        for t in succ.get(todo.pop(), ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _strongly_connected(edges):
    """Is the graph of ``edges`` (on their endpoints) strongly connected?"""
    succ: dict = {}
    pred: dict = {}
    for s, t in edges:
        succ.setdefault(s, set()).add(t)
        pred.setdefault(t, set()).add(s)
    nodes = set(succ) | set(pred)
    v = next(iter(nodes))
    return _reach(v, succ) == nodes == _reach(v, pred)


def fair_violation_exists(edges, good, actions):
    """By definition: some computation takes exactly the edges of a strongly
    connected subset ``S`` infinitely often.  It violates stabilization iff
    ``S`` holds a non-good edge, and it is weakly fair iff every action is
    taken in ``S`` or disabled at some state ``S`` visits."""
    edges = sorted(edges)
    enabled = [{s for s, _t in action} for action in actions]
    for bits in range(1, 1 << len(edges)):
        subset = [e for k, e in enumerate(edges) if bits >> k & 1]
        if all(e in good for e in subset) or not _strongly_connected(subset):
            continue
        visited = {s for s, _t in subset}
        if all(
            any(e in action for e in subset) or not visited <= on
            for action, on in zip(actions, enabled)
        ):
            return True
    return False


@st.composite
def labelled_systems(draw):
    """C (at most 5 states, 10 edges), A over the same states, and 1-3
    weakly fair actions whose edge sets may overlap."""
    states = list(range(draw(st.integers(1, 5))))
    pick = st.sampled_from(states)
    edges = {(s, draw(pick)) for s in states}
    for e in draw(st.lists(st.tuples(pick, pick), max_size=10)):
        if len(edges) < 10:
            edges.add(e)
    edges = sorted(edges)
    flags = st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
    kept = {e for e, keep in zip(edges, draw(flags)) if keep}
    spec = {s: {t for u, t in kept if u == s} or {s} for s in states}
    initial = draw(st.sets(pick, min_size=1))
    actions = [
        frozenset(e for e, on in zip(edges, draw(flags)) if on)
        for _ in range(draw(st.integers(1, 3)))
    ]
    concrete: dict = {s: set() for s in states}
    for s, t in edges:
        concrete[s].add(t)
    return (
        TransitionSystem("C", concrete),
        TransitionSystem("A", spec, initial),
        actions,
    )


@settings(max_examples=300, deadline=None)
@given(case=labelled_systems())
def test_fair_verdict_matches_definition(case):
    concrete, abstract, actions = case
    legit = set()
    for s in abstract.initial:
        legit |= _reach(s, abstract.transitions)
    good = {
        (s, t)
        for s, t in concrete.edges()
        if s in legit and t in legit and abstract.has_transition(s, t)
    }
    expected = not fair_violation_exists(concrete.edge_set(), good, actions)
    assert bool(is_stabilizing_to_fair(concrete, abstract, actions)) == expected


# -- leads-to: the per-state DFS the kernel replaced -------------------------


def _can_avoid_forever(system, start, q):
    """Is there an infinite walk from ``start`` never satisfying ``q``?

    Equivalent to: within the subgraph of ``~q`` states, ``start`` can reach
    a cycle.  (``start`` itself must satisfy ``~q``.)
    """
    if q(start):
        return False
    not_q = {s for s in system.states if not q(s)}
    sub = {s: (system.successors(s) & not_q) for s in not_q}
    # DFS with colors; a back edge within the ~q subgraph = reachable cycle.
    color = {start: 1}
    stack = [(start, sorted(sub[start], key=repr))]
    while stack:
        node, succs = stack[-1]
        if succs:
            nxt = succs.pop()
            c = color.get(nxt, 0)
            if c == 1:
                return True
            if c == 0:
                color[nxt] = 1
                stack.append((nxt, sorted(sub[nxt], key=repr)))
        else:
            color[node] = 2
            stack.pop()
    return False


def reference_leads_to(system, p, q, from_anywhere):
    domain = system.states if from_anywhere else system.reachable()
    return not any(
        p(s) and not q(s) and _can_avoid_forever(system, s, q) for s in domain
    )


def _random_system(rng, n):
    states = [f"q{i}" for i in range(n)]
    rng.shuffle(states)
    transitions = {
        s: {t for t in states if rng.random() < 0.3} or {rng.choice(states)}
        for s in states
    }
    return TransitionSystem("R", transitions, rng.sample(states, 1))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 12),
    from_anywhere=st.booleans(),
)
def test_leads_to_matches_reference(seed, n, from_anywhere):
    rng = random.Random(seed)
    system = _random_system(rng, n)
    p_set = {s for s in system.states if rng.random() < 0.5}
    q_set = {s for s in system.states if rng.random() < 0.3}

    def p(s):
        return s in p_set

    def q(s):
        return s in q_set

    assert holds_leads_to(system, p, q, from_anywhere) == reference_leads_to(
        system, p, q, from_anywhere
    )


# -- SCCs: the dict-of-sets Tarjan the kernel replaced -----------------------


def reference_sccs(adjacency):
    """Tarjan over a dict adjacency: roots in mapping order, children in
    ``repr`` order, components in completion order."""
    index, lowlink, on_stack = {}, {}, set()
    stack, result = [], []
    counter = 0
    for root in adjacency:
        if root in index:
            continue
        work = [(root, iter(sorted(adjacency[root], key=repr)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency[child], key=repr))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == node:
                        break
                result.append(frozenset(component))
    return result


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 15))
def test_scc_list_matches_reference(seed, n):
    system = _random_system(random.Random(seed), n)
    assert system.strongly_connected_components() == reference_sccs(
        system.transitions
    )
