"""Direct unit tests for the fairness-aware stabilization relation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TransitionSystem,
    is_stabilizing_to,
    is_stabilizing_to_fair,
    random_system,
    synthesize_stabilizing_wrapper,
)


def spec_with_limbo():
    return TransitionSystem(
        "A",
        {"g": {"g"}, "x": {"y"}, "y": {"x"}},
        initial={"g"},
    )


class TestFairStabilization:
    def test_fair_edges_break_bad_cycles(self):
        """The x<->y limbo cycle is unfair once every limbo state has a
        recovery (fair) edge available in the composition."""
        composed = TransitionSystem(
            "A+W",
            {"g": {"g"}, "x": {"y", "g"}, "y": {"x", "g"}},
            initial={"g"},
        )
        fair = frozenset({("x", "g"), ("y", "g")})
        assert not is_stabilizing_to(composed, spec_with_limbo())
        assert is_stabilizing_to_fair(composed, spec_with_limbo(), [fair])

    def test_unprotected_state_keeps_violation(self):
        """If one limbo state has no fair edge, a fair computation can loop
        through it forever: fair stabilization must fail."""
        composed = TransitionSystem(
            "A+W",
            {"g": {"g"}, "x": {"y", "g"}, "y": {"x"}},
            initial={"g"},
        )
        fair = frozenset({("x", "g")})
        report = is_stabilizing_to_fair(composed, spec_with_limbo(), [fair])
        assert not report
        assert report.witness_transitions

    def test_fair_edges_must_be_transitions(self):
        """A bare edge set (one action's edges, not a list of actions) is
        refused instead of being read as actions of no edges."""
        system = TransitionSystem(
            "A", {"g0": {"g0"}, "x1": {"y1"}, "y1": {"x1"}}, initial={"g0"}
        )
        with pytest.raises(ValueError, match="not a C-transition"):
            is_stabilizing_to_fair(system, system, frozenset({("x1", "y1")}))

    def test_no_fair_edges_reduces_to_plain(self):
        system = spec_with_limbo()
        plain = is_stabilizing_to(system, system)
        fair = is_stabilizing_to_fair(system, system, [])
        assert bool(plain) == bool(fair) == False  # noqa: E712

    def test_plain_stabilizing_is_fair_stabilizing(self):
        healthy = TransitionSystem(
            "A", {"g": {"g"}, "x": {"g"}}, initial={"g"}
        )
        assert is_stabilizing_to(healthy, healthy)
        assert is_stabilizing_to_fair(healthy, healthy, [])

    def test_good_cycles_unaffected_by_fairness(self):
        """Legitimate cycles must stay allowed even when fair edges exist
        elsewhere."""
        composed = TransitionSystem(
            "A+W",
            {"g0": {"g1"}, "g1": {"g0"}, "x": {"g0", "x"}},
            initial={"g0"},
        )
        spec = TransitionSystem(
            "A",
            {"g0": {"g1"}, "g1": {"g0"}, "x": {"x"}},
            initial={"g0"},
        )
        fair = frozenset({("x", "g0")})
        assert is_stabilizing_to_fair(composed, spec, [fair])


class TestFairnessPerAction:
    """Weak fairness with one constraint per action (DESIGN decision 16)."""

    @staticmethod
    def escape_loop():
        """a <-> b is never legitimate; a -> L leads to the legitimate L."""
        return TransitionSystem(
            "esc",
            {"a": {"b", "L"}, "b": {"a"}, "L": {"L"}},
            initial={"L"},
        )

    def test_escape_enabled_only_at_a_is_not_forced(self):
        """Each edge its own action: a -> L is disabled at b, so looping
        a <-> b forever is fair and the system does not stabilize."""
        system = self.escape_loop()
        actions = [{edge} for edge in system.edge_set()]
        report = is_stabilizing_to_fair(system, system, actions)
        assert not report
        assert report.witness_transitions == {("a", "b"), ("b", "a")}

    def test_all_edges_one_action_is_taken_inside_the_loop(self):
        """One action owning every edge is taken on a -> b, so looping
        a <-> b is fair: not stabilizing (the old single-set check,
        which never looked at a cycle that takes a fair edge, said yes)."""
        system = self.escape_loop()
        assert not is_stabilizing_to_fair(system, system, [system.edge_set()])

    @staticmethod
    def pump(grant_from_y: bool):
        """p0 resends around x <-> y; p1's grant leads to the legitimate G."""
        grant = {("x", "G"), ("y", "G")} if grant_from_y else {("x", "G")}
        transitions = {"x": {"y"}, "y": {"x"}, "G": {"G"}}
        for s, t in grant:
            transitions[s].add(t)
        system = TransitionSystem("pump", transitions, initial={"G"})
        resend = {("x", "y"), ("y", "x")}
        return system, [resend, grant]

    def test_pump_cycle_starving_an_enabled_grant_is_unfair(self):
        """The grant is enabled at x and y and never taken inside the
        cycle, so every pump computation is unfair: the system
        stabilizes, though not without fairness."""
        system, actions = self.pump(grant_from_y=True)
        assert not is_stabilizing_to(system, system)
        assert is_stabilizing_to_fair(system, system, actions)

    def test_pump_cycle_with_grant_disabled_once_is_fair(self):
        """Disabled at y, the grant is not continuously enabled on the
        pump cycle, which is then fair: no stabilization."""
        system, actions = self.pump(grant_from_y=False)
        report = is_stabilizing_to_fair(system, system, actions)
        assert not report
        assert report.witness_transitions == {("x", "y"), ("y", "x")}


def test_minimal_synthesis_recovers_only_the_chain_into_the_bad_cycle():
    """c0 -> c1 -> c2 lead into the illegitimate x <-> y cycle (c1 may
    also leave through s); s, w and w2 always reach the legitimate g0 <->
    g1.  The minimal wrapper recovers exactly the chain and the cycle."""
    spec = TransitionSystem(
        "chain",
        {
            "g0": {"g1"}, "g1": {"g0"},
            "c0": {"c1"}, "c1": {"c2", "s"}, "c2": {"x"},
            "x": {"y"}, "y": {"x"},
            "s": {"g1"}, "w": {"s", "w2"}, "w2": {"g0"},
        },
        initial={"g0"},
    )
    result = synthesize_stabilizing_wrapper(spec, minimal=True)
    assert result.recovery_edges == {
        ("c0", "g1"), ("c1", "g1"), ("c2", "g0"), ("x", "g0"), ("y", "g0"),
    }
    assert not result.stabilizes_unfair


seeds = st.integers(min_value=0, max_value=5000)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=6))
def test_plain_implies_fair(seed, n):
    """Plain stabilization is strictly stronger: whenever it holds, the
    fairness-aware check holds for ANY fair-edge set."""
    rng = random.Random(seed)
    abstract = random_system(rng, n, 0.4, "A")
    concrete = random_system(rng, n, 0.4, "C", states=sorted(abstract.states))
    states = sorted(abstract.states)
    fair = frozenset(
        (rng.choice(states), rng.choice(states)) for _ in range(3)
    ) & concrete.edge_set()
    if is_stabilizing_to(concrete, abstract):
        assert is_stabilizing_to_fair(concrete, abstract, [fair])


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=6))
def test_fair_with_empty_set_equals_plain(seed, n):
    rng = random.Random(seed)
    abstract = random_system(rng, n, 0.4, "A")
    concrete = random_system(rng, n, 0.4, "C", states=sorted(abstract.states))
    plain = bool(is_stabilizing_to(concrete, abstract))
    fair = bool(is_stabilizing_to_fair(concrete, abstract, []))
    assert plain == fair
