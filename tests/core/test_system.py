"""Unit tests for TransitionSystem."""

import pytest

from repro.core import (
    Lasso,
    SystemError_,
    TransitionSystem,
    chain_system,
)


def diamond() -> TransitionSystem:
    """a -> {b, c} -> d -> d."""
    return TransitionSystem(
        "diamond",
        {"a": {"b", "c"}, "b": {"d"}, "c": {"d"}, "d": {"d"}},
        initial={"a"},
    )


class TestConstruction:
    def test_totality_enforced(self):
        with pytest.raises(SystemError_):
            TransitionSystem("bad", {"a": set()}, initial={"a"})

    def test_successors_must_exist(self):
        with pytest.raises(SystemError_):
            TransitionSystem("bad", {"a": {"ghost"}}, initial={"a"})

    def test_initial_must_exist(self):
        with pytest.raises(SystemError_):
            TransitionSystem("bad", {"a": {"a"}}, initial={"ghost"})

    def test_empty_initial_allowed(self):
        s = TransitionSystem("w", {"a": {"a"}})
        assert s.initial == frozenset()

    def test_states_and_edges(self):
        d = diamond()
        assert d.states == {"a", "b", "c", "d"}
        assert d.edge_set() == {
            ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "d"),
        }

    def test_has_transition(self):
        d = diamond()
        assert d.has_transition("a", "b")
        assert not d.has_transition("b", "a")
        assert not d.has_transition("ghost", "a")


class TestReachability:
    def test_reachable_from_initial(self):
        assert diamond().reachable() == {"a", "b", "c", "d"}

    def test_reachable_from_subset(self):
        assert diamond().reachable_from(["b"]) == {"b", "d"}

    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            diamond().reachable_from(["ghost"])



class TestComputations:
    def test_is_lasso(self):
        d = diamond()
        assert d.is_lasso(Lasso(["a", "b"], ["d"]))
        assert not d.is_lasso(Lasso([], ["a", "b"]))

    def test_lassos_from_enumerates_simple_lassos(self):
        lassos = set(diamond().lassos_from("a"))
        assert Lasso(("a", "b"), ("d",)) in lassos
        assert Lasso(("a", "c"), ("d",)) in lassos


class TestGraphAnalysis:
    def test_scc_of_chain(self):
        chain = chain_system("c", ["a", "b", "c"], ["a"])
        comps = chain.strongly_connected_components()
        assert frozenset({"c"}) in comps
        assert len(comps) == 3

    def test_scc_of_cycle(self):
        ring = TransitionSystem(
            "ring", {"a": {"b"}, "b": {"c"}, "c": {"a"}}, initial={"a"}
        )
        assert ring.strongly_connected_components() == [
            frozenset({"a", "b", "c"})
        ]

    def test_edges_on_cycles(self):
        d = diamond()
        assert d.edges_on_cycles() == {("d", "d")}

    def test_edges_on_cycles_ring(self):
        ring = TransitionSystem(
            "ring", {"a": {"b"}, "b": {"a", "c"}, "c": {"c"}}, initial={"a"}
        )
        assert ring.edges_on_cycles() == {("a", "b"), ("b", "a"), ("c", "c")}


class TestHelpers:
    def test_chain_system_self_loops_last(self):
        chain = chain_system("c", ["x", "y"], ["x"])
        assert chain.has_transition("x", "y")
        assert chain.has_transition("y", "y")

    def test_chain_requires_states(self):
        with pytest.raises(ValueError):
            chain_system("c", [], [])

    def test_renamed_and_with_initial(self):
        d = diamond().renamed("other")
        assert d.name == "other"
        assert d == diamond()  # equality ignores the name
        assert diamond().with_initial(["b"]).initial == {"b"}

    def test_equality_and_hash(self):
        assert diamond() == diamond()
        assert hash(diamond()) == hash(diamond())
        assert diamond() != diamond().with_initial(["b"])
