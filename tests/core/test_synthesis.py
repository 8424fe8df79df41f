"""Tests for automatic wrapper synthesis (Section 6 future work)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SynthesisError,
    TransitionSystem,
    box,
    everywhere_implements,
    is_stabilizing_to,
    is_stabilizing_to_fair,
    random_subsystem,
    random_system,
    synthesize_stabilizing_wrapper,
)


def spec_with_trap():
    return TransitionSystem(
        "A",
        {"g": {"g"}, "x": {"x"}},
        initial={"g"},
    )


def spec_with_bad_cycle():
    return TransitionSystem(
        "A",
        {"g": {"g"}, "x": {"y"}, "y": {"x"}},
        initial={"g"},
    )


class TestBasics:
    def test_recovery_edges_cover_illegit_states(self):
        result = synthesize_stabilizing_wrapper(spec_with_trap())
        assert dict(result.recovery_edges) == {"x": "g"}
        assert result.legitimate == {"g"}
        assert result.recovery_count == 1

    def test_trap_spec_stabilizes_even_unfair(self):
        result = synthesize_stabilizing_wrapper(spec_with_trap())
        # the single trap self-loop is removed from... no: box keeps A's
        # x->x edge, so the unfair guarantee fails, the fair one holds.
        composed = box(spec_with_trap(), result.wrapper)
        assert is_stabilizing_to_fair(
            composed, spec_with_trap(), [result.recovery_edges]
        )

    def test_bad_cycle_needs_fairness(self):
        result = synthesize_stabilizing_wrapper(spec_with_bad_cycle())
        assert not result.stabilizes_unfair
        composed = box(spec_with_bad_cycle(), result.wrapper)
        assert not is_stabilizing_to(composed, spec_with_bad_cycle())
        assert is_stabilizing_to_fair(
            composed, spec_with_bad_cycle(), [result.recovery_edges]
        )

    def test_already_stabilizing_spec(self):
        healthy = TransitionSystem(
            "A", {"g": {"g"}, "x": {"g"}}, initial={"g"}
        )
        result = synthesize_stabilizing_wrapper(healthy)
        composed = box(healthy, result.wrapper)
        assert is_stabilizing_to(composed, healthy)
        assert result.stabilizes_unfair

    def test_no_initial_states_rejected(self):
        bare = TransitionSystem("A", {"x": {"x"}}, initial=set())
        with pytest.raises(SynthesisError):
            synthesize_stabilizing_wrapper(bare)

    def test_minimal_prunes_safe_states(self):
        # x -> g deterministically: no recovery needed for x under minimal
        healthy = TransitionSystem(
            "A", {"g": {"g"}, "x": {"g"}, "trap": {"trap"}}, initial={"g"}
        )
        full = synthesize_stabilizing_wrapper(healthy, minimal=False)
        minimal = synthesize_stabilizing_wrapper(healthy, minimal=True)
        assert full.recovery_count == 2
        assert dict(minimal.recovery_edges) == {"trap": "g"}

    def test_recovery_prefers_near_targets(self):
        chainy = TransitionSystem(
            "A",
            {"g0": {"g1"}, "g1": {"g0"}, "x": {"g1", "x"}},
            initial={"g0"},
        )
        result = synthesize_stabilizing_wrapper(chainy)
        assert dict(result.recovery_edges)["x"] == "g1"

    def test_wrapper_is_graybox(self):
        """The wrapper is a function of the specification only: equal specs
        yield equal wrappers."""
        w1 = synthesize_stabilizing_wrapper(spec_with_trap()).wrapper
        w2 = synthesize_stabilizing_wrapper(spec_with_trap()).wrapper
        assert w1 == w2


class TestTheorem1Transfer:
    def test_synthesized_wrapper_serves_any_implementation(self):
        """The Theorem-1 argument with the synthesized W: every everywhere-
        implementation C of A composed with W fair-stabilizes to A."""
        rng = random.Random(7)
        for _ in range(30):
            abstract = random_system(rng, 5, 0.5, "A")
            result = synthesize_stabilizing_wrapper(abstract)
            concrete = random_subsystem(rng, abstract, "C")
            assert everywhere_implements(concrete, abstract)
            composed = box(concrete, result.wrapper)
            assert is_stabilizing_to_fair(
                composed, abstract, [result.recovery_edges]
            ), (abstract, concrete)


seeds = st.integers(min_value=0, max_value=5000)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=7))
def test_synthesis_always_fair_stabilizes(seed, n):
    rng = random.Random(seed)
    abstract = random_system(rng, n, 0.4, "A")
    result = synthesize_stabilizing_wrapper(abstract)
    composed = box(abstract, result.wrapper)
    assert is_stabilizing_to_fair(composed, abstract, [result.recovery_edges])


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_minimal_is_subset_of_full(seed):
    rng = random.Random(seed)
    abstract = random_system(rng, 5, 0.4, "A")
    full = synthesize_stabilizing_wrapper(abstract, minimal=False)
    minimal = synthesize_stabilizing_wrapper(abstract, minimal=True)
    assert minimal.recovery_edges <= full.recovery_edges
