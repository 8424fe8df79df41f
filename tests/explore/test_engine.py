"""Tests for the unified exploration engine (strategies, bounds, stats)."""

import pytest

from repro.core.system import TransitionSystem
from repro.explore import (
    BFS,
    DFS,
    TRUNCATED_BY_STATES,
    TRUNCATED_BY_TIME,
    TransitionSystemSpace,
    explore,
)


def diamond():
    """a -> {b, c} -> d -> d: four states, one merge point."""
    return TransitionSystem(
        "diamond",
        {"a": {"b", "c"}, "b": {"d"}, "c": {"d"}, "d": {"d"}},
        initial={"a"},
    )


def chain(n):
    trans = {i: {i + 1} for i in range(n)}
    trans[n] = {n}
    return TransitionSystem("chain", trans, initial={0})


class TestStrategies:
    def test_bfs_dfs_visit_same_states(self):
        space = TransitionSystemSpace(diamond())
        bfs = explore(space, strategy=BFS)
        dfs = explore(space, strategy=DFS)
        assert bfs.visited == dfs.visited == {"a", "b", "c", "d"}
        assert bfs.stats.strategy == BFS
        assert dfs.stats.strategy == DFS

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            explore(TransitionSystemSpace(diamond()), strategy="random")


class TestBounds:
    def test_depth_bound_is_not_truncation(self):
        result = explore(TransitionSystemSpace(chain(10)), max_depth=3)
        assert result.visited == {0, 1, 2, 3}
        assert result.stats.depth_limited
        assert not result.stats.truncated
        assert result.stats.truncation_cause is None

    def test_unbounded_chain_is_exhausted(self):
        result = explore(TransitionSystemSpace(chain(10)))
        assert result.states == 11
        assert not result.stats.depth_limited
        assert not result.stats.truncated

    def test_max_states_truncates(self):
        result = explore(TransitionSystemSpace(chain(100)), max_states=5)
        assert result.states == 5
        assert result.stats.truncated
        assert result.stats.truncation_cause == TRUNCATED_BY_STATES

    def test_max_states_not_hit_is_not_truncation(self):
        result = explore(TransitionSystemSpace(chain(5)), max_states=100)
        assert result.states == 6
        assert not result.stats.truncated

    def test_time_budget_truncates(self):
        # A zero budget expires before the first expansion: only the root
        # is visited and the cause is reported.
        result = explore(TransitionSystemSpace(chain(100)), max_seconds=0.0)
        assert result.visited == {0}
        assert result.stats.truncated
        assert result.stats.truncation_cause == TRUNCATED_BY_TIME


class TestInstrumentation:
    def test_counters_on_diamond(self):
        result = explore(TransitionSystemSpace(diamond()))
        stats = result.stats
        assert stats.states == len(result.visited) == 4
        # Every state gets expanded (d's self-loop dedups).
        assert stats.expansions == 4
        # Edges examined: a->b, a->c, b->d, c->d, d->d.
        assert stats.transitions == 5
        # c->d (or b->d, order-dependent) and d->d hit the visited set.
        assert stats.dedup_hits == 2
        assert stats.dedup_hit_rate == 2 / 5
        assert stats.depth_reached == 2
        assert stats.peak_frontier >= 2
        assert stats.elapsed_seconds >= 0.0

    def test_states_per_second_zero_guard(self):
        stats = explore(TransitionSystemSpace(diamond())).stats
        assert stats.states_per_second >= 0.0

    def test_describe_mentions_truncation(self):
        stats = explore(
            TransitionSystemSpace(chain(100)), max_states=5
        ).stats
        text = stats.describe()
        assert "TRUNCATED" in text
        assert TRUNCATED_BY_STATES in text

    def test_describe_mentions_depth_bound(self):
        stats = explore(TransitionSystemSpace(chain(10)), max_depth=2).stats
        assert "depth-bounded" in stats.describe()

    def test_on_visit_called_once_per_state_in_order(self):
        seen = []
        explore(
            TransitionSystemSpace(diamond()),
            on_visit=lambda key, depth: seen.append((key, depth)),
        )
        keys = [k for k, _ in seen]
        assert sorted(keys) == ["a", "b", "c", "d"]
        assert len(set(keys)) == len(keys)
        assert seen[0] == ("a", 0)  # root first, at depth 0
        assert dict(seen)["d"] == 2

    def test_exploration_container_protocol(self):
        result = explore(TransitionSystemSpace(diamond()))
        assert len(result) == 4
        assert "a" in result
        assert "z" not in result
        assert result.states == 4


class TestTruncationEdgeCases:
    def test_max_states_reached_exactly_at_a_root(self):
        # Both roots are distinct; the budget admits only the first, so
        # the second root itself triggers the truncation.
        space = TransitionSystemSpace(diamond(), sources=["a", "b"])
        result = explore(space, max_states=1)
        assert result.states == 1
        assert result.stats.truncated
        assert result.stats.truncation_cause == TRUNCATED_BY_STATES

    def test_duplicate_root_at_full_budget_is_not_truncation(self):
        # A duplicate root at a full budget is a dedup, not a new state,
        # so it must not flip the truncation flag by itself.
        space = TransitionSystemSpace(chain(0), sources=[0, 0])
        result = explore(space, max_states=1)
        assert result.visited == {0}
        assert not result.stats.truncated

    def test_max_states_zero_visits_nothing(self):
        result = explore(TransitionSystemSpace(diamond()), max_states=0)
        assert result.states == 0
        assert result.stats.truncated
        assert result.stats.truncation_cause == TRUNCATED_BY_STATES

    def test_time_budget_zero_under_dfs(self):
        result = explore(
            TransitionSystemSpace(chain(100)), strategy=DFS, max_seconds=0.0
        )
        assert result.visited == {0}
        assert result.stats.truncated
        assert result.stats.truncation_cause == TRUNCATED_BY_TIME

    def test_dfs_reports_depth_limited(self):
        result = explore(
            TransitionSystemSpace(chain(10)), strategy=DFS, max_depth=3
        )
        assert result.visited == {0, 1, 2, 3}
        assert result.stats.depth_limited
        assert not result.stats.truncated
        assert result.stats.truncation_cause is None


class _FoldedPairsSpace:
    """0..5 where odd keys canonicalize onto the even below them.

    A minimal space exercising the engine's ``packed_canon``/``codec``
    hooks without any simulator machinery: the quotient has 3 states
    ({0,1}, {2,3}, {4,5}) while the raw walk 1 -> 3 -> 5 has 3 odd ones.
    """

    def __init__(self):
        from repro.explore import CachedCanonicalizer, StateCodec

        self.codec = StateCodec()
        self.packed_canon = CachedCanonicalizer(
            self.codec,
            (),
            lambda key, _group: key if key % 2 == 0 else key - 1,
        )

    def roots(self):
        yield 1

    def successors(self, node):
        if node + 2 <= 5:
            yield node + 2

    def key(self, node):
        return node


class TestEngineSymmetryHooks:
    def test_quotient_visited_and_orbit_counter(self):
        result = explore(_FoldedPairsSpace())
        assert result.visited == {0, 2, 4}
        assert result.stats.orbit_reductions == 3  # roots 1, succs 3, 5
        assert result.stats.bytes_per_state > 0.0

    def test_describe_mentions_orbits_and_footprint(self):
        text = explore(_FoldedPairsSpace()).stats.describe()
        assert "orbit rewrites" in text
        assert "B/state" in text

    def test_exact_space_reports_no_orbits(self):
        stats = explore(TransitionSystemSpace(diamond())).stats
        assert stats.orbit_reductions == 0
        assert stats.bytes_per_state == 0.0


class TestProfile:
    """``profile=True`` wraps the loop's seams; it must not change what
    the loop does."""

    @pytest.mark.parametrize("symmetry", [None, "full"])
    def test_profiled_run_equals_plain_run(self, symmetry):
        from repro.explore import GlobalSimulatorSpace
        from repro.tme import ClientConfig, tme_programs

        def run(**kwargs):
            programs = tme_programs(
                "ra", 2, ClientConfig(think_delay=1, eat_delay=1)
            )
            return explore(
                GlobalSimulatorSpace(programs, symmetry=symmetry),
                max_depth=8,
                **kwargs,
            )

        plain, profiled = run(), run(profile=True)
        assert plain.stats.profile is None
        assert profiled.visited == plain.visited
        assert profiled.content_digest() == plain.content_digest()
        for name in (
            "states",
            "expansions",
            "transitions",
            "dedup_hits",
            "orbit_reductions",
            "peak_frontier",
            "depth_reached",
            "canon_cache_hits",
            "canon_cache_misses",
        ):
            assert getattr(profiled.stats, name) == getattr(plain.stats, name)
        phases = profiled.stats.profile
        measured = (
            phases.expand_seconds,
            phases.canonicalize_seconds,
            phases.store_seconds,
            phases.dedup_seconds,
        )
        assert all(seconds >= 0.0 for seconds in measured)
        assert phases.expand_seconds > 0.0
        assert phases.store_seconds > 0.0
        assert (phases.canonicalize_seconds > 0.0) == (symmetry is not None)
        assert sum(measured) <= phases.elapsed_seconds
        assert phases.elapsed_seconds == profiled.stats.elapsed_seconds
        assert "canonicalize" in phases.describe()

    def test_profile_of_a_plain_key_space(self):
        stats = explore(TransitionSystemSpace(diamond()), profile=True).stats
        assert stats.states == 4 and stats.dedup_hits == 2
        assert stats.profile.canonicalize_seconds == 0.0
        assert stats.profile.overhead_seconds >= 0.0


class TestTransitionSystemSpace:
    def test_sources_override_roots(self):
        result = explore(TransitionSystemSpace(diamond(), sources=["b"]))
        assert result.visited == {"b", "d"}

    def test_unknown_source_raises_key_error(self):
        space = TransitionSystemSpace(diamond(), sources=["nope"])
        with pytest.raises(KeyError):
            explore(space)

    def test_duplicate_roots_deduplicated(self):
        result = explore(TransitionSystemSpace(diamond(), sources=["a", "a"]))
        assert result.states == 4
