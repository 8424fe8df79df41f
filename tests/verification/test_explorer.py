"""Tests for bounded exploration of the global and local surfaces."""

from repro.explore import (
    GlobalSimulatorSpace,
    LocalProcessSpace,
    default_message_alphabet,
    explore,
)
from repro.tme import ClientConfig, tme_programs


def small_programs(n=2):
    return tme_programs("ra", n, ClientConfig(think_delay=1, eat_delay=1))


def explore_global(programs, **bounds):
    return explore(GlobalSimulatorSpace(programs), **bounds)


def explore_local(programs, pid, max_clock, **bounds):
    pids = tuple(sorted(programs))
    alphabet = default_message_alphabet(
        (p for p in pids if p != pid), ("request", "reply"), max_clock
    )
    space = LocalProcessSpace(programs[pid], pid, pids, alphabet, max_clock)
    return explore(space, **bounds)


class TestGlobal:
    def test_explores_beyond_root(self):
        result = explore_global(small_programs(), max_depth=3)
        assert result.states > 1
        assert not result.stats.truncated
        assert result.stats.depth_reached <= 3

    def test_monotone_in_depth(self):
        shallow = explore_global(small_programs(), max_depth=2)
        deep = explore_global(small_programs(), max_depth=4)
        assert deep.states >= shallow.states

    def test_truncation_reported(self):
        result = explore_global(small_programs(), max_depth=6, max_states=5)
        assert result.stats.truncated
        assert result.states <= 6

    def test_grows_with_n(self):
        two = explore_global(small_programs(2), max_depth=3)
        three = explore_global(small_programs(3), max_depth=3)
        assert three.states > two.states


class TestLocal:
    def test_alphabet(self):
        alphabet = default_message_alphabet(["p1"], ["request"], 2)
        assert len(alphabet) == 3
        assert all(kind == "request" for _s, kind, _p in alphabet)

    def test_local_exploration(self):
        result = explore_local(small_programs(), "p0", 4, max_depth=3)
        assert result.states > 1
        assert result.stats.bytes_per_state > 0.0  # the local codec

    def test_clock_bound_limits(self):
        tight = explore_local(small_programs(), "p0", 2, max_depth=4)
        loose = explore_local(small_programs(), "p0", 5, max_depth=4)
        assert loose.states >= tight.states
