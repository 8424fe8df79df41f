"""Tests for sharded expansion: parity with the in-process engine."""

import multiprocessing
import os
import time

import pytest

from repro.explore import GlobalSimulatorSpace, explore
from repro.tme import ClientConfig, tme_programs

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel expansion requires fork",
)

CLIENT = ClientConfig(think_delay=1, eat_delay=1)


def ra_space(n=2, symmetry=None):
    return GlobalSimulatorSpace(
        tme_programs("ra", n, CLIENT), symmetry=symmetry
    )


class TestSerialParallelParity:
    def test_same_visited_set(self):
        serial = explore(ra_space(), max_depth=6)
        parallel = explore(ra_space(), max_depth=6, workers=2)
        assert serial.visited == parallel.visited
        assert parallel.stats.workers == 2

    def test_content_digest_matches_serial(self):
        serial = explore(ra_space(), max_depth=6)
        parallel = explore(ra_space(), max_depth=6, workers=2)
        assert serial.content_digest() == parallel.content_digest()

    def test_symmetric_quotient_matches_serial(self):
        # The successor function is not equivariant under pid renaming
        # (pid tie-breaks), so this passes only because the shards
        # expand the serial engine's first-seen members, selected by
        # global proposal rank -- the strongest parity property the
        # sharded engine guarantees.
        serial = explore(ra_space(symmetry="full"), max_depth=6)
        parallel = explore(ra_space(symmetry="full"), max_depth=6, workers=2)
        assert serial.visited == parallel.visited
        assert serial.content_digest() == parallel.content_digest()
        assert parallel.stats.orbit_reductions > 0
        assert parallel.stats.bytes_per_state > 0.0

    def test_max_states_cutoff_matches_serial(self):
        # Rank-ordered admission reproduces the serial cut-off point
        # exactly, so even truncated runs are bit-identical.
        serial = explore(ra_space(), max_depth=6, max_states=10)
        parallel = explore(ra_space(), max_depth=6, max_states=10, workers=2)
        assert serial.visited == parallel.visited
        assert serial.stats.truncated and parallel.stats.truncated

    def test_shard_balance_accounts_for_every_state(self):
        parallel = explore(ra_space(n=3), max_depth=5, workers=2)
        assert len(parallel.stats.shard_states) == 2
        assert sum(parallel.stats.shard_states) == parallel.stats.states
        assert parallel.stats.batches > 0


class TestAdaptiveSerialFallback:
    def test_tiny_spaces_never_fork(self):
        # A frontier that never reaches ~2x the worker count finishes
        # inside the warm start: no shards, no queues, exact serial
        # truncation semantics.
        result = explore(ra_space(), max_depth=2, workers=4)
        assert result.stats.shard_states == ()
        assert result.stats.states == explore(ra_space(), max_depth=2).states

    def test_early_truncation_stays_serial(self):
        serial = explore(ra_space(n=3), max_depth=6, max_states=4)
        parallel = explore(
            ra_space(n=3), max_depth=6, max_states=4, workers=4
        )
        assert parallel.stats.shard_states == ()
        assert serial.visited == parallel.visited


COUNTERS = (
    "states",
    "expansions",
    "transitions",
    "dedup_hits",
    "orbit_reductions",
    "peak_frontier",
    "depth_reached",
    "depth_limited",
    "truncation_cause",
)


class TestWarmStartCounterParity:
    """The warm start is the serial loop, so a run that ends inside it
    reports the serial counters, not merely the serial visited set."""

    @pytest.mark.parametrize(
        "n,symmetry,bounds",
        [
            (2, None, {"max_depth": 2}),
            (2, "full", {"max_depth": 3}),
            (3, None, {"max_depth": 6, "max_states": 4}),  # cut mid-level
            (3, "full", {"max_depth": 6, "max_states": 7}),
            (3, None, {"max_depth": 6, "max_states": 1}),  # cut at level 1
        ],
    )
    def test_counters_match_serial(self, n, symmetry, bounds):
        serial = explore(ra_space(n, symmetry), **bounds)
        warm = explore(ra_space(n, symmetry), workers=4, **bounds)
        assert warm.stats.shard_states == ()  # never left the warm start
        for name in COUNTERS:
            assert getattr(warm.stats, name) == getattr(serial.stats, name)
        assert warm.visited == serial.visited
        assert warm.content_digest() == serial.content_digest()


class TestWorkerDeath:
    def test_worker_dying_after_stop_fails_fast(self, monkeypatch):
        # A shard worker killed while shipping its blobs (say by the OOM
        # killer) used to stall the coordinator for 60 s and surface a
        # bare queue.Empty; the forked workers inherit this patch.
        import repro.explore.parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod._Shard, "collect", lambda self: os._exit(1)
        )
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="died unexpectedly"):
            explore(ra_space(), max_depth=6, workers=2)
        assert time.perf_counter() - started < 5.0


class TestReentrancySafety:
    def test_no_module_global_handoff(self):
        # Workers receive their space via Process(args=...) under fork;
        # the old module-global handoff (and its re-entrancy guard) is
        # gone by construction.
        import repro.explore.parallel as parallel_mod

        assert not hasattr(parallel_mod, "_WORKER_SPACE")

    def test_back_to_back_runs_are_independent(self):
        first = explore(ra_space(), max_depth=6, workers=2)
        second = explore(ra_space(), max_depth=6, workers=2)
        assert first.visited == second.visited
        assert first.content_digest() == second.content_digest()

    def test_interleaved_spaces_do_not_clobber(self):
        exact = explore(ra_space(), max_depth=6, workers=2)
        quotient = explore(ra_space(symmetry="full"), max_depth=6, workers=2)
        exact2 = explore(ra_space(), max_depth=6, workers=2)
        assert exact.visited == exact2.visited
        assert quotient.stats.states < exact.stats.states
