"""Symmetry-reduced exploration preserves every symmetric verdict.

The quotient under process-permutation symmetry is only admissible if it
loses nothing a pid-symmetric check could observe.  These tests pin that
down at n = 2 and n = 3 for all four TME algorithms, two ways:

* **set parity** -- canonicalizing the exact visited set yields *exactly*
  the quotient's visited set (the reduction is a lossless orbit cover,
  not merely an under-approximation);
* **verdict parity** -- the safety observables the verification layer
  cares about (mutual-exclusion violations, token conservation, phase
  coverage, deadlock candidates) evaluate identically over the exact
  space and the quotient.

The relation/stabilization checks of the core layer run on
:class:`~repro.explore.TransitionSystemSpace`, which deliberately defines
no ``packed_canon`` -- those verdicts are computed on the exact graph by
construction, which the exactness guard below pins.
"""

import pytest

from repro.explore import (
    GlobalSimulatorSpace,
    TransitionSystemSpace,
    canonical_global,
    explore,
    full_symmetry,
    ring_rotations,
)
from repro.tme import ClientConfig, tme_programs

CLIENT = ClientConfig(think_delay=1, eat_delay=1)
DEPTH = 6

#: algorithm -> (symmetry mode, group constructor)
GROUPS = {
    "ra": ("full", full_symmetry),
    "ra-count": ("full", full_symmetry),
    "lamport": ("full", full_symmetry),
    "token": ("ring", ring_rotations),
}

CASES = [(algo, n) for algo in GROUPS for n in (2, 3)]


@pytest.fixture(scope="module")
def runs():
    """(algo, n) -> (exact visited, quotient visited, group) -- explored
    once per module; every parity test reads the same pair of runs."""
    cache = {}
    for algo, n in CASES:
        programs = tme_programs(algo, n, CLIENT)
        mode, group_fn = GROUPS[algo]
        exact = explore(
            GlobalSimulatorSpace(programs), max_depth=DEPTH, max_states=50_000
        )
        quotient = explore(
            GlobalSimulatorSpace(programs, symmetry=mode),
            max_depth=DEPTH,
            max_states=50_000,
        )
        assert not exact.stats.truncated and not quotient.stats.truncated
        group = group_fn(tuple(sorted(programs)))
        cache[(algo, n)] = (exact.visited, quotient.visited, group)
    return cache


def phases(state) -> tuple[str, ...]:
    """The multiset of process phases, pid-anonymised by sorting."""
    return tuple(sorted(state.process_vars(p)["phase"] for p in state.pids()))


def eating_count(state) -> int:
    return sum(state.process_vars(p)["phase"] == "e" for p in state.pids())


def tokens_in_flight(state) -> int:
    return sum(
        kind == "token"
        for _key, content in state.channels
        for kind, _payload in content
    )


@pytest.mark.parametrize("algo,n", CASES)
class TestQuotientParity:
    def test_quotient_is_exact_orbit_cover(self, runs, algo, n):
        exact, quotient, group = runs[(algo, n)]
        assert {canonical_global(s, group) for s in exact} == quotient

    def test_quotient_is_smaller(self, runs, algo, n):
        exact, quotient, _group = runs[(algo, n)]
        assert len(quotient) < len(exact)

    def test_mutual_exclusion_verdict_agrees(self, runs, algo, n):
        exact, quotient, _group = runs[(algo, n)]
        assert max(map(eating_count, exact)) == max(
            map(eating_count, quotient)
        )

    def test_phase_coverage_agrees(self, runs, algo, n):
        exact, quotient, _group = runs[(algo, n)]
        assert set(map(phases, exact)) == set(map(phases, quotient))

    def test_token_conservation_verdict_agrees(self, runs, algo, n):
        if algo != "token":
            pytest.skip("token-count observable is the ring's invariant")
        exact, quotient, _group = runs[(algo, n)]
        holders = lambda s: sum(  # noqa: E731
            int(s.process_vars(p).get("tokens", 0)) for p in s.pids()
        )
        exact_counts = {holders(s) + tokens_in_flight(s) for s in exact}
        quotient_counts = {
            holders(s) + tokens_in_flight(s) for s in quotient
        }
        assert exact_counts == quotient_counts


class TestReductionFactor:
    def test_full_group_reduction_at_n3(self, runs):
        # The headline claim: at n=3 the quotient shrinks the explored
        # surface by at least (n-1)! for the full-symmetry algorithms.
        for algo in ("ra", "ra-count", "lamport"):
            exact, quotient, _group = runs[(algo, 3)]
            assert len(exact) / len(quotient) >= 2  # (3-1)! = 2

    def test_ring_reduction_at_n3(self, runs):
        # The cyclic group has order n, so the ceiling is n, not n!.
        exact, quotient, _group = runs[("token", 3)]
        assert 1.5 <= len(exact) / len(quotient) <= 3


class TestExactnessGuard:
    def test_transition_system_space_stays_exact(self):
        from repro.core.system import TransitionSystem

        space = TransitionSystemSpace(
            TransitionSystem("t", {0: {0}}, initial={0})
        )
        assert not hasattr(space, "packed_canon")
        assert not hasattr(space, "codec")

    def test_symmetry_is_opt_in(self):
        space = GlobalSimulatorSpace(tme_programs("ra", 2, CLIENT))
        assert not hasattr(space, "packed_canon")
        assert space.symmetry_group == ()

    def test_unknown_symmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetry"):
            GlobalSimulatorSpace(
                tme_programs("ra", 2, CLIENT), symmetry="mirror"
            )
