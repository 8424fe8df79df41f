"""Packed-token canonicalization agrees with the reference, everywhere.

:mod:`repro.explore.packed` recomputes
:func:`repro.explore.canon.canonical_global`'s answer on interned token
streams with memoized renames, an orbit cache, and incremental
parent-delta patching -- four opportunities to silently diverge.  These
tests pin value-level parity on *random reachable states* (seeded random
walks through the real simulator spaces, not hand-built snapshots) for
all four algorithms at n = 2 and 3:

* the canonical blob decodes to exactly the reference representative,
  and equals its packed encoding;
* the value-based ``rewritten`` flag matches the reference's
  by-identity answer;
* the incremental delta path (parent templates patched per successor)
  agrees with the from-scratch path on every explored edge;
* the local-space :class:`~repro.explore.packed.CachedCanonicalizer`
  agrees with :func:`~repro.explore.canon.canonical_local`.
"""

import random

import pytest

from repro.explore.canon import canonical_global, canonical_local
from repro.explore.packed import PackedGlobalCanonicalizer
from repro.explore.spaces import GlobalSimulatorSpace, LocalProcessSpace
from repro.tme import ClientConfig, tme_programs

CLIENT = ClientConfig(think_delay=1, eat_delay=1)

CONFIGS = [
    (algo, n, "ring" if algo == "token" else "full")
    for algo in ("ra", "ra-count", "lamport", "token")
    for n in (2, 3)
]


def _walk_states(space, rng, walks=10, depth=8):
    """Distinct states visited by seeded random walks from the roots."""
    roots = list(space.roots())
    seen = set()
    states = []
    for _ in range(walks):
        node = rng.choice(roots)
        for _ in range(depth):
            succs = list(space.successors(node))
            if not succs:
                break
            node = rng.choice(succs)
            state = space.key(node)
            if state not in seen:
                seen.add(state)
                states.append(state)
    return states


@pytest.mark.parametrize("algo,n,symmetry", CONFIGS)
def test_packed_matches_reference_on_random_states(algo, n, symmetry):
    space = GlobalSimulatorSpace(
        tme_programs(algo, n, CLIENT), symmetry=symmetry
    )
    group = space.symmetry_group
    packed = space.packed_canon
    rng = random.Random(f"packed-{algo}-{n}")
    states = _walk_states(space, rng)
    assert len(states) >= 10
    for state in states:
        reference = canonical_global(state, group)
        blob, rewritten = packed.canonicalize(state)
        assert packed.decode(blob) == reference
        assert blob == space.codec.encode(reference)
        assert rewritten == (reference != state)


@pytest.mark.parametrize("algo,n,symmetry", CONFIGS)
def test_delta_path_agrees_with_full_path(algo, n, symmetry):
    space = GlobalSimulatorSpace(
        tme_programs(algo, n, CLIENT), symmetry=symmetry
    )
    group = space.symmetry_group
    incremental = space.packed_canon
    pids = tuple(sorted(m for m in group[0]))
    scratch = PackedGlobalCanonicalizer(space.codec, pids, group)
    rng = random.Random(f"delta-{algo}-{n}")
    node = rng.choice(list(space.roots()))
    edges = 0
    for _ in range(12):
        parent = space.key(node)
        succs = list(space.successors(node))
        if not succs:
            break
        for succ in succs:
            child = space.key(succ)
            delta = space.delta_of(succ)
            assert delta is not None
            via_delta = incremental.canonicalize(child, parent, delta)
            from_scratch = scratch.canonicalize(child)
            assert via_delta == from_scratch
            assert scratch.decode(from_scratch[0]) == canonical_global(
                child, group
            )
            edges += 1
        node = rng.choice(succs)
    assert edges >= 10


# n >= 3: with a single peer (n=2) the peer-permutation group is empty
# and the local space rightly exposes no canonicalizer.
@pytest.mark.parametrize("n", [3, 4])
def test_local_cached_canonicalizer_matches_reference(n):
    from repro.explore import default_message_alphabet

    programs = tme_programs("ra", n, CLIENT)
    all_pids = tuple(sorted(programs))
    peers = tuple(p for p in all_pids if p != "p0")
    max_clock = 2
    space = LocalProcessSpace(
        programs["p0"],
        "p0",
        all_pids,
        default_message_alphabet(
            peers, ("request", "reply"), max_clock
        ),
        max_clock,
        symmetry=True,
    )
    group = space.symmetry_group
    cached = space.packed_canon
    rng = random.Random(f"local-{n}")
    snapshots = _walk_states(space, rng)
    assert len(snapshots) >= 5
    for snapshot in snapshots:
        reference = canonical_local(snapshot, group)
        blob, rewritten = cached.canonicalize(snapshot)
        assert cached.decode(blob) == reference
        assert rewritten == (reference != snapshot)
    # The cache serves repeats without drift.
    for snapshot in snapshots:
        blob, _ = cached.canonicalize(snapshot)
        assert cached.decode(blob) == canonical_local(snapshot, group)
