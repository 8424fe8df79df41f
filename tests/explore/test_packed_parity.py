"""Packed-token canonicalization agrees with the reference, everywhere.

:mod:`repro.explore.packed` recomputes
:func:`repro.explore.canon.canonical_global`'s answer on interned token
streams with hash-consed renames, a lazy slot-by-slot comparison and an
orbit cache -- three opportunities to silently diverge.  These tests pin
value-level parity on *random reachable states* (seeded random walks
through the real simulator spaces, not hand-built snapshots) for all
four algorithms at n = 2 and 3, and RA at n = 4 under the full group:

* the canonical blob decodes to exactly the reference representative,
  and equals its packed encoding -- against ``canonical_global`` and
  against an oracle written out here (the least member of the orbit);
* the value-based ``rewritten`` flag matches the reference's
  by-identity answer;
* the representative depends neither on the order states were fed in
  nor on which orbit member was fed;
* the token stream a successor carries (its parent's, patched) yields
  what a from-scratch encoding yields, on every explored edge;
* the value table behind the renames is type-exact (``True`` is not
  ``1``), whatever it saw first;
* the local-space :class:`~repro.explore.packed.CachedCanonicalizer`
  agrees with :func:`~repro.explore.canon.canonical_local`.
"""

import inspect
import random

import pytest

from repro.explore import explore
from repro.explore.canon import (
    _global_order_key,
    canonical_global,
    canonical_local,
    orbit_of,
    rename_global_state,
    rename_value,
)
from repro.explore.packed import PackedGlobalCanonicalizer, _ValueTable
from repro.explore.spaces import GlobalSimulatorSpace, LocalProcessSpace
from repro.explore.store import order_key
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


def _space(algo, n, symmetry):
    return GlobalSimulatorSpace(
        tme_programs(algo, n, CLIENT), symmetry=symmetry
    )


def _least_orbit_member(state, group):
    """The definition, written out: no early exit, no candidate order."""
    return min(orbit_of(state, group), key=_global_order_key)


# RA n=4 under the full group: 23 non-identity permutations.
@pytest.mark.parametrize("algo,n,symmetry", CONFIGS + [("ra", 4, "full")])
def test_packed_matches_reference_on_random_states(algo, n, symmetry):
    space = _space(algo, n, symmetry)
    group = space.symmetry_group
    packed = space.packed_canon
    rng = random.Random(f"packed-{algo}-{n}")
    states = [space.key(root) for root in space.roots()]
    states += _walk_states(space, rng)
    assert len(states) >= 10
    for state in states:
        reference = canonical_global(state, group)
        assert reference == _least_orbit_member(state, group)
        blob, rewritten = packed.canonicalize(state)
        assert packed.decode(blob) == reference
        assert blob == space.codec.encode(reference)
        assert rewritten == (reference != state)


def test_every_permutation_ties_on_the_root():
    # All processes start identical, so every candidate equals the root
    # on every slot: the lazy comparison walks them all and keeps it.
    space = _space("ra", 4, "full")
    (root,) = (space.key(node) for node in space.roots())
    assert len(space.symmetry_group) == 23
    assert orbit_of(root, space.symmetry_group) == {root}
    assert space.packed_canon.canonicalize(root) == (
        space.codec.encode(root),
        False,
    )


def test_ties_on_the_process_slots_are_broken_in_the_channels():
    # Mid-walk states where a renaming fixes every process slot and only
    # the channels tell the candidates apart: the comparison has to go
    # past the first slots, in both directions.
    space = _space("ra", 3, "full")
    group = space.symmetry_group
    exact = explore(
        GlobalSimulatorSpace(tme_programs("ra", 3, CLIENT)), max_depth=6
    )
    tied = [
        state
        for state in sorted(exact.visited, key=_global_order_key)
        if any(
            renamed.processes == state.processes
            and renamed.channels != state.channels
            for renamed in orbit_of(state, group)
        )
    ]
    assert tied
    verdicts = set()
    for state in tied:
        oracle = _least_orbit_member(state, group)
        blob, rewritten = space.packed_canon.canonicalize(state)
        assert space.packed_canon.decode(blob) == oracle
        assert rewritten == (oracle != state)
        verdicts.add(rewritten)
    assert verdicts == {True, False}


@pytest.mark.parametrize("algo,n,symmetry", CONFIGS)
def test_representative_is_independent_of_feed_order(algo, n, symmetry):
    rng = random.Random(f"order-{algo}-{n}")
    states = _walk_states(_space(algo, n, symmetry), rng)
    answers = []
    for seed in (1, 2, 3):
        fresh = _space(algo, n, symmetry).packed_canon
        order = states[:]
        random.Random(seed).shuffle(order)
        decoded = {
            state: fresh.decode(fresh.canonicalize(state)[0])
            for state in order
        }
        answers.append([decoded[state] for state in states])
    assert answers[0] == answers[1] == answers[2]


@pytest.mark.parametrize("algo,n,symmetry", CONFIGS)
def test_representative_is_invariant_along_the_orbit(algo, n, symmetry):
    space = _space(algo, n, symmetry)
    packed = space.packed_canon
    rng = random.Random(f"orbit-{algo}-{n}")
    for state in _walk_states(space, rng):
        representative = packed.decode(packed.canonicalize(state)[0])
        for mapping in rng.sample(space.symmetry_group, k=min(3, n - 1)):
            renamed = rename_global_state(state, mapping)
            blob, _ = packed.canonicalize(renamed)
            assert packed.decode(blob) == representative


@pytest.mark.parametrize("algo,n,symmetry", CONFIGS)
def test_delta_path_agrees_with_full_path(algo, n, symmetry):
    # A successor's token stream is its parent's with the touched
    # components re-interned; threading it through must give what a
    # fresh canonicalizer makes of a from-scratch encoding.
    space = _space(algo, n, symmetry)
    group = space.symmetry_group
    threaded = space.packed_canon
    pids = tuple(sorted(m for m in group[0]))
    scratch = PackedGlobalCanonicalizer(space.codec, pids, group)
    rng = random.Random(f"delta-{algo}-{n}")
    node = rng.choice(list(space.roots()))
    edges = 0
    for _ in range(12):
        succs = list(space.successors(node))
        if not succs:
            break
        for succ in succs:
            child = space.key(succ)
            via_tokens = threaded.canonicalize(
                child, tokens=space.tokens_of(succ)
            )
            from_scratch = scratch.canonicalize(child)
            assert via_tokens == from_scratch
            assert scratch.decode(from_scratch[0]) == canonical_global(
                child, group
            )
            edges += 1
        node = rng.choice(succs)
    assert edges >= 10


def _types(value):
    if isinstance(value, (tuple, frozenset)):
        return type(value)(map(_types, value))
    return type(value)


_MIXED = [
    1, True, 0, False,
    ("p", 0), ("p", False), ("p", 1), ("p", True),
    frozenset({"a", "b"}),
]  # fmt: skip


@pytest.mark.parametrize("values", [_MIXED, _MIXED[::-1]], ids=["fwd", "rev"])
def test_value_table_is_type_exact_in_either_order(values):
    # ``True == 1`` and ``False == 0``: a table keyed on equality hands
    # whichever came second the first one's order key and type.
    swap = {"p": "q", "q": "p"}
    table = _ValueTable((swap,))
    nodes = [table.node(value) for value in values]
    assert len(set(nodes)) == len(values)
    for value, node in zip(values, nodes):
        assert table.node(value) == node
        assert table.key[node] == order_key(value)
        assert table.value[node] == value
        assert _types(table.value[node]) == _types(value)
        renamed = table.value[table.rename(0, node)]
        assert renamed == rename_value(value, swap)
        assert _types(renamed) == _types(value)


def test_both_canonicalizers_take_the_same_call():
    space = _space("ra", 3, "full")
    (state,) = (space.key(node) for node in space.roots())
    local = LocalProcessSpace(
        tme_programs("ra", 3, CLIENT)["p0"],
        "p0",
        ("p0", "p1", "p2"),
        (),
        max_clock=2,
        symmetry=True,
    )
    (snapshot,) = local.roots()
    for canon, key in (
        (space.packed_canon, state),
        (local.packed_canon, snapshot),
    ):
        parameters = inspect.signature(canon.canonicalize).parameters
        assert list(parameters)[1:] == ["tokens"]
        assert parameters["tokens"].default is None
        blob, rewritten = canon.canonicalize(key, tokens=None)
        assert canon.decode(blob) == key and not rewritten


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
