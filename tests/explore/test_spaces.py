"""Tests for the simulator/process state-space adapters and CoW forking."""

import pytest

from repro.dsl.guards import Effect, action, sends_to_all
from repro.dsl.program import ProcessProgram
from repro.explore import (
    GlobalSimulatorSpace,
    LocalProcessSpace,
    default_message_alphabet,
    explore,
)
from repro.runtime.channel import FifoChannel
from repro.runtime.messages import Message
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.simulator import Simulator
from repro.runtime.trace import GlobalState
from repro.tme import ClientConfig, WrapperConfig, tme_programs


def small_programs(n=2):
    return tme_programs("ra", n, ClientConfig(think_delay=1, eat_delay=1))


def msg(uid, src="a", dst="b", kind="ping", payload=None):
    return Message(uid, kind, src, dst, payload)


class TestChannelCoW:
    def test_fork_shares_until_mutation(self):
        chan = FifoChannel("a", "b")
        chan.enqueue(msg(1))
        clone = chan.fork()
        assert clone.snapshot() == chan.snapshot()

    def test_mutating_clone_leaves_original(self):
        chan = FifoChannel("a", "b")
        chan.enqueue(msg(1))
        clone = chan.fork()
        clone.enqueue(msg(2))
        assert len(chan) == 1
        assert len(clone) == 2

    def test_mutating_original_leaves_clone(self):
        chan = FifoChannel("a", "b")
        chan.enqueue(msg(1))
        chan.enqueue(msg(2))
        clone = chan.fork()
        chan.dequeue()
        assert len(chan) == 1
        assert len(clone) == 2

    def test_fault_surface_respects_cow(self):
        chan = FifoChannel("a", "b")
        chan.enqueue(msg(1))
        chan.enqueue(msg(2))
        clone = chan.fork()
        clone.drop_at(0)
        clone.duplicate_at(0, new_uid=99)
        chan.clear()
        assert chan.empty
        assert [m.uid for m in clone] == [2, 99]

    def test_refork_after_mutation_is_independent(self):
        chan = FifoChannel("a", "b")
        clone = chan.fork()
        clone.enqueue(msg(1))  # clone owns its deque now
        again = clone.fork()
        again.dequeue()
        assert len(clone) == 1
        assert again.empty


class TestSimulatorFork:
    def test_fork_is_isolated_both_directions(self):
        sim = Simulator(small_programs(), RoundRobinScheduler())
        before = sim.snapshot()
        fork = sim.fork()
        for step in list(fork.candidate_steps())[:1]:
            fork.execute(step)
        assert sim.snapshot() == before  # child steps don't leak to parent
        forked_state = fork.snapshot()
        for step in list(sim.candidate_steps())[:1]:
            sim.execute(step)
        assert fork.snapshot() == forked_state  # nor parent steps to child

    def test_fork_chain_replays_identically(self):
        sim = Simulator(small_programs(), RoundRobinScheduler())
        fork = sim.fork()
        for _ in range(5):
            steps = sim.candidate_steps()
            fork_steps = fork.candidate_steps()
            assert len(steps) == len(fork_steps)
            sim.execute(steps[0])
            fork.execute(fork_steps[0])
        assert sim.snapshot() == fork.snapshot()


class TestGlobalSimulatorSpace:
    def test_delta_snapshots_match_full_restore(self):
        # The incremental (delta) successor snapshots must equal what a
        # full rebuild-and-snapshot would produce for the same key.
        space = GlobalSimulatorSpace(small_programs())
        (root,) = list(space.roots())
        for node in space.successors(root):
            rebuilt = space.restore(node.state).snapshot()
            assert rebuilt == node.state

    def test_successors_match_key_based_expansion(self):
        # The memoised successor function and the Simulator-backed
        # reference define the same graph.
        space = GlobalSimulatorSpace(small_programs())
        (root,) = list(space.roots())
        forked = {n.state for n in space.successors(root)}
        restored = set(space.successors_of_key(root.state))
        assert forked == restored

    def test_second_level_agreement(self):
        space = GlobalSimulatorSpace(small_programs())
        (root,) = list(space.roots())
        for child in space.successors(root):
            forked = {n.state for n in space.successors(child)}
            restored = set(space.successors_of_key(child.state))
            assert forked == restored

    def test_expansion_does_not_corrupt_parent(self):
        space = GlobalSimulatorSpace(small_programs())
        (root,) = list(space.roots())
        before = space.restore(root.state).snapshot()
        root_tokens = list(root.tokens)
        children = list(space.successors(root))
        assert root.state == before
        assert root.tokens == root_tokens
        # Expanding one child must not disturb its parent or siblings
        # (they share every untouched tuple with each other).
        sibling_states = [
            space.restore(c.state).snapshot() for c in children
        ]
        sibling_tokens = [list(c.tokens) for c in children]
        list(space.successors(children[0]))
        assert root.state == before
        assert root.tokens == root_tokens
        assert [c.state for c in children] == sibling_states
        assert [c.tokens for c in children] == sibling_tokens

    def test_local_evaluations_count_distinct_valuations(self):
        # The memo grows with the local spaces, not with the product.
        space = GlobalSimulatorSpace(small_programs(3))
        assert space.local_evaluations == (0, 0)
        found = explore(space, max_depth=8)
        internal, deliver = space.local_evaluations
        assert 0 < internal < found.stats.expansions
        assert 0 < deliver < found.stats.transitions
        explore(space, max_depth=8)  # nothing new to evaluate
        assert space.local_evaluations == (internal, deliver)

    def test_explore_exact_model_pins(self):
        # The benchmark's exact model: what expansion evaluated and what
        # it found.
        space = GlobalSimulatorSpace(_wrapped(4))
        found = explore(space, max_depth=10)
        assert space.local_evaluations == (595, 1131)
        assert (found.states, found.stats.transitions) == (17_409, 43_911)

    @pytest.mark.parametrize("symmetry", [None, "full"])
    def test_exploration_decodes_no_snapshot_per_node(
        self, monkeypatch, symmetry
    ):
        # Nodes are token streams: without ``on_visit`` the engine, the
        # store and the canonicalizer read only tokens, so a snapshot is
        # decoded at most once (not once per examined child).
        space = GlobalSimulatorSpace(small_programs(3), symmetry=symmetry)
        decode, decoded = space.key, []

        def counting(node):
            decoded.append(node)
            return decode(node)

        monkeypatch.setattr(space, "key", counting)
        found = explore(space, max_depth=6)
        assert found.stats.transitions > 50
        assert len(decoded) <= 1

    def test_partitioned_snapshot_is_rejected(self):
        space = GlobalSimulatorSpace(small_programs())
        (root,) = list(space.roots())
        cut = GlobalState(
            root.state.processes, root.state.channels, (("p0", "p1"),)
        )
        with pytest.raises(ValueError, match="partitioned"):
            space.node_of_key(cut)
        with pytest.raises(ValueError, match="partitioned"):
            space.restore(cut)


def _wrapped(theta):
    return tme_programs(
        "ra", 3, ClientConfig(1, 1), WrapperConfig(theta=theta)
    )


def _greeters():
    """Every process pings every peer once with an empty payload and
    remembers who pinged it last: equal valuations receive equal head
    messages from different senders and must end up different."""
    program = ProcessProgram(
        "greeter",
        {"greeted": False, "last": None},
        actions=(
            action(
                "greet",
                lambda v: not v.greeted,
                lambda v: Effect(
                    {"greeted": True},
                    sends_to_all(v._peers, "ping", lambda _k: None),
                ),
            ),
        ),
        receive_actions=(
            action(
                "on-ping",
                lambda v: True,
                lambda v: Effect({"last": v._sender}),
                message_kind="ping",
            ),
        ),
    )
    return {pid: program for pid in ("p0", "p1", "p2")}


#: name -> (programs, depth): every TME algorithm, bare and wrapped, and
#: a system whose deliveries differ only in the sender.
DIFFERENTIAL = {
    "greeters": (_greeters, 6),
    "ra": (lambda: tme_programs("ra", 3, ClientConfig(1, 1)), 6),
    "ra-count": (lambda: tme_programs("ra-count", 3, ClientConfig(1, 1)), 6),
    "lamport": (lambda: tme_programs("lamport", 3, ClientConfig(1, 1)), 6),
    "token": (lambda: tme_programs("token", 3, ClientConfig(1, 1)), 7),
    "ra+W(theta=0)": (lambda: _wrapped(0), 5),
    "ra+W(theta=4)": (lambda: _wrapped(4), 6),
}


class TestMemoisedExpansionAgainstSimulator:
    """``successors`` (memo + snapshot patching) against the reference
    ``successors_of_key`` (``Simulator.candidate_steps``/``execute``).

    Compared as *lists*: the candidate order decides where ``max_states``
    truncates and in which order ``on_visit`` sees states.  Mutations
    this must catch (each checked by hand to fail here): a delivery memo
    keyed without the channel (sender) or without the head message's
    payload, an internal memo keyed by the process alone, the delivery
    memo keyed by the channel in place of the content oid (so the pop
    leaves a stale rest), the push memo keyed without the message, and
    the delivery memo keyed without the receiver's vars_oid.
    """

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_every_expanded_node_agrees_in_order(self, name):
        build, depth = DIFFERENTIAL[name]
        space = GlobalSimulatorSpace(build())
        encode_tokens = space.codec.encode_tokens
        seen = set()
        level = list(space.roots())
        expanded = 0
        for _ in range(depth):
            following = []
            for node in level:
                children = list(space.successors(node))
                assert [
                    c.state for c in children
                ] == space.successors_of_key(node.state)
                for child in children:
                    assert space.tokens_of(child) == encode_tokens(
                        child.state
                    )
                    if child.state not in seen:
                        seen.add(child.state)
                        following.append(child)
                expanded += 1
            level = following
        assert expanded > 50
        # The memo was exercised, not bypassed: far fewer evaluations
        # than expansions x processes.
        assert space.local_evaluations[0] < 3 * expanded

    def test_tokens_are_per_codec(self):
        # Interner ids belong to one codec, so token streams live on the
        # node, never on the GlobalState: states taken from one space's
        # exploration must encode and canonicalize in a second space
        # exactly as freshly built equal states do
        # (benchmarks/compare_baseline.py::run_canon_case does this).
        programs = tme_programs("ra", 3, ClientConfig(1, 1))
        first = GlobalSimulatorSpace(programs)
        # Skew the first codec's id assignment against any later one.
        first.codec.others.intern(("skew",))
        first.codec.strings.intern("skew")
        states = list(explore(first, max_depth=5).visited)
        assert len(states) > 50
        second = GlobalSimulatorSpace(programs, symmetry="full")
        for state in states:
            rebuilt = second.restore(state).snapshot()
            assert rebuilt == state and rebuilt is not state
            # The explored state first: a stream cached on it under the
            # first codec would be packed (and orbit-cached) here.
            assert second.codec.encode(state) == second.codec.encode(rebuilt)
            assert second.packed_canon.canonicalize(
                state
            ) == second.packed_canon.canonicalize(rebuilt)
            assert second.codec.decode(second.codec.encode(state)) == state


class TestLocalProcessSpace:
    def space(self, max_clock=3):
        programs = small_programs()
        alphabet = default_message_alphabet(
            ("p1",), ("request", "reply"), max_clock
        )
        return LocalProcessSpace(
            programs["p0"], "p0", ("p0", "p1"), alphabet, max_clock
        )

    def test_root_is_initial_snapshot(self):
        (root,) = list(self.space().roots())
        assert isinstance(root, tuple)
        assert dict(root).get("lc", 0) == 0

    def test_clock_bound_prunes_successors(self):
        tight = explore(self.space(max_clock=1), max_depth=4)
        loose = explore(self.space(max_clock=4), max_depth=4)
        assert loose.states >= tight.states
        for node in loose.visited:
            assert dict(node).get("lc", 0) <= 4
