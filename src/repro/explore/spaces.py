"""State-space adapters for the exploration engine.

A :class:`StateSpace` is anything with root nodes and a successor
function.  Three concrete spaces cover the repository's searches:

* :class:`TransitionSystemSpace` -- the finite graphs of
  :class:`~repro.core.system.TransitionSystem` (reachability for the
  refinement/stabilization relations and the theorem checks);
* :class:`GlobalSimulatorSpace` -- the *global* product space of a
  simulated system (the whitebox verification surface of Section 1),
  expanded as a function of the snapshot: each process's moves are
  computed once per local valuation and successors are built by patching
  the parent snapshot, with the real
  :class:`~repro.runtime.simulator.Simulator` kept as the reference;
* :class:`LocalProcessSpace` -- the *local* space of one
  :class:`~repro.runtime.process.ProcessRuntime` under a bounded message
  alphabet (the graybox per-process surface; the system-wide graybox cost
  is the sum over processes, not the product).

Nodes may be arbitrary carrier objects; ``key`` maps a node to the
hashable state identity used for deduplication.

Optional hooks refine how the engine stores and deduplicates keys.  They
are looked up in one place, once per space
(:class:`repro.explore.engine.NodeKeys`), which every exploration
admits through:

* ``codec`` -- a :class:`~repro.explore.store.StateCodec` the engine
  uses to intern keys into packed blobs instead of keeping the full
  object graphs in the visited set (see :mod:`repro.explore.store`).
* ``packed_canon`` -- a canonicalizer over ``codec`` (see
  :mod:`repro.explore.packed`): ``canonicalize(key, tokens) -> (blob,
  rewritten)`` maps a key to the packed blob of its orbit representative
  under process-permutation symmetry, and the engine deduplicates on
  that blob.  The simulator-backed spaces opt in via their ``symmetry``
  argument; a space with some other canonical map wraps it in a
  :class:`~repro.explore.packed.CachedCanonicalizer`;
  :class:`TransitionSystemSpace` deliberately never defines one, so the
  relation/theorem checks stay exact.
* ``tokens_of(node)`` -- what the node already knows about its key: its
  packed token stream under ``codec``, so neither the canonicalizer nor
  the store has to re-derive it from the key (without ``packed_canon``,
  ``tokens_of`` is used only where ``codec`` can ``pack`` a stream into
  the interned store).
* ``node_of_key(key)`` -- a space whose nodes are more than their keys
  rebuilds a node from a key, so a checkpoint resume
  (:mod:`repro.explore.shard`) can re-seed the frontier from the
  journalled members; without it the nodes are taken to be the keys.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.clocks.timestamps import Timestamp
from repro.runtime.trace import GlobalState

if TYPE_CHECKING:
    from repro.core.system import StateLike, TransitionSystem
    from repro.dsl.guards import Effect
    from repro.dsl.program import ProcessProgram
    from repro.runtime.process import ProcessRuntime
    from repro.runtime.simulator import Simulator

#: Symmetry group selectors accepted by the simulator-backed spaces.
FULL_SYMMETRY = "full"
RING_SYMMETRY = "ring"


@runtime_checkable
class StateSpace(Protocol):
    """Root states plus a successor function, with a dedup key."""

    def roots(self) -> Iterable[Any]:
        """The nodes exploration starts from."""
        ...

    def successors(self, node: Any) -> Iterable[Any]:
        """All nodes one transition away from ``node``."""
        ...

    def key(self, node: Any) -> Hashable:
        """The hashable state identity of ``node`` (dedup key)."""
        ...


class TransitionSystemSpace:
    """The graph of a :class:`~repro.core.system.TransitionSystem`.

    ``sources`` overrides the roots (default: the system's initial
    states); unknown sources raise :class:`KeyError` exactly as
    :meth:`TransitionSystem.reachable_from` always has.
    """

    def __init__(
        self,
        system: "TransitionSystem",
        sources: Iterable["StateLike"] | None = None,
    ):
        self.system = system
        self.sources = (
            tuple(system.initial) if sources is None else tuple(sources)
        )

    def roots(self) -> Iterator["StateLike"]:
        for s in self.sources:
            if s not in self.system.transitions:
                raise KeyError(f"{self.system.name}: unknown state {s!r}")
            yield s

    def successors(self, node: "StateLike") -> Iterable["StateLike"]:
        return self.system.transitions[node]

    def key(self, node: "StateLike") -> Hashable:
        return node


class _GlobalNode:
    """A snapshot and its packed tokens.

    ``tokens`` is ``codec.encode_tokens(state)`` for the *owning space's*
    codec, derived from the parent's stream by re-interning only the
    touched components.  Interner ids mean nothing to another codec, so
    the stream lives here and never on the :class:`GlobalState`.
    """

    __slots__ = ("state", "tokens")

    def __init__(self, state: "GlobalState", tokens: list[int]):
        self.state = state
        self.tokens = tokens


#: What one step does to the acting process and the channels, as a pure
#: function of the acting process's valuation (and the delivered message):
#: ``(new (pid, vars) entry | None, its vars_oid, ((channel index, (kind,
#: payload)), ...) sends in order, touched channel keys)``.  ``None`` for
#: the entry means the process is unchanged (an unhandled or rejected
#: message is consumed).
_Move = tuple[Any, int, tuple, tuple]


class GlobalSimulatorSpace:
    """The global state space of a simulated system (whitebox surface).

    Nodes carry a :class:`~repro.runtime.trace.GlobalState` snapshot (the
    dedup key) and no simulator.  Snapshots erase message metadata (uids,
    piggybacked sender clocks), so the successor function has to be a
    function of the *snapshot* for the explored graph to be well defined
    on snapshot states -- and :meth:`successors` is computed as one: what
    a process can do depends only on its own valuation (and, for a
    delivery, on the sender and the head message), so each distinct
    ``(pid, vars)`` is evaluated once per space and every later global
    state containing it replays the memoised moves by replacing one entry
    of the parent's ``processes`` tuple and popping/appending ``(kind,
    payload)`` pairs in the touched ``channels`` entries.  The memo holds
    at most the *sum* of the local state spaces while the visited set
    grows with their product -- Section 1's asymmetry, read off
    :attr:`local_evaluations`.

    The memo compares valuations with the same ``==`` the visited store's
    interner deduplicates them with, so it conflates nothing the visited
    set does not.  :meth:`restore` and :meth:`successors_of_key` run the
    real :class:`~repro.runtime.simulator.Simulator` from a snapshot and
    are the reference the memoised function is tested against.

    ``symmetry`` opts the space into process-permutation reduction:
    ``"full"`` (or ``True``) quotients under every pid permutation --
    sound for the pid-template TME systems (RA, RA-count, Lamport, the
    wrapper) -- while ``"ring"`` quotients under rotations only (the
    token ring's ``nxt`` topology is not invariant under arbitrary
    permutations).  When enabled, :attr:`packed_canon` maps a snapshot
    to its least orbit member and the engine deduplicates in quotient
    space; the frontier still carries the first-seen (genuinely
    reachable) member of each orbit, so expansion never runs from a
    merely-renamed state.
    """

    def __init__(
        self,
        programs: Mapping[str, "ProcessProgram"],
        symmetry: str | bool | None = None,
    ):
        from repro.explore.canon import full_symmetry, ring_rotations
        from repro.explore.packed import PackedGlobalCanonicalizer
        from repro.explore.store import GlobalStateCodec

        self.programs = dict(programs)
        #: packs snapshots into interned blobs for the visited store.
        self.codec = GlobalStateCodec()
        pids = tuple(sorted(self.programs))
        if symmetry in (None, False):
            self.symmetry_group: tuple[dict[str, str], ...] = ()
        elif symmetry in (FULL_SYMMETRY, True):
            self.symmetry_group = full_symmetry(pids)
        elif symmetry == RING_SYMMETRY:
            self.symmetry_group = ring_rotations(pids)
        else:
            raise ValueError(
                f"unknown symmetry {symmetry!r}; use "
                f"{FULL_SYMMETRY!r}, {RING_SYMMETRY!r}, True, or None"
            )
        if self.symmetry_group:
            # Computes canon.canonical_global's answer on packed tokens.
            self.packed_canon = PackedGlobalCanonicalizer(
                self.codec, pids, self.symmetry_group
            )
        # Every snapshot of the space has the simulator's layout: sorted
        # pids, then the complete channel graph in Network order.
        self._pids = pids
        self._slot = {pid: slot for slot, pid in enumerate(pids)}
        self._chan_index = {
            key: index
            for index, key in enumerate(
                (a, b) for a in pids for b in pids if a != b
            )
        }
        #: token index of channel 0's content_oid (see ``encode_tokens``)
        self._content_base = 2 * len(pids) + 4
        # The memos.  A valuation is named by its ``vars_oid``: the id
        # the codec's interner gave the vars tuple, i.e. the tuple up to
        # the ``==`` the visited store itself deduplicates with.
        #: (process slot, vars_oid) -> moves of the enabled internal actions
        self._internal: dict[tuple[int, int], tuple[_Move, ...]] = {}
        #: (channel index, receiver's vars_oid, head (kind, payload)) ->
        #: the delivery's move; the channel names sender and receiver
        self._deliver: dict[tuple[int, int, tuple], _Move] = {}

    @property
    def local_evaluations(self) -> tuple[int, int]:
        """``(internal, deliver)``: distinct local valuations whose
        actions were evaluated, and distinct (valuation, sender, head
        message) deliveries -- the work expansion paid for, however many
        global states shared it."""
        return len(self._internal), len(self._deliver)

    def roots(self) -> Iterator[_GlobalNode]:
        from repro.runtime.scheduler import RoundRobinScheduler
        from repro.runtime.simulator import Simulator

        sim = Simulator(
            self.programs, RoundRobinScheduler(), record_states=False
        )
        yield self.node_of_key(sim.snapshot())

    def _runtime(self, entry: tuple) -> "ProcessRuntime":
        """A process at the valuation of one ``processes`` entry."""
        from repro.runtime.process import ProcessRuntime

        pid, variables = entry
        return ProcessRuntime(
            pid, self.programs[pid], self._pids, overrides=dict(variables)
        )

    def _move(
        self,
        proc: "ProcessRuntime",
        effect: "Effect | None",
        delivered: tuple[str, str] | None,
    ) -> _Move:
        """The memo entry for ``effect`` executed at ``proc`` (after
        taking a message off channel ``delivered``, if any)."""
        pid = proc.pid
        touched = [] if delivered is None else [delivered]
        if effect is None:
            # Unhandled or rejected message: consumed, receiver untouched.
            return None, 0, (), tuple(touched)
        branch = proc.fork()
        branch._apply(effect)
        sends = []
        for send in effect.sends:
            key = (pid, send.receiver)
            if key not in touched:
                touched.append(key)
            sends.append((self._chan_index[key], (send.kind, send.payload)))
        variables = branch.snapshot()
        return (
            (pid, variables),
            self.codec.others.intern(variables),
            tuple(sends),
            tuple(touched),
        )

    def _internal_moves(self, entry: tuple) -> tuple[_Move, ...]:
        proc = self._runtime(entry)
        # One view serves every action: guards and bodies are pure.
        view = proc.view()
        return tuple(
            self._move(proc, act.body(view), None)
            for act in proc.program.actions
            if act.enabled(view)
        )

    def _deliver_move(self, entry: tuple, src: str, head: tuple) -> _Move:
        kind, payload = head
        proc = self._runtime(entry)
        handler = proc.program.receive_action_for(kind)
        effect = None
        if handler is not None:
            # Metadata-free, as the snapshot carries the message.
            view = proc.view(
                {"_msg": payload, "_sender": src, "_msg_clock": None}
            )
            if handler.enabled(view):
                effect = handler.body(view)
        return self._move(proc, effect, (src, proc.pid))

    def _child(
        self, node: _GlobalNode, slot: int, move: _Move, popped: int | None
    ) -> _GlobalNode:
        """``node`` after ``move`` at process ``slot``, the head of
        channel ``popped`` consumed: everything untouched is shared."""
        entry, vars_oid, sends, touched = move
        state = node.state
        tokens = node.tokens[:]
        processes = state.processes
        if entry is not None:
            processes = processes[:slot] + (entry,) + processes[slot + 1 :]
            tokens[2 + 2 * slot] = vars_oid
        channels = state.channels
        if touched:
            channels = list(channels)
            if popped is not None:
                key, content = channels[popped]
                channels[popped] = (key, content[1:])
            for index, message in sends:
                key, content = channels[index]
                channels[index] = (key, content + (message,))
            intern = self.codec.others.intern
            chan_index = self._chan_index
            base = self._content_base
            for key in touched:
                index = chan_index[key]
                tokens[base + 3 * index] = intern(channels[index][1])
            channels = tuple(channels)
        return _GlobalNode(GlobalState(processes, channels), tokens)

    def successors(self, node: _GlobalNode) -> Iterator[_GlobalNode]:
        """Expand in the simulator's candidate order: one deliver step per
        non-empty channel (``Network`` channel order), then every enabled
        internal action (processes in pid order, actions in program
        order).  The order decides where ``max_states`` truncates and in
        which order ``on_visit`` sees states.

        Each candidate is a memo lookup plus a patch of the parent's
        snapshot and token stream; guards and bodies run only for a
        local valuation (or a delivery to one) the space has not seen.
        """
        processes = node.state.processes
        tokens = node.tokens
        slot_of = self._slot
        deliver = self._deliver
        for index, ((src, dst), content) in enumerate(node.state.channels):
            if not content:
                continue
            slot = slot_of[dst]
            key = (index, tokens[2 + 2 * slot], content[0])
            move = deliver.get(key)
            if move is None:
                move = deliver[key] = self._deliver_move(
                    processes[slot], src, content[0]
                )
            yield self._child(node, slot, move, index)
        internal = self._internal
        for slot, entry in enumerate(processes):
            key = (slot, tokens[2 + 2 * slot])
            moves = internal.get(key)
            if moves is None:
                moves = internal[key] = self._internal_moves(entry)
            for move in moves:
                yield self._child(node, slot, move, None)

    def key(self, node: _GlobalNode) -> "GlobalState":
        return node.state

    def tokens_of(self, node: _GlobalNode) -> list[int]:
        """``codec.encode_tokens(key(node))`` without the encoding: the
        stream the node already carries (this space's codec only)."""
        return node.tokens

    def node_of_key(self, state: "GlobalState") -> _GlobalNode:
        """A node positioned at ``state``, expandable with
        :meth:`successors` (a checkpoint resume expands journalled
        members).
        ``encode_tokens`` rejects a partitioned snapshot."""
        return _GlobalNode(state, self.codec.encode_tokens(state))

    # -- the Simulator-backed reference ------------------------------------

    def restore(self, state: "GlobalState") -> "Simulator":
        """Reconstruct a live simulator positioned at ``state`` (messages
        carry no metadata, exactly what the snapshot holds)."""
        from repro.runtime.scheduler import RoundRobinScheduler
        from repro.runtime.simulator import Simulator

        if state.down:  # exploration never cuts links
            raise ValueError(
                f"cannot explore a partitioned snapshot (down={state.down})"
            )
        overrides = {pid: state.process_vars(pid) for pid in state.pids()}
        sim = Simulator(
            self.programs,
            RoundRobinScheduler(),
            overrides=overrides,
            record_states=False,
        )
        sim.record_trace = False
        for (src, dst), content in state.channels:
            for kind, payload in content:
                sim.network.send(kind, src, dst, payload)
        return sim

    def successors_of_key(self, state: "GlobalState") -> list["GlobalState"]:
        """Successor snapshots of a snapshot, by running the real
        simulator: ``candidate_steps`` on a restored simulator, one
        ``fork`` + ``execute`` + ``snapshot`` per step."""
        sim = self.restore(state)
        out: list[GlobalState] = []
        for step in sim.candidate_steps():
            branch = sim.fork()
            branch.execute(step)
            out.append(branch.snapshot())
        return out


def default_message_alphabet(
    peers: Iterable[str], kinds: Iterable[str], max_clock: int
) -> list[tuple[str, str, Timestamp]]:
    """(sender, kind, payload) triples a process may receive."""
    return [
        (sender, kind, Timestamp(c, sender))
        for sender in peers
        for kind in kinds
        for c in range(max_clock + 1)
    ]


class LocalProcessSpace:
    """The local state space of one process (graybox surface).

    Nodes are hashable :meth:`~repro.runtime.process.ProcessRuntime.
    snapshot` tuples.  A state's :meth:`moves` are every enabled internal
    action plus every acceptable message from the bounded ``alphabet`` of
    (sender, kind, payload) triples; its successors are the moves that stay
    inside the bounded space (a move whose Lamport clock exceeds
    ``max_clock`` is pruned).

    ``symmetry=True`` quotients the space under permutations of the
    *peers* (``pid`` itself stays fixed): the default message alphabet
    ranges uniformly over the peers, and peers occur in the local state
    only as tuple-map keys and timestamp owners, so peer renaming is a
    bijection on the local space.
    """

    def __init__(
        self,
        program: "ProcessProgram",
        pid: str,
        all_pids: tuple[str, ...],
        alphabet: Iterable[tuple[str, str, Any]],
        max_clock: int,
        symmetry: bool = False,
    ):
        from repro.explore.canon import canonical_local, peer_symmetry
        from repro.explore.packed import CachedCanonicalizer
        from repro.explore.store import StateCodec

        self.program = program
        self.pid = pid
        self.all_pids = tuple(all_pids)
        self.alphabet = tuple(alphabet)
        self.max_clock = max_clock
        self.codec = StateCodec()
        self.symmetry_group: tuple[dict[str, str], ...] = (
            peer_symmetry(pid, self.all_pids) if symmetry else ()
        )
        if self.symmetry_group:
            # Orbit cache over the reference map: duplicate successors
            # (the majority of examined edges) canonicalize once.
            self.packed_canon = CachedCanonicalizer(
                self.codec, self.symmetry_group, canonical_local
            )

    def roots(self) -> Iterator[tuple]:
        from repro.runtime.process import ProcessRuntime

        yield ProcessRuntime(self.pid, self.program, self.all_pids).snapshot()

    def moves(self, node: tuple) -> Iterator[tuple[str, tuple]]:
        """``(label, snapshot)`` for every enabled internal action (labelled
        with its name) and then every acceptable alphabet message (labelled
        with its handler, payload and sender), *unpruned*: the clock bound
        is the exploration's, not the transition relation's."""
        from repro.runtime.process import ProcessRuntime

        base = ProcessRuntime(
            self.pid, self.program, self.all_pids, overrides=dict(node)
        )
        for act in base.enabled_internal_actions():
            clone = base.fork()
            clone.execute_internal(act)
            yield act.name, clone.snapshot()
        for sender, kind, payload in self.alphabet:
            handler = self.program.receive_action_for(kind)
            if handler is None:
                continue
            clone = base.fork()
            view = clone.view({"_msg": payload, "_sender": sender})
            if not handler.enabled(view):
                continue
            clone._apply(handler.body(view))
            yield f"{handler.name} {payload!r} from {sender}", clone.snapshot()

    def successors(self, node: tuple) -> Iterator[tuple]:
        """The :meth:`moves` whose clock stays within ``max_clock``."""
        for _label, snapshot in self.moves(node):
            lc = dict(snapshot).get("lc", 0)
            if isinstance(lc, int) and lc <= self.max_clock:
                yield snapshot

    def key(self, node: tuple) -> Hashable:
        return node
