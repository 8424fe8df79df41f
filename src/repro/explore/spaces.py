"""State-space adapters for the exploration engine.

A :class:`StateSpace` is anything with root nodes and a successor
function.  Three concrete spaces cover the repository's searches:

* :class:`TransitionSystemSpace` -- the finite graphs of
  :class:`~repro.core.system.TransitionSystem` (reachability for the
  refinement/stabilization relations and the theorem checks);
* :class:`GlobalSimulatorSpace` -- the *global* product space of a
  simulated system (the whitebox verification surface of Section 1),
  whose nodes are packed token streams: each process's moves are
  computed once per local valuation and successors are built by patching
  the parent's stream, with the real
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
* ``tokens_of(node)`` -- the node's packed token stream under
  ``codec``: the canonicalizer and the store take it in place of the key,
  which is then never asked for (a :class:`GlobalSimulatorSpace` node
  *is* its stream and decodes its key only on demand).
* ``node_of_key(key)`` -- a space whose nodes are not their keys builds
  a node from a key: the roots, and the journalled members a checkpoint
  resume (:mod:`repro.explore.shard`) re-seeds the frontier from;
  without it the nodes are taken to be the keys.
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
    """A global state as its packed token stream: ``tokens`` is
    ``codec.encode_tokens`` of it under the *owning space's* codec
    (interner ids mean nothing to another codec).  The snapshot is
    decoded only when asked for (:attr:`state`, the space's ``key``)."""

    __slots__ = ("tokens", "space")

    def __init__(self, tokens: list[int], space: "GlobalSimulatorSpace"):
        self.tokens = tokens
        self.space = space

    @property
    def state(self) -> "GlobalState":
        return self.space.key(self)


#: What one step does to the acting process and the channels, as a pure
#: function of the acting process's valuation (and the delivered message):
#: ``(new vars_oid, ((content token position, message id), ...))``, the
#: sends grouped per channel in first-send order.  An unhandled or
#: rejected message is consumed and leaves the receiver's vars_oid as is.
_Move = tuple[int, tuple[tuple[int, int], ...]]


class GlobalSimulatorSpace:
    """The global state space of a simulated system (whitebox surface).

    A node is its packed token stream (:class:`_GlobalNode`): one
    ``vars_oid`` per process and one ``content_oid`` per channel, ids of
    the codec's interner, and no simulator and no snapshot.  Snapshots
    erase message metadata (uids, piggybacked sender clocks), so the
    successor function has to be a function of the *snapshot* for the
    explored graph to be well defined on snapshot states -- and
    :meth:`successors` is computed as one, on ints: what a process can do
    depends only on its own valuation (and, for a delivery, on the sender
    and the head message), so each distinct ``(slot, vars_oid)`` is
    evaluated once per space, and every later global state containing it
    replays the memoised moves by copying the parent's stream and
    replacing the touched ids.  A delivery pops its channel through a
    ``(channel, receiver vars_oid, content_oid)`` memo, a send appends
    through a ``(content_oid, message id)`` memo; values are decoded and
    interned only on a miss.  The memos hold at most the *sum* of the
    local state spaces while the visited set grows with their product --
    Section 1's asymmetry, read off :attr:`local_evaluations`.

    Every memo is keyed by interner ids, i.e. by the same ``==`` the
    visited store deduplicates with, so it conflates nothing the visited
    set does not; a decoded snapshot (:meth:`key`) is the interner's
    first-seen member of each ``==`` class.  :meth:`restore` and
    :meth:`successors_of_key` run the real
    :class:`~repro.runtime.simulator.Simulator` from a snapshot and are
    the reference the memoised function is tested against.

    ``symmetry`` opts the space into process-permutation reduction:
    ``"full"`` (or ``True``) quotients under every pid permutation --
    sound for the pid-template TME systems (RA, RA-count, Lamport, the
    wrapper) -- while ``"ring"`` quotients under rotations only (the
    token ring's ``nxt`` topology is not invariant under arbitrary
    permutations).  When enabled, :attr:`packed_canon` maps a token
    stream to its least orbit member's blob and the engine deduplicates
    in quotient space; the frontier still carries the first-seen
    (genuinely reachable) member of each orbit, so expansion never runs
    from a merely-renamed state.
    """

    def __init__(
        self,
        programs: Mapping[str, "ProcessProgram"],
        symmetry: str | bool | None = None,
    ):
        from repro.explore.canon import full_symmetry, ring_rotations
        from repro.explore.packed import PackedGlobalCanonicalizer
        from repro.explore.store import GlobalStateCodec, Interner

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
        # pids, then the complete channel graph in Network order, so a
        # process's vars_oid sits at token 2 + 2 * slot and channel i's
        # content_oid at 2 * P + 4 + 3 * i (see ``encode_tokens``).
        self._pids = pids
        chans = [(a, b) for a in pids for b in pids if a != b]
        self._chans = chans
        #: channel (src, dst) -> token position of its content_oid
        self._content_at = {
            key: 2 * len(pids) + 4 + 3 * index
            for index, key in enumerate(chans)
        }
        #: per channel: (content position, receiver's vars position)
        self._chan_at = [
            (self._content_at[key], 2 + 2 * pids.index(key[1]))
            for key in chans
        ]
        #: content_oid of the empty channel (set by the first node)
        self._empty: int | None = None
        # The memos, keyed by interner ids: a valuation by its vars_oid,
        # a channel's content by its content_oid.
        #: appended message groups -> message id (space-local, so the
        #: codec's ids and blobs do not depend on it)
        self._messages = Interner()
        #: (process slot, vars_oid) -> moves of the enabled internal actions
        self._internal: dict[tuple[int, int], tuple[_Move, ...]] = {}
        #: (channel index, receiver's vars_oid, head (kind, payload)) ->
        #: the delivery's move; the channel names sender and receiver
        self._deliver: dict[tuple[int, int, tuple], _Move] = {}
        #: (channel index, receiver's vars_oid, content_oid) -> (the
        #: delivery's move, the content_oid left after the pop)
        self._pop: dict[tuple[int, int, int], tuple[_Move, int]] = {}
        #: (content_oid, message id) -> content_oid after the append
        self._push: dict[tuple[int, int], int] = {}

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

    def _runtime(self, slot: int, vars_oid: int) -> "ProcessRuntime":
        """Process ``slot`` at the valuation ``vars_oid`` names."""
        from repro.runtime.process import ProcessRuntime

        pid = self._pids[slot]
        return ProcessRuntime(
            pid,
            self.programs[pid],
            self._pids,
            overrides=dict(self.codec.others.value(vars_oid)),
        )

    def _move(
        self, proc: "ProcessRuntime", vars_oid: int, effect: "Effect | None"
    ) -> _Move:
        """The memo entry for ``effect`` executed at ``proc``, whose
        valuation is ``vars_oid``."""
        if effect is None:
            return vars_oid, ()
        branch = proc.fork()
        branch._apply(effect)
        groups: dict[int, tuple] = {}
        for send in effect.sends:
            at = self._content_at[proc.pid, send.receiver]
            groups[at] = groups.get(at, ()) + ((send.kind, send.payload),)
        message = self._messages.intern
        return (
            self.codec.others.intern(branch.snapshot()),
            tuple((at, message(group)) for at, group in groups.items()),
        )

    def _internal_moves(self, slot: int, vars_oid: int) -> tuple[_Move, ...]:
        proc = self._runtime(slot, vars_oid)
        # One view serves every action: guards and bodies are pure.
        view = proc.view()
        return tuple(
            self._move(proc, vars_oid, act.body(view))
            for act in proc.program.actions
            if act.enabled(view)
        )

    def _pop_move(
        self, index: int, vars_oid: int, content_oid: int
    ) -> tuple[_Move, int]:
        """A ``_pop`` miss: the head-keyed delivery move (evaluated only
        for a head the receiver has not been handed on this channel) and
        the channel's rest."""
        others = self.codec.others
        content = others.value(content_oid)
        head = content[0]
        key = (index, vars_oid, head)
        move = self._deliver.get(key)
        if move is None:
            src, dst = self._chans[index]
            proc = self._runtime(self._pids.index(dst), vars_oid)
            kind, payload = head
            handler = proc.program.receive_action_for(kind)
            effect = None
            if handler is not None:
                # Metadata-free, as the snapshot carries the message.
                view = proc.view(
                    {"_msg": payload, "_sender": src, "_msg_clock": None}
                )
                if handler.enabled(view):
                    effect = handler.body(view)
            move = self._deliver[key] = self._move(proc, vars_oid, effect)
        return move, others.intern(content[1:])

    def _pushed(self, content_oid: int, message: int) -> int:
        """A ``_push`` miss: the content with message group appended."""
        others = self.codec.others
        pushed = self._push[content_oid, message] = others.intern(
            others.value(content_oid) + self._messages.value(message)
        )
        return pushed

    def successors(self, node: _GlobalNode) -> Iterator[_GlobalNode]:
        """Expand in the simulator's candidate order: one deliver step per
        non-empty channel (``Network`` channel order), then every enabled
        internal action (processes in pid order, actions in program
        order).  The order decides where ``max_states`` truncates and in
        which order ``on_visit`` sees states.

        Each candidate is a copy of the parent's token stream with the
        touched ids replaced through the memos; guards and bodies run
        only for a local valuation (or a delivery to one) the space has
        not seen, and no snapshot is built.
        """
        tokens = node.tokens
        empty = self._empty
        pops, pushes = self._pop, self._push
        for index, (at, vars_at) in enumerate(self._chan_at):
            content = tokens[at]
            if content == empty:
                continue
            key = (index, tokens[vars_at], content)
            hit = pops.get(key)
            if hit is None:
                hit = pops[key] = self._pop_move(*key)
            (vars_oid, sends), rest = hit
            child = tokens[:]
            child[at] = rest
            child[vars_at] = vars_oid
            for send_at, message in sends:
                pushed = pushes.get((child[send_at], message))
                if pushed is None:
                    pushed = self._pushed(child[send_at], message)
                child[send_at] = pushed
            yield _GlobalNode(child, self)
        internal = self._internal
        for slot in range(len(self._pids)):
            vars_at = 2 + 2 * slot
            key = (slot, tokens[vars_at])
            moves = internal.get(key)
            if moves is None:
                moves = internal[key] = self._internal_moves(*key)
            for vars_oid, sends in moves:
                child = tokens[:]
                child[vars_at] = vars_oid
                for send_at, message in sends:
                    pushed = pushes.get((child[send_at], message))
                    if pushed is None:
                        pushed = self._pushed(child[send_at], message)
                    child[send_at] = pushed
                yield _GlobalNode(child, self)

    def key(self, node: _GlobalNode) -> "GlobalState":
        """The node's snapshot, decoded from the codec's interner."""
        return self.codec.decode(self.codec.pack(node.tokens))

    def tokens_of(self, node: _GlobalNode) -> list[int]:
        """``codec.encode_tokens(key(node))`` without the encoding: the
        stream the node is (this space's codec only)."""
        return node.tokens

    def node_of_key(self, state: "GlobalState") -> _GlobalNode:
        """A node positioned at ``state``, expandable with
        :meth:`successors` (the roots, and a checkpoint resume's
        journalled members).
        ``encode_tokens`` rejects a partitioned snapshot."""
        tokens = self.codec.encode_tokens(state)
        if self._empty is None:
            # After the first encode, so the codec's ids stay as they were.
            self._empty = self.codec.others.intern(())
        return _GlobalNode(tokens, self)

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
