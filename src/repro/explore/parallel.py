"""Sharded parallel exploration with checkpoint/resume.

The canonical state space is hash-partitioned across ``N`` forked
worker processes by wire digest (:func:`repro.explore.wire.shard_of`):
each worker *owns* deduplication for its shard in its own
:class:`~repro.explore.shard.ShardStore`, successor proposals flow
directly worker-to-worker in batched messages over per-shard queues,
and the parent is a coordinator doing seeding, level commits, bound
enforcement, and stats aggregation -- there is no serial parent dedup
and no per-state pickling anywhere.

**Why levels are committed.**  The successor function is *not*
equivariant under pid renaming (tie-breaks compare pids, e.g. Ricart-
Agrawala's ``(clock, pid)`` priority), so a symmetry-reduced
exploration depends on *which* orbit member it expands.  The serial
engine's contract is "expand the first-seen reachable member"; in a
fully asynchronous sharded BFS "first-seen" would be an arrival-order
race and the visited set nondeterministic.  Instead, every proposal
carries the key ``(parent rank, candidate index)``; serial BFS
provably admits states in exactly lexicographic key order, so each
shard picks the minimum-key proposal per orbit, the coordinator merges
the per-shard sorted key lists into dense global ranks at the level
edge, and the admitted set, the expanded members -- and even the
``max_states`` cut-off point -- reproduce the serial engine bit for
bit, on every run, at any worker count.  Expansion and dedup stay
fully pipelined *within* a level; only the rank merge synchronises.

**Warm start.**  Tiny frontiers are expanded in-process by the serial
engine's own loop (:func:`repro.explore.engine.search`, run over wire
digests) until a BFS level reaches ~2x the worker count; only then is
the accumulated visited set handed to the shards.  Small spaces (and
explorations truncated early) never pay for the pool at all, and report
exactly the serial run's counters.

**Durability.**  With a ``store_dir`` each shard appends its admitted
states to its own journal (:mod:`repro.explore.shard`) and the store
spills blobs to the journal instead of RAM; the coordinator appends a
``COMMIT`` record once a level is durable on every shard.  Expansions
are deterministic from the durable member blobs, so they are never
journalled: ``resume=True`` replays the committed levels -- any worker
count, any number of earlier crashed runs -- and re-expands the last
committed level as its frontier, reaching the identical visited set
and content digest as an uninterrupted run.

Workers are plumbed their space, queues, and config through
``Process(args=...)`` under the ``fork`` start method -- inherited
in-memory, never pickled -- so concurrent explorations in one process
cannot clobber each other (no module-global handoff).
"""

from __future__ import annotations

import heapq
import os
import queue as queue_mod
import time
import traceback
from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import replace
from typing import Any

from repro.explore.engine import (
    TRUNCATED_BY_STATES,
    TRUNCATED_BY_TIME,
    ExplorationStats,
    NodeKeys,
    search,
)
from repro.explore.shard import (
    COORDINATOR_LOG,
    ShardLog,
    ShardStore,
    WireVisitedView,
    last_committed_level,
    prepare_run_dir,
    replay_admits,
    run_dir_logs,
    shard_log_name,
    valid_prefix_len,
)
from repro.explore.spaces import StateSpace
from repro.explore.wire import (
    REC_ADMIT,
    REC_COMMIT,
    REC_MEMBER,
    WireCodec,
    shard_of,
    wire_digest,
)

#: Items per worker-to-worker proposal batch.
BATCH_SIZE = 64
#: Items per coordinator seed batch.
SEED_BATCH_SIZE = 256
#: A fresh run stays in-process until a BFS level reaches this many
#: states per worker (the adaptive serial fallback for small frontiers).
WARM_LEVEL_FACTOR = 2

#: Orbit-blob -> wire-blob memo bound (see :class:`_WireKeys`).
_MEMO_MAX = 1 << 18

#: The in-process phase's counters on a resumed run: there is none.
_NO_WARM_START = ExplorationStats(
    strategy="bfs",
    states=0,
    expansions=0,
    transitions=0,
    dedup_hits=0,
    depth_reached=0,
    depth_limited=False,
    peak_frontier=0,
    elapsed_seconds=0.0,
    truncated=False,
    truncation_cause=None,
)


class _WireKeys(NodeKeys):
    """:class:`~repro.explore.engine.NodeKeys` rendered for the wire.

    ``of(node) -> ((canonical wire blob, digest), rewritten)``: the
    space's dedup key (there is no interned store on this side, so an
    exact space's is its plain key) in the cross-process encoding, with
    the 128-bit digest the shards route and deduplicate by.  A bounded
    memo maps canonical packed blobs to their wire form, so duplicate
    successors -- the majority of examined edges -- cost one dict hit
    instead of a decode + re-encode.
    """

    __slots__ = ("wire",)

    def __init__(self, space: StateSpace):
        super().__init__(space)
        self.wire = wire = WireCodec()
        dedup_key_of, decode = self.of, self.decode
        memo: dict[bytes, tuple[bytes, bytes]] = {}

        def of_key(node: Any):
            key, rewritten = dedup_key_of(node)
            blob = wire.encode(key)
            return (blob, wire_digest(blob)), rewritten

        def of_packed(node: Any):
            cblob, rewritten = dedup_key_of(node)
            hit = memo.get(cblob)
            if hit is None:
                if len(memo) >= _MEMO_MAX:
                    memo.clear()
                blob = wire.encode(decode(cblob))
                hit = memo[cblob] = (blob, wire_digest(blob))
            return hit, rewritten

        self.of = of_packed if self.blobs else of_key
        self.blobs = False  # a wire key is no interned blob: ``add`` it
        self.decode = lambda wire_key: wire.decode(wire_key[0])


def _space_signature(
    space: StateSpace, wire_keys: _WireKeys, max_depth: int | None
) -> str:
    """A cheap fingerprint of the exploration *problem* -- pins a run
    directory to one space configuration and depth bound."""
    xor = 0
    count = 0
    for root in space.roots():
        (_blob, digest), _rewritten = wire_keys.of(root)
        xor ^= int.from_bytes(digest, "little")
        count += 1
    group = len(getattr(space, "symmetry_group", ()) or ())
    return (
        f"{type(space).__name__}|roots={count}:{xor:032x}"
        f"|sym={group}|depth={max_depth}"
    )


def _committed_states(
    blobs: list[bytes], levels: list[int], members: dict[int, bytes]
) -> Iterator[tuple[bytes, int, int, bytes, bytes | None]]:
    """``(digest, rank, depth, canonical_blob, member_blob)`` for every
    warm-start state on a fully admitted level (the shape
    :func:`~repro.explore.shard.replay_admits` yields on resume).

    The warm start admits in serial BFS order, so a state's index in
    ``blobs`` is its global rank and ``levels`` -- the level sizes --
    cut the ranks into depths; blobs past ``sum(levels)`` belong to a
    level a truncation left partial, which is not checkpointable.
    """
    base = 0
    for depth, size in enumerate(levels):
        for rank in range(base, base + size):
            blob = blobs[rank]
            yield wire_digest(blob), rank, depth, blob, members.get(rank)
        base += size


# -- worker process --------------------------------------------------------


class _Shard:
    """One worker: owns a shard's dedup, admits by global rank."""

    def __init__(
        self,
        space: StateSpace,
        wid: int,
        shards: int,
        inboxes: list,
        coord_q,
        log_path: str | None,
    ):
        self.space = space
        self.wid = wid
        self.shards = shards
        self.inboxes = inboxes
        self.inbox = inboxes[wid]
        self.coord_q = coord_q
        self.parent_pid = os.getppid()
        self.log = ShardLog(log_path) if log_path is not None else None
        self.store = ShardStore(keep_blobs=self.log is None)
        self.wire_keys = _WireKeys(space)
        #: decoded member key -> expandable node; without the hook the
        #: space's nodes are its keys (``successors_of_key`` yields them)
        self.node_of = getattr(space, "node_of_key", None)

        #: (global rank, member blob) -- the level currently owed
        #: expansion.
        self.frontier: list[tuple[int, bytes]] = []
        #: Proposals received for the level being built:
        #: (digest, parent rank, candidate index, canonical blob,
        #: member blob when it differs).
        self.props: list[tuple[bytes, int, int, bytes, bytes | None]] = []
        self.winners: list | None = None
        self.recv_batches: dict[int, int] = {}
        self.sent_batches = 0
        self.expansions = 0
        self.transitions = 0
        self.dedup_hits = 0
        self.orbit_reductions = 0
        self.halted = False
        self.stopping = False

    # -- message plumbing --------------------------------------------------

    def _get(self, timeout: float = 0.3):
        while True:
            try:
                return self.inbox.get(timeout=timeout)
            except queue_mod.Empty:
                if os.getppid() != self.parent_pid:
                    raise SystemExit(0) from None  # orphaned

    def _drain_nowait(self) -> None:
        while not (self.halted or self.stopping):
            try:
                message = self.inbox.get_nowait()
            except queue_mod.Empty:
                return
            self.handle(message)

    def handle(self, message: tuple) -> None:
        kind = message[0]
        if kind == "P":
            level, items = message[1], message[2]
            self.props.extend(items)
            self.recv_batches[level] = self.recv_batches.get(level, 0) + 1
        elif kind == "SEED":
            for digest, rank, _depth, cblob, mblob, is_front in message[1]:
                self.store.admit(digest, cblob)
                if is_front:
                    self.frontier.append(
                        (rank, mblob if mblob is not None else cblob)
                    )
        elif kind == "EXPAND":
            self.expand_level(message[1])
        elif kind == "CLOSE":
            self.close_level(message[1], message[2])
        elif kind == "RANKS":
            self.admit_level(message[1], message[2])
        elif kind == "HALT":
            self.halted = True
            self.frontier = []
            self.props = []
            self.winners = None
        elif kind == "STOP":
            self.stopping = True

    # -- the level protocol ------------------------------------------------

    def expand_level(self, level: int) -> None:
        """Expand every frontier member, routing proposals by digest."""
        space = self.space
        wire_key_of = self.wire_keys.of
        wire = self.wire_keys.wire
        node_of = self.node_of
        out: list[list] = [[] for _ in range(self.shards)]
        counts = [0] * self.shards
        for rank, member_blob in self.frontier:
            if self.halted or self.stopping:
                return
            self.expansions += 1
            state = wire.decode(member_blob)
            if node_of is not None:
                succs: Iterable[Any] = space.successors(node_of(state))
            else:
                succs = space.successors_of_key(state)
            cand = 0
            for succ in succs:
                self.transitions += 1
                (cblob, digest), rewritten = wire_key_of(succ)
                member = None
                if rewritten:
                    self.orbit_reductions += 1
                    member = wire.encode(space.key(succ))
                item = (digest, rank, cand, cblob, member)
                cand += 1
                dest = shard_of(digest, self.shards)
                if dest == self.wid:
                    self.props.append(item)
                    continue
                bucket = out[dest]
                bucket.append(item)
                if len(bucket) >= BATCH_SIZE:
                    self.inboxes[dest].put(("P", level, bucket))
                    out[dest] = []
                    counts[dest] += 1
                    self.sent_batches += 1
            self._drain_nowait()  # stay responsive to HALT/STOP
        if self.halted or self.stopping:
            return
        for dest in range(self.shards):
            if out[dest]:
                self.inboxes[dest].put(("P", level, out[dest]))
                counts[dest] += 1
                self.sent_batches += 1
        self.frontier = []
        self.coord_q.put(("LDONE", self.wid, level, counts))

    def close_level(self, level: int, expected: int) -> None:
        """Await the level's full proposal set, pick min-key winners."""
        while (
            self.recv_batches.get(level, 0) < expected
            and not (self.halted or self.stopping)
        ):
            self.handle(self._get())
        if self.halted or self.stopping:
            return
        self.recv_batches.pop(level, None)
        fresh: dict[bytes, tuple] = {}
        for item in self.props:
            digest = item[0]
            if digest in self.store.digests:
                self.dedup_hits += 1
                continue
            current = fresh.get(digest)
            if current is None:
                fresh[digest] = item
            else:
                self.dedup_hits += 1
                if (item[1], item[2]) < (current[1], current[2]):
                    fresh[digest] = item
        self.props = []
        self.winners = sorted(fresh.values(), key=lambda it: (it[1], it[2]))
        self.coord_q.put(
            (
                "KEYS",
                self.wid,
                level,
                [(it[1], it[2]) for it in self.winners],
            )
        )

    def admit_level(self, level: int, ranks: list[int]) -> None:
        """Admit the globally-ranked prefix of this shard's winners.

        ``ranks`` aligns with the sorted winner list; it is shorter
        when the coordinator cut admission at the ``max_states``
        budget (exactly where the serial engine would have stopped).
        """
        log = self.log
        next_frontier = []
        for offset, rank in enumerate(ranks):
            digest, _prank, _cand, cblob, mblob = self.winners[offset]
            if log is not None:
                log.append(REC_ADMIT, level + 1, rank, digest + cblob)
                if mblob is not None:
                    log.append(REC_MEMBER, level + 1, rank, mblob)
            self.store.admit(digest, cblob)
            next_frontier.append(
                (rank, mblob if mblob is not None else cblob)
            )
        self.winners = None
        self.frontier = next_frontier
        if log is not None:
            log.flush()  # durable before the coordinator may COMMIT
        self.coord_q.put(("LSTATS", self.wid, level, len(ranks)))

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        while not self.stopping:
            self.handle(self._get())
        if self.log is not None:
            self.log.flush()
        self.collect()

    def collect(self) -> None:
        store = self.store
        if store.blobs is not None:
            for start in range(0, len(store.blobs), 512):
                self.coord_q.put(
                    ("BLOBS", self.wid, store.blobs[start : start + 512])
                )
        else:
            digests = store.digests_blob()
            step = 1 << 20
            for start in range(0, len(digests), step):
                self.coord_q.put(
                    ("DIGESTS", self.wid, digests[start : start + step])
                )
        canon_hits, canon_misses = self.wire_keys.cache_activity()
        self.coord_q.put(
            (
                "DONE",
                self.wid,
                {
                    "admitted": len(store),
                    "expansions": self.expansions,
                    "transitions": self.transitions,
                    "dedup_hits": self.dedup_hits,
                    "orbit_reductions": self.orbit_reductions,
                    "canon_hits": canon_hits,
                    "canon_misses": canon_misses,
                    "batches": self.sent_batches,
                    "payload_bytes": store.payload_bytes,
                    "xor": store.xor,
                    "spill_bytes": (
                        self.log.bytes_written if self.log else 0
                    ),
                },
            )
        )


def _worker_main(
    space: StateSpace,
    wid: int,
    shards: int,
    inboxes: list,
    coord_q,
    log_path: str | None,
) -> None:
    shard = _Shard(space, wid, shards, inboxes, coord_q, log_path)
    try:
        shard.run()
    except SystemExit:
        pass
    except Exception:  # pragma: no cover - surfaced via coordinator
        coord_q.put(("ERR", wid, traceback.format_exc()))
    finally:
        if shard.log is not None:
            shard.log.close()
        for index, peer in enumerate(inboxes):
            if index != wid:
                peer.close()
                peer.cancel_join_thread()


# -- coordinator -----------------------------------------------------------


def _route_seeds(inboxes: list, shards: int, items: Iterable[tuple]) -> None:
    """Batch seed tuples to their owners."""
    buffers: list[list] = [[] for _ in range(shards)]
    for item in items:
        dest = shard_of(item[0], shards)
        buffers[dest].append(item)
        if len(buffers[dest]) >= SEED_BATCH_SIZE:
            inboxes[dest].put(("SEED", buffers[dest]))
            buffers[dest] = []
    for dest in range(shards):
        if buffers[dest]:
            inboxes[dest].put(("SEED", buffers[dest]))


def _merge_ranks(
    keys_by_wid: dict[int, list[tuple[int, int]]],
    base: int,
    budget: int | None,
) -> tuple[dict[int, list[int]], int, bool]:
    """Merge per-shard sorted winner keys into dense global ranks.

    Keys are globally unique (a parent rank plus a candidate index
    identifies one proposal), so the merge is unambiguous.  With a
    ``budget`` the assignment stops at exactly the serial engine's
    ``max_states`` cut-off point; ``cut`` reports whether anything was
    dropped.
    """
    streams = [
        [key + (wid,) for key in keys] for wid, keys in keys_by_wid.items()
    ]
    ranks: dict[int, list[int]] = {wid: [] for wid in keys_by_wid}
    assigned = 0
    cut = False
    for _prank, _cand, wid in heapq.merge(*streams):
        if budget is not None and assigned >= budget:
            cut = True
            break
        ranks[wid].append(base + assigned)
        assigned += 1
    return ranks, assigned, cut


def explore_parallel(
    space: StateSpace,
    *,
    workers: int,
    max_depth: int | None,
    max_states: int | None,
    max_seconds: float | None,
    on_visit: Callable[[Hashable, int], None] | None,
    store_dir: str | None = None,
    resume: bool = False,
):
    """Sharded level-committed BFS; ``None`` if unsupported.

    Unsupported cases (no ``fork``, no ``successors_of_key``, or an
    ``on_visit`` callback, which needs the serial engine's in-order
    visits) fall back to in-process exploration in the caller.
    """
    import multiprocessing

    if on_visit is not None:
        return None
    if not hasattr(space, "successors_of_key"):
        return None
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None

    started = time.perf_counter()
    shards = max(1, workers)
    wire_keys = _WireKeys(space)

    # -- durable run directory --------------------------------------------
    coord_log: ShardLog | None = None
    committed = -1
    if store_dir is not None:
        prepare_run_dir(
            store_dir, _space_signature(space, wire_keys, max_depth)
        )
        for path in run_dir_logs(store_dir):
            # A fresh run restarts the directory; a resume only trims
            # torn record tails so appends stay frame-aligned.
            os.truncate(path, valid_prefix_len(path) if resume else 0)
        if resume:
            committed = last_committed_level(store_dir)
        coord_log = ShardLog(os.path.join(store_dir, COORDINATOR_LOG))
    elif resume:
        raise ValueError("resume=True requires a store_dir")
    resuming = committed >= 0

    # -- warm start / seed derivation -------------------------------------
    if resuming:
        warm = _NO_WARM_START
        frontier_level = committed
        seeds = replay_admits(run_dir_logs(store_dir), committed)
    else:
        # The serial engine's own loop, over wire digests, until a level
        # is worth sharding: ranks are admission order, and the level it
        # stops at is what is left in the frontier.
        store = ShardStore(keep_blobs=True)
        warm, frontier, levels = search(
            space,
            wire_keys,
            store,
            max_depth=max_depth,
            max_states=max_states,
            max_seconds=max_seconds,
            started=started,
            handoff=WARM_LEVEL_FACTOR * shards,
        )
        #: rank -> first-seen member blob, where symmetry rewriting made
        #: it differ from the canonical blob.  The serial contract says
        #: the shards must expand these (non-equivariance: the canonical
        #: state may behave differently from the state actually reached).
        members: dict[int, bytes] = {}
        for rank, (node, _depth) in enumerate(
            frontier, len(store) - len(frontier)
        ):
            member = wire_keys.wire.encode(space.key(node))
            if member != store.blobs[rank]:
                members[rank] = member
        if not (frontier or warm.truncated or warm.depth_limited):
            # Natural completion: commit one final *empty* level, so a
            # resume of this directory finds an empty frontier and
            # returns the finished set without re-expanding anything.
            levels.append(0)
        if coord_log is not None:
            for digest, rank, depth, blob, member in _committed_states(
                store.blobs, levels, members
            ):
                coord_log.append(REC_ADMIT, depth, rank, digest + blob)
                if member is not None:
                    coord_log.append(REC_MEMBER, depth, rank, member)
            for depth, size in enumerate(levels):
                coord_log.append(
                    REC_COMMIT, depth, 0, size.to_bytes(8, "little")
                )
            coord_log.flush()
        if not frontier:
            # Finished (or truncated) in-process: no shard ever forked.
            if coord_log is not None:
                coord_log.close()
            view = WireVisitedView(
                store.digests,
                store.blobs,
                None,
                store.payload_bytes,
                store.xor,
            )
            return view.into_exploration(
                replace(
                    warm,
                    workers=workers,
                    elapsed_seconds=time.perf_counter() - started,
                )
            )
        frontier_level = len(levels) - 1
        seeds = _committed_states(store.blobs, levels, members)

    # -- spin up the shards -----------------------------------------------
    inboxes = [ctx.Queue() for _ in range(shards)]
    coord_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                space,
                wid,
                shards,
                inboxes,
                coord_q,
                (
                    os.path.join(store_dir, shard_log_name(wid))
                    if store_dir is not None
                    else None
                ),
            ),
            daemon=True,
        )
        for wid in range(shards)
    ]
    for proc in procs:
        proc.start()

    truncated = False
    truncation_cause: str | None = None
    depth_limited = False
    level_sizes: list[int] = []
    halted = False
    try:

        def broadcast(message: tuple) -> None:
            for dest in range(shards):
                inboxes[dest].put(message)

        def overtime() -> bool:
            return (
                max_seconds is not None
                and time.perf_counter() - started > max_seconds
            )

        def receive(owing: Iterable[int]) -> tuple | None:
            """One coordinator message, ``None`` after a quiet poll
            interval.  Raises when a worker failed, or died while it
            still owes a message (``owing``: those worker ids)."""
            try:
                message = coord_q.get(timeout=0.05)
            except queue_mod.Empty:
                dead = [
                    procs[wid].pid
                    for wid in owing
                    if not procs[wid].is_alive()
                ]
                if not dead:
                    return None
                # A worker that exits right after its last message leaves
                # it in the pipe: only a queue still empty *after* the
                # death was seen means the message is lost.
                try:
                    message = coord_q.get(timeout=0.05)
                except queue_mod.Empty:
                    raise RuntimeError(
                        f"exploration worker {dead[0]} died unexpectedly"
                    ) from None
            if message[0] == "ERR":
                raise RuntimeError(
                    f"exploration worker {message[1]} failed:\n{message[2]}"
                )
            return message

        def gather(kind: str, level: int) -> dict[int, Any] | None:
            """Collect one protocol message per shard; ``None`` means
            the run was halted (time budget) while waiting."""
            nonlocal halted, truncated, truncation_cause
            out: dict[int, Any] = {}
            while len(out) < shards:
                if overtime() and not halted:
                    truncated = True
                    truncation_cause = TRUNCATED_BY_TIME
                    halted = True
                    broadcast(("HALT",))
                    return None
                message = receive(set(range(shards)) - out.keys())
                if (
                    message is not None
                    and message[0] == kind
                    and message[2] == level
                ):
                    out[message[1]] = message[3]
            return out

        # -- seeding ------------------------------------------------------
        frontier_total = 0
        visited_total = 0

        def tag_frontier(items):
            nonlocal frontier_total, visited_total
            for digest, rank, depth, cblob, mblob in items:
                visited_total += 1
                is_front = depth == frontier_level
                frontier_total += is_front
                yield digest, rank, depth, cblob, mblob, is_front

        _route_seeds(inboxes, shards, tag_frontier(seeds))
        resumed_states = visited_total if resuming else 0
        reexpansions = frontier_total if resuming else 0
        next_rank = visited_total
        depth_reached = max(frontier_level, 0)

        # -- the level loop -----------------------------------------------
        while True:
            if frontier_total == 0:
                break
            if max_depth is not None and frontier_level >= max_depth:
                depth_limited = True
                break
            if overtime():
                truncated = True
                truncation_cause = TRUNCATED_BY_TIME
                halted = True
                broadcast(("HALT",))
                break
            broadcast(("EXPAND", frontier_level))
            ldone = gather("LDONE", frontier_level)
            if ldone is None:
                break
            for dest in range(shards):
                expected = sum(ldone[wid][dest] for wid in range(shards))
                inboxes[dest].put(("CLOSE", frontier_level, expected))
            keys = gather("KEYS", frontier_level)
            if keys is None:
                break
            budget = (
                None
                if max_states is None
                else max(0, max_states - visited_total)
            )
            ranks, admitted_total, cut = _merge_ranks(
                keys, next_rank, budget
            )
            for wid in range(shards):
                inboxes[wid].put(("RANKS", frontier_level, ranks[wid]))
            if gather("LSTATS", frontier_level) is None:
                break
            visited_total += admitted_total
            next_rank += admitted_total
            if admitted_total:
                level_sizes.append(admitted_total)
                depth_reached = frontier_level + 1
            if cut:
                # The serial engine stops at its first over-budget
                # fresh state; the partial level is in the result but
                # deliberately *not* committed (resume recomputes it).
                truncated = True
                truncation_cause = TRUNCATED_BY_STATES
                break
            if coord_log is not None:
                coord_log.append(
                    REC_COMMIT,
                    frontier_level + 1,
                    0,
                    admitted_total.to_bytes(8, "little"),
                )
                coord_log.flush()
            frontier_level += 1
            frontier_total = admitted_total

        # -- collection ---------------------------------------------------
        broadcast(("STOP",))
        digests: set[bytes] = set()
        blobs: list[bytes] | None = None if store_dir is not None else []
        worker_stats: dict[int, dict] = {}
        while len(worker_stats) < shards:
            # A worker may exit once its DONE is in; until then its
            # death (say an OOM kill while shipping blobs) is a failure.
            message = receive(set(range(shards)) - worker_stats.keys())
            if message is None:
                continue
            kind = message[0]
            if kind == "BLOBS":
                for blob in message[2]:
                    digests.add(wire_digest(blob))
                    blobs.append(blob)
            elif kind == "DIGESTS":
                raw = message[2]
                for start in range(0, len(raw), 16):
                    digests.add(raw[start : start + 16])
            elif kind == "DONE":
                worker_stats[message[1]] = message[2]
            # stale LDONE/KEYS/LSTATS from a halted level are ignored
        for proc in procs:
            proc.join(timeout=10.0)
    finally:
        if coord_log is not None:
            coord_log.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for box in inboxes:
            box.close()
            box.cancel_join_thread()
        coord_q.close()
        coord_q.cancel_join_thread()

    # -- aggregation ------------------------------------------------------
    stats_by_wid = [worker_stats[wid] for wid in range(shards)]

    def total(field: str) -> int:
        return sum(ws[field] for ws in stats_by_wid)

    xor = 0
    for ws in stats_by_wid:
        xor ^= ws["xor"]
    view = WireVisitedView(
        digests,
        blobs,
        run_dir_logs(store_dir) if store_dir is not None else None,
        total("payload_bytes"),
        xor,
    )
    canon_hits, canon_misses = wire_keys.cache_activity()  # signature too
    stats = ExplorationStats(
        strategy="bfs",
        states=len(view),
        expansions=warm.expansions + total("expansions"),
        transitions=warm.transitions + total("transitions"),
        dedup_hits=warm.dedup_hits + total("dedup_hits"),
        depth_reached=depth_reached,
        depth_limited=depth_limited,
        peak_frontier=max([warm.peak_frontier] + level_sizes),
        elapsed_seconds=time.perf_counter() - started,
        truncated=truncated,
        truncation_cause=truncation_cause,
        workers=workers,
        orbit_reductions=warm.orbit_reductions + total("orbit_reductions"),
        bytes_per_state=view.bytes_per_state,
        canon_cache_hits=canon_hits + total("canon_hits"),
        canon_cache_misses=canon_misses + total("canon_misses"),
        shard_states=tuple(ws["admitted"] for ws in stats_by_wid),
        batches=total("batches"),
        reexpansions=reexpansions,
        spill_bytes=total("spill_bytes"),
        resumed_states=resumed_states,
    )
    return view.into_exploration(stats)
