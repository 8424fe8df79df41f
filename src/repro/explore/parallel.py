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

**Warm start.**  Tiny frontiers are expanded in-process with exact
serial semantics until a BFS level reaches ~2x the worker count; only
then is the accumulated visited set handed to the shards.  Small
spaces (and explorations truncated early) never pay for the pool at
all.

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
from typing import Any

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

#: Orbit-blob -> wire-blob memo bound (see :class:`_WireCanon`).
_MEMO_MAX = 1 << 18


class _WireCanon:
    """``key -> (canonical wire blob, digest, rewritten)`` for one process.

    Bridges a space's canonicalizer (packed fast path when available,
    object-level ``canonical_key`` otherwise, identity for exact
    spaces) to the cross-process wire encoding.  A bounded memo maps
    canonical packed blobs to their wire form, so duplicate successors
    -- the majority of examined edges -- cost one dict hit instead of a
    decode + re-encode.
    """

    __slots__ = ("packed", "canon", "wire", "_memo")

    def __init__(self, space: StateSpace):
        self.packed = getattr(space, "packed_canon", None)
        self.canon = (
            getattr(space, "canonical_key", None)
            if self.packed is None
            else None
        )
        self.wire = WireCodec()
        self._memo: dict[bytes, tuple[bytes, bytes]] = {}

    def convert(
        self,
        key: Hashable,
        parent_key: Hashable = None,
        delta: Any = None,
        tokens: Any = None,
    ) -> tuple[bytes, bytes, bool]:
        packed = self.packed
        if packed is not None:
            cblob, rewritten = packed.canonicalize(
                key, parent_key, delta, tokens
            )
            hit = self._memo.get(cblob)
            if hit is None:
                if len(self._memo) >= _MEMO_MAX:
                    self._memo.clear()
                blob = self.wire.encode(packed.decode(cblob))
                hit = (blob, wire_digest(blob))
                self._memo[cblob] = hit
            return hit[0], hit[1], rewritten
        rewritten = False
        if self.canon is not None:
            canonical = self.canon(key)
            rewritten = canonical is not key
            key = canonical
        blob = self.wire.encode(key)
        return blob, wire_digest(blob), rewritten

    def cache_counts(self) -> tuple[int, int]:
        if self.packed is None:
            return 0, 0
        return self.packed.stats.hits, self.packed.stats.misses


def _space_signature(space: StateSpace, max_depth: int | None) -> str:
    """A cheap fingerprint of the exploration *problem* -- pins a run
    directory to one space configuration and depth bound."""
    wc = _WireCanon(space)
    xor = 0
    count = 0
    for root in space.roots():
        _blob, digest, _rw = wc.convert(space.key(root))
        xor ^= int.from_bytes(digest, "little")
        count += 1
    group = len(getattr(space, "symmetry_group", ()) or ())
    return (
        f"{type(space).__name__}|roots={count}:{xor:032x}"
        f"|sym={group}|depth={max_depth}"
    )


# -- warm start (adaptive in-process phase) --------------------------------


class _WarmResult:
    """Outcome of the in-process phase: counters plus either a finished
    visited set or a ranked handoff for the shards.

    States are admitted in serial BFS order, so a state's index in
    ``blobs`` *is* its global rank.  ``commit_through`` is the highest
    fully-admitted level (the handoff frontier level, or for finished
    runs one past the last level so resume finds an empty frontier);
    ``members`` maps a frontier rank to its first-seen member blob when
    symmetry rewriting made it differ from the canonical blob.
    """

    __slots__ = (
        "finished",
        "blobs",
        "digest_list",
        "depths",
        "digests",
        "members",
        "commit_through",
        "xor",
        "payload_bytes",
        "expansions",
        "transitions",
        "dedup_hits",
        "orbit_reductions",
        "peak_frontier",
        "depth_reached",
        "depth_limited",
        "truncated",
        "truncation_cause",
    )

    def __init__(self) -> None:
        self.finished = False
        self.blobs: list[bytes] = []
        self.digest_list: list[bytes] = []
        self.depths: list[int] = []
        self.digests: dict[bytes, int] = {}
        self.members: dict[int, bytes] = {}
        self.commit_through = -1
        self.xor = 0
        self.payload_bytes = 0
        self.expansions = 0
        self.transitions = 0
        self.dedup_hits = 0
        self.orbit_reductions = 0
        self.peak_frontier = 0
        self.depth_reached = 0
        self.depth_limited = False
        self.truncated = False
        self.truncation_cause: str | None = None

    def seed_items(
        self,
    ) -> Iterator[tuple[bytes, int, int, bytes, bytes | None, bool]]:
        """``(digest, rank, depth, canonical_blob, member_blob,
        is_frontier)`` for every committed state."""
        frontier_level = self.commit_through
        for rank, blob in enumerate(self.blobs):
            depth = self.depths[rank]
            if depth > frontier_level:
                continue
            yield (
                self.digest_list[rank],
                rank,
                depth,
                blob,
                self.members.get(rank),
                depth == frontier_level,
            )


def _warm_start(
    space: StateSpace,
    wc: _WireCanon,
    *,
    threshold: int,
    max_depth: int | None,
    max_states: int | None,
    max_seconds: float | None,
    started: float,
) -> _WarmResult:
    """Serial-semantics level BFS until the frontier outgrows
    ``threshold`` (handoff) or the exploration ends (finished)."""
    from repro.explore.engine import TRUNCATED_BY_STATES, TRUNCATED_BY_TIME

    out = _WarmResult()
    delta_of = getattr(space, "delta_of", None)
    tokens_of = getattr(space, "tokens_of", None)
    key_of = space.key

    def admit(blob: bytes, digest: bytes, depth: int) -> int | None:
        rank = out.digests.get(digest)
        if rank is not None:
            return None
        rank = len(out.blobs)
        out.digests[digest] = rank
        out.digest_list.append(digest)
        out.blobs.append(blob)
        out.depths.append(depth)
        out.xor ^= int.from_bytes(digest, "little")
        out.payload_bytes += len(blob)
        return rank

    level: list[tuple[Any, int]] = []
    for root in space.roots():
        blob, digest, rewritten = wc.convert(
            key_of(root),
            tokens=tokens_of(root) if tokens_of is not None else None,
        )
        out.orbit_reductions += rewritten
        if max_states is not None and len(out.digests) >= max_states:
            if digest in out.digests:
                continue
            out.truncated = True
            out.truncation_cause = TRUNCATED_BY_STATES
            break
        rank = admit(blob, digest, 0)
        if rank is not None:
            level.append((root, rank))
    out.peak_frontier = len(level)

    depth = 0
    while level and not out.truncated:
        out.commit_through = depth
        out.depth_reached = max(out.depth_reached, depth)
        if max_depth is not None and depth >= max_depth:
            out.depth_limited = True
            break
        if len(level) >= threshold:
            # Handoff: this level expands on the shards.  Record the
            # first-seen members the serial contract says the shards
            # must expand (non-equivariance: the canonical blob may
            # behave differently from the state actually reached).
            for node, rank in level:
                member = wc.wire.encode(key_of(node))
                if member != out.blobs[rank]:
                    out.members[rank] = member
            return out
        next_level: list[tuple[Any, int]] = []
        for consumed, (node, rank) in enumerate(level, 1):
            if (
                max_seconds is not None
                and time.perf_counter() - started > max_seconds
            ):
                out.truncated = True
                out.truncation_cause = TRUNCATED_BY_TIME
                break
            out.expansions += 1
            parent_key = key_of(node)
            for succ in space.successors(node):
                out.transitions += 1
                blob, digest, rewritten = wc.convert(
                    key_of(succ),
                    parent_key,
                    delta_of(succ) if delta_of is not None else None,
                    tokens_of(succ) if tokens_of is not None else None,
                )
                out.orbit_reductions += rewritten
                if (
                    max_states is not None
                    and len(out.digests) >= max_states
                ):
                    if digest in out.digests:
                        out.dedup_hits += 1
                        continue
                    out.truncated = True
                    out.truncation_cause = TRUNCATED_BY_STATES
                    break
                child = admit(blob, digest, depth + 1)
                if child is None:
                    out.dedup_hits += 1
                    continue
                next_level.append((succ, child))
            out.peak_frontier = max(
                out.peak_frontier,
                len(level) - consumed + len(next_level),
            )
            if out.truncated:
                break
        level = next_level if not out.truncated else []
        depth += 1

    if not out.truncated and not out.depth_limited:
        # Natural completion: commit one final *empty* level, so a
        # resume of this directory finds an empty frontier and returns
        # the finished set without re-expanding anything.
        out.commit_through = depth
    out.finished = True
    return out


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
        self.wc = _WireCanon(space)
        self.canon0 = self.wc.cache_counts()
        self.node_of = getattr(space, "node_of_key", None)
        self.delta_of = getattr(space, "delta_of", None)
        self.tokens_of = getattr(space, "tokens_of", None)

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
        wc = self.wc
        space = self.space
        key_of = space.key
        node_of = self.node_of
        delta_of = self.delta_of
        tokens_of = self.tokens_of
        out: list[list] = [[] for _ in range(self.shards)]
        counts = [0] * self.shards
        for rank, member_blob in self.frontier:
            if self.halted or self.stopping:
                return
            self.expansions += 1
            state = wc.wire.decode(member_blob)
            if node_of is not None:
                succs: Iterable[Any] = space.successors(node_of(state))
            else:
                succs = space.successors_of_key(state)
            cand = 0
            for succ in succs:
                self.transitions += 1
                delta = tokens = None
                if node_of is not None:
                    skey = key_of(succ)
                    if delta_of is not None:
                        delta = delta_of(succ)
                    if tokens_of is not None:
                        tokens = tokens_of(succ)
                else:
                    skey = succ
                cblob, digest, rewritten = wc.convert(
                    skey, state, delta, tokens
                )
                self.orbit_reductions += rewritten
                member = wc.wire.encode(skey) if rewritten else None
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
        canon_hits, canon_misses = self.wc.cache_counts()
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
                    "canon_hits": canon_hits - self.canon0[0],
                    "canon_misses": canon_misses - self.canon0[1],
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


def _route_seeds(inboxes: list, shards: int, items: Iterable[tuple]) -> int:
    """Batch seed tuples to their owners; returns states routed."""
    buffers: list[list] = [[] for _ in range(shards)]
    routed = 0
    for item in items:
        dest = shard_of(item[0], shards)
        buffers[dest].append(item)
        routed += 1
        if len(buffers[dest]) >= SEED_BATCH_SIZE:
            inboxes[dest].put(("SEED", buffers[dest]))
            buffers[dest] = []
    for dest in range(shards):
        if buffers[dest]:
            inboxes[dest].put(("SEED", buffers[dest]))
    return routed


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

    from repro.explore.engine import (
        TRUNCATED_BY_STATES,
        TRUNCATED_BY_TIME,
        ExplorationStats,
    )

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
    wc = _WireCanon(space)
    canon0 = wc.cache_counts()

    # -- durable run directory --------------------------------------------
    coord_log: ShardLog | None = None
    committed = -1
    if store_dir is not None:
        prepare_run_dir(store_dir, _space_signature(space, max_depth))
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
    warm: _WarmResult | None = None
    if not resuming:
        warm = _warm_start(
            space,
            wc,
            threshold=WARM_LEVEL_FACTOR * shards,
            max_depth=max_depth,
            max_states=max_states,
            max_seconds=max_seconds,
            started=started,
        )
        if coord_log is not None:
            for rank, blob in enumerate(warm.blobs):
                depth = warm.depths[rank]
                if depth > warm.commit_through:
                    continue  # truncated mid-level: not checkpointable
                coord_log.append(
                    REC_ADMIT, depth, rank, warm.digest_list[rank] + blob
                )
                member = warm.members.get(rank)
                if member is not None:
                    coord_log.append(REC_MEMBER, depth, rank, member)
            for lvl in range(warm.commit_through + 1):
                admitted = sum(
                    1
                    for depth in warm.depths
                    if depth == lvl
                )
                coord_log.append(
                    REC_COMMIT, lvl, 0, admitted.to_bytes(8, "little")
                )
            coord_log.flush()
        if warm.finished:
            if coord_log is not None:
                coord_log.close()
            canon_hits, canon_misses = wc.cache_counts()
            view = WireVisitedView(
                set(warm.digests),
                warm.blobs,
                None,
                warm.payload_bytes,
                warm.xor,
            )
            stats = ExplorationStats(
                strategy="bfs",
                states=len(view),
                expansions=warm.expansions,
                transitions=warm.transitions,
                dedup_hits=warm.dedup_hits,
                depth_reached=warm.depth_reached,
                depth_limited=warm.depth_limited,
                peak_frontier=warm.peak_frontier,
                elapsed_seconds=time.perf_counter() - started,
                truncated=warm.truncated,
                truncation_cause=warm.truncation_cause,
                workers=workers,
                orbit_reductions=warm.orbit_reductions,
                bytes_per_state=view.bytes_per_state,
                canon_cache_hits=canon_hits - canon0[0],
                canon_cache_misses=canon_misses - canon0[1],
            )
            return view.into_exploration(stats)

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
    resumed_states = 0
    reexpansions = 0
    seed_batches = 0
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
                try:
                    message = coord_q.get(timeout=0.05)
                except queue_mod.Empty:
                    for proc in procs:
                        if not proc.is_alive():
                            raise RuntimeError(
                                f"exploration worker {proc.pid} died "
                                "unexpectedly"
                            ) from None
                    continue
                if message[0] == "ERR":
                    raise RuntimeError(
                        f"exploration worker {message[1]} failed:\n"
                        f"{message[2]}"
                    )
                if message[0] == kind and message[2] == level:
                    out[message[1]] = message[3]
            return out

        # -- seeding ------------------------------------------------------
        if resuming:
            frontier_level = committed
            seeds = replay_admits(run_dir_logs(store_dir), committed)
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
            resumed_states = visited_total
            reexpansions = frontier_total
        else:
            frontier_level = warm.commit_through
            visited_total = sum(
                1
                for depth in warm.depths
                if depth <= warm.commit_through
            )
            frontier_total = sum(
                1
                for depth in warm.depths
                if depth == warm.commit_through
            )
            _route_seeds(inboxes, shards, warm.seed_items())
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
            message = coord_q.get(timeout=60.0)
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
            elif kind == "ERR":
                raise RuntimeError(
                    f"exploration worker {message[1]} failed:\n{message[2]}"
                )
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
    xor = 0
    for ws in stats_by_wid:
        xor ^= ws["xor"]
    payload_bytes = sum(ws["payload_bytes"] for ws in stats_by_wid)
    view = WireVisitedView(
        digests,
        blobs,
        run_dir_logs(store_dir) if store_dir is not None else None,
        payload_bytes,
        xor,
    )
    canon_hits, canon_misses = wc.cache_counts()
    warm_expansions = warm.expansions if warm is not None else 0
    warm_transitions = warm.transitions if warm is not None else 0
    warm_dedup = warm.dedup_hits if warm is not None else 0
    warm_orbit = warm.orbit_reductions if warm is not None else 0
    warm_peak = warm.peak_frontier if warm is not None else 0
    stats = ExplorationStats(
        strategy="bfs",
        states=len(view),
        expansions=warm_expansions
        + sum(ws["expansions"] for ws in stats_by_wid),
        transitions=warm_transitions
        + sum(ws["transitions"] for ws in stats_by_wid),
        dedup_hits=warm_dedup
        + sum(ws["dedup_hits"] for ws in stats_by_wid),
        depth_reached=depth_reached,
        depth_limited=depth_limited,
        peak_frontier=max(
            [warm_peak] + level_sizes
        ),
        elapsed_seconds=time.perf_counter() - started,
        truncated=truncated,
        truncation_cause=truncation_cause,
        workers=workers,
        orbit_reductions=warm_orbit
        + sum(ws["orbit_reductions"] for ws in stats_by_wid),
        bytes_per_state=view.bytes_per_state,
        canon_cache_hits=(canon_hits - canon0[0])
        + sum(ws["canon_hits"] for ws in stats_by_wid),
        canon_cache_misses=(canon_misses - canon0[1])
        + sum(ws["canon_misses"] for ws in stats_by_wid),
        shard_states=tuple(ws["admitted"] for ws in stats_by_wid),
        batches=seed_batches + sum(ws["batches"] for ws in stats_by_wid),
        reexpansions=reexpansions,
        spill_bytes=sum(ws["spill_bytes"] for ws in stats_by_wid),
        resumed_states=resumed_states,
    )
    return view.into_exploration(stats)
