"""The unified state-space exploration engine.

Every bounded search in this repository -- whitebox global-state
enumeration, graybox per-process enumeration, transition-system
reachability, and the operational convergence-point scan -- is one
instance of the same loop: pop a node from a frontier, deduplicate its
successors against a visited set, push the fresh ones.  This module owns
that loop once (:func:`search`, admitting through the one node -> dedup
key function :class:`NodeKeys`), with

* pluggable frontier strategies (:data:`BFS` / :data:`DFS`),
* uniform bounds (``max_depth``, ``max_states``, ``max_seconds``), and
* a :class:`ExplorationStats` record attached to every result, so the
  paper's central cost claim (Section 1: whitebox verification covers the
  *global* product space, graybox verification the per-process *sum*) is
  measured by instrumented runs rather than ad-hoc counters.

The searched object is abstracted behind the
:class:`~repro.explore.spaces.StateSpace` protocol; see
:mod:`repro.explore.spaces` for the three concrete adapters and
:mod:`repro.explore.shard` for the journalled digest store the same loop
runs over when a ``store_dir`` makes the exploration out-of-core and
resumable.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.explore.spaces import StateSpace

BFS = "bfs"
DFS = "dfs"

#: Truncation causes reported by :class:`ExplorationStats`.
TRUNCATED_BY_STATES = "max_states"
TRUNCATED_BY_TIME = "time_budget"


@dataclass(frozen=True)
class PhaseProfile:
    """Wall-clock breakdown of one exploration's inner loop.

    Phases (seconds, non-overlapping):

    ``expand``
        Generating successors (move lookup or evaluation, snapshot and
        token patching).
    ``canonicalize``
        Symmetry canonicalization of roots and successors (0.0 when the
        space defines no symmetry).
    ``store``
        Visited-set insertions that stored a fresh state (encode +
        intern + dict insert; the dict insert alone when the space hands
        over the node's token stream).
    ``dedup``
        Visited-set probes that hit an already-stored state.

    ``overhead_seconds`` is the run's elapsed time minus the four
    phases: frontier bookkeeping, bound checks, timer cost.
    """

    expand_seconds: float
    canonicalize_seconds: float
    store_seconds: float
    dedup_seconds: float
    elapsed_seconds: float

    @property
    def overhead_seconds(self) -> float:
        return max(
            0.0,
            self.elapsed_seconds
            - self.expand_seconds
            - self.canonicalize_seconds
            - self.store_seconds
            - self.dedup_seconds,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "expand_seconds": round(self.expand_seconds, 6),
            "canonicalize_seconds": round(self.canonicalize_seconds, 6),
            "store_seconds": round(self.store_seconds, 6),
            "dedup_seconds": round(self.dedup_seconds, 6),
            "overhead_seconds": round(self.overhead_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def describe(self) -> str:
        """Multi-line human-readable phase table."""
        total = self.elapsed_seconds or 1.0
        rows = [
            ("expand", self.expand_seconds),
            ("canonicalize", self.canonicalize_seconds),
            ("store", self.store_seconds),
            ("dedup", self.dedup_seconds),
            ("overhead", self.overhead_seconds),
        ]
        lines = ["phase breakdown:"]
        for name, seconds in rows:
            lines.append(
                f"  {name:<13} {seconds:8.3f}s  {seconds / total:6.1%}"
            )
        lines.append(f"  {'total':<13} {self.elapsed_seconds:8.3f}s")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExplorationStats:
    """Instrumentation of one exploration run.

    ``states``
        Distinct states visited (roots included).
    ``expansions``
        Nodes whose successors were enumerated (nodes cut by the depth
        bound are visited but never expanded).
    ``transitions``
        Successor edges examined, including duplicates.
    ``dedup_hits``
        Successors discarded because their key was already visited.
    ``depth_reached``
        Deepest node popped from the frontier.
    ``depth_limited``
        Some node was left unexpanded because of ``max_depth``.
    ``peak_frontier``
        Largest frontier observed (memory high-water mark).
    ``truncated`` / ``truncation_cause``
        Whether the search stopped early and why (``"max_states"`` or
        ``"time_budget"``); a pure depth bound is *not* a truncation --
        the bounded space was explored exhaustively.
    ``orbit_reductions``
        Examined keys (roots and successors, duplicates included) that
        symmetry canonicalization rewrote to a different orbit
        representative; 0 when the space defines no symmetry.
    ``bytes_per_state``
        Mean packed payload bytes per visited state in the interned
        store; 0.0 when the space defines no ``codec`` (plain-set
        storage of the original keys).
    ``canon_cache_hits`` / ``canon_cache_misses``
        Orbit-representative cache activity (packed canonicalization
        only): a hit means an examined key's canonical form was served
        from the blob-keyed cache without touching the permutation
        group.
    ``reexpansions``
        States re-expanded by a checkpoint resume: the last committed
        frontier level is expanded again because expansions are never
        journalled (they are deterministic from the durable members).
    ``spill_bytes``
        Bytes appended to the on-disk journal (0 without a
        ``store_dir``).
    ``resumed_states``
        States replayed from the checkpoint journal.
    ``journal_kept_bytes`` / ``journal_discarded_bytes``
        The committed prefix of the journal found at opening, and what
        was cut off behind it (torn, partial level, or failed checksum).
    ``profile``
        Per-phase wall-clock breakdown (only when the exploration ran
        with ``profile=True``).
    """

    strategy: str
    states: int
    expansions: int
    transitions: int
    dedup_hits: int
    depth_reached: int
    depth_limited: bool
    peak_frontier: int
    elapsed_seconds: float
    truncated: bool
    truncation_cause: str | None
    orbit_reductions: int = 0
    bytes_per_state: float = 0.0
    canon_cache_hits: int = 0
    canon_cache_misses: int = 0
    reexpansions: int = 0
    spill_bytes: int = 0
    resumed_states: int = 0
    journal_kept_bytes: int = 0
    journal_discarded_bytes: int = 0
    profile: PhaseProfile | None = None

    @property
    def states_per_second(self) -> float:
        """Visit throughput (0.0 for an instantaneous run)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.states / self.elapsed_seconds

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of examined transitions that hit the visited set."""
        if self.transitions == 0:
            return 0.0
        return self.dedup_hits / self.transitions

    @property
    def canon_cache_hit_rate(self) -> float:
        """Fraction of canonicalizations served from the orbit cache."""
        lookups = self.canon_cache_hits + self.canon_cache_misses
        if lookups == 0:
            return 0.0
        return self.canon_cache_hits / lookups

    def describe(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.states} states in {self.elapsed_seconds:.3f}s "
            f"({self.states_per_second:,.0f} states/s, {self.strategy}), "
            f"depth {self.depth_reached}, "
            f"dedup {self.dedup_hit_rate:.0%}, "
            f"peak frontier {self.peak_frontier}"
        )
        if self.orbit_reductions:
            text += f", {self.orbit_reductions} orbit rewrites"
        if self.canon_cache_hits or self.canon_cache_misses:
            text += f", canon cache {self.canon_cache_hit_rate:.0%}"
        if self.reexpansions:
            text += f", {self.reexpansions} re-expansions"
        if self.spill_bytes:
            text += f", {self.spill_bytes / 1024:.0f} KiB spilled"
        if self.resumed_states:
            text += f", {self.resumed_states} resumed"
        if self.bytes_per_state:
            text += f", {self.bytes_per_state:.0f} B/state"
        if self.truncated:
            text += f", TRUNCATED by {self.truncation_cause}"
        elif self.depth_limited:
            text += ", depth-bounded"
        return text


class Exploration:
    """Result of one exploration: the visited keys plus statistics.

    When the search ran over an interned store, the packed blobs are
    kept and :attr:`visited` decodes them back into full keys only on
    first access; membership tests re-encode the probe instead of
    materialising anything.  For plain-set searches this is exactly the
    old frozenset-carrying record.
    """

    __slots__ = ("stats", "_visited", "_store")

    def __init__(
        self,
        visited: frozenset[Hashable] | None = None,
        stats: ExplorationStats | None = None,
        store: Any = None,
    ):
        if (visited is None) == (store is None):
            raise ValueError("pass exactly one of visited= or store=")
        self._visited = visited
        self._store = store
        self.stats = stats

    @property
    def visited(self) -> frozenset[Hashable]:
        """The distinct visited keys (decoded lazily from the store)."""
        if self._visited is None:
            self._visited = frozenset(self._store.keys())
        return self._visited

    @property
    def states(self) -> int:
        """Distinct states visited."""
        return len(self)

    def __len__(self) -> int:
        if self._store is not None:
            return len(self._store)
        return len(self._visited)

    def __contains__(self, key: Hashable) -> bool:
        if self._store is not None:
            return key in self._store
        return key in self._visited

    def content_digest(self) -> str:
        """Order-independent 128-bit digest of the visited set.

        In-memory, journalled and checkpoint-resumed explorations of the
        same bounded space produce the same hex string (the XOR of
        per-state wire digests plus the cardinality -- see
        :mod:`repro.explore.wire`), so it serves as the re-validation
        anchor for a run: equal digest, equal visited set.
        """
        if self._store is not None and hasattr(
            self._store, "content_digest"
        ):
            return self._store.content_digest()
        from repro.explore.wire import (
            WireCodec,
            content_digest,
            wire_digest,
        )

        codec = WireCodec()
        xor = 0
        count = 0
        keys = self._store.keys() if self._store is not None else self._visited
        for key in keys:
            xor ^= int.from_bytes(
                wire_digest(codec.encode(key)), "little"
            )
            count += 1
        return content_digest(xor, count)


#: Sentinel for exhausted successor iterators (profiled iteration).
_DONE = object()


class _PhaseClock:
    """``profile=True``: timing wrappers for the three seams of the loop.

    The loop never asks whether it is profiled.  It calls the successor
    function, the keyer and the store ``add`` it was handed, and these
    wrappers charge what those calls take to the :class:`PhaseProfile`
    phases; without ``profile`` the bare callables are on the path.
    """

    __slots__ = ("expand", "canonicalize", "store", "dedup")

    def __init__(self) -> None:
        self.expand = self.canonicalize = self.store = self.dedup = 0.0

    def successors(self, successors: Callable) -> Callable:
        clock = time.perf_counter

        def timed(node: Any):
            # Spaces generate lazily: charge each ``next``, not the call.
            succs = iter(successors(node))
            while True:
                t0 = clock()
                succ = next(succs, _DONE)
                self.expand += clock() - t0
                if succ is _DONE:
                    return
                yield succ

        return timed

    def canonicalizer(self, key_of: Callable) -> Callable:
        clock = time.perf_counter

        def timed(node: Any):
            t0 = clock()
            out = key_of(node)
            self.canonicalize += clock() - t0
            return out

        return timed

    def adder(self, add: Callable) -> Callable:
        clock = time.perf_counter

        def timed(dkey: Hashable):
            t0 = clock()
            out = add(dkey)
            if out[1]:
                self.store += clock() - t0
            else:
                self.dedup += clock() - t0
            return out

        return timed

    def profile(self, elapsed: float) -> PhaseProfile:
        return PhaseProfile(
            expand_seconds=self.expand,
            canonicalize_seconds=self.canonicalize,
            store_seconds=self.store,
            dedup_seconds=self.dedup,
            elapsed_seconds=elapsed,
        )


class NodeKeys:
    """How one space's nodes become dedup keys.

    The optional hooks a space may publish (see
    :mod:`repro.explore.spaces`) are looked up here, once per space, and
    folded into one function, :attr:`of`: ``of(node) -> (dedup key,
    rewritten)``.  The dedup key is

    * the canonical orbit representative's packed blob when the space
      publishes ``packed_canon``: the canonicalizer gets the node's
      ``tokens_of`` and no key when the space has that hook, the key
      otherwise; ``rewritten`` then says whether the representative
      differs from the node's own key;
    * the node's own token stream, packed, for an exact space with
      ``tokens_of``, when ``codec`` -- the interned visited store's --
      can ``pack`` one;
    * the plain ``space.key(node)`` otherwise.

    :attr:`blobs` tells the first two from the third (the store takes
    blobs through ``add_packed``), :attr:`decode` maps a dedup key back
    to the key it stands for.  In-memory and journalled explorations
    both admit through :attr:`of`, so they agree on "already visited" by
    construction.
    """

    __slots__ = ("of", "decode", "blobs", "canonical", "_stats", "_seen0")

    def __init__(self, space: StateSpace, codec: Any = None) -> None:
        key_of = space.key
        packed = getattr(space, "packed_canon", None)
        tokens_of = getattr(space, "tokens_of", None)
        pack = getattr(codec, "pack", None)
        self.canonical = packed is not None
        self.blobs = True
        if packed is not None:
            canonicalize = packed.canonicalize
            if tokens_of is None:

                def of(node: Any):
                    return canonicalize(key_of(node))

            else:  # the tokens alone: no snapshot per examined child

                def of(node: Any):
                    return canonicalize(None, tokens_of(node))

            self.decode = packed.decode
        elif tokens_of is not None and pack is not None:

            def of(node: Any):
                return pack(tokens_of(node)), False

            self.decode = codec.decode
        else:

            def of(node: Any):
                return key_of(node), False

            self.decode = lambda key: key
            self.blobs = False
        self.of = of
        self._stats = stats = packed.stats if self.canonical else None
        self._seen0 = (stats.hits, stats.misses) if self.canonical else (0, 0)

    def cache_activity(self) -> tuple[int, int]:
        """Orbit-cache ``(hits, misses)`` since this keyer was built (the
        space's canonicalizer outlives one exploration)."""
        stats = self._stats
        if stats is None:
            return 0, 0
        return stats.hits - self._seen0[0], stats.misses - self._seen0[1]


def search(
    space: StateSpace,
    keys: NodeKeys,
    visited: Any,
    *,
    strategy: str = BFS,
    max_depth: int | None,
    max_states: int | None,
    max_seconds: float | None,
    started: float,
    on_visit: Callable[[Hashable, int], None] | None = None,
    frontier: Iterable[tuple[Any, int]] | None = None,
    phases: _PhaseClock | None = None,
) -> ExplorationStats:
    """The frontier loop: the one admission path.

    Admits ``space``'s nodes into ``visited`` (``add`` / ``add_packed``,
    ``in`` / ``contains_packed``, ``len``, ``bytes_per_state``) through
    ``keys.of``, in frontier order, until the frontier is exhausted or a
    bound cuts the search: the first-seen member of an orbit is the one
    expanded, and ``max_states`` stops at the first fresh state over the
    budget (duplicates examined before it still count as dedup hits).

    ``frontier`` seeds the loop with ``(node, depth)`` pairs already in
    ``visited`` -- a checkpoint's last committed level, in admission
    order -- in place of admitting the roots.  A store that publishes
    ``commit_level(depth, size)`` (a journal; BFS only) is told each
    level edge: the first pop at ``depth`` means that level is fully
    admitted and holds ``size`` states, none of them expanded yet.
    """
    successors = space.successors
    key_of = keys.of
    if keys.blobs:
        add, contains = visited.add_packed, visited.contains_packed
    else:
        add, contains = visited.add, visited.__contains__
    if phases is not None:
        successors = phases.successors(successors)
        if keys.canonical:
            key_of = phases.canonicalizer(key_of)
        add = phases.adder(add)
    decode = keys.decode
    commit_level = getattr(visited, "commit_level", None)
    queue: deque[tuple[Any, int]] = deque()

    def admit(nodes: Iterable[Any], depth: int) -> tuple[int, int, int, bool]:
        """Admit ``nodes`` (the roots, or one node's successors) at
        ``depth``: ``(examined, duplicates, orbit rewrites, within
        budget)``."""
        examined = duplicates = rewrites = 0
        for node in nodes:
            examined += 1
            dkey, rewritten = key_of(node)
            if rewritten:
                rewrites += 1
            if max_states is not None and len(visited) >= max_states:
                if contains(dkey):
                    duplicates += 1
                    continue
                return examined, duplicates, rewrites, False
            if not add(dkey)[1]:
                duplicates += 1
                continue
            if on_visit is not None:
                on_visit(decode(dkey), depth)
            # The frontier keeps the first-seen orbit member: ``node``
            # is reachable by construction, while the canonical
            # representative may be a renaming never actually executed.
            queue.append((node, depth))
        return examined, duplicates, rewrites, True

    cause = None
    orbit_reductions = 0
    if frontier is not None:
        queue.extend(frontier)
    else:
        # Roots are the successors of nothing; they are neither
        # transitions nor dedup hits.
        _, _, orbit_reductions, within = admit(space.roots(), 0)
        if not within:
            cause = TRUNCATED_BY_STATES
    peak_frontier = len(queue)
    expansions = transitions = dedup_hits = 0
    depth_reached = -1
    depth_limited = False
    pop = queue.popleft if strategy == BFS else queue.pop
    while queue and cause is None:
        if (
            max_seconds is not None
            and time.perf_counter() - started > max_seconds
        ):
            cause = TRUNCATED_BY_TIME
            break
        node, depth = pop()
        if depth > depth_reached:
            depth_reached = depth
            if commit_level is not None:
                # A BFS level edge: ``node`` plus the queue is exactly
                # level ``depth``, all of it admitted, none expanded.
                commit_level(depth, len(queue) + 1)
        if max_depth is not None and depth >= max_depth:
            depth_limited = True
            continue
        expansions += 1
        examined, duplicates, rewrites, within = admit(
            successors(node), depth + 1
        )
        transitions += examined
        dedup_hits += duplicates
        orbit_reductions += rewrites
        if not within:
            cause = TRUNCATED_BY_STATES
            break
        peak_frontier = max(peak_frontier, len(queue))
    if commit_level is not None and cause is None and not depth_limited:
        # Exhausted: one final empty level, so a resume of this journal
        # finds nothing left to expand.
        commit_level(depth_reached + 1, 0)

    elapsed = time.perf_counter() - started
    canon_cache_hits, canon_cache_misses = keys.cache_activity()
    return ExplorationStats(
        strategy=strategy,
        states=len(visited),
        expansions=expansions,
        transitions=transitions,
        dedup_hits=dedup_hits,
        depth_reached=max(depth_reached, 0),
        depth_limited=depth_limited,
        peak_frontier=peak_frontier,
        elapsed_seconds=elapsed,
        truncated=cause is not None,
        truncation_cause=cause,
        orbit_reductions=orbit_reductions,
        bytes_per_state=visited.bytes_per_state,
        canon_cache_hits=canon_cache_hits,
        canon_cache_misses=canon_cache_misses,
        profile=phases.profile(elapsed) if phases is not None else None,
    )


def explore(
    space: StateSpace,
    *,
    strategy: str = BFS,
    max_depth: int | None = None,
    max_states: int | None = None,
    max_seconds: float | None = None,
    on_visit: Callable[[Hashable, int], None] | None = None,
    profile: bool = False,
    store_dir: str | None = None,
    resume: bool = False,
) -> Exploration:
    """Explore ``space`` from its roots under the given strategy and bounds.

    ``on_visit(key, depth)`` is called exactly once per distinct state, in
    visit order (roots first).  ``profile=True`` attaches a
    :class:`PhaseProfile` wall-clock breakdown (expand / canonicalize /
    store / dedup) to the result's stats.

    ``store_dir`` makes the exploration out-of-core and kill-safe (BFS
    only): the same loop runs over a digest-only visited set whose states
    go to an append-only journal in that directory, committed level by
    level (:mod:`repro.explore.shard`); ``resume=True`` replays the
    committed levels first, so a killed exploration continues to the
    identical visited set and :meth:`Exploration.content_digest`.

    How a node becomes a dedup key is decided once, by
    :class:`NodeKeys`, from the hooks the space publishes: ``codec``
    (visited keys are interned as packed blobs), ``packed_canon``
    (symmetric spaces: the canonical orbit representative's blob, from a
    blob-keyed cache or a lazy slot-by-slot minimum over the group --
    see :mod:`repro.explore.packed`), and ``tokens_of`` (the packed
    token stream a node already carries).  A space that quotients by
    some other map wraps it in a
    :class:`~repro.explore.packed.CachedCanonicalizer`.
    """
    if strategy not in (BFS, DFS):
        raise ValueError(f"unknown frontier strategy {strategy!r}")
    if resume and store_dir is None:
        raise ValueError("resume=True requires store_dir")
    started = time.perf_counter()
    frontier = None
    if store_dir is None:
        from repro.explore.store import make_visited_store

        codec = getattr(space, "codec", None)
        keys = NodeKeys(space, codec)
        visited = make_visited_store(codec)
    else:
        from repro.explore.shard import open_checkpoint

        if strategy != BFS:
            raise ValueError(
                "checkpointed exploration commits BFS levels: "
                "store_dir supports only BFS"
            )
        keys, visited, frontier = open_checkpoint(
            space, store_dir, max_depth, resume
        )
    try:
        stats = search(
            space,
            keys,
            visited,
            strategy=strategy,
            max_depth=max_depth,
            max_states=max_states,
            max_seconds=max_seconds,
            started=started,
            on_visit=on_visit,
            frontier=frontier,
            phases=_PhaseClock() if profile else None,
        )
    finally:
        if store_dir is not None:
            visited.close()
    return visited.into_exploration(stats)
