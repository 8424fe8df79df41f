"""Packed-token symmetry canonicalization: the fast path.

:mod:`repro.explore.canon` defines *what* the canonical orbit
representative is -- the least renaming of a state under a permutation
group, ordered by :func:`repro.explore.store.order_key` -- via recursive
object-tree rewrites.  That reference implementation is clear and
obviously correct, but paying a full tree rewrite per permutation per
examined successor made symmetry-reduced exploration ~45x *slower* than
exact exploration.  This module computes the identical representative on
the :class:`~repro.explore.store.GlobalStateCodec`'s packed token
streams instead:

* **the permutation acts on interned ids, not trees** -- a global
  state's tokens are ``(pid_sid, vars_oid)`` per process and
  ``(src_sid, dst_sid, content_oid)`` per channel; renaming a candidate
  is an integer relabel through per-permutation memo tables
  (``vars_oid -> renamed vars_oid``), falling back to one memoized
  tree rewrite (:class:`_Renamer`, semantically
  :func:`~repro.explore.canon.rename_value`) per *distinct*
  (permutation, subtree) pair ever seen;
* **candidate comparison is early-exit lexicographic** -- because the
  pid multiset (and hence the sorted pid/channel-key skeleton) is
  invariant under the group, candidates differ only in the per-slot
  subtree values; each candidate is a flat vector of memoized
  ``order_key`` tuples, and Python's list comparison bails at the first
  differing slot (identical slots are the *same* memoized object, so
  equality there is a pointer check);
* **canonical forms are computed incrementally from the parent** -- one
  transition touches one process and at most two channels (the spaces
  expose that delta), so each candidate vector is the parent's vector
  with a handful of slots patched in place (and un-patched afterwards),
  not rebuilt;
* **an orbit-representative cache keyed on the packed blob** -- the
  engine examines every successor edge including duplicates (dedup hit
  rates of 50-80% are typical), and repeated snapshots canonicalize
  once: the second and later encounters are a dict hit on the interned
  byte blob.

:class:`PackedGlobalCanonicalizer` serves
:class:`~repro.explore.spaces.GlobalSimulatorSpace`;
:class:`CachedCanonicalizer` wraps the reference path for
:class:`~repro.explore.spaces.LocalProcessSpace`, whose small snapshots
don't warrant the template machinery but benefit just as much from the
orbit cache.  Parity with the reference implementation is pinned by
``tests/explore/test_packed_parity.py``.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Hashable, Mapping
from typing import Any

from repro.clocks.timestamps import Timestamp
from repro.explore.store import (
    TAG_TUPLE,
    GlobalStateCodec,
    StateCodec,
    order_key,
)
from repro.runtime.trace import GlobalState

_TYPECODE = "q"

_MISSING = object()


class _Renamer:
    """Memoized renaming action and canonical order over subtree values.

    Semantically identical to :func:`repro.explore.canon.rename_value` /
    :func:`repro.explore.store.order_key`, but every order key and every
    tuple-sortedness verdict is computed once per *distinct value* and
    shared across all permutations and all containing subtrees --
    snapshots re-use the same timestamps, tuple-maps, and pid sets over
    and over, and the reference path's biggest cost is recomputing their
    keys on every rewrite.
    """

    __slots__ = ("_keys", "_sorted")

    def __init__(self) -> None:
        self._keys: dict[Hashable, tuple] = {}
        self._sorted: dict[tuple, bool] = {}

    def key(self, value: Hashable) -> tuple:
        key = self._keys.get(value, _MISSING)
        if key is _MISSING:
            if isinstance(value, tuple):
                # Build from memoized child keys (shared substructure).
                key = (TAG_TUPLE, len(value)) + tuple(
                    self.key(v) for v in value
                )
            else:
                key = order_key(value)
            self._keys[value] = key
        return key

    def _was_sorted(self, value: tuple) -> bool:
        verdict = self._sorted.get(value)
        if verdict is None:
            keys = [self.key(v) for v in value]
            verdict = all(a <= b for a, b in zip(keys, keys[1:]))
            self._sorted[value] = verdict
        return verdict

    def rename(self, value: Any, mapping: Mapping[str, str]) -> Any:
        """``canon.rename_value`` with memoized keys and sortedness."""
        if isinstance(value, tuple):
            renamed = tuple(self.rename(v, mapping) for v in value)
            if len(renamed) > 1 and self._was_sorted(value):
                return tuple(sorted(renamed, key=self.key))
            return renamed
        if isinstance(value, str):
            return mapping.get(value, value)
        if isinstance(value, Timestamp):
            new_pid = mapping.get(value.pid)
            if new_pid is None or new_pid == value.pid:
                return value
            return Timestamp(value.clock, new_pid)
        if isinstance(value, frozenset):
            return frozenset(self.rename(v, mapping) for v in value)
        return value


#: A successor's touched components relative to its parent snapshot:
#: ``(changed_pid | None, touched channel keys)``.
Delta = tuple[str | None, tuple[tuple[str, str], ...]]


class CanonStats:
    """Orbit-cache instrumentation shared by both canonicalizers."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of canonicalizations served from the orbit cache."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class PackedGlobalCanonicalizer:
    """Least-orbit-member computation on packed global-state tokens.

    ``canonicalize(state, parent_key, delta)`` returns ``(blob,
    rewritten)`` where ``blob`` is the canonical representative's packed
    encoding (directly storable via
    :meth:`~repro.explore.store.InternedStateStore.add_packed`) and
    ``rewritten`` says whether the representative differs from
    ``state`` -- by value, so it is cache-stable, unlike the reference
    path's identity check.  The result is *identical* to encoding
    :func:`~repro.explore.canon.canonical_global`'s answer.
    """

    def __init__(
        self,
        codec: GlobalStateCodec,
        pids: tuple[str, ...],
        mappings: tuple[Mapping[str, str], ...],
    ) -> None:
        self.codec = codec
        self.mappings = mappings
        self.stats = CanonStats()
        self._pids = tuple(sorted(pids))
        #: packed blob -> (canonical blob, rewritten)
        self._cache: dict[bytes, tuple[bytes, bool]] = {}
        #: per-permutation memo: vars/content oid -> renamed oid
        self._sub: list[dict[int, int]] = [dict() for _ in mappings]
        #: oid -> memoized order_key tuple (shared by all permutations)
        self._keys: dict[int, tuple] = {}
        #: value-level rename/order memos behind the oid memos above
        self._renamer = _Renamer()
        # Slot geometry, derived lazily from the first state seen.
        self._ready = False
        self._nproc = 0
        self._nchan = 0
        self._chan_keys: tuple[tuple[str, str], ...] = ()
        self._skeleton: list[tuple[int, int]] = []  # (token index, sid)
        self._proc_dst: list[list[int]] = []  # perm -> orig idx -> slot
        self._chan_dst: list[list[int]] = []
        self._proc_idx: dict[str, int] = {}
        self._chan_idx: dict[tuple[str, str], int] = {}
        # Candidate templates, currently filled with `_filled`'s values:
        # per permutation (and one identity), a flat [vars keys..,
        # content keys..] compare vector plus the parallel oid vector.
        self._filled: GlobalState | None = None
        self._id_cmp: list = []
        self._id_tok: list[int] = []
        self._cmp: list[list] = []
        self._tok: list[list[int]] = []

    # -- geometry ---------------------------------------------------------

    def _init_layout(self, state: GlobalState) -> None:
        """Fix the slot geometry from the first snapshot.

        The pid set and the channel-key set of a space never change, and
        both are closed under the group (renamed states are states of
        the same system), so a candidate's sorted pid / channel-key
        skeleton equals the original's -- candidates differ only in
        which subtree sits in which slot.
        """
        pids = tuple(pid for pid, _ in state.processes)
        if pids != self._pids:
            raise ValueError(
                f"snapshot pids {pids} != space pids {self._pids}"
            )
        self._nproc = len(pids)
        self._chan_keys = tuple(key for key, _ in state.channels)
        self._nchan = len(self._chan_keys)
        self._proc_idx = {pid: i for i, pid in enumerate(pids)}
        self._chan_idx = {key: i for i, key in enumerate(self._chan_keys)}
        chan_rank = self._chan_idx
        for mapping in self.mappings:
            self._proc_dst.append(
                [self._proc_idx[mapping[pid]] for pid in pids]
            )
            dst = []
            for src, tgt in self._chan_keys:
                renamed = (
                    mapping.get(src, src),
                    mapping.get(tgt, tgt),
                )
                if renamed not in chan_rank:
                    raise ValueError(
                        f"channel set not closed under renaming: "
                        f"{(src, tgt)} -> {renamed}"
                    )
                dst.append(chan_rank[renamed])
            self._chan_dst.append(dst)
        width = self._nproc + self._nchan
        self._id_cmp = [None] * width
        self._id_tok = [0] * width
        self._cmp = [[None] * width for _ in self.mappings]
        self._tok = [[0] * width for _ in self.mappings]
        # The constant (token index, sid) skeleton used both to verify
        # later snapshots and to assemble winning candidates' blobs.
        intern = self.codec.strings.intern
        skeleton = []
        index = 1
        for pid in pids:
            skeleton.append((index, intern(pid)))
            index += 2
        index += 1
        for src, dst_pid in self._chan_keys:
            skeleton.append((index, intern(src)))
            skeleton.append((index + 1, intern(dst_pid)))
            index += 3
        self._skeleton = skeleton
        self._ready = True

    def _check_layout(self, tokens: list[int]) -> None:
        if (
            len(tokens) != 2 + 2 * self._nproc + 3 * self._nchan
            or tokens[0] != self._nproc
            or tokens[2 * self._nproc + 1] != self._nchan
        ):
            raise ValueError("snapshot layout differs from the space's")
        for index, sid in self._skeleton:
            if tokens[index] != sid:
                raise ValueError(
                    "snapshot pid/channel layout differs from the space's"
                )

    # -- memoized per-slot values -----------------------------------------

    def _key_of(self, oid: int) -> tuple:
        key = self._keys.get(oid)
        if key is None:
            key = self._renamer.key(self.codec.others.value(oid))
            self._keys[oid] = key
        return key

    def _renamed(self, perm: int, oid: int) -> int:
        memo = self._sub[perm]
        out = memo.get(oid)
        if out is None:
            renamed = self._renamer.rename(
                self.codec.others.value(oid), self.mappings[perm]
            )
            out = self.codec.others.intern(renamed)
            memo[oid] = out
        return out

    # -- template filling --------------------------------------------------

    def _oids(self, tokens: list[int]) -> list[int]:
        """The per-slot subtree oids of a snapshot, in token order."""
        nproc = self._nproc
        oids = tokens[2 : 2 + 2 * nproc : 2]
        base = 2 * nproc + 2
        oids.extend(tokens[base + 2 :: 3])
        return oids

    def _fill(self, state: GlobalState, tokens: list[int]) -> None:
        """Load every candidate template with ``state``'s values."""
        oids = self._oids(tokens)
        nproc = self._nproc
        key_of = self._key_of
        id_cmp, id_tok = self._id_cmp, self._id_tok
        for slot, oid in enumerate(oids):
            id_cmp[slot] = key_of(oid)
            id_tok[slot] = oid
        for perm in range(len(self.mappings)):
            cmp_vec, tok_vec = self._cmp[perm], self._tok[perm]
            proc_dst, chan_dst = self._proc_dst[perm], self._chan_dst[perm]
            renamed = self._renamed
            for i in range(nproc):
                noid = renamed(perm, oids[i])
                slot = proc_dst[i]
                cmp_vec[slot] = key_of(noid)
                tok_vec[slot] = noid
            for c in range(self._nchan):
                noid = renamed(perm, oids[nproc + c])
                slot = nproc + chan_dst[c]
                cmp_vec[slot] = key_of(noid)
                tok_vec[slot] = noid
        self._filled = state

    def _patch_slots(self, delta: Delta, tokens: list[int]):
        """(slot-in-identity-layout, new oid) pairs for one delta."""
        changed_pid, touched = delta
        nproc = self._nproc
        patches: list[tuple[int, int]] = []
        if changed_pid is not None:
            i = self._proc_idx[changed_pid]
            patches.append((i, tokens[2 + 2 * i]))
        base = 2 * nproc + 2
        for key in touched:
            c = self._chan_idx[key]
            patches.append((nproc + c, tokens[base + 3 * c + 2]))
        return patches

    # -- canonicalization --------------------------------------------------

    def canonicalize(
        self,
        state: GlobalState,
        parent_key: GlobalState | None = None,
        delta: Delta | None = None,
        tokens: list[int] | None = None,
    ) -> tuple[bytes, bool]:
        """The canonical representative's packed blob, plus whether it
        differs from ``state``.

        When ``parent_key`` is the snapshot the candidate templates are
        currently filled with (one engine expansion keeps it fixed) and
        ``delta`` names the touched components, each candidate is
        patched rather than rebuilt.  ``tokens`` is ``state``'s token
        stream under *this* codec when the caller already has it (the
        space's ``tokens_of``); it is read, never modified.
        """
        if tokens is None:
            tokens = self.codec.encode_tokens(state)
        blob = array(_TYPECODE, tokens).tobytes()
        cached = self._cache.get(blob)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        if not self._ready:
            self._init_layout(state)
        self._check_layout(tokens)

        if delta is not None and parent_key is not None:
            if self._filled is not parent_key:
                # One template fill per engine expansion: every sibling
                # successor patches these parent-filled vectors.
                self._fill(
                    parent_key, self.codec.encode_tokens(parent_key)
                )
            result = self._canonical_delta(tokens, delta)
        else:
            self._fill(state, tokens)
            result = self._canonical_filled(tokens)
        cblob, rewritten = result
        self._cache[blob] = result
        if rewritten:
            # The representative canonicalizes to itself: seed it so a
            # direct encounter is a cache hit, not a recomputation.
            self._cache.setdefault(cblob, (cblob, False))
        return result

    def _canonical_filled(self, tokens: list[int]) -> tuple[bytes, bool]:
        """Least candidate when the templates hold this very state."""
        best_cmp = self._id_cmp
        best_tok = self._id_tok
        rewritten = False
        for perm in range(len(self.mappings)):
            cmp_vec = self._cmp[perm]
            if cmp_vec < best_cmp:
                best_cmp = cmp_vec
                best_tok = self._tok[perm]
                rewritten = True
        if not rewritten:
            return array(_TYPECODE, tokens).tobytes(), False
        return self._assemble(best_tok), True

    def _canonical_delta(
        self, tokens: list[int], delta: Delta
    ) -> tuple[bytes, bool]:
        """Least candidate via in-place patch / compare / un-patch of
        the parent-filled templates."""
        patches = self._patch_slots(delta, tokens)
        key_of = self._key_of
        renamed = self._renamed
        nproc = self._nproc

        id_cmp, id_tok = self._id_cmp, self._id_tok
        saved_id = [(s, id_cmp[s], id_tok[s]) for s, _ in patches]
        for slot, oid in patches:
            id_cmp[slot] = key_of(oid)
            id_tok[slot] = oid
        best_cmp = id_cmp
        best_tok = id_tok
        best_is_template = True
        rewritten = False
        try:
            for perm in range(len(self.mappings)):
                cmp_vec, tok_vec = self._cmp[perm], self._tok[perm]
                proc_dst = self._proc_dst[perm]
                chan_dst = self._chan_dst[perm]
                saved = []
                for slot, oid in patches:
                    if slot < nproc:
                        dst = proc_dst[slot]
                    else:
                        dst = nproc + chan_dst[slot - nproc]
                    saved.append((dst, cmp_vec[dst], tok_vec[dst]))
                    noid = renamed(perm, oid)
                    cmp_vec[dst] = key_of(noid)
                    tok_vec[dst] = noid
                if cmp_vec < best_cmp:
                    # Snapshot: the template is about to be un-patched.
                    best_cmp = list(cmp_vec)
                    best_tok = list(tok_vec)
                    best_is_template = False
                    rewritten = True
                for dst, old_cmp, old_tok in saved:
                    cmp_vec[dst] = old_cmp
                    tok_vec[dst] = old_tok
            if not rewritten:
                return array(_TYPECODE, tokens).tobytes(), False
            assert not best_is_template
            return self._assemble(best_tok), True
        finally:
            for slot, old_cmp, old_tok in saved_id:
                id_cmp[slot] = old_cmp
                id_tok[slot] = old_tok

    def _assemble(self, tok_vec: list[int]) -> bytes:
        """The packed blob of the candidate described by ``tok_vec``
        (per-slot subtree oids over the constant skeleton)."""
        nproc = self._nproc
        out = [nproc]
        skeleton = self._skeleton
        for i in range(nproc):
            out.append(skeleton[i][1])
            out.append(tok_vec[i])
        out.append(self._nchan)
        for c in range(self._nchan):
            out.append(skeleton[nproc + 2 * c][1])
            out.append(skeleton[nproc + 2 * c + 1][1])
            out.append(tok_vec[nproc + c])
        return array(_TYPECODE, out).tobytes()

    def decode(self, blob: bytes) -> GlobalState:
        return self.codec.decode(blob)


class CachedCanonicalizer:
    """Orbit-representative cache around a reference canonical map.

    Local snapshots are small and their spaces shallow, so the template
    machinery above would be overkill -- but the engine still examines
    every duplicate successor, and this wrapper turns each repeat into
    one packed-blob dict hit.  Exposes the same ``canonicalize`` /
    ``decode`` surface as
    :class:`PackedGlobalCanonicalizer` (the delta and token arguments
    are accepted and ignored).
    """

    def __init__(
        self,
        codec: StateCodec,
        mappings: tuple[Mapping[str, str], ...],
        reference: Callable[[Any, tuple], Any],
    ) -> None:
        self.codec = codec
        self.mappings = mappings
        self.reference = reference
        self.stats = CanonStats()
        self._cache: dict[bytes, tuple[bytes, bool]] = {}

    def canonicalize(
        self,
        key: Hashable,
        parent_key: Hashable | None = None,
        delta: Any = None,
        tokens: Any = None,
    ) -> tuple[bytes, bool]:
        blob = self.codec.encode(key)
        cached = self._cache.get(blob)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        canonical = self.reference(key, self.mappings)
        if canonical is key:
            result = (blob, False)
        else:
            result = (self.codec.encode(canonical), True)
            self._cache.setdefault(result[0], (result[0], False))
        self._cache[blob] = result
        return result

    def decode(self, blob: bytes) -> Hashable:
        return self.codec.decode(blob)
