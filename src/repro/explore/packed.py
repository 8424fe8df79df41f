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
  is an integer relabel through one image per permutation, ``oid ->
  (renamed oid, its order key)``, filled on first use;
* **slot 0 is settled from a per-valuation lead memo** -- the pid
  multiset (and hence the sorted pid/channel-key skeleton) is invariant
  under the group, so candidates differ only in which renamed value sits
  in which slot.  Slot 0 is process ``p0``'s; under a permutation it
  holds the renamed valuation of the process that permutation moves to
  ``p0``.  So the least slot-0 key over the permutations that move
  process slot ``q`` there depends only on ``(q, vars_oid)``, and is
  memoised once with the permutations attaining it: a state's least
  slot 0 costs one lookup per process;
* **only the permutations tied at slot 0 are refined** -- slot by slot
  (the other process slots, then the channel slots), each slot keeping
  the survivors whose key is least, until one is left or the slots run
  out.  Equal slots are usually the *same* key object, an identity
  check.  Of the permutations tied to the end, the identity wins if it
  is one of them, else the first in group order -- the reference loop's
  rule, which replaces its best only by a strictly smaller candidate;
* **sub-values are hash-consed, so each is renamed once per
  permutation** -- :class:`_ValueTable` gives every distinct sub-value a
  small int carrying its Python value, its ``order_key`` and whether a
  rename must re-sort it, and memoises the renaming action
  (:func:`~repro.explore.canon.rename_value`) per permutation on those
  ints: one step changes a variable or two, so renaming the new
  valuation re-does only those and re-assembles the top level.  Each
  renamed node is interned in the codec once: interning re-hashes the
  whole nested value;
* **an orbit-representative cache keyed on the packed blob** -- the
  engine examines every successor edge including duplicates (dedup hit
  rates of 50-80% are typical), and repeated snapshots canonicalize
  once: the second and later encounters are a dict hit on the interned
  byte blob.

:class:`PackedGlobalCanonicalizer` serves
:class:`~repro.explore.spaces.GlobalSimulatorSpace`;
:class:`CachedCanonicalizer` wraps the reference path for
:class:`~repro.explore.spaces.LocalProcessSpace`, whose small snapshots
don't warrant the id machinery but benefit just as much from the orbit
cache.  Parity with the reference implementation is pinned by
``tests/explore/test_packed_parity.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping
from typing import Any

from repro.explore.canon import rename_value
from repro.explore.store import (
    TAG_FSET,
    TAG_TUPLE,
    GlobalStateCodec,
    StateCodec,
    order_key,
)
from repro.runtime.trace import GlobalState


class _ValueTable:
    """Hash-consed snapshot sub-values and the renaming action on them.

    A node is a small int.  Leaves are told apart by ``(type, value)``
    and tuples / frozensets by their children's nodes, so ``('p1',
    True)`` and ``('p1', 1)`` are two nodes although they are ``==``:
    :attr:`key` is ``order_key(value)`` for the value a node was made
    from, whatever was interned before it.  :meth:`rename` is
    :func:`~repro.explore.canon.rename_value` from node to node.
    """

    __slots__ = ("value", "key", "_kids", "_resort", "_nodes", "_renamed")

    def __init__(self, mappings: tuple[Mapping[str, str], ...]) -> None:
        #: node -> its Python value / its ``order_key``
        self.value: list[Any] = []
        self.key: list[tuple] = []
        #: node -> child nodes (a tuple or a frozenset; ``None``: leaf)
        self._kids: list[Any] = []
        #: node -> a tuple that was sorted, which renaming keeps sorted
        self._resort: list[bool] = []
        #: ``(type, value)`` | tuple of nodes | frozenset of nodes -> node
        self._nodes: dict[Hashable, int] = {}
        #: per permutation: node -> renamed node
        self._renamed = [(mapping, {}) for mapping in mappings]

    def node(self, value: Any) -> int:
        """The node of ``value``, made on first sight."""
        if isinstance(value, tuple):
            return self._composite(tuple(map(self.node, value)), value)
        if isinstance(value, frozenset):
            return self._composite(frozenset(map(self.node, value)), value)
        ident = (type(value), value)
        node = self._nodes.get(ident)
        if node is None:
            node = self._add(ident, value, order_key(value), None, False)
        return node

    def _composite(self, kids: Any, value: Any = None) -> int:
        """The tuple / frozenset node over ``kids`` (``value``: its
        Python value, when the caller holds it)."""
        node = self._nodes.get(kids)
        if node is None:
            keys = [self.key[kid] for kid in kids]
            if value is None:
                value = type(kids)(self.value[kid] for kid in kids)
            if isinstance(kids, tuple):
                resort = len(keys) > 1 and all(
                    a <= b for a, b in zip(keys, keys[1:])
                )
                key = (TAG_TUPLE, len(keys), *keys)
            else:
                resort = False
                key = (TAG_FSET, len(keys), *sorted(keys))
            node = self._add(kids, value, key, kids, resort)
        return node

    def _add(
        self, ident: Hashable, value: Any, key: tuple, kids: Any, resort: bool
    ) -> int:
        node = self._nodes[ident] = len(self.value)
        self.value.append(value)
        self.key.append(key)
        self._kids.append(kids)
        self._resort.append(resort)
        return node

    def rename(self, perm: int, node: int) -> int:
        """The node of ``node``'s value renamed by permutation ``perm``."""
        mapping, memo = self._renamed[perm]
        out = memo.get(node)
        if out is None:
            kids = self._kids[node]
            if kids is None:
                out = self.node(rename_value(self.value[node], mapping))
            else:
                renamed = [self.rename(perm, kid) for kid in kids]
                if self._resort[node]:
                    renamed.sort(key=self.key.__getitem__)
                out = self._composite(type(kids)(renamed))
            memo[node] = out
        return out


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

    ``canonicalize(state, tokens)`` returns ``(blob, rewritten)`` where
    ``blob`` is the canonical representative's packed encoding (directly
    storable via
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
        self._values = _ValueTable(mappings)
        #: vars/content oid -> the value table's node of the codec's value
        self._node_of: dict[int, int] = {}
        #: value-table node -> the codec oid of its value (the inverse of
        #: ``_node_of``, plus every renamed node): one intern per node
        self._oid_of: dict[int, int] = {}
        #: per permutation, the identity last: vars/content oid ->
        #: (renamed oid, its order key), filled on first use
        self._images: list[dict[int, tuple[int, tuple]]] = [
            {} for _ in range(len(mappings) + 1)
        ]
        #: per origin process slot q: vars oid -> (the least slot-0 key
        #: over the permutations that move q to slot 0, those attaining
        #: it), filled on first use; the lists are never mutated
        self._lead: list[dict[int, tuple[tuple, list[int]]]] = []
        #: origin process slot q -> the permutations (identity included)
        #: whose candidate slot 0 holds q's renamed value
        self._by_lead: list[list[int]] = []
        # Slot geometry, derived lazily from the first state seen: a
        # slot is a process (in pid order), then a channel (in key order).
        self._nproc = 0
        #: a snapshot's token stream with every vars/content oid zeroed
        self._skeleton: list[int] = []
        #: per permutation, the identity last: candidate slot -> the
        #: slot of the original whose renamed value lands there
        self._src: list[list[int]] = []

    # -- geometry ---------------------------------------------------------

    def _init_layout(self, tokens: list[int]) -> None:
        """Fix the slot geometry from the first token stream.

        The pid set and the channel-key set of a space never change, and
        both are closed under the group (renamed states are states of
        the same system), so a candidate's sorted pid / channel-key
        skeleton equals the original's -- candidates differ only in
        which subtree sits in which slot.  Only the interned pid strings
        are read: no snapshot is decoded.
        """
        string = self.codec.strings.value
        base = 2 * tokens[0] + 2  # channel 0's src_sid
        pids = tuple(map(string, tokens[1 : base - 1 : 2]))
        if pids != self._pids:
            raise ValueError(
                f"snapshot pids {pids} != space pids {self._pids}"
            )
        chan_keys = [
            (string(tokens[at]), string(tokens[at + 1]))
            for at in range(base, len(tokens), 3)
        ]
        self._nproc = len(pids)
        slot_of = {name: slot for slot, name in enumerate((*pids, *chan_keys))}
        for mapping in (*self.mappings, {}):
            src = [0] * len(slot_of)
            for name, slot in slot_of.items():
                if slot < len(pids):
                    renamed = mapping.get(name, name)
                else:
                    renamed = tuple(mapping.get(pid, pid) for pid in name)
                if renamed not in slot_of:
                    raise ValueError(
                        f"pid / channel set not closed under renaming: "
                        f"{name} -> {renamed}"
                    )
                src[slot_of[renamed]] = slot
            self._src.append(src)
        self._by_lead = [[] for _ in pids]
        for perm, src in enumerate(self._src):
            self._by_lead[src[0]].append(perm)
        self._lead = [{} for _ in pids]
        # The constant part of every snapshot's stream: later snapshots
        # are verified against it, winning candidates assembled over it.
        intern = self.codec.strings.intern
        skeleton = [len(pids)]
        for pid in pids:
            skeleton += (intern(pid), 0)
        skeleton.append(len(chan_keys))
        for src_pid, dst_pid in chan_keys:
            skeleton += (intern(src_pid), intern(dst_pid), 0)
        self._skeleton = skeleton

    def _check_layout(self, tokens: list[int]) -> None:
        skeleton = self._skeleton
        base = 2 * self._nproc + 2  # channel 0's src_sid
        if (
            len(tokens) != len(skeleton)
            or tokens[0] != skeleton[0]
            or tokens[1:base:2] != skeleton[1:base:2]  # pid sids, then C
            or tokens[base::3] != skeleton[base::3]
            or tokens[base + 1 :: 3] != skeleton[base + 1 :: 3]
        ):
            raise ValueError(
                "snapshot pid/channel layout differs from the space's"
            )

    # -- per-permutation images ---------------------------------------------

    def _rename(self, perm: int, oid: int) -> tuple[int, tuple]:
        """Fill ``_images[perm][oid]``: the first time a slot holding
        ``oid`` is compared under ``perm``."""
        values, oid_of = self._values, self._oid_of
        node = self._node_of.get(oid)
        if node is None:
            value = self.codec.others.value(oid)
            node = self._node_of[oid] = values.node(value)
            oid_of[node] = oid
        renamed = oid
        if perm < len(self.mappings):
            node = values.rename(perm, node)
            renamed = oid_of.get(node)
            if renamed is None:
                # Interning re-hashes the whole nested value: once per
                # renamed node, not once per (permutation, oid).
                renamed = oid_of[node] = self.codec.others.intern(
                    values.value[node]
                )
        pair = self._images[perm][oid] = (renamed, values.key[node])
        return pair

    def _tied(
        self, perms: list[int], slot: int, oids: list[int]
    ) -> tuple[tuple, list[int]]:
        """The least key the candidates of ``perms`` put in ``slot``, and
        the permutations that put it there, in ``perms`` order.  A key
        ties the least if it is the same object or not greater
        (address-masked ``TAG_OTHER`` keys are equal, not identical)."""
        images, srcs, rename = self._images, self._src, self._rename
        best: Any = None
        tied: list[int] = []
        for perm in perms:
            oid = oids[srcs[perm][slot]]
            key = (images[perm].get(oid) or rename(perm, oid))[1]
            if key is best:  # one node, one key object
                tied.append(perm)
            elif best is None or key < best:
                best, tied = key, [perm]
            elif not best < key:
                tied.append(perm)
        return best, tied

    # -- canonicalization --------------------------------------------------

    def canonicalize(
        self, state: GlobalState | None, tokens: list[int] | None = None
    ) -> tuple[bytes, bool]:
        """The canonical representative's packed blob, plus whether it
        differs from ``state``.

        ``tokens`` is ``state``'s token stream under *this* codec when
        the caller already has it (the space's ``tokens_of``); it is
        read, never modified, and ``state`` is then not read at all (the
        engine passes ``None``).
        """
        if tokens is None:
            tokens = self.codec.encode_tokens(state)
        blob = self.codec.pack(tokens)
        cached = self._cache.get(blob)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        if not self._skeleton:
            self._init_layout(tokens)
        self._check_layout(tokens)
        base = 2 * self._nproc + 2
        oids = tokens[2:base:2] + tokens[base + 2 :: 3]
        best = self._least(oids)
        if best == len(self.mappings):
            result = (blob, False)
        else:
            image, rename = self._images[best], self._rename
            renamed = [
                (image.get(oids[origin]) or rename(best, oids[origin]))[0]
                for origin in self._src[best]
            ]
            out = self._skeleton[:]
            out[2:base:2] = renamed[: self._nproc]
            out[base + 2 :: 3] = renamed[self._nproc :]
            result = (self.codec.pack(out), True)
            # The representative canonicalizes to itself: seed it so a
            # direct encounter is a cache hit, not a recomputation.
            self._cache.setdefault(result[0], (result[0], False))
        self._cache[blob] = result
        return result

    def _least(self, oids: list[int]) -> int:
        """The permutation whose candidate is least for slot values
        ``oids``: the identity -- ``len(mappings)`` -- if it is among
        the least, else the first of them in group order.

        The candidates' order is lexicographic over their slots, so the
        least candidates are those with the least slot 0 that are least
        among themselves on the remaining slots.  Slot 0 takes one lead
        memo lookup per process slot; only the permutations tied there
        are refined, slot by slot, until one is left or the slots run
        out.  Ties are :meth:`_tied`'s, at the lead as in the refinement.
        No candidate is ever built.
        """
        leads, by_lead = self._lead, self._by_lead
        best: Any = None
        survivors: list[int] = []
        for q in range(self._nproc):
            oid = oids[q]
            lead = leads[q].get(oid)
            if lead is None:
                lead = leads[q][oid] = self._tied(by_lead[q], 0, oids)
            key, perms = lead
            if best is None or (key is not best and key < best):
                best, survivors = key, perms
            elif key is best or not best < key:
                survivors = survivors + perms
        for slot in range(1, len(oids)):
            if len(survivors) == 1:
                break
            survivors = self._tied(survivors, slot, oids)[1]
        identity = len(self.mappings)
        return identity if identity in survivors else min(survivors)

    def decode(self, blob: bytes) -> GlobalState:
        return self.codec.decode(blob)


class CachedCanonicalizer:
    """Orbit-representative cache around a reference canonical map.

    Local snapshots are small and their spaces shallow, so the id
    machinery above would be overkill -- but the engine still examines
    every duplicate successor, and this wrapper turns each repeat into
    one packed-blob dict hit.  Exposes the same ``canonicalize`` /
    ``decode`` surface as
    :class:`PackedGlobalCanonicalizer` (the token argument is accepted
    and ignored).
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
        self, key: Hashable, tokens: Any = None
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
