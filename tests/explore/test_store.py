"""Tests for the interned packed state store and its codecs."""

import random
import struct
from array import array

import pytest

from repro.clocks.timestamps import Timestamp
from repro.explore import (
    GlobalStateCodec,
    InternedStateStore,
    Interner,
    PlainStateStore,
    StateCodec,
    make_visited_store,
)
from repro.runtime.trace import GlobalState


class TestInterner:
    def test_same_value_same_id(self):
        table = Interner()
        assert table.intern("p0") == table.intern("p0") == 0
        assert table.intern("p1") == 1
        assert len(table) == 2

    def test_value_round_trip(self):
        table = Interner()
        ident = table.intern(("a", 1))
        assert table.value(ident) == ("a", 1)


class TestStateCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**40,
            "p0",
            "",
            Timestamp(3, "p1"),
            (),
            ("phase", "t"),
            (("lc", 2), ("req", Timestamp(1, "p0")), ("flags", (True, None))),
            frozenset(["p0", "p1"]),  # first-class: sorted-element tokens
            frozenset([Timestamp(1, "p0"), Timestamp(1, "p1")]),
            frozenset(),
        ],
    )
    def test_round_trip(self, value):
        codec = StateCodec()
        assert codec.decode(codec.encode(value)) == value

    def test_huge_int_falls_back_to_interning(self):
        codec = StateCodec()
        value = 2**80
        assert codec.decode(codec.encode(value)) == value

    def test_interning_shrinks_repeated_encodings(self):
        codec = StateCodec()
        first = codec.encode(("p0", "p0", "p0"))
        strings_after_first = len(codec.strings)
        codec.encode(("p0", "p0", "p0"))
        assert len(codec.strings) == strings_after_first == 1

    def test_trailing_tokens_rejected(self):
        codec = StateCodec()
        blob = codec.encode("p0") + codec.encode("p1")
        with pytest.raises(ValueError, match="trailing"):
            codec.decode(blob)


def small_global_state() -> GlobalState:
    processes = (
        ("p0", (("lc", 1), ("phase", "t"), ("req", Timestamp(1, "p0")))),
        ("p1", (("lc", 0), ("phase", "h"), ("req", Timestamp(2, "p1")))),
    )
    channels = (
        (("p0", "p1"), (("request", Timestamp(1, "p0")),)),
        (("p1", "p0"), ()),
    )
    return GlobalState(processes, channels)


class TestGlobalStateCodec:
    def test_round_trip(self):
        codec = GlobalStateCodec()
        state = small_global_state()
        assert codec.decode(codec.encode(state)) == state

    def test_partitioned_snapshot_is_rejected_not_conflated(self):
        # The token layout has no slot for ``GlobalState.down``: packing
        # a cut snapshot used to yield its all-links-up twin's blob (two
        # unequal states, one visited entry; decode(encode(s)) != s).
        codec = GlobalStateCodec()
        state = small_global_state()
        cut = GlobalState(state.processes, state.channels, (("p0", "p1"),))
        assert cut != state
        with pytest.raises(ValueError, match="partitioned"):
            codec.encode_tokens(cut)
        with pytest.raises(ValueError, match="partitioned"):
            codec.encode(cut)
        with pytest.raises(ValueError, match="partitioned"):
            InternedStateStore(codec).add(cut)
        assert codec.pack(codec.encode_tokens(state)) == codec.encode(state)

    def test_pack_writes_the_bytes_of_an_int64_array(self):
        # ``pack`` goes through a compiled Struct per stream length; the
        # blob must stay byte for byte what ``array('q').tobytes()`` gave.
        low, high = -(2**63), 2**63 - 1
        rng = random.Random("pack")
        for length in range(1, 41):
            streams = [
                [rng.randrange(low, high + 1) for _ in range(length)],
                [rng.randrange(0, 1 << 12) for _ in range(length)],
                [low if i % 2 else high for i in range(length)],
            ]
            for tokens in streams:
                packed = GlobalStateCodec.pack(tokens)
                assert packed == array("q", tokens).tobytes()
                assert len(packed) == 8 * length
        for bad in (2**63, -(2**63) - 1):
            with pytest.raises(struct.error):
                GlobalStateCodec.pack([0, bad, 0])

    def test_subtree_interning_is_compact(self):
        # Whole per-process valuations and channel contents intern as one
        # id each: 1 + 2*2 + 1 + 3*2 = 12 tokens of 8 bytes.
        codec = GlobalStateCodec()
        assert len(codec.encode(small_global_state())) == 12 * 8

    def test_shared_subtrees_interned_once(self):
        codec = GlobalStateCodec()
        state = small_global_state()
        codec.encode(state)
        size = len(codec.others)
        codec.encode(state)
        assert len(codec.others) == size


class TestInternedStateStore:
    def test_add_dedups_and_numbers_densely(self):
        store = InternedStateStore(StateCodec())
        assert store.add(("a", 1)) == (0, True)
        assert store.add(("b", 2)) == (1, True)
        assert store.add(("a", 1)) == (0, False)
        assert len(store) == 2

    def test_contains_and_keys_round_trip(self):
        store = InternedStateStore(StateCodec())
        keys = [("a", 1), ("b", Timestamp(1, "p0")), ("c", None)]
        for key in keys:
            store.add(key)
        assert all(key in store for key in keys)
        assert ("z", 9) not in store
        assert list(store.keys()) == keys  # insertion order

    def test_bytes_per_state_counts_payload(self):
        store = InternedStateStore(StateCodec())
        assert store.bytes_per_state == 0.0
        store.add(("a", 1))
        assert store.bytes_per_state > 0.0

    def test_into_exploration_lazy_visited(self):
        from repro.explore import ExplorationStats

        store = InternedStateStore(StateCodec())
        store.add(("a", 1))
        stats = ExplorationStats(
            strategy="bfs",
            states=1,
            expansions=0,
            transitions=0,
            dedup_hits=0,
            depth_reached=0,
            depth_limited=False,
            peak_frontier=1,
            elapsed_seconds=0.0,
            truncated=False,
            truncation_cause=None,
        )
        result = store.into_exploration(stats)
        assert len(result) == 1
        assert ("a", 1) in result
        assert result.visited == frozenset([("a", 1)])


class TestMakeVisitedStore:
    def test_codec_selects_interned_store(self):
        assert isinstance(make_visited_store(StateCodec()), InternedStateStore)
        assert isinstance(make_visited_store(None), PlainStateStore)

    def test_plain_store_interface(self):
        store = make_visited_store(None)
        assert store.add("a") == (0, True)
        assert store.add("a") == (0, False)
        assert "a" in store
        assert len(store) == 1
        assert store.bytes_per_state == 0.0


class TestOrderKeySource:
    """The canonical order is owned by the codec's tag table."""

    def test_canon_order_is_the_store_order(self):
        from repro.explore import order_key
        from repro.explore.canon import _order_key

        assert _order_key is order_key

    def test_tags_are_the_codec_tags(self):
        from repro.explore import order_key
        from repro.explore.store import (
            TAG_FSET,
            TAG_INT,
            TAG_NONE,
            TAG_STR,
            TAG_TS,
            TAG_TUPLE,
        )

        assert order_key(None)[0] == TAG_NONE
        assert order_key(7)[0] == TAG_INT
        assert order_key("p0")[0] == TAG_STR
        assert order_key(Timestamp(1, "p0"))[0] == TAG_TS
        assert order_key(("a",))[0] == TAG_TUPLE
        assert order_key(frozenset())[0] == TAG_FSET

    def test_fallback_is_run_stable(self):
        # Two distinct same-type objects with address-based reprs must
        # compare equal (arbitrary-but-fixed tie), never by id()/repr
        # addresses that differ between runs.
        from repro.explore import order_key

        class Opaque:
            pass

        a, b = Opaque(), Opaque()
        assert "0x" in repr(a)  # default repr is address-based
        assert order_key(a) == order_key(b)
