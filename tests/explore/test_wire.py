"""Tests for the wire codec and journal record framing."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.journal import JOURNAL_NAME, CampaignJournal
from repro.clocks.timestamps import Timestamp
from repro.durable import FRAME_OVERHEAD, iter_records, pack_frame, prefix_len
from repro.explore import GlobalSimulatorSpace
from repro.explore.wire import (
    DIGEST_SIZE,
    REC_ADMIT,
    REC_MEMBER,
    WireCodec,
    content_digest,
    wire_digest,
)
from repro.tme import ClientConfig, tme_programs

CLIENT = ClientConfig(think_delay=1, eat_delay=1)


def sample_states(n=2, count=12):
    """Real snapshots: roots plus a couple of BFS levels."""
    space = GlobalSimulatorSpace(tme_programs("ra", n, CLIENT))
    states = []
    frontier = [next(iter(space.roots()))]
    while frontier and len(states) < count:
        node = frontier.pop(0)
        states.append(space.key(node))
        frontier.extend(space.successors(node))
    return states


class TestWireCodec:
    def test_roundtrip_real_snapshots(self):
        codec = WireCodec()
        for state in sample_states():
            blob = codec.encode(state)
            assert codec.decode(blob) == state

    def test_roundtrip_preserves_down_set(self):
        codec = WireCodec()
        state = sample_states(count=1)[0]
        crashed = type(state)(state.processes, state.channels, ("p1",))
        decoded = codec.decode(codec.encode(crashed))
        assert decoded.down == ("p1",)
        assert decoded == crashed

    def test_scalar_roundtrip(self):
        codec = WireCodec()
        values = [
            None,
            True,
            False,
            0,
            -7,
            2**62,
            2**80,  # bigint branch
            -(2**90),
            "",
            "päid",
            Timestamp(3, "p1"),
            (1, ("a", None), frozenset({("x", 1), ("y", 2)})),
        ]
        for value in values:
            assert codec.decode(codec.encode(value)) == value

    def test_encoding_is_codec_independent(self):
        # Two fresh codecs (as in two worker processes) must agree --
        # the dedup digest is only meaningful if the encoding is a pure
        # function of the value.
        state = sample_states(count=1)[0]
        assert WireCodec().encode(state) == WireCodec().encode(state)

    def test_frozenset_encoding_ignores_iteration_order(self):
        codec = WireCodec()
        a = frozenset({("p1", 4), ("p2", 9), ("p3", 1)})
        b = frozenset(sorted(a))
        assert codec.encode(a) == codec.encode(b)

    def test_trailing_bytes_rejected(self):
        codec = WireCodec()
        with pytest.raises(ValueError, match="trailing"):
            codec.decode(codec.encode(1) + b"\x00")


class TestDigests:
    def test_digest_size_and_distribution(self):
        blobs = [WireCodec().encode(s) for s in sample_states()]
        digests = {wire_digest(b) for b in blobs}
        assert len(digests) == len(set(blobs))
        assert all(len(d) == DIGEST_SIZE for d in digests)

    def test_content_digest_is_order_independent(self):
        digests = [wire_digest(bytes([i])) for i in range(5)]
        xor = 0
        for d in digests:
            xor ^= int.from_bytes(d, "little")
        xor_rev = 0
        for d in reversed(digests):
            xor_rev ^= int.from_bytes(d, "little")
        assert content_digest(xor, 5) == content_digest(xor_rev, 5)
        assert content_digest(xor, 5) != content_digest(xor, 4)


def scan(tmp_path, raw, **kwargs):
    """The records the journal scanner reads back from ``raw``."""
    path = tmp_path / "journal.log"
    path.write_bytes(raw)
    return list(iter_records(str(path), **kwargs))


class TestRecordFraming:
    def test_roundtrip(self, tmp_path):
        raw = pack_frame(REC_ADMIT, 3, 17, b"payload") + pack_frame(
            REC_MEMBER, 3, 17, b""
        )
        assert scan(tmp_path, raw) == [
            (REC_ADMIT, 3, 17, b"payload"),
            (REC_MEMBER, 3, 17, b""),
        ]

    def test_torn_tail_is_dropped(self, tmp_path):
        whole = pack_frame(REC_ADMIT, 1, 0, b"abc")
        torn = pack_frame(REC_ADMIT, 2, 1, b"defghij")
        for cut in range(1, len(torn)):
            records = scan(tmp_path, whole + torn[:-cut])
            assert records == [(REC_ADMIT, 1, 0, b"abc")]

    def test_header_size_matches_packing(self):
        assert len(pack_frame(REC_ADMIT, 0, 0, b"")) == FRAME_OVERHEAD


RECORDS = st.lists(
    st.tuples(
        st.integers(0, 255),
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1),
        st.binary(max_size=24),
    ),
    max_size=6,
)


class TestHostileJournalBytes:
    @settings(deadline=None, max_examples=40)
    @given(records=RECORDS, chunk_size=st.integers(1, 64))
    def test_truncation_at_every_offset(
        self, tmp_path_factory, records, chunk_size
    ):
        """Cut a journal anywhere: replay yields exactly the whole
        records before the cut, the valid prefix is their byte length,
        and a journal reopened on it appends frame-aligned."""
        store = tmp_path_factory.mktemp("journal")
        path = store / JOURNAL_NAME
        frames = [pack_frame(*record) for record in records]
        raw = b"".join(frames)
        ends = [0]
        for frame in frames:
            ends.append(ends[-1] + len(frame))
        for cut in range(len(raw) + 1):
            whole = sum(1 for end in ends[1:] if end <= cut)
            path.write_bytes(raw[:cut])
            assert (
                list(iter_records(str(path), chunk_size))
                == records[:whole]
            )
            assert prefix_len(str(path)) == ends[whole]
            journal = CampaignJournal(store)
            journal.lease(7, 1, 0)
            journal.close()
            assert os.path.getsize(path) > ends[whole]
            replayed = list(iter_records(str(path)))
            assert replayed[:-1] == records[:whole]
            assert replayed[-1][1:3] == (7, 1)

    @settings(deadline=None, max_examples=25)
    @given(records=RECORDS, chunk_size=st.integers(1, 64), bit=st.integers(0, 7))
    def test_bit_flip_at_every_offset(
        self, tmp_path_factory, records, chunk_size, bit
    ):
        """Flip one bit anywhere: replay yields a prefix of the records
        written -- never one that was not -- ending at the damaged frame;
        the valid prefix is frame-aligned and a journal reopened on it
        appends frame-aligned."""
        store = tmp_path_factory.mktemp("journal")
        path = store / JOURNAL_NAME
        frames = [pack_frame(*record) for record in records]
        raw = bytearray(b"".join(frames))
        ends = [0]
        for frame in frames:
            ends.append(ends[-1] + len(frame))
        for offset in range(len(raw)):
            intact = sum(1 for end in ends[1:] if end <= offset)
            raw[offset] ^= 1 << bit
            path.write_bytes(raw)
            raw[offset] ^= 1 << bit
            assert (
                list(iter_records(str(path), chunk_size))
                == records[:intact]
            )
            assert prefix_len(str(path)) == ends[intact]
            journal = CampaignJournal(store)
            assert (journal.kept, journal.discarded) == (
                ends[intact],
                len(raw) - ends[intact],
            )
            journal.lease(7, 1, 0)
            journal.close()
            replayed = list(iter_records(str(path)))
            assert replayed[:-1] == records[:intact]
            assert replayed[-1][1:3] == (7, 1)
            assert prefix_len(str(path)) == os.path.getsize(path)
