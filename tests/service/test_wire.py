"""Wire codec: tagged values, framing, and message round-trips."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocks.timestamps import Timestamp
from repro.runtime.messages import Message
from repro.service.wire import (
    MAX_FRAME_BYTES,
    FrameProtocol,
    WireError,
    decode_body,
    encode_frame,
    frame_message,
    message_frame,
    pack_value,
    unpack_value,
)


def roundtrip(value):
    return unpack_value(json.loads(json.dumps(pack_value(value))))


class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -7, 2.5, "hi", "%odd"):
            assert roundtrip(value) == value

    def test_timestamp(self):
        ts = Timestamp(41, "p2")
        back = roundtrip(ts)
        assert back == ts
        assert isinstance(back, Timestamp)

    def test_tuple_survives_as_tuple(self):
        value = (1, "a", (2, 3))
        back = roundtrip(value)
        assert back == value
        assert isinstance(back, tuple)
        assert isinstance(back[2], tuple)

    def test_frozenset_deterministic_and_lossless(self):
        value = frozenset({("p1", 3), ("p0", 1)})
        assert roundtrip(value) == value
        # Packing is order independent (sorted by packed JSON).
        a = json.dumps(pack_value(frozenset([1, 2, 3])))
        b = json.dumps(pack_value(frozenset([3, 1, 2])))
        assert a == b

    def test_str_keyed_dict_stays_plain(self):
        value = {"phase": "h", "lc": 4}
        packed = pack_value(value)
        assert packed == {"phase": "h", "lc": 4}
        assert roundtrip(value) == value

    def test_nonstr_keys_use_map_tag(self):
        value = {("p0", "p1"): True, 7: "x"}
        packed = pack_value(value)
        assert set(packed) == {"%map"}
        assert roundtrip(value) == value

    def test_timestamp_keyed_dict(self):
        value = {Timestamp(3, "p0"): "req"}
        back = roundtrip(value)
        assert back == value
        assert isinstance(next(iter(back)), Timestamp)

    def test_unencodable_raises(self):
        with pytest.raises(WireError):
            pack_value(object())

    def test_malformed_tag_raises(self):
        with pytest.raises(WireError):
            unpack_value({"%tup": [], "extra": 1})


class RecordingParser(FrameProtocol):
    """The parser with no socket behind it: what it dispatched, what it
    refused, and the most it ever held back."""

    def __init__(self):
        super().__init__()
        self.frames = []
        self.refused = []
        self.peak_buffered = 0

    def frame_received(self, frame):
        self.frames.append(frame)

    def frame_refused(self, error):
        self.refused.append(error)
        super().frame_refused(error)

    def feed(self, chunks):
        for chunk in chunks:
            self.data_received(chunk)
            self.peak_buffered = max(self.peak_buffered, self.buffered())
        return self


class TestFraming:
    def test_frame_roundtrip_across_chunk_boundaries(self):
        frames = [
            {"t": "msg", "n": i, "body": "x" * (i * 7)} for i in range(5)
        ]
        blob = b"".join(encode_frame(f) for f in frames)
        # Feed in awkward chunks so length prefixes straddle reads.
        parser = RecordingParser().feed(
            blob[i : i + 3] for i in range(0, len(blob), 3)
        )
        assert parser.frames == frames
        assert parser.refused == [] and parser.buffered() == 0

    def test_eof_mid_frame_is_none(self):
        parser = RecordingParser().feed([encode_frame({"t": "msg"})[:3]])
        assert not parser.eof_received()  # the transport closes itself
        assert parser.frames == [] and parser.refused == []

    def test_oversized_length_prefix_raises(self):
        parser = RecordingParser().feed(
            [(MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"]
        )
        assert parser.frames == []
        assert len(parser.refused) == 1
        assert isinstance(parser.refused[0], WireError)
        assert parser.buffered() == 0  # nothing of the body was kept

    def test_frames_before_a_bad_one_are_served_and_later_ones_are_not(self):
        good = encode_frame({"t": "msg"})
        parser = RecordingParser().feed([good + b"\x00\x00\x00\x04{bad" + good])
        assert parser.frames == [{"t": "msg"}]
        assert len(parser.refused) == 1 and parser.buffered() == 0

    def test_a_handler_may_refuse_a_frame(self):
        class Picky(RecordingParser):
            def frame_received(self, frame):
                if "id" not in frame:
                    raise WireError("no id")
                super().frame_received(frame)

        parser = Picky().feed(
            [encode_frame({"id": 1}) + encode_frame({}) + encode_frame({"id": 2})]
        )
        assert parser.frames == [{"id": 1}] and len(parser.refused) == 1

    @given(
        frames=st.lists(
            st.dictionaries(
                st.text(max_size=4),
                st.one_of(st.integers(), st.text(max_size=12), st.none()),
                max_size=3,
            ),
            max_size=6,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=12),
    )
    def test_any_chunking_yields_the_same_frames_in_order(self, frames, cuts):
        blob = b"".join(encode_frame(f) for f in frames)
        edges = sorted({0, len(blob), *(c for c in cuts if c < len(blob))})
        chunks = [blob[a:b] for a, b in zip(edges, edges[1:])]
        parser = RecordingParser().feed(chunks)
        assert parser.frames == frames and parser.refused == []
        assert parser.buffered() == 0
        # never more than an unfinished frame is held back
        longest = max((len(encode_frame(f)) for f in frames), default=0)
        assert parser.peak_buffered < max(longest, 1)

    def test_oversized_body_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_frame({"x": "y" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError):
            decode_body(b"[1,2]")

    @pytest.mark.parametrize(
        "body", [b"{bad", b"\xff\xfe{}", b"", b"[" * 100_000]
    )
    def test_undecodable_body_is_a_wire_error(self, body):
        with pytest.raises(WireError):
            decode_body(body)


class TestMessageFrames:
    def test_roundtrip_strips_send_event_uid(self):
        message = Message(
            uid=9,
            kind="request",
            sender="p0",
            receiver="p2",
            payload=Timestamp(5, "p0"),
            send_event_uid=123,
            sender_clock=5,
        )
        back = frame_message(
            decode_body(encode_frame(message_frame(message))[4:])
        )
        assert back.uid == 9
        assert back.kind == "request"
        assert back.sender == "p0"
        assert back.receiver == "p2"
        assert back.payload == Timestamp(5, "p0")
        assert back.sender_clock == 5
        # Event uids are simulator-local; they never cross the wire.
        assert back.send_event_uid is None

    @pytest.mark.parametrize(
        "frame",
        [
            {"t": "msg"},
            {"t": "msg", "uid": "x", "kind": "k", "src": "a", "dst": "b",
             "payload": None},
            {"t": "msg", "uid": 1, "kind": "k", "src": "a", "dst": "b",
             "payload": {"%ts": 5}},
            {"t": "msg", "uid": 1, "kind": "k", "src": "a", "dst": "b",
             "payload": {"%map": [[[1], 2]]}},
            {"t": "msg", "uid": 1, "kind": "k", "src": "a", "dst": "b",
             "payload": None, "clock": "soon"},
        ],
    )
    def test_missing_or_ill_typed_fields_are_a_wire_error(self, frame):
        with pytest.raises(WireError):
            frame_message(frame)

    def test_clockless_message(self):
        message = Message(
            uid=1, kind="release", sender="p1", receiver="p0", payload=None
        )
        back = frame_message(message_frame(message))
        assert back.sender_clock is None
        assert back.payload is None
