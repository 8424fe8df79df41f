"""Unit and differential tests for the one-pass Timestamp Spec judge.

The reference is the definition itself: ``hb`` as plain reachability over
program order plus send -> receive across *all* listed events, then an
all-pairs check on clock events.  :func:`check_timestamp_spec` must reach
the same verdict, name only pairs the reference relates, and count exactly
the clock events the reference finds violated.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clocks import RecordedEvent, Timestamp, check_timestamp_spec

PIDS = ("p0", "p1", "p2")
FORGED = 10_000  # send uids at or above this are never listed


def ev(uid, pid, clock, send_uid=None, clock_event=True):
    return RecordedEvent(
        uid=uid,
        pid=pid,
        kind="e",
        timestamp=Timestamp(clock, pid),
        send_uid=send_uid,
        clock_event=clock_event,
    )


def closure(events):
    """Reference ``hb``: (uid, uid) pairs joined by a path of program-order
    and send -> receive edges over every listed event."""
    listed = {e.uid for e in events}
    succ = {e.uid: [] for e in events}
    last = {}
    for e in events:
        if e.pid in last:
            succ[last[e.pid]].append(e.uid)
        last[e.pid] = e.uid
        if e.send_uid in listed:
            succ[e.send_uid].append(e.uid)
    pairs = set()
    for e in events:
        seen, stack = set(), list(succ[e.uid])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(succ[u])
        pairs.update((e.uid, u) for u in seen)
    return pairs


def oracle_violations(events):
    """Every clock-event pair ``e hb f`` with ``not ts:e < ts:f``."""
    by_uid = {e.uid: e for e in events}
    return {
        (a, b)
        for a, b in closure(events)
        if by_uid[a].clock_event
        and by_uid[b].clock_event
        and not by_uid[a].timestamp < by_uid[b].timestamp
    }


def assert_matches_oracle(events):
    hb = closure(events)
    bad = oracle_violations(events)
    got = check_timestamp_spec(events)
    assert bool(got) == bool(bad)
    for v in got:
        assert (v.earlier.uid, v.later.uid) in hb
        assert v.earlier.clock_event and v.later.clock_event
        assert not v.earlier.timestamp < v.later.timestamp
    assert sorted(v.later.uid for v in got) == sorted({f for _, f in bad})
    return got


@st.composite
def event_logs(draw):
    """Causally ordered logs over three processes: receives name an earlier
    event (duplicates and self-sends included) or a forged uid, clock and
    non-clock events interleave, and a window cut drops a prefix."""
    events = []
    for uid in range(1, draw(st.integers(0, 24)) + 1):
        source = draw(st.sampled_from(("local", "receive", "forged")))
        send_uid = None
        if source == "receive" and uid > 1:
            send_uid = draw(st.integers(1, uid - 1))
        elif source == "forged":
            send_uid = FORGED + uid
        events.append(
            ev(
                uid,
                draw(st.sampled_from(PIDS)),
                draw(st.integers(0, 6)),
                send_uid,
                clock_event=draw(st.booleans()),
            )
        )
    return events[draw(st.integers(0, len(events))) :]


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(event_logs())
    # a forged receive; one send received twice; a self-send; a window
    # cut through a send/receive pair; a violation after a violation
    @example([ev(1, "p0", 9), ev(2, "p1", 1, send_uid=FORGED)])
    @example([ev(1, "p0", 5), ev(2, "p1", 3, 1), ev(3, "p2", 4, 1)])
    @example([ev(1, "p0", 5), ev(2, "p1", 1), ev(3, "p0", 6, send_uid=1)])
    @example([ev(2, "p1", 3, send_uid=1)])
    @example([ev(1, "p0", 9), ev(2, "p0", 3), ev(3, "p0", 5)])
    def test_matches_closure_oracle(self, events):
        assert_matches_oracle(events)


class TestHappenedBefore:
    """The ``hb`` facts the judge rests on, each checked on the reference
    closure and then as one more differential input."""

    def test_program_order(self):
        events = [ev(1, "p0", 1), ev(2, "p0", 2)]
        assert (1, 2) in closure(events)
        assert_matches_oracle(events)
        assert_matches_oracle([ev(1, "p0", 2), ev(2, "p0", 1)])

    def test_send_receive_order(self):
        events = [ev(1, "p0", 1), ev(2, "p1", 2, send_uid=1)]
        assert (1, 2) in closure(events)
        assert_matches_oracle(events)

    def test_concurrent_events_unrelated(self):
        events = [ev(1, "p0", 1), ev(2, "p1", 1)]
        hb = closure(events)
        assert (1, 2) not in hb and (2, 1) not in hb
        assert assert_matches_oracle([ev(1, "p0", 5), ev(2, "p1", 1)]) == []

    def test_transitivity_through_message(self):
        events = [
            ev(1, "p0", 1),
            ev(2, "p0", 2),
            ev(3, "p1", 3, send_uid=2),
            ev(4, "p1", 4),
        ]
        assert (1, 4) in closure(events)
        assert_matches_oracle(events)

    def test_forged_message_has_no_history(self):
        # receive referencing a send that is not in the log (fault-forged)
        events = [ev(1, "p0", 5), ev(2, "p1", 1, send_uid=999)]
        assert (1, 2) not in closure(events)
        assert assert_matches_oracle(events) == []


class TestTimestampSpec:
    def test_clean_log_passes(self):
        events = [
            ev(1, "p0", 1),
            ev(2, "p0", 2),
            ev(3, "p1", 3, send_uid=2),
        ]
        assert check_timestamp_spec(events) == []

    def test_local_decrease_flagged(self):
        events = [ev(1, "p0", 5), ev(2, "p0", 2)]
        violations = check_timestamp_spec(events)
        assert len(violations) == 1
        assert violations[0].earlier.uid == 1

    def test_receive_before_send_timestamp_flagged(self):
        events = [ev(1, "p0", 9), ev(2, "p1", 3, send_uid=1)]
        violations = check_timestamp_spec(events)
        assert violations and "hb" in violations[0].describe()

    def test_equal_timestamps_same_process_flagged(self):
        events = [ev(1, "p0", 4), ev(2, "p0", 4)]
        assert check_timestamp_spec(events)

    def test_hb_runs_through_non_clock_events(self):
        # p0 ticks to 9, then resends without ticking (the wrapper's
        # ``correct``); p1's receive of that message is causally after ts 9
        events = [
            ev(1, "p0", 9),
            ev(2, "p0", 9, clock_event=False),
            ev(3, "p1", 3, send_uid=2),
        ]
        got = assert_matches_oracle(events)
        assert [(v.earlier.uid, v.later.uid) for v in got] == [(1, 3)]
