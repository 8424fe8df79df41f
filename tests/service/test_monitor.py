"""LiveMonitor online ME1-ME3 vs the offline checker, plus persistence."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.timestamps import Timestamp
from repro.runtime.trace import GlobalState, Trace
from repro.service.monitor import (
    LiveMonitor,
    TraceWriter,
    load_trace,
    revalidate_trace,
)
from repro.tme.spec import check_tme_spec

PIDS = ("p0", "p1", "p2")


def initial():
    return {pid: {"lc": 0, "phase": "t", "req": None} for pid in PIDS}


def play(events, keep_states=True):
    """Feed one event sequence; return the monitor."""
    monitor = LiveMonitor(initial(), keep_states=keep_states)
    vars_by_pid = initial()
    for pid, changes in events:
        vars_by_pid[pid] = {**vars_by_pid[pid], **changes}
        monitor.on_event(pid, vars_by_pid[pid])
    return monitor


# A run with one ME1 violation (p0 and p1 eating at once) and one ME3
# violation (p2 enters the CS while p1 holds an earlier request).
VIOLATING = [
    ("p0", {"lc": 1, "phase": "h", "req": Timestamp(1, "p0")}),
    ("p0", {"lc": 2, "phase": "e"}),
    ("p1", {"lc": 1, "phase": "h", "req": Timestamp(1, "p1")}),
    ("p1", {"lc": 2, "phase": "e"}),  # ME1: p0 still eating
    ("p0", {"lc": 3, "phase": "t", "req": None}),
    ("p1", {"lc": 3, "phase": "t", "req": None}),
    ("p1", {"lc": 4, "phase": "h", "req": Timestamp(4, "p1")}),
    ("p2", {"lc": 9, "phase": "h", "req": Timestamp(9, "p2")}),
    ("p2", {"lc": 10, "phase": "e"}),  # ME3: p1's request is earlier
]

# A clean round-robin run: no violations, three CS entries.
CLEAN = [
    ("p0", {"lc": 1, "phase": "h", "req": Timestamp(1, "p0")}),
    ("p0", {"lc": 2, "phase": "e"}),
    ("p0", {"lc": 3, "phase": "t", "req": None}),
    ("p1", {"lc": 4, "phase": "h", "req": Timestamp(4, "p1")}),
    ("p1", {"lc": 5, "phase": "e"}),
    ("p1", {"lc": 6, "phase": "t", "req": None}),
    ("p2", {"lc": 7, "phase": "h", "req": Timestamp(7, "p2")}),
    ("p2", {"lc": 8, "phase": "e"}),
    ("p2", {"lc": 9, "phase": "t", "req": None}),
]


class TestLiveMonitor:
    def test_flags_seeded_me1_violation(self):
        monitor = play(VIOLATING)
        assert monitor.me1 == [4]

    def test_flags_seeded_me3_violation(self):
        monitor = play(VIOLATING)
        assert len(monitor.me3) == 1
        violation = monitor.me3[0]
        assert violation.winner == "p1"
        assert violation.loser == "p2"

    def test_clean_run_is_clean(self):
        report = play(CLEAN).report()
        assert report.me1 == ()
        assert report.me3 == ()
        assert sum(r.entries for r in report.me2) == 3

    @pytest.mark.parametrize("events", [VIOLATING, CLEAN])
    def test_online_equals_offline_checker(self, events):
        monitor = play(events, keep_states=True)
        trace = Trace()
        trace.states = monitor.states
        offline = check_tme_spec(trace, start=0)
        online = monitor.report()
        assert online == offline


# -- the O(1) monitor against the offline checker, on anything ---------------

# Phases and requests include what only a fault can produce: two eaters,
# a later request entering first, a ``req`` that is not a timestamp, a
# phase that is no phase; an empty change is an event that changes nothing.
_PHASES = st.sampled_from(["t", "h", "e", "e", "h", None, "x"])
_REQS = st.one_of(
    st.none(),
    st.builds(Timestamp, st.integers(0, 5), st.sampled_from(PIDS)),
    st.integers(-2, 2),
    st.just("junk"),
)
_VARS = st.fixed_dictionaries(
    {}, optional={"lc": st.integers(0, 9), "phase": _PHASES, "req": _REQS}
)
_INITIAL = st.fixed_dictionaries(
    {
        pid: st.fixed_dictionaries(
            {"lc": st.integers(0, 9), "phase": _PHASES, "req": _REQS}
        )
        for pid in PIDS
    }
)
_EVENTS = st.lists(st.tuples(st.sampled_from(PIDS), _VARS), max_size=40)


def rebuilt_states(initial_vars, events):
    """The global-state sequence of the events, built without the monitor."""

    def state(vars_by_pid):
        return GlobalState(
            tuple(
                (pid, tuple(sorted(vars_by_pid[pid].items()))) for pid in PIDS
            ),
            (),
        )

    vars_by_pid = {pid: dict(initial_vars[pid]) for pid in PIDS}
    states = [state(vars_by_pid)]
    for pid, changes in events:
        vars_by_pid[pid] = {**vars_by_pid[pid], **changes}
        states.append(state(vars_by_pid))
    return states


class TestMonitorDifferential:
    @settings(max_examples=300, deadline=None)
    @given(initial_vars=_INITIAL, events=_EVENTS)
    def test_report_equals_the_offline_checker(self, initial_vars, events):
        states = rebuilt_states(initial_vars, events)
        for keep_states in (False, True):
            monitor = LiveMonitor(initial_vars, keep_states=keep_states)
            for (pid, _changes), state in zip(events, states[1:]):
                # extra variables ride along, as in a real valuation
                monitor.on_event(pid, {**state.process_vars(pid), "other": 1})
            trace = Trace()
            trace.states = states
            assert monitor.report() == check_tme_spec(trace, start=0)
            assert monitor.states == (states if keep_states else [])

    @settings(max_examples=60, deadline=None)
    @given(initial_vars=_INITIAL, events=_EVENTS)
    def test_kept_states_equal_the_loaded_trace_file(
        self, initial_vars, events
    ):
        states = rebuilt_states(initial_vars, events)
        monitor = LiveMonitor(initial_vars, keep_states=True)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            writer = TraceWriter.open(path)
            writer.header(initial_vars)
            for seq, ((pid, _changes), state) in enumerate(
                zip(events, states[1:])
            ):
                variables = state.process_vars(pid)
                monitor.on_event(pid, variables)
                writer.event(seq, pid, "step", variables)
            writer.close()
            assert load_trace(path).states == monitor.states == states
            assert revalidate_trace(path) == monitor.report()


class TestTracePersistence:
    def write(self, path, events):
        writer = TraceWriter.open(path)
        writer.header(initial())
        vars_by_pid = initial()
        for seq, (pid, changes) in enumerate(events):
            vars_by_pid[pid] = {**vars_by_pid[pid], **changes}
            writer.event(seq, pid, "step", vars_by_pid[pid])
        writer.mark(len(events), "chaos-cut", "p0")
        writer.close()

    def test_event_record_bytes_are_the_schema_1_bytes(self, tmp_path):
        """The record a reader of an older trace file expects, to the byte."""
        path = tmp_path / "trace.jsonl"
        self.write(path, VIOLATING[:1])
        lines = path.read_text().splitlines()
        assert lines[1] == (
            '{"t":"ev","i":0,"pid":"p0","act":"step",'
            '"vars":{"lc":1,"phase":"h","req":{"%ts":[1,"p0"]}}}'
        )
        assert lines[2] == '{"t":"mark","i":1,"kind":"chaos-cut","detail":"p0"}'

    @pytest.mark.parametrize("events", [VIOLATING, CLEAN])
    def test_revalidation_matches_online_verdict(self, tmp_path, events):
        path = tmp_path / "trace.jsonl"
        self.write(path, events)
        offline = revalidate_trace(path)
        online = play(events).report()
        assert offline == online

    def test_loaded_states_preserve_value_types(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write(path, CLEAN)
        trace = load_trace(path)
        # One state per event plus the header's initial state; marks add
        # no states.
        assert len(trace.states) == len(CLEAN) + 1
        req = trace.states[1].var("p0", "req")
        assert req == Timestamp(1, "p0")
        assert isinstance(req, Timestamp)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"t":"hdr","schema":999,"pids":[],"vars":{}}\n')
        with pytest.raises(ValueError):
            load_trace(path)
