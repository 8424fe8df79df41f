"""Unit tests for ProcessRuntime."""

import pytest

from repro.dsl import Effect, GuardedAction, ProcessProgram, Send
from repro.runtime import Message, ProcessRuntime


def counter_program():
    return ProcessProgram(
        "counter",
        {"x": 0, "log": ()},
        actions=(
            GuardedAction(
                "inc",
                lambda v: v.x < 3,
                lambda v: Effect({"x": v.x + 1}),
            ),
            GuardedAction(
                "announce",
                lambda v: v.x == 3,
                lambda v: Effect({}, (Send("p1", "done", v.x),)),
            ),
        ),
        receive_actions=(
            GuardedAction(
                "recv",
                lambda v: True,
                lambda v: Effect({"log": v.log + (v["_msg"],)}),
                message_kind="ping",
            ),
        ),
    )


def make_proc(**overrides):
    return ProcessRuntime(
        "p0", counter_program(), ("p0", "p1"), overrides=overrides or None
    )


class TestExecution:
    def test_initial_vars_and_overrides(self):
        assert make_proc().variables["x"] == 0
        assert make_proc(x=7).variables["x"] == 7

    def test_peers_exclude_self(self):
        assert make_proc().peers == ("p1",)

    def test_enabled_internal_actions(self):
        proc = make_proc()
        assert [a.name for a in proc.enabled_internal_actions()] == ["inc"]
        proc.variables["x"] = 3
        assert [a.name for a in proc.enabled_internal_actions()] == ["announce"]

    def test_execute_internal_applies_updates(self):
        proc = make_proc()
        act = proc.enabled_internal_actions()[0]
        proc.execute_internal(act)
        assert proc.variables["x"] == 1
        assert proc.steps_taken == 1

    def test_view_exposes_meta(self):
        view = make_proc().view()
        assert view["_pid"] == "p0"
        assert view["_peers"] == ("p1",)

    def test_reserved_names_unassignable(self):
        program = ProcessProgram(
            "bad",
            {},
            actions=(
                GuardedAction(
                    "evil", lambda v: True, lambda v: Effect({"_pid": "x"})
                ),
            ),
        )
        proc = ProcessRuntime("p0", program, ("p0", "p1"))
        with pytest.raises(ValueError):
            proc.execute_internal(program.actions[0])


class TestReceive:
    def msg(self, kind="ping", payload="hello"):
        return Message(1, kind, "p1", "p0", payload)

    def test_matching_handler_runs(self):
        proc = make_proc()
        effect = proc.execute_receive(self.msg())
        assert effect is not None
        assert proc.variables["log"] == ("hello",)

    def test_unknown_kind_discarded(self):
        proc = make_proc()
        assert proc.execute_receive(self.msg(kind="mystery")) is None
        assert proc.variables["log"] == ()

    def test_sender_visible_to_handler(self):
        seen = {}

        def body(v):
            seen["sender"] = v["_sender"]
            return Effect()

        program = ProcessProgram(
            "s",
            {},
            receive_actions=(
                GuardedAction("r", lambda v: True, body, message_kind="ping"),
            ),
        )
        proc = ProcessRuntime("p0", program, ("p0", "p1"))
        proc.execute_receive(self.msg())
        assert seen["sender"] == "p1"


class TestFaultSurface:
    def test_corrupt_partial(self):
        proc = make_proc()
        proc.corrupt({"x": 99})
        assert proc.variables["x"] == 99
        assert "log" in proc.variables

    def test_improper_init_replaces_everything(self):
        proc = make_proc()
        proc.improper_init({"zzz": 1})
        assert proc.variables == {"zzz": 1}


class TestSnapshot:
    def test_sorted_and_hashable(self):
        snap = make_proc().snapshot()
        assert snap == (("log", ()), ("x", 0))
        hash(snap)
