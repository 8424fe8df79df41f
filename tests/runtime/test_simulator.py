"""Unit tests for the Simulator loop."""

import random

import pytest

from repro.dsl import Effect, GuardedAction, ProcessProgram, Send
from repro.runtime import (
    DeliverStep,
    InternalStep,
    RandomScheduler,
    RoundRobinScheduler,
    Simulator,
)


def ping_pong_programs():
    """p0 sends ping once; p1 replies pong; both count receipts."""

    def mk(pid, other, opener):
        actions = ()
        if opener:
            actions = (
                GuardedAction(
                    "open",
                    lambda v: not v.opened,
                    lambda v: Effect(
                        {"opened": True, "lc": v.lc + 1},
                        (Send(other, "ping", "hi"),),
                    ),
                ),
            )
        return ProcessProgram(
            f"PP[{pid}]",
            {"opened": False, "got": 0, "lc": 0},
            actions=actions,
            receive_actions=(
                GuardedAction(
                    "recv-ping",
                    lambda v: True,
                    lambda v: Effect(
                        {"got": v.got + 1, "lc": v.lc + 1},
                        (Send(v["_sender"], "pong", "yo"),),
                    ),
                    message_kind="ping",
                ),
                GuardedAction(
                    "recv-pong",
                    lambda v: True,
                    lambda v: Effect({"got": v.got + 1, "lc": v.lc + 1}),
                    message_kind="pong",
                ),
            ),
        )

    return {"p0": mk("p0", "p1", True), "p1": mk("p1", "p0", False)}


def make_sim(**kwargs):
    return Simulator(ping_pong_programs(), RoundRobinScheduler(), **kwargs)


class TestSetup:
    def test_needs_two_processes(self):
        programs = ping_pong_programs()
        with pytest.raises(ValueError):
            Simulator({"p0": programs["p0"]}, RoundRobinScheduler())

    def test_initial_snapshot_recorded(self):
        sim = make_sim()
        assert len(sim.trace.states) == 1
        assert sim.trace.states[0].var("p0", "opened") is False

    def test_overrides_applied(self):
        sim = Simulator(
            ping_pong_programs(),
            RoundRobinScheduler(),
            overrides={"p0": {"opened": True}},
        )
        assert sim.processes["p0"].variables["opened"] is True


class TestStepping:
    def test_candidate_enumeration(self):
        sim = make_sim()
        candidates = sim.candidate_steps()
        assert candidates == [InternalStep("p0", "open")]

    def test_full_exchange(self):
        sim = make_sim()
        sim.run(6)
        assert sim.processes["p1"].variables["got"] == 1  # ping received
        assert sim.processes["p0"].variables["got"] == 1  # pong received
        assert sim.is_quiescent

    def test_stutter_when_quiescent(self):
        sim = make_sim()
        sim.run(10)
        record = sim.step()
        assert record.kind == "stutter"

    def test_trace_alignment(self):
        sim = make_sim()
        sim.run(4)
        # states[i] --steps[i]--> states[i+1]
        assert len(sim.trace.states) == len(sim.trace.steps) + 1

    def test_deliver_records_metadata(self):
        sim = make_sim()
        sim.step()  # open (sends ping)
        record = sim.execute(DeliverStep("p0", "p1"))
        assert record.kind == "deliver"
        assert record.delivered_kind == "ping"
        assert record.delivered_from == "p0"
        assert record.sends == (("pong", "p0"),)

    def test_events_recorded_with_causality(self):
        sim = make_sim()
        sim.run(6)
        events = sim.trace.events
        kinds = [e.kind for e in events]
        assert kinds[0] == "open"
        recv = next(e for e in events if e.kind == "recv-ping")
        send = next(e for e in events if e.kind == "open")
        assert recv.send_uid == send.uid

    def test_clock_event_flag(self):
        sim = make_sim()
        sim.run(6)
        assert all(e.clock_event for e in sim.trace.events)

    def test_record_states_off(self):
        sim = make_sim(record_states=False)
        sim.run(4)
        assert sim.trace.states == []
        assert len(sim.trace.steps) == 4


class TestFaultHook:
    def test_hook_called_and_faults_recorded(self):
        class DropEverything:
            def before_step(self, simulator, step_index):
                lost = simulator.network.flush_all()
                return [f"lost {lost}"] if lost else []

        sim = Simulator(
            ping_pong_programs(), RoundRobinScheduler(), fault_hook=DropEverything()
        )
        sim.run(6)
        assert sim.processes["p1"].variables["got"] == 0
        assert any(s.faults for s in sim.trace.steps)

    def test_random_scheduler_end_to_end(self):
        sim = Simulator(
            ping_pong_programs(), RandomScheduler(random.Random(1))
        )
        sim.run(20)
        assert sim.processes["p0"].variables["got"] == 1
