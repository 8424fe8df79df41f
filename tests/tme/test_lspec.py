"""Tests for the Lspec clause monitors.

Positive path: fault-free RA and Lamport runs are clean on every clause.
Negative path: hand-built traces and sabotaged programs trip exactly the
clause they violate.
"""

import pytest

from repro.clocks import Timestamp
from repro.dsl import Effect, GuardedAction
from repro.runtime import RoundRobinScheduler, Simulator
from repro.tme import (
    CLAUSES,
    ClientConfig,
    build_simulation,
    check_lspec,
    lamport_programs,
    ra_programs,
)


def programs_of(sim):
    return {pid: proc.program for pid, proc in sim.processes.items()}


class TestCleanRuns:
    @pytest.mark.parametrize("algorithm", ["ra", "lamport"])
    def test_all_clauses_clean(self, algorithm):
        sim = build_simulation(algorithm, n=3, seed=7)
        trace = sim.run(1200)
        report = check_lspec(trace, programs_of(sim))
        assert set(report.clauses) == set(CLAUSES)
        assert report.ok(grace=150), report.summary()
        for name, clause in report.clauses.items():
            assert not clause.violations, (name, clause.violations[:3])

    def test_wrapped_runs_clean_too(self):
        """Lemma 6 in miniature: W does not make a conforming
        implementation violate Lspec."""
        from repro.tme import WrapperConfig

        sim = build_simulation(
            "ra", n=3, seed=7, wrapper=WrapperConfig(theta=3)
        )
        trace = sim.run(1200)
        report = check_lspec(trace, programs_of(sim))
        assert report.total_violations() == 0, report.summary()


class SabotagedPrograms:
    """RA variants with one clause deliberately broken."""

    @staticmethod
    def flow_breaker():
        """Jump t -> e directly (violates Flow Spec)."""
        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))

        def teleport(view):
            return Effect({"phase": "e", "eat_timer": 0})

        bad = programs["p0"]
        actions = (
            GuardedAction("bad:teleport", lambda v: v.phase == "t", teleport),
        ) + bad.actions
        from repro.dsl import ProcessProgram

        programs["p0"] = ProcessProgram(
            bad.name, bad.initial_vars, actions, bad.receive_actions
        )
        return programs

    @staticmethod
    def request_breaker():
        """Mutate REQ while hungry (violates Request Spec safety)."""
        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))

        def bump(view):
            return Effect({"req": Timestamp(view.req.clock + 1, "p0")})

        bad = programs["p0"]
        actions = bad.actions + (
            GuardedAction(
                "bad:bump",
                lambda v: v.phase == "h" and isinstance(v.req, Timestamp),
                bump,
            ),
        )
        from repro.dsl import ProcessProgram

        programs["p0"] = ProcessProgram(
            bad.name, bad.initial_vars, actions, bad.receive_actions
        )
        return programs

    @staticmethod
    def entry_breaker():
        """Enter the CS whenever hungry (violates CS Entry safety)."""
        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))

        def barge(view):
            return Effect({"phase": "e", "lc": view.lc + 1})

        bad = programs["p0"]
        actions = (
            GuardedAction("bad:barge", lambda v: v.phase == "h", barge),
        ) + bad.actions
        from repro.dsl import ProcessProgram

        programs["p0"] = ProcessProgram(
            bad.name, bad.initial_vars, actions, bad.receive_actions
        )
        return programs


class MoreSabotage:
    """Breakers for the clauses TestNegativeControls does not cover."""

    @staticmethod
    def release_breaker():
        """Release CS without refreshing REQ (violates CS Release Spec)."""
        from repro.dsl import ProcessProgram

        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))

        def sloppy_release(view):
            return Effect({"phase": "t", "lc": view.lc + 1})

        bad = programs["p0"]
        actions = (
            GuardedAction(
                "bad:sloppy-release", lambda v: v.phase == "e", sloppy_release
            ),
        ) + tuple(a for a in bad.actions if a.name != "ra:release")
        programs["p0"] = ProcessProgram(
            bad.name, bad.initial_vars, actions, bad.receive_actions
        )
        return programs

    @staticmethod
    def clock_breaker():
        """Tick the clock BACKWARDS on a local action (violates
        Timestamp Spec: hb demands increasing stamps)."""
        from repro.dsl import ProcessProgram

        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))

        def rewind(view):
            return Effect({"lc": max(0, view.lc - 5)})

        bad = programs["p0"]
        actions = bad.actions + (
            GuardedAction("bad:rewind", lambda v: v.lc > 10, rewind),
        )
        programs["p0"] = ProcessProgram(
            bad.name, bad.initial_vars, actions, bad.receive_actions
        )
        return programs


class TestMoreNegativeControls:
    def run_and_check(self, programs, steps=400):
        sim = Simulator(programs, RoundRobinScheduler())
        trace = sim.run(steps)
        return check_lspec(trace, programs)

    def test_cs_release_violation_detected(self):
        report = self.run_and_check(MoreSabotage.release_breaker())
        assert report.clauses["cs_release"].violations

    def test_timestamp_violation_detected(self):
        report = self.run_and_check(MoreSabotage.clock_breaker(), steps=600)
        assert report.clauses["timestamp"].violations

    def test_communication_violation_detected(self):
        """Swap two in-flight messages behind the monitor's back (an
        unmarked, non-fault mutation): the FIFO clause must flag it."""
        import random as _random

        from repro.clocks import Timestamp
        from repro.runtime import RandomScheduler

        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))
        sim = Simulator(programs, RandomScheduler(_random.Random(2)))
        # run until a channel holds two distinguishable messages
        for _ in range(400):
            sim.step()
            chan = next(
                (
                    c
                    for c in sim.network.nonempty_channels()
                    if len(c) >= 2
                    and len({(m.kind, m.payload) for m in c}) >= 2
                ),
                None,
            )
            if chan is not None:
                queue = list(chan.snapshot())
                queue[0], queue[-1] = queue[-1], queue[0]
                chan.replace_contents(queue)
                break
        else:
            import pytest as _pytest

            _pytest.skip("no channel accumulated two distinct messages")
        sim.run(5)
        report = check_lspec(
            trace=sim.trace,
            programs=programs,
        )
        assert report.clauses["communication"].violations


class TestNegativeControls:
    def run_and_check(self, programs, steps=300):
        sim = Simulator(programs, RoundRobinScheduler())
        trace = sim.run(steps)
        return check_lspec(trace, programs)

    def test_flow_violation_detected(self):
        report = self.run_and_check(SabotagedPrograms.flow_breaker())
        assert report.clauses["flow"].violations

    def test_request_safety_violation_detected(self):
        report = self.run_and_check(SabotagedPrograms.request_breaker())
        assert report.clauses["request"].violations

    def test_entry_safety_violation_detected(self):
        report = self.run_and_check(SabotagedPrograms.entry_breaker())
        assert report.clauses["cs_entry"].violations

    def test_failing_clauses_listed(self):
        report = self.run_and_check(SabotagedPrograms.entry_breaker())
        assert "cs_entry" in report.failing_clauses()


class TestTimestampThroughWrapper:
    def test_receive_of_wrapper_resend_is_judged(self):
        """W's ``correct`` resends REQ without ticking ``lc``, so its send
        is no clock event; the receive is still causally after the
        sender's clock.  Lower one such receive's timestamp below the
        sender's latest clock event where no clock-only chain reaches it
        (a judge that drops non-clock events first is blind there): the
        Timestamp clause must name exactly that receive."""
        from dataclasses import replace

        from repro.clocks import check_timestamp_spec
        from repro.tme import WrapperConfig

        sim = build_simulation(
            "ra", n=3, seed=1, wrapper=WrapperConfig(theta=0)
        )
        trace = sim.run(300)
        assert not check_lspec(trace, programs_of(sim)).clauses[
            "timestamp"
        ].violations
        events = list(trace.events)
        at = {e.uid: i for i, e in enumerate(events)}
        for i, recv in enumerate(events):
            send = events[at[recv.send_uid]] if recv.send_uid in at else None
            if not (recv.clock_event and send and send.kind == "W:correct"):
                continue
            latest = next(
                e
                for e in reversed(events[: at[send.uid]])
                if e.pid == send.pid and e.clock_event
            )
            clock = latest.timestamp.clock - (recv.pid > send.pid)
            mutated = events[:i] + [
                replace(recv, timestamp=Timestamp(clock, recv.pid))
            ] + events[i + 1 :]
            if not check_timestamp_spec([e for e in mutated if e.clock_event]):
                break
        else:
            pytest.fail("no receive of a W:correct send outside clock chains")
        trace.events[:] = mutated
        report = check_lspec(trace, programs_of(sim))
        assert [
            (v.pid, v.index) for v in report.clauses["timestamp"].violations
        ] == [(recv.pid, recv.step_index)]
        assert report.total_violations() == 1


def _stale_thinking_req(build):
    """``build`` (``ra_program``'s signature) with every receive that
    starts thinking keeping the pre-step ``req``: the clock moves, REQ
    does not (violates CS Release Spec on steps that stay thinking)."""
    from repro.dsl import ProcessProgram

    def keep_req(body):
        def stale(view):
            effect = body(view)
            if view.phase != "t":
                return effect
            return Effect({**effect.updates, "req": view.req}, effect.sends)

        return stale

    def program(pid, all_pids, client):
        good = build(pid, all_pids, client)
        receives = tuple(
            GuardedAction(a.name, a.guard, keep_req(a.body), a.message_kind)
            for a in good.receive_actions
        )
        return ProcessProgram(
            good.name, good.initial_vars, good.actions, receives
        )

    return program


class TestCsReleaseOnClockOnlySteps:
    """CS Release is judged on every *event* that ends thinking, a step
    that changes only the clock included -- not just on phase changes.
    Mutants of ``judge_step``'s guard this must catch (each checked by
    hand to fail here): ``or`` -> ``and`` between the clock and phase
    tests, ``lc_after >= 0`` -> ``> 0``, and the ``isinstance(lc_after,
    int)`` test dropped."""

    @pytest.fixture
    def stale_ra(self, monkeypatch):
        from repro.tme import ricart_agrawala

        monkeypatch.setattr(
            ricart_agrawala,
            "ra_program",
            _stale_thinking_req(ricart_agrawala.ra_program),
        )

    def test_check_lspec_flags_a_thinking_receive(self, stale_ra):
        programs = ra_programs(("p0", "p1"), ClientConfig(0, 0))
        trace = Simulator(programs, RoundRobinScheduler()).run(300)
        report = check_lspec(trace, programs)
        violations = report.clauses["cs_release"].violations
        assert violations
        for violation in violations:
            assert "thinking with REQ=" in str(violation)

    def test_e8b_flags_a_thinking_receive(self, stale_ra):
        from repro.verification import exhaustive_lspec_check

        result = exhaustive_lspec_check("ra", max_clock=2)
        assert result.violation_counts.get("cs_release", 0) > 0
        assert set(result.violation_counts) == {"cs_release"}
        for witness in result.violations:
            assert witness.move.startswith("ra:recv-")
            assert dict(witness.valuation)["phase"] == "t"

    @staticmethod
    def release(before, pre_lc, post_lc, post_req):
        """``judge_step``'s verdicts on one step of p0 that ends thinking."""
        from repro.tme.interfaces import LspecView
        from repro.tme.lspec import judge_step

        view = LspecView(
            phase="t", lc=0, req=post_req, req_of={}, received={}
        )
        pre = {"phase": before, "lc": pre_lc, "req": Timestamp(0, "p0")}
        post = {"phase": "t", "lc": post_lc, "req": post_req}
        return dict(judge_step("p0", pre, post, view, view, ("p1",)))

    def test_clock_zero_is_a_valid_stamp(self):
        verdicts = self.release("e", 0, 0, Timestamp(0, "p0"))
        assert "cs_release" in verdicts
        assert verdicts["cs_release"] is None

    def test_a_corrupted_clock_has_no_stamp(self):
        verdicts = self.release("t", 3, None, Timestamp(3, "p0"))
        assert verdicts["cs_release"] == (
            "thinking with REQ=ts(3,p0), ts:j=None"
        )


class TestWindowing:
    def test_start_skips_corrupted_prefix(self):
        """A run with a fault at step 0 judged from start=1 is clean."""
        import random

        from repro.faults import ImproperInitialization
        from repro.runtime import RandomScheduler
        from repro.tme import garbage_channel_filler, scramble_tme_state

        programs = ra_programs(("p0", "p1", "p2"))
        injector = ImproperInitialization(
            random.Random(13), scramble_tme_state, garbage_channel_filler
        )
        sim = Simulator(
            programs, RandomScheduler(random.Random(13)), fault_hook=injector
        )
        trace = sim.run(1000)
        report = check_lspec(trace, programs, start=1)
        for name, clause in report.clauses.items():
            assert not clause.violations, (name, clause.violations[:3])

    def test_fault_steps_skipped(self):
        """Transitions taken by the fault injector are not the program's."""
        import random

        from repro.faults import StateCorruption, Windowed
        from repro.runtime import RandomScheduler
        from repro.tme import scramble_tme_state

        programs = ra_programs(("p0", "p1"))
        injector = Windowed(
            StateCorruption(random.Random(5), 1.0, scramble_tme_state), 10, 40
        )
        sim = Simulator(
            programs, RandomScheduler(random.Random(5)), fault_hook=injector
        )
        trace = sim.run(600)
        report = check_lspec(trace, programs, start=41)
        for name, clause in report.clauses.items():
            assert not clause.violations, (name, clause.violations[:3])
