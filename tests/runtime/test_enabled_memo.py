"""Differential tests for the validated enabled-set memo.

``ProcessRuntime.enabled_internal_actions`` and ``Simulator.candidate_steps``
reuse the last answer while every variable is still bound to the same
object.  The oracles below are the enumeration before the memo existed:
every guard of every live process, evaluated from scratch on a fresh view.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.faults import ChurnRates, DecidingFaults
from repro.campaign.seeds import FAULTS_STREAM, SCHEDULER_STREAM, spawn_rng
from repro.campaign.trial import CampaignSpec, build_trial_simulator
from repro.dsl import Effect, GuardedAction, LocalView, ProcessProgram
from repro.faults.injector import Windowed
from repro.runtime import (
    DeliverStep,
    InternalStep,
    ProcessRuntime,
    RandomScheduler,
    Scheduler,
)
from repro.tme import ALGORITHMS


def oracle_enabled(proc):
    fresh = LocalView(
        {**proc.variables, "_pid": proc.pid, "_peers": proc.peers}
    )
    return [a for a in proc.program.actions if a.guard(fresh)]


def oracle_candidates(sim):
    steps = []
    for chan in sim.network.channels():
        if (
            len(chan)
            and sim.network.link_up(chan.src, chan.dst)
            and sim.processes[chan.dst].is_live
        ):
            steps.append(DeliverStep(chan.src, chan.dst))
    for pid, proc in sim.processes.items():
        if proc.is_live:
            steps.extend(InternalStep(pid, a.name) for a in oracle_enabled(proc))
    return steps


class CheckingScheduler(Scheduler):
    """Compares what the simulator offers -- after the step's faults and
    lifecycle events struck -- with the oracle, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.simulator = None
        self.checked = 0

    def choose(self, candidates, step_index):
        assert list(candidates) == oracle_candidates(self.simulator)
        self.checked += 1
        return self.inner.choose(candidates, step_index)


def assert_matches_oracle(sim):
    for proc in sim.processes.values():
        if proc.is_live:
            assert proc.enabled_internal_actions() == oracle_enabled(proc)
    assert sim.candidate_steps() == oracle_candidates(sim)


@pytest.mark.parametrize("theta", [0, 4])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_step_of_a_faulty_churning_run(algorithm, theta, seed):
    spec = CampaignSpec(
        algorithm,
        n=3,
        root_seed=seed,
        theta=theta,
        fault_start=10,
        fault_stop=150,
        churn=ChurnRates(downtime=15, heal_after=20),
    )
    scheduler = CheckingScheduler(
        RandomScheduler(
            spawn_rng(seed, 0, SCHEDULER_STREAM), deliver_bias=spec.deliver_bias
        )
    )
    faults = DecidingFaults(
        spawn_rng(seed, 0, FAULTS_STREAM), spec.rates, [], churn=spec.churn
    )
    sim = build_trial_simulator(
        spec, scheduler, Windowed(faults, spec.fault_start, spec.fault_stop)
    )
    scheduler.simulator = sim
    assert_matches_oracle(sim)
    for _ in range(250):
        sim.step()
        assert_matches_oracle(sim)
    assert scheduler.checked > 0 and faults.count > 0


# -- one process, every way its valuation can change ------------------------


def typed_program(calls):
    """One action per concrete type of ``lc``; ``calls`` counts guards."""

    def guard_for(kind):
        def guard(v):
            calls.append(kind.__name__)
            return "lc" in v and type(v.lc) is kind

        return guard

    return ProcessProgram(
        "typed",
        {"lc": 1, "other": "x"},
        actions=tuple(
            GuardedAction(
                kind.__name__, guard_for(kind), lambda v: Effect({"lc": 0})
            )
            for kind in (int, bool, float)
        ),
    )


def names(proc):
    return [a.name for a in proc.enabled_internal_actions()]


@pytest.fixture
def calls():
    return []


@pytest.fixture
def proc(calls):
    return ProcessRuntime("p0", typed_program(calls), ("p0", "p1"))


class TestValidation:
    def test_unchanged_valuation_evaluates_no_guard(self, proc, calls):
        assert names(proc) == ["int"]
        assert len(calls) == 3
        assert names(proc) == ["int"]
        assert [s.key for s in proc.enabled_internal_steps()] == [
            ("internal", "p0", "int")
        ]
        assert len(calls) == 3

    def test_result_is_the_callers_to_mutate(self, proc):
        proc.enabled_internal_actions().clear()
        assert names(proc) == ["int"]

    def test_equal_values_of_another_type_re_evaluate(self, proc, calls):
        """``1 == True == 1.0``: equality would keep answering ``int``."""
        assert names(proc) == ["int"]
        proc.variables["lc"] = True
        assert names(proc) == ["bool"]
        proc.variables["lc"] = 1.0
        assert names(proc) == ["float"]
        assert len(calls) == 9

    def test_direct_write(self, proc):
        assert names(proc) == ["int"]
        proc.variables["lc"] = 2.5
        assert names(proc) == ["float"]

    def test_corrupt(self, proc):
        assert names(proc) == ["int"]
        proc.corrupt({"lc": False})
        assert names(proc) == ["bool"]

    def test_improper_init(self, proc):
        assert names(proc) == ["int"]
        proc.improper_init({"lc": 0.5, "other": "x"})
        assert names(proc) == ["float"]

    def test_crash_then_restart(self, proc):
        assert names(proc) == ["int"]
        proc.crash(restart_vars={"lc": True, "other": "x"})
        assert names(proc) == []
        proc.restart()
        assert names(proc) == ["bool"]

    def test_deleted_and_added_key(self, proc):
        assert names(proc) == ["int"]
        value = proc.variables.pop("lc")
        assert names(proc) == []
        proc.variables["lc"] = value
        assert names(proc) == ["int"]
        # Same size, same value objects, another name.
        proc.variables["cl"] = proc.variables.pop("lc")
        assert names(proc) == []

    def test_execute_applies_to_the_current_valuation(self, proc):
        (act,) = proc.enabled_internal_actions()
        proc.variables["lc"] = 1.0  # the memoised view is stale now
        with pytest.raises(RuntimeError, match="while disabled"):
            proc.execute_internal(act)

    def test_fork_and_parent_diverge_independently(self, proc, calls):
        assert names(proc) == ["int"]
        child = proc.fork()
        assert names(child) == ["int"]
        assert len(calls) == 3  # the fork inherited the answer
        child.variables["lc"] = True
        assert (names(child), names(proc)) == (["bool"], ["int"])
        other = proc.fork()
        proc.variables["lc"] = 1.0
        assert (names(proc), names(other)) == (["float"], ["int"])


# -- executing on the memo's verdict -----------------------------------------


def counting_program(guards, bodies):
    """``up`` is enabled while ``x < 2``, ``down`` while ``x >= 2``."""

    def guard(name, test):
        def counted(v):
            guards.append(name)
            return test(v.x)

        return counted

    def body(name, step):
        def counted(v):
            bodies.append(name)
            return Effect({"x": v.x + step})

        return counted

    return ProcessProgram(
        "counting",
        {"x": 0},
        actions=(
            GuardedAction("up", guard("up", lambda x: x < 2), body("up", 1)),
            GuardedAction(
                "down", guard("down", lambda x: x >= 2), body("down", -2)
            ),
        ),
    )


class TestExecuteOnTheMemo:
    @pytest.fixture
    def guards(self):
        return []

    @pytest.fixture
    def bodies(self):
        return []

    @pytest.fixture
    def runtime(self, guards, bodies):
        return ProcessRuntime(
            "p0", counting_program(guards, bodies), ("p0", "p1")
        )

    def test_a_listed_action_runs_its_body_and_no_guard(
        self, runtime, guards, bodies
    ):
        (up,) = runtime.enabled_internal_actions()
        assert guards == ["up", "down"]
        effect = runtime.execute_internal(up)
        assert effect.updates == {"x": 1} and runtime.variables["x"] == 1
        assert (guards, bodies) == (["up", "down"], ["up"])

    def test_the_body_sees_the_view_the_guards_saw(self, runtime):
        seen = []
        spy = GuardedAction(
            "spy",
            lambda v: seen.append(v) or True,
            lambda v: seen.append(v) or Effect(),
        )
        runtime.program = ProcessProgram("spy", {"x": 0}, actions=(spy,))
        runtime.execute_internal(runtime.enabled_internal_actions()[0])
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_an_unlisted_action_is_asked_and_refused(
        self, runtime, guards, bodies
    ):
        runtime.enabled_internal_actions()
        down = runtime.program.internal_action("down")
        with pytest.raises(RuntimeError, match="while disabled"):
            runtime.execute_internal(down)
        assert (guards, bodies) == (["up", "down", "down"], [])
        assert runtime.variables["x"] == 0 and runtime.steps_taken == 0

    def test_an_equal_copy_of_a_listed_action_is_asked(
        self, runtime, guards, bodies
    ):
        """The memo vouches for action *objects*; anything else pays."""
        (up,) = runtime.enabled_internal_actions()
        twin = GuardedAction(up.name, up.guard, up.body)
        assert twin == up and twin is not up
        runtime.execute_internal(twin)
        assert (guards, bodies) == (["up", "down", "up"], ["up"])

    def test_an_outside_write_voids_the_verdict(self, runtime, guards, bodies):
        """The lock frontend's pattern: ``runtime.variables[...] = v``."""
        (up,) = runtime.enabled_internal_actions()
        down = runtime.program.internal_action("down")
        runtime.variables["x"] = 2
        with pytest.raises(RuntimeError, match="while disabled"):
            runtime.execute_internal(up)  # was enabled, no longer is
        assert bodies == []
        runtime.execute_internal(down)  # was disabled, now runs
        assert bodies == ["down"] and runtime.variables["x"] == 0
        assert guards == ["up", "down", "up", "down"]

    def test_no_memo_yet(self, runtime, guards, bodies):
        up = runtime.program.internal_action("up")
        runtime.execute_internal(up)
        assert (guards, bodies) == (["up"], ["up"])


class TestRestrictedQuestion:
    """``among=``: the live node asks about the actions it can run now."""

    @pytest.fixture
    def guards(self):
        return []

    @pytest.fixture
    def bodies(self):
        return []

    @pytest.fixture
    def runtime(self, guards, bodies):
        return ProcessRuntime(
            "p0", counting_program(guards, bodies), ("p0", "p1")
        )

    @pytest.fixture
    def up(self, runtime):
        return (runtime.program.internal_action("up"),)

    @pytest.fixture
    def down(self, runtime):
        return (runtime.program.internal_action("down"),)

    def test_only_the_guards_asked_about_are_evaluated(
        self, runtime, up, down, guards
    ):
        assert runtime.enabled_internal_actions(among=up) == list(up)
        assert guards == ["up"]
        assert runtime.enabled_internal_actions(among=up) == list(up)
        assert guards == ["up"]  # same question, same valuation: the memo
        assert runtime.enabled_internal_actions(among=down) == []
        assert guards == ["up", "down"]

    def test_order_is_the_order_asked(self, runtime, guards):
        runtime.variables["x"] = 2
        both = tuple(reversed(runtime.program.actions))
        assert [a.name for a in runtime.enabled_internal_actions(among=both)] == [
            "down"
        ]
        assert guards == ["down", "up"]

    def test_a_restricted_answer_is_never_served_for_the_full_question(
        self, runtime, down, guards
    ):
        assert runtime.enabled_internal_actions(among=down) == []
        assert [a.name for a in runtime.enabled_internal_actions()] == ["up"]
        assert [s.action for s in runtime.enabled_internal_steps()] == ["up"]
        assert guards == ["down", "up", "down"]

    def test_nor_the_full_answer_for_a_restricted_question(
        self, runtime, down, guards
    ):
        assert [a.name for a in runtime.enabled_internal_actions()] == ["up"]
        assert runtime.enabled_internal_actions(among=down) == []
        assert guards == ["up", "down", "down"]

    def test_nor_for_another_restriction_even_an_equal_one(
        self, runtime, up, guards
    ):
        """The question is recognised by identity, like the values."""
        twin = (*up,)  # ``tuple(up)`` would be ``up`` itself
        assert twin == up and twin is not up
        runtime.enabled_internal_actions(among=up)
        runtime.enabled_internal_actions(among=twin)
        assert guards == ["up", "up"]

    def test_a_changed_question_reuses_the_view_of_a_standing_valuation(
        self, runtime
    ):
        seen = []
        spy = GuardedAction("spy", lambda v: seen.append(v) or True, None)
        runtime.enabled_internal_actions(among=(spy,))
        runtime.enabled_internal_actions(among=(spy,))
        assert len(seen) == 2 and seen[0] is seen[1]
        runtime.variables["x"] = 5
        runtime.enabled_internal_actions(among=(spy,))
        assert seen[2] is not seen[0] and seen[2].x == 5

    def test_a_listed_action_runs_its_body_and_no_further_guard(
        self, runtime, up, guards, bodies
    ):
        (action,) = runtime.enabled_internal_actions(among=up)
        runtime.execute_internal(action)
        assert (guards, bodies) == (["up"], ["up"])
        assert runtime.variables["x"] == 1

    def test_an_action_outside_the_question_is_asked_when_executed(
        self, runtime, up, down, guards, bodies
    ):
        runtime.enabled_internal_actions(among=down)  # nothing enabled
        runtime.execute_internal(up[0])  # enabled, but the memo cannot know
        assert (guards, bodies) == (["down", "up"], ["up"])
        runtime.enabled_internal_actions(among=up)
        with pytest.raises(RuntimeError, match="while disabled"):
            runtime.execute_internal(down[0])
        assert bodies == ["up"] and runtime.variables["x"] == 1

    def test_an_outside_write_voids_a_restricted_answer_too(
        self, runtime, up, guards, bodies
    ):
        (action,) = runtime.enabled_internal_actions(among=up)
        runtime.variables["x"] = 2
        assert runtime.enabled_internal_actions(among=up) == []
        with pytest.raises(RuntimeError, match="while disabled"):
            runtime.execute_internal(action)
        assert bodies == []

    def test_a_fork_inherits_the_question_with_the_answer(
        self, runtime, up, guards
    ):
        runtime.enabled_internal_actions(among=up)
        child = runtime.fork()
        assert child.enabled_internal_actions(among=up) == list(up)
        assert guards == ["up"]
        assert [a.name for a in child.enabled_internal_actions()] == ["up"]
        assert guards == ["up", "up", "down"]


def reference_candidates(sim):
    """``candidate_steps`` spelled out through the public surface."""
    steps = [
        chan.deliver_step
        for chan in sim.network.deliverable_channels()
        if sim.processes[chan.dst].is_live
    ]
    for proc in sim.processes.values():
        if proc.is_live:
            steps.extend(proc.enabled_internal_steps())
    return steps


def test_candidates_with_a_crashed_process_and_a_cut_link():
    spec = CampaignSpec("ra", n=4, root_seed=5, fault_start=0, fault_stop=0)
    sim = build_trial_simulator(
        spec, RandomScheduler(spawn_rng(5, 0, SCHEDULER_STREAM)), None
    )
    for _ in range(40):
        sim.step()
    assert sim.network.in_flight() > 0
    sim.crash_process("p1", restart_at=sim.step_index + 5)
    sim.network.cut_link("p0", "p2", heal_at=sim.step_index + 8)
    sim.network.cut_link("p3", "p0")
    restarts = heals = 0
    for _ in range(30):
        candidates = sim.candidate_steps()
        assert candidates == reference_candidates(sim)
        assert candidates == oracle_candidates(sim)
        crashed = not sim.processes["p1"].is_live
        assert crashed != any(
            "p1" in (getattr(s, "pid", None), getattr(s, "dst", None))
            for s in candidates
        )
        assert DeliverStep("p3", "p0") not in candidates
        record = sim.step()
        restarts += "restart:p1" in record.faults
        heals += "heal:p0->p2" in record.faults
    assert (restarts, heals) == (1, 1)
    assert sim.processes["p1"].is_live and sim.network.link_up("p0", "p2")
