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
