"""Unit + behavioural tests for the graybox wrapper W / W'."""

import pytest

from repro.clocks import Timestamp, bottom
from repro.tme import (
    ClientConfig,
    LspecView,
    WrapperConfig,
    build_simulation,
    correction_sends,
    correction_set,
    deadlock_overrides,
    explicit_adapter,
    ra_programs,
    should_correct,
    wrap_program,
    wrap_system,
    wrapper_program,
)
from repro.analysis import cs_entries, wrapper_sends


def lspec(phase="h", req=Timestamp(5, "p0"), copies=None):
    copies = copies if copies is not None else {"p1": Timestamp(0, "p1")}
    return LspecView(
        phase=phase,
        lc=5,
        req=req,
        req_of=copies,
        received={k: False for k in copies},
    )


class TestDecisionCore:
    def test_correction_set_is_X(self):
        view = lspec(
            copies={
                "p1": Timestamp(0, "p1"),   # stale: lt REQ -> suspect
                "p2": Timestamp(9, "p2"),   # later: fine
            }
        )
        assert correction_set(view) == ["p1"]

    def test_bottom_is_always_suspect(self):
        view = lspec(req=Timestamp(0, "p0"), copies={"p1": bottom("p1")})
        assert correction_set(view) == ["p1"]

    def test_should_correct_only_when_hungry(self):
        assert should_correct(lspec(phase="h"), WrapperConfig())
        assert not should_correct(lspec(phase="t"), WrapperConfig())
        assert not should_correct(lspec(phase="e"), WrapperConfig())

    def test_refined_quiescent_when_consistent(self):
        consistent = lspec(copies={"p1": Timestamp(9, "p1")})
        assert not should_correct(consistent, WrapperConfig(refined=True))
        assert should_correct(consistent, WrapperConfig(refined=False))

    def test_correction_sends_carry_REQ(self):
        sends = correction_sends(lspec(), WrapperConfig(refined=True))
        assert [(s.kind, s.receiver) for s in sends] == [("request", "p1")]
        assert sends[0].payload == Timestamp(5, "p0")

    def test_unrefined_sends_to_all(self):
        view = lspec(
            copies={"p1": Timestamp(9, "p1"), "p2": Timestamp(9, "p2")}
        )
        sends = correction_sends(view, WrapperConfig(refined=False))
        assert {s.receiver for s in sends} == {"p1", "p2"}


class TestConfig:
    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            WrapperConfig(theta=-1)

    def test_variant_names(self):
        assert WrapperConfig().variant_name == "W"
        assert WrapperConfig(theta=3).variant_name == "W'(theta=3)"
        assert "unrefined" in WrapperConfig(refined=False).variant_name


class TestWrapperProgram:
    def make(self, theta=0):
        return wrapper_program(
            "p0", ("p0", "p1"), explicit_adapter, WrapperConfig(theta=theta)
        )

    def run_guard(self, program, variables):
        from repro.dsl import LocalView

        act = program.actions[0]
        return act.enabled(
            LocalView({**variables, "_pid": "p0", "_peers": ("p1",)})
        )

    def base_vars(self, **over):
        from repro.tme import tmap

        base = {
            "phase": "h",
            "lc": 5,
            "req": Timestamp(5, "p0"),
            "req_of": tmap({"p1": Timestamp(0, "p1")}),
            "received": tmap({"p1": False}),
            "w_timer": 0,
        }
        base.update(over)
        return base

    def test_fires_in_deadlock_state(self):
        assert self.run_guard(self.make(), self.base_vars())

    def test_timer_gates_firing(self):
        program = self.make(theta=5)
        assert not self.run_guard(program, self.base_vars(w_timer=3))
        assert self.run_guard(program, self.base_vars(w_timer=0))

    def test_corrupted_timer_treated_as_expired(self):
        """The wrapper's own variable is stabilizing: out-of-range timers
        cannot silence it."""
        program = self.make(theta=5)
        assert self.run_guard(program, self.base_vars(w_timer=10**9))
        assert self.run_guard(program, self.base_vars(w_timer=-7))
        assert self.run_guard(program, self.base_vars(w_timer="junk"))

    def test_theta_zero_has_no_tick_action(self):
        assert [a.name for a in self.make(0).actions] == ["W:correct"]
        assert [a.name for a in self.make(2).actions] == ["W:correct", "W:tick"]

    def test_wrapper_names_are_prefixed(self):
        """Wrapper actions carry the W: prefix so traces can attribute
        overhead to the wrapper."""
        assert all(a.name.startswith("W:") for a in self.make(3).actions)


class TestComposition:
    def test_wrap_program_unions_actions(self):
        programs = ra_programs(("p0", "p1"))
        wrapped = wrap_program(programs["p0"], "p0", ("p0", "p1"))
        assert set(programs["p0"].action_names()) < set(wrapped.action_names())
        assert "W:correct" in wrapped.action_names()
        assert wrapped.initial_vars["w_timer"] == 0

    def test_wrap_system_wraps_all(self):
        wrapped = wrap_system(ra_programs(("p0", "p1", "p2")))
        assert set(wrapped) == {"p0", "p1", "p2"}
        assert all("W:correct" in p.action_names() for p in wrapped.values())

    def test_wrapped_program_keeps_adapter(self):
        from repro.tme import adapter_for, lamport_programs

        wrapped = wrap_system(lamport_programs(("p0", "p1")))
        name = wrapped["p0"].name
        assert adapter_for(name) is adapter_for("Lamport_ME")


class TestOneAbstractionPerValuation:
    """Both wrapper guards and the body share the view the runtime hands
    them, so the adapter runs once per valuation, not once per reader."""

    def hungry_runtime(self):
        from repro.runtime import ProcessRuntime

        built = []

        def counting_adapter(variables, pid, peers) -> LspecView:
            built.append(pid)
            return explicit_adapter(variables, pid, peers)

        pids = ("p0", "p1")
        program = wrap_program(
            ra_programs(pids)["p0"],
            "p0",
            pids,
            WrapperConfig(theta=4),
            adapter=counting_adapter,
        )
        stale = {"phase": "h", "lc": 5, "req": Timestamp(5, "p0")}
        return ProcessRuntime("p0", program, pids, overrides=stale), built

    def test_guards_and_body_share_one_view(self):
        proc, built = self.hungry_runtime()
        enabled = {a.name: a for a in proc.enabled_internal_actions()}
        effect = proc.execute_internal(enabled["W:correct"])
        assert [s.receiver for s in effect.sends] == ["p1"]
        assert len(built) == 1

    def test_changed_valuation_is_abstracted_again(self):
        proc, built = self.hungry_runtime()
        proc.enabled_internal_actions()
        proc.enabled_internal_actions()
        assert len(built) == 1
        proc.variables["req"] = Timestamp(6, "p0")
        enabled = {a.name for a in proc.enabled_internal_actions()}
        assert "W:correct" in enabled
        assert len(built) == 2


class TestGrayboxness:
    def test_wrapper_reads_only_lspec_interface(self):
        """The wrapper's decision depends only on the LspecView -- feed the
        decision core two wildly different 'implementations' with the same
        interface view and observe identical behaviour."""
        view = lspec()
        cfg = WrapperConfig()
        assert correction_set(view) == correction_set(dict_copy(view))
        assert should_correct(view, cfg) == should_correct(dict_copy(view), cfg)

    def test_same_wrapper_object_for_both_algorithms(self):
        """Reusability, structurally: wrap_system applies the same wrapper
        construction to RA and Lamport; only the adapter differs."""
        from repro.tme import lamport_programs

        ra_wrapped = wrap_system(ra_programs(("p0", "p1")))
        lam_wrapped = wrap_system(lamport_programs(("p0", "p1")))
        ra_names = [
            a.name
            for a in ra_wrapped["p0"].actions
            if a.name.startswith("W:")
        ]
        lam_names = [
            a.name
            for a in lam_wrapped["p0"].actions
            if a.name.startswith("W:")
        ]
        assert ra_names == lam_names


def dict_copy(view: LspecView) -> LspecView:
    return LspecView(**{k: view[k] for k in LspecView.REQUIRED})


class TestBehaviour:
    @pytest.mark.parametrize("algorithm", ["ra", "lamport"])
    def test_breaks_the_deadlock(self, algorithm):
        overrides = deadlock_overrides(algorithm, ("p0", "p1"))
        sim = build_simulation(
            algorithm,
            n=2,
            seed=3,
            overrides=overrides,
            wrapper=WrapperConfig(theta=2),
        )
        trace = sim.run(800)
        assert cs_entries(trace) > 0

    @pytest.mark.parametrize("algorithm", ["ra", "lamport"])
    def test_without_wrapper_deadlock_persists(self, algorithm):
        overrides = deadlock_overrides(algorithm, ("p0", "p1"))
        sim = build_simulation(algorithm, n=2, seed=3, overrides=overrides)
        trace = sim.run(800)
        assert cs_entries(trace) == 0
        assert sim.is_quiescent

    def test_wrapper_quiescent_from_proper_init_refined(self):
        """From proper initial states, with theta large, the refined wrapper
        rarely fires: its suspect set is mostly empty mid-protocol."""
        sim_flood = build_simulation(
            "ra", n=3, seed=5, wrapper=WrapperConfig(theta=0),
            client=ClientConfig(2, 1),
        )
        flood = wrapper_sends(sim_flood.run(1500))
        sim_quiet = build_simulation(
            "ra", n=3, seed=5, wrapper=WrapperConfig(theta=16),
            client=ClientConfig(2, 1),
        )
        quiet = wrapper_sends(sim_quiet.run(1500))
        assert quiet < flood
