"""The instrumented cross-check: observed access sets vs. static claims."""

import random

import pytest

from repro.dsl.guards import Effect, GuardedAction, LocalView
from repro.dsl.program import ProcessProgram
from repro.lint.dynamic import (
    STAR,
    RecordingView,
    cross_check,
    instrument_program,
)
from repro.lint.inference import Engine


@pytest.fixture(scope="module")
def engine():
    return Engine()


class TestRecordingView:
    def test_records_attribute_item_contains(self):
        reads: set[str] = set()
        view = RecordingView({"x": 1, "a.b": 2}, reads)
        assert view.x == 1
        assert view["a.b"] == 2
        assert "x" in view
        assert "missing" not in view
        assert reads == {"x", "a.b", "missing"}

    def test_records_star_for_as_dict(self):
        reads: set[str] = set()
        view = RecordingView({"x": 1}, reads)
        assert view.as_dict() == {"x": 1}
        assert STAR in reads

    def test_records_missing_attribute_reads(self):
        reads: set[str] = set()
        view = RecordingView({"x": 1}, reads)
        assert getattr(view, "absent", None) is None
        assert reads == {"absent"}

    def test_the_views_own_attributes_are_not_reads(self):
        reads: set[str] = set()
        view = RecordingView({"x": 1}, reads)
        assert view.derived(lambda v: 7) == 7
        assert repr(view) == "LocalView({'x': 1})"
        assert reads == set()

    def test_still_read_only(self):
        view = RecordingView({"x": 1}, set())
        with pytest.raises(AttributeError):
            view.x = 2

    def test_is_a_local_view(self):
        assert isinstance(RecordingView({}, set()), LocalView)


class TestInstrumentProgram:
    def make_program(self):
        def body(view):
            return Effect({"x": view.x + 1})

        return ProcessProgram(
            "P",
            {"x": 0},
            actions=(
                GuardedAction("p:inc", lambda v: v.x < 5, body),
            ),
        )

    def test_behaviour_is_unchanged(self):
        observations = {}
        program = self.make_program()
        instrumented = instrument_program(program, observations)
        act = instrumented.actions[0]
        view = LocalView({"x": 2})
        assert act.enabled(view)
        assert act.execute(view).updates == {"x": 3}
        assert not act.enabled(LocalView({"x": 5}))

    def test_observations_accumulate(self):
        observations = {}
        instrumented = instrument_program(self.make_program(), observations)
        act = instrumented.actions[0]
        act.execute(LocalView({"x": 0}))
        act.enabled(LocalView({"x": 5}))
        obs = observations["p:inc"]
        assert obs.reads == {"x"}
        assert obs.writes == {"x"}
        assert obs.body_runs == 1
        assert obs.guard_evals >= 2  # execute re-checks the guard

    def test_shared_dict_merges_across_instances(self):
        observations = {}
        instrument_program(self.make_program(), observations)
        instrument_program(self.make_program(), observations)
        assert list(observations) == ["p:inc"]


class TestCrossCheck:
    @pytest.mark.parametrize(
        "algorithm", ["ra", "ra-count", "lamport", "token"]
    )
    def test_observed_contained_in_static(self, engine, algorithm):
        result = cross_check(
            algorithm, n=3, steps=250, seed=0, theta=3, engine=engine
        )
        assert result["contained"], result["violations"]
        assert result["actions_observed"] > 0
        assert result["reads_observed"] > 0 and not result["blind"]
        # the run must actually exercise bodies, not just guards
        assert any(a["body_runs"] > 0 for a in result["actions"])

    def test_wrapper_actions_are_exercised(self, engine):
        result = cross_check(
            "ra", n=3, steps=300, seed=0, theta=3, engine=engine
        )
        by_name = {a["action"]: a for a in result["actions"]}
        assert by_name["W:correct"]["guard_evals"] > 0
        # the boundary crossing shows up as a '*' read, and is licensed
        assert STAR in by_name["W:correct"]["observed_reads"]
        assert STAR not in by_name["W:correct"]["extra_reads"]

    def test_detects_a_lying_static_claim(self, monkeypatch):
        """Force the static side to claim empty access sets; the observed
        runtime accesses must then surface as containment violations."""
        import repro.lint.dynamic as dynamic

        def empty_claims(programs, engine):
            return {
                act.name: dynamic._StaticSets()
                for program in programs.values()
                for act in program.actions + program.receive_actions
            }

        monkeypatch.setattr(dynamic, "_static_sets_for", empty_claims)
        result = cross_check("ra", n=3, steps=100, seed=0)
        assert not result["contained"]
        assert result["violations"]

    def test_a_blind_recorder_fails_the_strict_check(self, monkeypatch, engine):
        """``observed ⊆ inferred`` is true of a recorder that sees nothing,
        which is what a view serving reads past the hook amounts to."""
        import repro.lint.dynamic as dynamic
        from repro.lint import run_lint

        monkeypatch.setattr(
            dynamic, "RecordingView", lambda variables, _reads: LocalView(variables)
        )
        result = cross_check("ra", n=3, steps=100, seed=0, engine=engine)
        assert result["contained"] and result["reads_observed"] == 0
        assert {"W:correct", "W:tick"} <= set(result["blind"])
        report = run_lint(("tme",), dynamic=True, steps=60, engine=engine)
        blind = [f for f in report.findings if f.rule == "DYN-BLIND"]
        assert {f.action for f in blind} >= {"W:correct", "W:tick"}
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1
        assert "0 distinct reads" in report.render_text()

    def test_result_shape_for_reports(self, engine):
        result = cross_check("ra", n=3, steps=50, seed=1, engine=engine)
        for key in ("program", "steps", "actions_observed", "contained"):
            assert key in result
        import json

        json.dumps(result)  # must be artifact-serializable
