"""Unit tests for ProcessProgram."""

import pytest

from repro.dsl import (
    Effect,
    GuardedAction,
    LocalView,
    ProcessProgram,
    enabled_actions,
    merge_initial_vars,
)


def make_action(name, guard=lambda v: True, kind=None):
    return GuardedAction(name, guard, lambda v: Effect(), kind)


class TestConstruction:
    def test_receive_actions_need_kind(self):
        with pytest.raises(ValueError):
            ProcessProgram("p", {}, receive_actions=(make_action("r"),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ProcessProgram(
                "p", {}, actions=(make_action("a"), make_action("a"))
            )

    @pytest.mark.parametrize(
        "name", ["as_dict", "derived", "adopt", "_derived", "__class__"]
    )
    def test_variables_named_like_view_attributes_rejected(self, name):
        """A view serves variables as instance attributes, so such a name
        would shadow the view's own method (or hide behind its slot)."""
        with pytest.raises(ValueError, match=name):
            ProcessProgram("p", {"x": 0, name: 1})
        composed = ProcessProgram("p", {"x": 0})
        with pytest.raises(ValueError, match=name):
            composed.composed_with(ProcessProgram("w", {name: 1}))

    def test_initial_vars_copied(self):
        source = {"x": 1}
        program = ProcessProgram("p", source)
        source["x"] = 9
        assert program.initial_vars["x"] == 1

    def test_action_names(self):
        program = ProcessProgram(
            "p",
            {},
            actions=(make_action("a"),),
            receive_actions=(make_action("r", kind="m"),),
        )
        assert program.action_names() == ("a", "r")


class TestLookup:
    def test_receive_action_for(self):
        r = make_action("r", kind="ping")
        program = ProcessProgram("p", {}, receive_actions=(r,))
        assert program.receive_action_for("ping") is r
        assert program.receive_action_for("pong") is None

    def test_enabled_actions(self):
        hot = make_action("hot", guard=lambda v: v.x == 1)
        cold = make_action("cold", guard=lambda v: v.x == 2)
        program = ProcessProgram("p", {"x": 1}, actions=(hot, cold))
        enabled = enabled_actions(program, LocalView({"x": 1}))
        assert [a.name for a in enabled] == ["hot"]


class TestComposition:
    def test_union_of_actions(self):
        base = ProcessProgram("M", {"x": 1}, actions=(make_action("a"),))
        wrapper = ProcessProgram("W", {"w": 0}, actions=(make_action("w"),))
        composed = base.composed_with(wrapper)
        assert composed.action_names() == ("a", "w")
        assert composed.initial_vars == {"x": 1, "w": 0}

    def test_left_bias_on_variable_clash(self):
        base = ProcessProgram("M", {"x": 1})
        wrapper = ProcessProgram("W", {"x": 99})
        assert base.composed_with(wrapper).initial_vars == {"x": 1}

    def test_composed_name(self):
        base = ProcessProgram("M", {})
        wrapper = ProcessProgram("W", {})
        assert base.composed_with(wrapper).name == "(M [] W)"
        assert base.composed_with(wrapper, name="Z").name == "Z"

    def test_receive_actions_merged(self):
        base = ProcessProgram(
            "M", {}, receive_actions=(make_action("r1", kind="a"),)
        )
        wrapper = ProcessProgram(
            "W", {}, receive_actions=(make_action("r2", kind="b"),)
        )
        composed = base.composed_with(wrapper)
        assert composed.receive_action_for("a").name == "r1"
        assert composed.receive_action_for("b").name == "r2"


def test_merge_initial_vars():
    p1 = ProcessProgram("1", {"x": 1})
    p2 = ProcessProgram("2", {"x": 2, "y": 3})
    assert merge_initial_vars([p1, p2]) == {"x": 2, "y": 3}


class TestDeclaredVariables:
    """variables() and the undeclared-write validation (lint-backed)."""

    def test_variables_accessor(self):
        program = ProcessProgram("p", {"x": 1, "y": 2})
        assert program.variables() == {"x", "y"}

    def test_validate_writes_accepts_declared(self):
        def body(view):
            return Effect({"x": view.x + 1})

        program = ProcessProgram(
            "p", {"x": 0}, actions=(GuardedAction("a", lambda v: True, body),)
        )
        program.validate_writes()  # does not raise

    def test_validate_writes_rejects_undeclared(self):
        def body(view):
            return Effect({"ghost": 1})

        program = ProcessProgram(
            "p", {"x": 0}, actions=(GuardedAction("a", lambda v: True, body),)
        )
        with pytest.raises(ValueError, match="ghost.*initial_vars"):
            program.validate_writes()

    def test_validate_writes_skips_unbounded(self):
        from functools import partial

        def body(view, _extra):
            return Effect({"anything": 1})

        program = ProcessProgram(
            "p",
            {"x": 0},
            actions=(
                GuardedAction("a", lambda v: True, partial(body, _extra=1)),
            ),
        )
        program.validate_writes()  # unknown write sets are the lint's domain
