"""Unit tests for the guarded-command DSL primitives."""

import pytest

from repro.dsl import (
    Effect,
    GuardedAction,
    LocalView,
    Send,
    action,
    always_enabled,
    sends_to_all,
)
from repro.dsl.guards import shadowed_view_attributes


def adopted(mapping):
    return LocalView.adopt(dict(mapping))


class TestLocalView:
    def test_attribute_and_item_access(self):
        view = LocalView({"x": 1, "a.b": 2})
        assert view.x == 1
        assert view["a.b"] == 2

    def test_missing_attribute(self):
        with pytest.raises(AttributeError):
            LocalView({}).nothing

    def test_read_only(self):
        view = LocalView({"x": 1})
        with pytest.raises(AttributeError):
            view.x = 2

    def test_contains_and_as_dict(self):
        view = LocalView({"x": 1})
        assert "x" in view and "y" not in view
        assert view.as_dict() == {"x": 1}

    def test_as_dict_is_copy(self):
        view = LocalView({"x": 1})
        d = view.as_dict()
        d["x"] = 9
        assert view.x == 1


@pytest.mark.parametrize("make", [LocalView, adopted])
class TestViewConstructorsAgree:
    """The copying constructor and the runtime's no-copy one."""

    def test_attribute_and_item_access_agree(self, make):
        view = make({"x": 1, "a.b": 2})
        assert view.x == view["x"] == 1
        assert view["a.b"] == 2

    def test_missing_name(self, make):
        view = make({"x": 1})
        with pytest.raises(AttributeError):
            view.nothing
        with pytest.raises(KeyError):
            view["nothing"]
        assert getattr(view, "nothing", "default") == "default"

    def test_assignment_and_deletion_raise(self, make):
        view = make({"x": 1})
        with pytest.raises(AttributeError):
            view.x = 2
        with pytest.raises(AttributeError):
            view.y = 2
        with pytest.raises(AttributeError):
            del view.x
        assert view.as_dict() == {"x": 1}

    def test_only_variables_are_contained(self, make):
        view = make({"x": 1})
        assert "x" in view and "y" not in view
        assert "as_dict" not in view and "_derived" not in view

    def test_as_dict_is_a_copy(self, make):
        view = make({"x": 1})
        d = view.as_dict()
        assert d == {"x": 1}
        d["x"] = 9
        assert view.x == 1 and view["x"] == 1

    def test_derived_is_built_once_per_view_object(self, make):
        built = []

        def build(view):
            built.append(view)
            return view.x + 1

        view, other = make({"x": 1}), make({"x": 1})
        assert view.derived(build) == view.derived(build) == 2
        assert built == [view]
        assert other.derived(build) == 2
        assert built == [view, other]
        assert "build" not in view.as_dict() and view.as_dict() == {"x": 1}

    def test_repr_shows_the_valuation(self, make):
        assert repr(make({"x": 1})) == "LocalView({'x': 1})"


class TestLocalViewStorage:
    def test_constructor_copies_and_adopt_does_not(self):
        source = {"x": 1}
        copied, adopted_view = LocalView(source), LocalView.adopt(source)
        source["x"] = 9
        assert copied.x == 1
        assert adopted_view.x == 9  # why the caller must let go of it

    def test_reads_are_plain_instance_attribute_lookups(self):
        """No ``__getattr__`` hook: a read never enters Python code."""
        assert "__getattr__" not in vars(LocalView)
        assert "__getattribute__" not in vars(LocalView)
        assert vars(LocalView({"x": 1})) == {"x": 1}

    def test_names_a_view_cannot_serve(self):
        taken = ["_derived", "adopt", "as_dict", "derived"]
        assert shadowed_view_attributes([*taken, "x", "_pid", "phase"]) == taken


class TestEffect:
    def test_defaults_empty(self):
        e = Effect()
        assert not e.updates and not e.sends

    def test_none_helper(self):
        assert Effect.none().updates == {}

    def test_merged_with_right_bias(self):
        left = Effect({"x": 1, "y": 1}, (Send("p", "k", 0),))
        right = Effect({"y": 2}, (Send("q", "k", 1),))
        merged = left.merged_with(right)
        assert merged.updates == {"x": 1, "y": 2}
        assert [s.receiver for s in merged.sends] == ["p", "q"]

    def test_sends_normalized_to_tuple(self):
        e = Effect(sends=[Send("p", "k", 1)])
        assert isinstance(e.sends, tuple)


class TestGuardedAction:
    def test_enabled_and_execute(self):
        act = action(
            "inc",
            lambda v: v.x < 2,
            lambda v: Effect({"x": v.x + 1}),
        )
        view = LocalView({"x": 1})
        assert act.enabled(view)
        assert act.execute(view).updates == {"x": 2}

    def test_execute_while_disabled_raises(self):
        act = action("never", lambda v: False, lambda v: Effect())
        with pytest.raises(RuntimeError):
            act.execute(LocalView({}))

    def test_always_enabled(self):
        assert always_enabled(LocalView({}))

    def test_repr_mentions_kind(self):
        act = GuardedAction("r", always_enabled, lambda v: Effect(), "ping")
        assert "ping" in repr(act)


class TestSendsToAll:
    def test_broadcast(self):
        sends = sends_to_all(["a", "b"], "request", lambda k: f"to-{k}")
        assert sends == (
            Send("a", "request", "to-a"),
            Send("b", "request", "to-b"),
        )

    def test_empty_peers(self):
        assert sends_to_all([], "request", lambda k: k) == ()


class TestIntrospection:
    """The accessors shared between the runtime and repro.lint."""

    def test_effect_writes(self):
        assert Effect({"x": 1, "y": 2}).writes() == {"x", "y"}
        assert Effect.none().writes() == frozenset()

    def test_action_reads_and_writes_inferred(self):
        def body(view):
            return Effect({"x": view.x + view.y})

        act = GuardedAction("t:x", lambda v: v.x > 0, body)
        assert act.reads() == {"x", "y"}
        assert act.writes() == {"x"}

    def test_unbounded_sets_are_none(self):
        from functools import partial

        def body(view, _extra):
            return Effect({"x": view.x})

        act = GuardedAction("t:opaque", always_enabled, partial(body, _extra=1))
        assert act.reads() is None
        assert act.writes() is None
